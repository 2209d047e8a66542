#!/usr/bin/env python3
"""The extremizer's answers on the benchmark tasks, one line per task.

    python3 scripts/answers.py SEED...

For each seed, runs every ``extremize`` task of the benchmark workloads
(``classical-certify`` and ``quantum-search``) as
``scripts/output_digests.py`` does, and prints its workload, seed, task
id and method, its exit code and, from its ``extremum.json``, the
``repr`` of the eigenvalue and of the returned initial data, then
``converged``, the Hessian signature, ``iterations`` and ``blowups``.
Where two checkouts' digests differ, the diff of

    diff <(python3 A/scripts/answers.py 1 2 3) <(python3 B/scripts/answers.py 1 2 3)

names the field that changed; ``gradient_norm`` is left out.
"""

import json
import re
import sys
from pathlib import Path

from output_digests import main

# extremum.json writes a non-finite float as Python formats it; JSON spells it so
NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
NON_FINITE_VALUE = re.compile(r"(?<=: )-?(inf|nan)\b")


def answer_fields(code: int, stdout: str, out_dir: Path) -> list[str]:
    path = out_dir / "extremum.json"
    if not path.is_file():
        return [f"exit={code}", "no extremum.json"]
    text = NON_FINITE_VALUE.sub(lambda m: NON_FINITE[m.group()], path.read_text())
    # 17 significant digits read back exactly; a float written as "0" or "-0" too
    result = json.loads(text, parse_int=float)
    signature = result["hessian_signature"]
    return [f"exit={code}",
            f"lambda={result['report']['lambda']!r}",
            "init=" + repr(tuple(result["init"].values())),
            f"converged={result['converged']}",
            "signature=" + ("None" if signature is None else
                            ",".join(f"{k}:{int(v)}" for k, v in signature.items())),
            f"iterations={int(result['iterations'])}",
            f"blowups={int(result['blowups'])}"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], answer_fields, lambda task: task.command == "extremize"))
