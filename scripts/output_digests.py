#!/usr/bin/env python3
"""Digests of what every benchmark task writes, one line per task.

    python3 scripts/output_digests.py SEED...

For each seed, runs every task of the three benchmark workloads
(``classical-certify``, ``quantum-search``, ``trajectory-io``, as
``perfbench/workloads.py`` generates them) through ``qap.cli.main`` in
this interpreter, with qap imported from this checkout's ``src/``. Each
line holds the task's workload, seed, task id and method, its exit code,
the sha256 of its standard output with the output directory replaced by
``<OUT>``, and the sha256 of each output file by name; the ``timestamp``
of ``sweep_hbar_summary.json``, the one wall-clock field, is dropped
first. Two checkouts write the same bytes on these tasks when

    diff <(python3 A/scripts/output_digests.py 1 2 3 4 5) \\
         <(python3 B/scripts/output_digests.py 1 2 3 4 5)

prints nothing.
"""

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
os.environ["QAP_LOG"] = "error"

import qap.cli  # noqa: E402
from workloads import GENERATORS  # noqa: E402

TIMESTAMP = re.compile(rb', "timestamp": "[^"]*"')


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_line(workload: str, seed: int, task) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        config, out_dir = Path(tmp) / "task.ini", Path(tmp) / "out"
        config.write_text(task.config)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qap.cli.main(task.argv(str(config), str(out_dir)))
        fields = [workload, str(seed), task.tid, task.method or "-", f"exit={code}",
                  "stdout=" + sha(buf.getvalue().replace(str(out_dir), "<OUT>").encode())]
        for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
            data = path.read_bytes()
            if path.name == "sweep_hbar_summary.json":
                data = TIMESTAMP.sub(b"", data)
            fields.append(f"{path.name}={sha(data)}")
    return " ".join(fields)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for seed in map(int, argv):
        for workload, generate in GENERATORS.items():
            for task in generate(seed):
                print(digest_line(workload, seed, task), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
