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


def run_task(task, read):
    """Run ``task`` through ``qap.cli.main`` in a temporary directory and
    return ``read(exit code, standard output, output directory)``."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out_dir = Path(tmp) / "task.ini", Path(tmp) / "out"
        config.write_text(task.config)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qap.cli.main(task.argv(str(config), str(out_dir)))
        return read(code, buf.getvalue(), out_dir)


def digest_fields(code: int, stdout: str, out_dir: Path) -> list[str]:
    fields = [f"exit={code}", "stdout=" + sha(stdout.replace(str(out_dir), "<OUT>").encode())]
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        data = path.read_bytes()
        if path.name == "sweep_hbar_summary.json":
            data = TIMESTAMP.sub(b"", data)
        fields.append(f"{path.name}={sha(data)}")
    return fields


def main(argv: list[str], read=digest_fields, keep=lambda task: True) -> int:
    """For each seed in ``argv``, one line per task that ``keep`` takes:
    its workload, seed, task id and method, then the fields ``read``
    makes of its run (see ``run_task``)."""
    if not argv:
        print(f"usage: python3 {sys.argv[0]} SEED...", file=sys.stderr)
        return 2
    for seed in map(int, argv):
        for workload, generate in GENERATORS.items():
            for task in filter(keep, generate(seed)):
                fields = [workload, str(seed), task.tid, task.method or "-"]
                print(" ".join(fields + run_task(task, read)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
