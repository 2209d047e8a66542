#!/usr/bin/env python3
"""Compare two outputs of ``scripts/answers.py``, task by task.

    python3 scripts/answers.py 1 2 3 > A.txt   # in one checkout
    python3 scripts/answers.py 1 2 3 > B.txt   # in the other
    python3 scripts/compare_answers.py A.txt B.txt

Prints, per workload, the number of tasks both files hold and the largest
|delta lambda| and |delta init| (over the four coordinates) between them,
then one line per task whose exit code, ``converged`` or Hessian
signature changed, and the tasks only one file holds. Exits 1 when any
task is listed, else 0.
"""

import re
import sys

FIELD = re.compile(r"(\w+)=(\([^)]*\)|\S+)")
FLAGS = ("exit", "converged", "signature")


def read(path: str) -> dict:
    """The tasks of one ``answers.py`` output: {(workload, seed, task, method): fields}."""
    tasks = {}
    with open(path) as f:
        for line in f:
            words = line.split(maxsplit=4)
            if len(words) == 5:
                tasks[tuple(words[:4])] = dict(FIELD.findall(words[4]))
    return tasks


def delta(a: dict, b: dict, name: str) -> float:
    """Largest |a - b| over the values of field ``name``: inf when one task
    lacks it, 0 when both do."""
    if name not in a or name not in b:
        return float("inf") if name in a or name in b else 0.0
    x, y = (map(float, f[name].strip("()").split(",")) for f in (a, b))
    return max(abs(u - v) for u, v in zip(x, y))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(f"usage: python3 {sys.argv[0]} A B", file=sys.stderr)
        return 2
    a, b = read(argv[0]), read(argv[1])
    common = [key for key in a if key in b]
    listed = 0
    for workload in dict.fromkeys(key[0] for key in common):
        keys = [key for key in common if key[0] == workload]
        lam = max(delta(a[k], b[k], "lambda") for k in keys)
        init = max(delta(a[k], b[k], "init") for k in keys)
        print(f"{workload}: {len(keys)} tasks, max |dlambda| {lam:.3g}, max |dinit| {init:.3g}")
    for key in common:
        changed = [f"{name} {a[key].get(name)} -> {b[key].get(name)}" for name in FLAGS
                   if a[key].get(name) != b[key].get(name)]
        if changed:
            listed += 1
            print(" ".join(key), "changed:", "; ".join(changed))
    for only, other, side in ((a, b, "A"), (b, a, "B")):
        for key in only:
            if key not in other:
                listed += 1
                print(" ".join(key), f"only in {side}")
    return 1 if listed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
