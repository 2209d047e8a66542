"""The workload process: one interpreter, one client, tasks one after another.

    python3 perfbench/child.py PLAN.json

PLAN.json (written by run.py) lists the tasks of one pass: argv for
``qap.cli.main`` and an output directory each. The process imports
``qap.cli`` and parses every config (that is set-up), then runs whole
passes, timing each ``main`` call, until the next pass would end after
``seconds``; always at least one pass. With ``trace`` set it then runs
one more pass with every layer wrapped. The outcome goes to the
plan's ``result`` path as JSON.

With ``setup_only`` set it stops after set-up: run.py starts it several
times to time a fresh interpreter.
"""

import sys
import time

_START = time.time()


def main(plan_path: str) -> int:
    import json
    import os

    with open(plan_path) as fh:
        plan = json.load(fh)
    src = os.path.join(plan["root"], "src")

    import qap
    import qap.cli
    from qap.config import load_config

    if not os.path.abspath(qap.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"qap imported from {qap.__file__}, not from {src}", file=sys.stderr)
        return 2
    for task in plan["tasks"]:
        load_config(task["config_path"])
    setup_done = time.time()
    if plan.get("setup_only"):
        with open(plan["result"], "w") as fh:
            json.dump({"ready_at": setup_done}, fh)
        return 0
    return run_passes(plan, setup_done)


def _hash_outputs(out_dir: str, stdout: str) -> dict:
    import hashlib
    import os
    import re

    digests = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "sweep_hbar_summary.json":
            # the one field the program documents as wall-clock
            data = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": null', data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def run_passes(plan: dict, setup_done: float) -> int:
    import contextlib
    import io
    import json
    import os
    import resource
    import shutil
    from time import perf_counter

    import qap.cli

    tasks = plan["tasks"]
    deadline_s = float(plan["seconds"])
    executions = []
    first_stdout = {}

    def one_pass(pass_no: int, tracer=None) -> float:
        wall = 0.0
        for task in tasks:
            out_dir = task["out_dir"]
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            buf = io.StringIO()
            if tracer is not None:
                tracer.task = task["tid"]
            with contextlib.redirect_stdout(buf):
                t0 = perf_counter()
                code = qap.cli.main(task["argv"])
                dt = perf_counter() - t0
            wall += dt
            text = buf.getvalue()
            first_stdout.setdefault(task["tid"], text)
            executions.append({"tid": task["tid"], "pass": pass_no, "traced": tracer is not None,
                               "exit": code, "seconds": dt,
                               "hashes": _hash_outputs(out_dir, text)})
        return wall

    passes = []
    started = perf_counter()
    while True:
        passes.append(one_pass(len(passes)))
        elapsed = perf_counter() - started
        if elapsed + sorted(passes)[len(passes) // 2] > deadline_s:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_done": setup_done, "started_at": _START, "pass_wall_s": passes,
              "peak_rss_mb": rss_mb, "executions": executions, "stdout": first_stdout}
    if plan.get("trace"):
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        result["wrapped"] = tracer.install()
        result["traced_wall_s"] = one_pass(len(passes), tracer)
        result["layers"] = layer_metrics(tracer.spans)
        tracer.dump(plan["trace_path"])
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
