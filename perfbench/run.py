"""qap benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its ``src/`` directory. The benchmark writes seeded config files under
``.perfbench_work/``, times ``setup_s`` over several fresh interpreters,
then runs the workload in one more interpreter (see child.py), checks
every answer against its own oracles (checks.py) and the repeatability
of every output file, and prints the metrics. The last line of standard
output is the JSON result. With ``--trace 1`` the metrics are the
per-layer ones of tracing.py instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import GENERATORS, WORKLOADS  # noqa: E402

# fresh interpreters timed before and again after the workload, so that
# one slow phase of the host does not set the median
SETUP_PROBES = 3
# a run must end within 180 s; leave room for the oracles and reporting
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# below this many samples no percentile above the median has ten beyond it
P90_MIN_SAMPLES = 100


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["QAP_LOG"] = "error"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def inputs_digest(tasks: list[dict]) -> str:
    """Digest of the program source and the generated tasks: runs that
    share it must write the same bytes."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    for task in tasks:
        h.update(json.dumps([task["command"], task["argv"][5:],
                             Path(task["config_path"]).read_text()]).encode())
    return h.hexdigest()[:16]


def write_plan(work: Path, name: str, tasks: list[dict], **extra) -> Path:
    plan = {"root": str(ROOT), "tasks": tasks, "result": str(work / f"{name}.result.json"), **extra}
    path = work / f"{name}.plan.json"
    path.write_text(json.dumps(plan))
    return path


def run_child(plan_path: Path, timeout: float) -> None:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(plan_path)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"workload process exceeded {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise SystemExit(f"workload process exited with {code}")


def measure_setup(work: Path, tasks: list[dict]) -> list[float]:
    """Seconds from spawning a fresh interpreter to qap.cli imported and configs parsed."""
    samples = []
    plan = write_plan(work, "setup", tasks, setup_only=True)
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        run_child(plan, 60.0)
        ready = json.loads((work / "setup.result.json").read_text())["ready_at"]
        samples.append(ready - spawned)
    return samples


def check_repeatability(workload, seed, tasks, executions, store_dir: Path) -> dict[str, str]:
    """Tasks whose output bytes differ between repeats or from an earlier run."""
    bad = {}
    first = {}
    for ex in executions:
        ref = first.setdefault(ex["tid"], ex["hashes"])
        if ex["hashes"] != ref:
            bad[ex["tid"]] = "output bytes differ between repeats in this run"
    store_dir.mkdir(parents=True, exist_ok=True)
    store = store_dir / f"{workload}-s{seed}-{inputs_digest(tasks)}.json"
    if store.exists():
        earlier = json.loads(store.read_text())
        for tid, hashes in first.items():
            if tid in earlier and earlier[tid] != hashes:
                bad.setdefault(tid, "output bytes differ from an earlier run of this seed")
    else:
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(first, sort_keys=True))
        os.replace(tmp, store)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qap" / "cli.py").is_file():
        print(f"no qap source under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    from checks import CAUSTIC_SLACK, check_task
    from tracing import LAYER_METRICS

    base = ROOT / ".perfbench_work"
    work = base / "run"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    tasks = []
    for task in GENERATORS[args.workload](args.seed):
        config_path = work / "configs" / f"{task.tid}.ini"
        config_path.write_text(task.config)
        out_dir = work / "out" / task.tid
        tasks.append({"tid": task.tid, "command": task.command, "kind": task.kind,
                      "params": task.params, "expect_exit": task.expect_exit,
                      "config_path": str(config_path), "out_dir": str(out_dir),
                      "argv": task.argv(str(config_path), str(out_dir))})

    setup = [] if args.trace else measure_setup(work, tasks)
    plan = write_plan(work, "workload", tasks, seconds=args.seconds, trace=bool(args.trace),
                      trace_path=str(base / f"trace-{args.workload}.csv"))
    run_child(plan, CHILD_TIMEOUT_S)
    if not args.trace:
        setup += measure_setup(work, tasks)
    result = json.loads((work / "workload.result.json").read_text())

    # correctness: exit codes, oracles, repeatable bytes
    by_id = {t["tid"]: t for t in tasks}
    problems: dict[str, list[str]] = {}
    caustics = {}
    for tid, task in by_id.items():
        errs, extra = check_task(task, result["stdout"].get(tid, ""))
        if "caustic" in extra:
            caustics[tid] = extra["caustic"]
        if errs:
            problems[tid] = errs
    for tid, why in check_repeatability(args.workload, args.seed, tasks, result["executions"],
                                        base / "hashes").items():
        problems.setdefault(tid, []).append(why)
    executions = result["executions"]
    for ex in executions:
        if ex["exit"] != by_id[ex["tid"]]["expect_exit"]:
            problems.setdefault(ex["tid"], []).append(f"exit code {ex['exit']}")
    failed = sum(ex["tid"] in problems for ex in executions)

    overshoot = sum(t_last > t_c + CAUSTIC_SLACK for t_last, t_c in caustics.values())
    untraced = [ex["seconds"] for ex in executions if not ex["traced"]]
    passes = result["pass_wall_s"]
    wall = statistics.median(passes)
    p90 = statistics.quantiles(untraced, n=10, method="inclusive")[8]
    detail = {
        "workload": args.workload, "why": WORKLOADS[args.workload], "seed": args.seed,
        "trace": args.trace, "tasks_per_pass": len(tasks), "passes": len(passes),
        "pass_wall_s": passes, "task_samples": len(untraced),
        "task_p90_sampled": len(untraced) >= P90_MIN_SAMPLES,
        "failed_ratio": failed / len(executions), "caustic_overshoot": overshoot,
        "caustics_last_good_t_vs_exact": caustics,
        "setup_samples_s": setup,
        "child_setup_s": result["setup_done"] - result["started_at"],
        "task_seconds": {tid: [ex["seconds"] for ex in executions if ex["tid"] == tid]
                         for tid in by_id},
        "problems": problems, "env": environment(),
    }
    if args.trace:
        layers = dict(result["layers"])
        layers["dynamics.caustic_overshoot"] = overshoot
        layers["trace.overhead_s"] = result["traced_wall_s"] - wall
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _moves, _where) in LAYER_METRICS.items()}
        detail["traced_wall_s"] = result["traced_wall_s"]
        detail["wrapped_functions"] = result["wrapped"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "task_p50_s": {"value": statistics.median(untraced), "unit": "s"},
            "task_p90_s": {"value": p90, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    detail["metrics"] = metrics
    results_dir = base / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    shutil.rmtree(work / "out", ignore_errors=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(tasks)} tasks/pass, "
          f"{len(passes)} untraced pass(es), {len(executions)} executions, {failed} failed "
          f"(failed_ratio {detail['failed_ratio']:.4g})")
    for tid, errs in sorted(problems.items()):
        print(f"  FAIL {tid}: {'; '.join(errs)}")
    for name, m in metrics.items():
        note = ""
        if name == "task_p90_s":
            note = f"  (n={len(untraced)}{'' if detail['task_p90_sampled'] else ', under 100 samples'})"
        elif name in LAYER_METRICS:
            note = f"  [moves {LAYER_METRICS[name][1]}; {LAYER_METRICS[name][2]}]"
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    if not args.trace:
        print(f"  failed_ratio = {detail['failed_ratio']:.6g}")
        print(f"  caustic_overshoot = {overshoot} count")
    else:
        print(f"  untraced wall_s = {wall:.6g} s, traced wall_s = {result['traced_wall_s']:.6g} s")
    print("env: " + json.dumps(detail["env"]))
    print(json.dumps({"correct": not problems, "attempted": len(executions), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
