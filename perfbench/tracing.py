"""Spans around the public functions of the qap layers, and the per-layer
metrics computed from them.

``Tracer.install`` replaces every public function of ``qap.config``,
``qap.experiments``, ``qap.extremize``, ``qap.dynamics``, ``qap.action``
and ``qap.classical`` (plus the CSV writers and scipy's ``minimize`` as
the extremizer sees it) with a wrapper, in every qap module that holds a
reference to it. A wrapper records one span: name, start, end, parent
span, task id, and a small note (exception type, or what the call
returned that a metric needs). Spans stay in memory until ``dump``.

``qap.model`` only validates O(1) inputs and is left unwrapped.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
from time import perf_counter

LAYERS = ("config", "experiments", "extremize", "dynamics", "action", "classical")

# per-layer metric -> (unit, end-to-end metric it should move, workload where it dominates)
LAYER_METRICS = {
    "dynamics.final_state.calls": ("count", "wall_s", "classical-certify >> quantum-search; absent in trajectory-io"),
    "dynamics.final_state.s": ("s", "wall_s", "classical-certify >> quantum-search; absent in trajectory-io"),
    "dynamics.final_state.steps": ("count", "wall_s", "classical-certify >> quantum-search; absent in trajectory-io"),
    "dynamics.final_state.us_per_step": ("us", "wall_s", "classical-certify, quantum-search"),
    "extremize.optimize.calls": ("count", "wall_s, task_p50_s", "both extremize workloads"),
    "extremize.optimize.s": ("s", "wall_s, task_p50_s", "both extremize workloads"),
    "extremize.optimize.self_s": ("s", "wall_s, task_p50_s", "both extremize workloads"),
    "extremize.solves_per_optimize": ("count", "wall_s, task_p50_s", "both extremize workloads"),
    "extremize.nm_iterations": ("count", "wall_s, task_p50_s", "both extremize workloads"),
    "extremize.minimize.calls": ("count", "wall_s, task_p50_s", "both extremize workloads"),
    "extremize.minimize.self_s": ("s", "wall_s", "quantum-search"),
    "action.endpoint_report.calls": ("count", "wall_s", "quantum-search"),
    "action.endpoint_report.s": ("s", "wall_s", "quantum-search"),
    "extremize.stationarity_check.s": ("s", "wall_s", "both extremize workloads"),
    "extremize.stationarity_check.solves": ("count", "wall_s", "both extremize workloads"),
    "extremize.blowups": ("count", "wall_s, failed (attempted)", "both extremize workloads"),
    "extremize.blowup_ratio": ("ratio", "wall_s, failed (attempted)", "both extremize workloads"),
    "dynamics.integrate.rk4.calls": ("count", "wall_s, task_p90_s, peak_rss_mb", "trajectory-io"),
    "dynamics.integrate.rk4.s": ("s", "wall_s, task_p90_s, peak_rss_mb", "trajectory-io"),
    "dynamics.integrate.rk4_adaptive.calls": ("count", "wall_s, task_p90_s, peak_rss_mb", "trajectory-io"),
    "dynamics.integrate.rk4_adaptive.s": ("s", "wall_s, task_p90_s, peak_rss_mb", "trajectory-io"),
    "dynamics.integrate.points": ("count", "wall_s, task_p90_s, peak_rss_mb", "trajectory-io"),
    "dynamics.SolutionGrid.to_csv.s": ("s", "wall_s, task_p90_s", "trajectory-io"),
    "dynamics.SolutionGrid.to_csv.bytes": ("bytes", "wall_s, task_p90_s", "trajectory-io"),
    "experiments.SweepTable.write_csv.s": ("s", "wall_s, task_p90_s", "trajectory-io"),
    "experiments.run_command.self_s": ("s", "wall_s, task_p90_s", "trajectory-io"),
    "dynamics.blowups": ("count", "failed (attempted)", "trajectory-io"),
    "dynamics.caustic_overshoot": ("count", "failed (attempted)", "trajectory-io"),
    "dynamics.convergence_order.s": ("s", "task_p50_s", "trajectory-io"),
    "action.eigenvalue.calls": ("count", "task_p50_s", "trajectory-io"),
    "action.eigenvalue.s": ("s", "task_p50_s", "trajectory-io"),
    "classical.calls": ("count", "task_p50_s", "trajectory-io"),
    "classical.s": ("s", "task_p50_s", "trajectory-io"),
    "config.load_config.calls": ("count", "setup_s, task_p50_s", "all; largest share in trajectory-io"),
    "config.load_config.s": ("s", "setup_s, task_p50_s", "all; largest share in trajectory-io"),
    "trace.overhead_s": ("s", "(traced wall_s - untraced wall_s)", "all"),
    "trace.spans": ("count", "(spans recorded in the traced pass)", "all"),
}

SOLVERS = ("dynamics.final_state", "dynamics.integrate")


def _safe(note, args, kwargs, exc):
    """A note on a failed call; None when the exception lacks what it reads."""
    if note is None:
        return None
    try:
        return note(args, kwargs, exc)
    except (AttributeError, TypeError):
        return None


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        # span: [parent, name, task, start, end, note]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.task = None

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [stack[-1] if stack else -1, name, self.task, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = perf_counter()
                rec[5] = (type(exc).__name__, _safe(note, args, kwargs, exc))
                raise
            finally:
                stack.pop()
            rec[4] = perf_counter()
            if note is not None:
                rec[5] = (None, note(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> int:
        """Wrap the layer functions in every loaded qap module; returns the count."""
        import qap.dynamics as dynamics
        import qap.experiments as experiments
        import qap.extremize as extremize

        modules = [m for n, m in sys.modules.items() if n == "qap" or n.startswith("qap.")]
        notes = self._notes(dynamics)
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"qap.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replaced[id(obj)] = (obj, self.wrap(name, obj, notes.get(name)))
        # scipy's minimize as the extremizer calls it (one call per restart)
        replaced[id(extremize.minimize)] = (
            extremize.minimize,
            self.wrap("extremize.minimize", extremize.minimize,
                      lambda a, k, r: getattr(r, "nit", 0)),
        )
        # ``replaced`` holds each original, so an id cannot be reused meanwhile
        for namespace in [vars(m) for m in modules] + [experiments.COMMANDS]:
            for key, obj in list(namespace.items()):
                if id(obj) in replaced:
                    namespace[key] = replaced[id(obj)][1]
        writers = ((dynamics.SolutionGrid, "dynamics", "to_csv"),
                   (experiments.SweepTable, "experiments", "write_csv"))
        for cls, layer, method in writers:
            name = f"{layer}.{cls.__name__}.{method}"
            setattr(cls, method, self.wrap(name, getattr(cls, method), notes.get(name)))
        return len(replaced) + len(writers)

    @staticmethod
    def _notes(dynamics):
        default_step = inspect.signature(dynamics.final_state).parameters["step"].default
        default_method = inspect.signature(dynamics.integrate).parameters["method"].default

        def final_state(args, kwargs, result):
            spec = _arg(args, kwargs, 0, "spec", None)
            step = _arg(args, kwargs, 2, "step", default_step)
            t_last = getattr(result, "t_last", None)
            return (spec.T, step, t_last)

        def integrate(args, kwargs, result):
            method = _arg(args, kwargs, 3, "method", default_method)
            grid = getattr(result, "partial", result)
            return (method, len(grid) if grid is not None else 0)

        def to_csv(args, kwargs, result):
            path = _arg(args, kwargs, 1, "path", None)
            try:
                return os.path.getsize(path)
            except (OSError, TypeError):
                return 0

        return {
            "dynamics.final_state": final_state,
            "dynamics.integrate": integrate,
            "dynamics.SolutionGrid.to_csv": to_csv,
        }

    def dump(self, path) -> None:
        """Write the spans as CSV: id, parent, name, task, start, end, error."""
        with open(path, "w", newline="\n") as out:
            out.write("id,parent,name,task,start_s,end_s,error\n")
            for i, (parent, name, task, t0, t1, note) in enumerate(self.spans):
                err = note[0] if note and note[0] else ""
                out.write(f"{i},{parent},{name},{task},{t0!r},{t1!r},{err}\n")


def n_steps(T: float, step: float) -> int:
    """Fixed-step count the program takes to reach T (last step shortened)."""
    n = math.ceil(T / step)
    if n > 1 and (n - 1) * step >= T:
        n -= 1
    return n


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Aggregate one traced pass into the per-layer metric values."""
    n = len(spans)
    child_time = [0.0] * n
    for parent, _name, _task, t0, t1, _note in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0

    def ancestor(i, name):
        p = spans[i][0]
        while p >= 0:
            if spans[p][1] == name:
                return True
            p = spans[p][0]
        return False

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, (parent, name, _task, t0, t1, _note) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child_time[i])

    m: dict[str, float] = {}
    steps = 0
    integ = {"rk4": [0, 0.0], "rk4_adaptive": [0, 0.0]}
    points = 0
    csv_bytes = 0
    blowups = 0
    opt_solves = opt_blowups = check_solves = 0
    nit = 0
    classical_calls = 0
    classical_s = 0.0
    for i, (parent, name, _task, t0, t1, note) in enumerate(spans):
        error, info = note if note else (None, None)
        if name in SOLVERS:
            if error == "BlowUpError":
                blowups += 1
            if ancestor(i, "extremize.optimize"):
                opt_solves += 1
                opt_blowups += error == "BlowUpError"
            if ancestor(i, "extremize.stationarity_check"):
                check_solves += 1
        if name == "dynamics.final_state" and info is not None:
            T, step, t_last = info
            # a blown-up solve took the steps up to t_last plus the failing one
            steps += n_steps(T, step) if t_last is None else n_steps(t_last, step) + 1
        elif name == "dynamics.integrate" and info is not None:
            method, length = info
            integ[method][0] += 1
            integ[method][1] += t1 - t0
            points += length
        elif name == "dynamics.SolutionGrid.to_csv" and info is not None:
            csv_bytes += info
        elif name == "extremize.minimize" and info is not None:
            nit += info
        elif name.startswith("classical.") and not (
            parent >= 0 and spans[parent][1].startswith("classical.")
        ):
            classical_calls += 1
            classical_s += t1 - t0

    fs_s = total.get("dynamics.final_state", 0.0)
    optimizes = calls.get("extremize.optimize", 0)
    m["dynamics.final_state.calls"] = calls.get("dynamics.final_state", 0)
    m["dynamics.final_state.s"] = fs_s
    m["dynamics.final_state.steps"] = steps
    m["dynamics.final_state.us_per_step"] = 1e6 * fs_s / steps if steps else 0.0
    m["extremize.optimize.calls"] = optimizes
    m["extremize.optimize.s"] = total.get("extremize.optimize", 0.0)
    m["extremize.optimize.self_s"] = self_s.get("extremize.optimize", 0.0)
    m["extremize.solves_per_optimize"] = opt_solves / optimizes if optimizes else 0.0
    m["extremize.nm_iterations"] = nit
    m["extremize.minimize.calls"] = calls.get("extremize.minimize", 0)
    m["extremize.minimize.self_s"] = self_s.get("extremize.minimize", 0.0)
    m["action.endpoint_report.calls"] = calls.get("action.endpoint_report", 0)
    m["action.endpoint_report.s"] = total.get("action.endpoint_report", 0.0)
    m["extremize.stationarity_check.s"] = total.get("extremize.stationarity_check", 0.0)
    m["extremize.stationarity_check.solves"] = check_solves
    m["extremize.blowups"] = opt_blowups
    m["extremize.blowup_ratio"] = opt_blowups / opt_solves if opt_solves else 0.0
    for method, (count, secs) in integ.items():
        m[f"dynamics.integrate.{method}.calls"] = count
        m[f"dynamics.integrate.{method}.s"] = secs
    m["dynamics.integrate.points"] = points
    m["dynamics.SolutionGrid.to_csv.s"] = total.get("dynamics.SolutionGrid.to_csv", 0.0)
    m["dynamics.SolutionGrid.to_csv.bytes"] = csv_bytes
    m["experiments.SweepTable.write_csv.s"] = total.get("experiments.SweepTable.write_csv", 0.0)
    m["experiments.run_command.self_s"] = self_s.get("experiments.run_command", 0.0)
    m["dynamics.blowups"] = blowups
    m["dynamics.convergence_order.s"] = total.get("dynamics.convergence_order", 0.0)
    m["action.eigenvalue.calls"] = calls.get("action.eigenvalue", 0)
    m["action.eigenvalue.s"] = total.get("action.eigenvalue", 0.0)
    m["classical.calls"] = classical_calls
    m["classical.s"] = classical_s
    m["config.load_config.calls"] = calls.get("config.load_config", 0)
    m["config.load_config.s"] = total.get("config.load_config", 0.0)
    m["trace.spans"] = n
    return m
