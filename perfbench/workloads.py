"""Seeded task lists for the three workloads.

A task is one ``qap`` command on one generated config file. The list a
workload seed produces is one *pass*; a run repeats whole passes.

The extremizer workloads run a fixed panel of problems that spans each
parameter range; the seed moves every parameter by up to JITTER of its
range. Nelder-Mead work differs by +-20% between unrelated problems, so
fully random problems made the time of a pass differ by ~15% from seed
to seed, three times what a steady benchmark allows. trajectory-io draws from
fixed strata instead: its 104 short tasks average the differences out.

Every task carries what the oracles need to check it: the problem
parameters as the benchmark generated them and the exit code the
program must return.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from oracles import caustic_time, s20_from_t0

WORKLOADS = {
    "classical-certify": (
        "extremize, active S10,S20, h=1e-3, hbar_tilde=0: ~95% of the time in "
        "dynamics.final_state (1000 RK4 steps per solve, ~1000 solves per task)"
    ),
    "quantum-search": (
        "extremize over all four coordinates, hbar_tilde 0.2-0.6, penalty > 0, "
        "h=1e-2: cheap solves, so Nelder-Mead/merit Python and endpoint_report weigh more"
    ),
    "trajectory-io": (
        "integrate/eigenvalue/scan-t0/sweep-hbar/convergence with rk4 and "
        "rk4_adaptive, caustics included: stored trajectories and CSV output"
    ),
}

CLASSICAL_TASKS = 5
QUANTUM_TASKS = 8

#: how far, as a share of a parameter's range, the seed moves a panel problem
JITTER = 0.03


@dataclass
class Task:
    """One command on one config; ``params`` feed the oracles."""

    tid: str
    command: str
    config: str
    method: str | None = None
    expect_exit: int = 0
    kind: str = ""
    params: dict = field(default_factory=dict)

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        argv = [self.command, "--config", config_path, "--out", out_dir]
        if self.method is not None:
            argv += ["--method", self.method]
        return argv


def _g(x: float) -> str:
    return repr(float(x))


def _ini(sections: dict) -> str:
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in entries.items()]
        lines.append("")
    return "\n".join(lines)


class _Panel:
    """Draws for panel problem ``i``: a base value that depends only on the
    workload and ``i``, moved by the seed within +-JITTER of the range."""

    def __init__(self, workload: str, i: int, seed: int):
        self.base = random.Random(f"{workload}-panel:{i}")
        self.seed = random.Random(f"{workload}:{seed}:{i}")

    def __call__(self, lo: float, hi: float) -> float:
        value = self.base.uniform(lo, hi) + JITTER * (hi - lo) * (2.0 * self.seed.random() - 1.0)
        return min(hi, max(lo, value))


def _spec(p: dict) -> dict:
    return {k: _g(p[k]) for k in ("m", "k", "hbar_tilde", "T", "x0", "xT")}


def classical_certify(seed: int) -> list[Task]:
    """Classical-limit extremizations checked against the two-point action.

    T = 1 and h = 1e-3 fix 1000 RK4 steps per solve. omega*T is drawn
    from [0.6, 2.0], away from resonance, and the guess t0 from
    [0.35, 0.65] T keeps the starting flow clear of a caustic.
    """
    tasks = []
    for i in range(CLASSICAL_TASKS):
        r = _Panel("classical-certify", i, seed)
        m = r(0.5, 2.0)
        w = 0.6 + 1.4 * (i + r(0.0, 1.0)) / CLASSICAL_TASKS
        p = dict(m=m, k=m * w * w, hbar_tilde=0.0, T=1.0, x0=r(-1.0, 1.0), xT=r(-1.0, 1.0))
        t0 = r(0.35, 0.65)
        s10 = r(-1.0, 1.0)
        config = _ini({
            "spec": _spec(p),
            "init": {"S10": _g(s10), "t0": _g(t0)},
            "grid": {"h": "1e-3", "method": "rk4"},
            "optimize": {"active": "S10,S20", "grad_tol": "1e-6", "max_iter": "2000",
                         "restarts": "5", "seed": str(seed * 100 + i)},
        })
        tasks.append(Task(f"c{i:02d}", "extremize", config, kind="certify", params=p))
    return tasks


def quantum_search(seed: int) -> list[Task]:
    """Four-coordinate quantum extremizations with a constraint penalty.

    hbar_tilde is stratified over [0.2, 0.6]; the guess has a live
    amplitude (sigma20 > 0). The step 1e-2 makes each solve 100 RK4
    steps.
    """
    tasks = []
    for i in range(QUANTUM_TASKS):
        r = _Panel("quantum-search", i, seed)
        m = r(0.8, 1.25)
        hb = 0.2 + 0.4 * (i + r(0.0, 1.0)) / QUANTUM_TASKS
        p = dict(m=m, k=m * r(0.8, 1.25), hbar_tilde=hb, T=1.0, x0=r(0.05, 0.3), xT=r(0.85, 1.0))
        p["penalty_weight"] = (0.25, 0.5)[i % 2]
        init = {"S10": _g(r(0.3, 0.8)), "S20": _g(r(0.1, 0.4)),
                "sigma10": _g(r(0.0, 0.2)), "sigma20": _g(r(0.3, 0.6))}
        config = _ini({
            "spec": _spec(p),
            "init": init,
            "grid": {"h": "1e-2", "method": "rk4"},
            "optimize": {"active": "S10,S20,sigma10,sigma20", "grad_tol": "1e-6",
                         "max_iter": "2000", "penalty_weight": _g(p["penalty_weight"]),
                         "restarts": "5", "seed": str(seed * 100 + i)},
        })
        tasks.append(Task(f"q{i:02d}", "extremize", config, kind="search", params=p))
    return tasks


# trajectory-io: (command, kind, count per method) for one pass
_TRAJECTORY_MIX = (
    ("integrate", "classical", 8),
    ("integrate", "quantum", 4),
    ("integrate", "caustic", 4),
    ("eigenvalue", "classical", 6),
    ("eigenvalue", "quantum", 4),
    ("eigenvalue", "caustic", 2),
    ("scan-t0", "classical", 8),
    ("sweep-hbar", "quantum", 8),
    ("convergence", "quantum", 8),
)


def _classical_problem(r: random.Random, u: float) -> tuple[dict, float, float]:
    """Caustic-free classical problem on [0, 1]: omega in [0.6, 1.4], t0 in [0, 0.5]."""
    m = r.uniform(0.5, 2.0)
    w = 0.6 + 0.8 * u
    p = dict(m=m, k=m * w * w, hbar_tilde=0.0, T=1.0,
             x0=r.uniform(-1.0, 1.0), xT=r.uniform(-1.0, 1.0))
    return p, r.uniform(-1.0, 1.0), r.uniform(0.0, 0.5)


def _trajectory_task(r, tid, command, kind, method, u) -> Task:
    if kind == "classical":
        p, s10, t0 = _classical_problem(r, u)
        p.update(S10=s10, t0=t0)
        init = {"S10": _g(s10), "t0": _g(t0)}
        sweep = {}
        if command == "scan-t0":
            # stay inside the caustic-free window of every grid point
            sweep = {"t0_grid": f"{_g(0.05 + 0.1 * r.random())}:{_g(0.4 + 0.1 * r.random())}:9"}
            init = {}
    elif kind == "quantum":
        m = r.uniform(0.5, 2.0)
        p = dict(m=m, k=m * (0.6 + 0.8 * u) ** 2, hbar_tilde=r.uniform(0.1, 0.5), T=1.0,
                 x0=r.uniform(-1.0, 1.0), xT=r.uniform(-1.0, 1.0))
        # S20 >= 0 keeps the hbar_tilde = 0 flow that sweep-hbar starts from
        # clear of a caustic: its pole is then past pi/(2 omega) > T
        p.update(S10=r.uniform(-1.0, 1.0), S20=r.uniform(0.0, 0.3),
                 sigma10=r.uniform(-0.3, 0.3), sigma20=r.uniform(0.2, 1.0))
        init = {key: _g(p[key]) for key in ("S10", "S20", "sigma10", "sigma20")}
        sweep = {}
        if command == "sweep-hbar":
            base = 0.02 + 0.02 * r.random()
            sweep = {"hbar_grid": ",".join(_g(base * 2.0**j) for j in range(4))}
    else:  # caustic: S2's pole at t_c in [0.3, 0.85] inside T = 1
        m = r.uniform(0.5, 2.0)
        w = 0.6 + 0.8 * u
        p = dict(m=m, k=m * w * w, hbar_tilde=0.0, T=1.0,
                 x0=r.uniform(-1.0, 1.0), xT=r.uniform(-1.0, 1.0))
        t_c = r.uniform(0.3, 0.85)
        t0 = t_c - math.pi / (2.0 * w)
        p.update(S10=r.uniform(-1.0, 1.0), t0=t0)
        p["t_caustic"] = caustic_time(p["m"], p["k"], s20_from_t0(t0, p["m"], p["k"]))
        init = {"S10": _g(p["S10"]), "t0": _g(t0)}
        sweep = {}
    grid = {"h": "1e-3"}
    if command == "convergence":
        # the probe's classical half (S10 = 1, S20 = 0) reads a clean fourth
        # order only near k = m and t_probe <= 0.48; elsewhere its estimate
        # strays outside the program's own [3.7, 4.3] gate
        p["k"] = p["m"]
        p.update(S10=1.0, S20=0.0, sigma10=r.uniform(0.2, 0.4), sigma20=r.uniform(0.5, 0.9),
                 hbar_tilde=r.uniform(0.3, 0.6))
        init = {key: _g(p[key]) for key in ("S10", "S20", "sigma10", "sigma20")}
        grid["t_probe"] = _g(r.uniform(0.4, 0.48))
    sections = {"spec": _spec(p), "grid": grid}
    if init:
        sections["init"] = init
    if sweep:
        sections["sweep"] = sweep
    expect = 3 if kind == "caustic" else 0
    return Task(tid, command, _ini(sections), method=method, expect_exit=expect,
                kind=kind, params=p)


def trajectory_io(seed: int) -> list[Task]:
    """104 non-extremizer tasks: five commands, two methods, caustics included."""
    r = random.Random(f"trajectory-io:{seed}")
    tasks = []
    for command, kind, count in _TRAJECTORY_MIX:
        for method in ("rk4", "rk4_adaptive"):
            for i in range(count):
                tid = f"{command}-{kind}-{method}-{i:02d}"
                tasks.append(_trajectory_task(r, tid, command, kind, method, (i + r.random()) / count))
    return tasks


GENERATORS = {
    "classical-certify": classical_certify,
    "quantum-search": quantum_search,
    "trajectory-io": trajectory_io,
}
