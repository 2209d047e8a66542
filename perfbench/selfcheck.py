"""Fast self-check of the benchmark: BENCHMARK.json's schema, the oracles,
the task generators and the span aggregation. Does not run qap.

    python3 perfbench/selfcheck.py

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles as O  # noqa: E402
from tracing import LAYER_METRICS, layer_metrics, n_steps  # noqa: E402
from workloads import GENERATORS, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
# a benchmark round makes 4 + 22 runs per workload and must end within
# ROUND_BUDGET_S; per run beyond run_seconds: six set-up probes, the
# workload's own set-up, a pass that overruns the deadline, the oracles
ROUND_BUDGET_S = 3420
RUN_OVERHEAD_S = 15


def check_schema() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(bench["command"], list) and 1 <= len(bench["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 and not a.startswith("/") and ".." not in a
               for a in bench["command"])
    assert 1 <= len(bench["paths"]) <= 16
    for p in bench["paths"]:
        assert PATH.fullmatch(p) and not p.startswith("/") and ".." not in p.split("/"), p
    assert bench["command"][1].split("/")[0] in bench["paths"]
    seconds = bench["run_seconds"]
    assert isinstance(seconds, int) and 1 <= seconds <= 60
    workloads = bench["workloads"]
    assert 2 <= len(workloads) <= 8
    assert {w["name"]: w["why"] for w in workloads} == WORKLOADS
    for w in workloads:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    runs = 4 + 22 * len(workloads)
    assert runs * (seconds + RUN_OVERHEAD_S) < ROUND_BUDGET_S, "round budget"
    e2e = bench["end_to_end"]
    assert 1 <= len(e2e) <= 16
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in e2e)
    layers = bench["per_layer"]
    assert 1 <= len(layers) <= 128
    assert {m["name"]: m["unit"] for m in layers} == {n: v[0] for n, v in LAYER_METRICS.items()}
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in workloads]
    assert len(names) == len(set(names))
    for m in e2e + layers:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
    assert len(json.dumps(bench)) <= 64 * 1024


def check_classical_oracles() -> None:
    r = random.Random(0)
    for _ in range(20):
        m = r.uniform(0.5, 2.0)
        w = r.uniform(0.6, 2.0)
        k, T = m * w * w, 1.0
        x0, xT = r.uniform(-1, 1), r.uniform(-1, 1)
        t0 = r.uniform(0.35, 0.65)
        # the eigenvalue at the stationary S10 is the same for every t0
        s10 = O.stationary_s10(m, k, T, x0, xT, t0)
        assert abs(O.classical_lambda(m, k, T, x0, xT, s10, t0)
                   - O.two_point_action(m, k, T, x0, xT)) < 1e-11
        # and S10 is stationary: the closed form is quadratic in S10
        lam = [O.classical_lambda(m, k, T, x0, xT, s10 + d, t0) for d in (-1e-3, 0.0, 1e-3)]
        assert abs(lam[2] - lam[0]) < 1e-10
        # closed forms against the reference integrator at hbar = 0
        s20 = O.s20_from_t0(t0, m, k)
        ref = O.reference_final(m, k, 0.0, T, [s10, s20, 0.0, 0.0])
        s1, s2 = O.classical_s1_s2(T, m, k, s10, t0)
        assert abs(ref[0] - s1) < 1e-9 * max(1, abs(s1)) and abs(ref[1] - s2) < 1e-9 * max(1, abs(s2))
        lam_ref, _ = O.reference_report(m, k, 0.0, T, x0, xT, [s10, s20, 0.0, 0.0])
        assert abs(lam_ref - O.two_point_action(m, k, T, x0, xT)) < 1e-9


def check_caustic_time() -> None:
    r = random.Random(1)
    for _ in range(20):
        m, w = r.uniform(0.5, 2.0), r.uniform(0.6, 1.4)
        k = m * w * w
        s20 = r.uniform(-5.0, 5.0)
        t_c = O.caustic_time(m, k, s20)
        assert 0.0 < t_c < math.pi / w
        assert abs(math.cos(w * t_c) + s20 / (m * w) * math.sin(w * t_c)) < 1e-12
        # S2 from the reference integrator grows like m / (t_c - t)
        s2 = O.reference_final(m, k, 0.0, t_c - 1e-4, [0.0, s20, 0.0, 0.0])[1]
        assert abs(s2 * 1e-4 / m + 1.0) < 1e-3
    assert O.caustic_time(2.0, 0.0, -4.0) == 0.5 and O.caustic_time(1.0, 0.0, 1.0) == math.inf


def check_quantum_reference() -> None:
    # the reference eigenvalue converges in its tolerances: tighten and compare
    init = [1.0, 0.2, 0.1, 0.5]
    lam, res = O.reference_report(1.0, 1.0, 0.4, 1.0, 0.1, 0.9, init)
    saved = O.REF_RTOL, O.REF_ATOL
    O.REF_RTOL, O.REF_ATOL = 1e-13, 1e-14
    try:
        lam2, res2 = O.reference_report(1.0, 1.0, 0.4, 1.0, 0.1, 0.9, init)
    finally:
        O.REF_RTOL, O.REF_ATOL = saved
    assert abs(lam - lam2) < 1e-11 and abs(res - res2) < 1e-11
    # a quadratic objective's central difference is exact up to rounding:
    # lambda is quadratic in S10 (linear S1 flow, S1 entering squared)
    g = O.reference_gradient(1.0, 1.0, 0.4, 1.0, 0.1, 0.9, init, 0.0)
    g_wide = O.reference_gradient(1.0, 1.0, 0.4, 1.0, 0.1, 0.9, init, 0.0, rel_step=1e-2)
    assert abs(g[0] - g_wide[0]) < 1e-8


def check_generators() -> None:
    for name, gen in GENERATORS.items():
        a, b, c = gen(7), gen(7), gen(8)
        assert [t.config for t in a] == [t.config for t in b], name
        assert [t.config for t in a] != [t.config for t in c], name
        assert len({t.tid for t in a}) == len(a)
    traj = GENERATORS["trajectory-io"](3)
    assert len(traj) >= 100
    commands = {(t.command, t.method) for t in traj}
    for command in ("integrate", "eigenvalue", "scan-t0", "sweep-hbar", "convergence"):
        assert {(command, "rk4"), (command, "rk4_adaptive")} <= commands, command
    for seed in range(20):
        for t in GENERATORS["trajectory-io"](seed):
            p = t.params
            if t.kind != "caustic" and t.command != "convergence":
                # the classical flow (hbar_tilde = 0 or sweep-hbar's base run) has no pole in [0, T]
                s20 = p["S20"] if "S20" in p else O.s20_from_t0(p["t0"], p["m"], p["k"])
                assert O.caustic_time(p["m"], p["k"], s20) > p["T"], t.tid
    caustics = [t for t in traj if t.kind == "caustic"]
    assert caustics and all(t.expect_exit == 3 for t in caustics)
    assert all(0.25 < t.params["t_caustic"] < t.params["T"] for t in caustics)
    for t in GENERATORS["quantum-search"](3):
        assert 0.2 <= t.params["hbar_tilde"] <= 0.6 and t.params["penalty_weight"] > 0
        assert "sigma20 = " in t.config and "active = S10,S20,sigma10,sigma20" in t.config


def check_aggregation() -> None:
    # optimize(0..10) > minimize(1..6) > final_state(2..3, blown up), final_state(4..5)
    spans = [
        [-1, "extremize.optimize", "t", 0.0, 10.0, None],
        [0, "extremize.minimize", "t", 1.0, 6.0, (None, 7)],
        [1, "dynamics.final_state", "t", 2.0, 3.0, ("BlowUpError", (1.0, 1e-3, 0.5))],
        [1, "dynamics.final_state", "t", 4.0, 5.0, (None, (1.0, 1e-3, None))],
        [-1, "classical.lambda_star", "t", 11.0, 12.0, None],
    ]
    m = layer_metrics(spans)
    assert m["extremize.optimize.self_s"] == 5.0 and m["extremize.minimize.self_s"] == 3.0
    assert m["extremize.nm_iterations"] == 7 and m["extremize.solves_per_optimize"] == 2
    assert m["extremize.blowups"] == 1 and m["extremize.blowup_ratio"] == 0.5
    assert m["dynamics.final_state.steps"] == n_steps(0.5, 1e-3) + 1 + 1000
    assert m["classical.calls"] == 1 and m["classical.s"] == 1.0
    assert n_steps(1.0, 1e-3) == 1000 and n_steps(1.0, 0.3) == 4


def main() -> int:
    failed = 0
    for check in (check_schema, check_classical_oracles, check_caustic_time,
                  check_quantum_reference, check_generators, check_aggregation):
        try:
            check()
            print(f"PASS {check.__name__}")
        except AssertionError as err:
            failed += 1
            print(f"FAIL {check.__name__}: {err}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
