"""Check each task's files against the benchmark's oracles.

``check_task`` returns a list of problems (empty when the task is
right) plus what the run aggregates from the task: for a caustic, the
reported last good time beside the exact pole.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

from oracles import (
    classical_lambda,
    classical_s1_s2,
    reference_final,
    reference_gradient,
    reference_report,
    stationary_s10,
    two_point_action,
)

#: classical-certify gate, the same as the program's classical-check
CERTIFY_TOL = 1e-6

#: quantum-search gates at h = 1e-2, from the RK4 error there (h^4 = 1e-8):
#: converged searches sit ~3e-10 (eigenvalue) and ~3e-8 (gradient) from
#: the reference, so these leave two orders of magnitude
SEARCH_LAMBDA_TOL = 100 * 1e-2**4
SEARCH_GRAD_TOL = 1000 * 1e-2**4

#: trajectory-io: h = 1e-3 RK4 (or the adaptive rtol 1e-10) against exact
#: values, relative to max(1, |value|)
TRAJ_TOL = 1e-7

#: a caustic's reported last good time must sit this close to the pole
CAUSTIC_WINDOW = 0.05

#: a last good time counts as past the pole beyond this: the adaptive
#: integrator's own error moves the numerical pole by ~1e-9, a fixed
#: step that crosses it lands ~1e-4..1e-3 beyond
CAUSTIC_SLACK = 1e-6

ORDER_BAND = (3.7, 4.3)


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))


def _read_csv(path: str) -> tuple[list[str], list[list[str]], list[str]]:
    """Header, data rows, '#' lines of a qap CSV file."""
    header, rows, comments = [], [], []
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                comments.append(line)
            elif not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header, rows, comments


def _json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _spec(p):
    return p["m"], p["k"], p["hbar_tilde"], p["T"], p["x0"], p["xT"]


def check_certify(p, out):
    res = _json(os.path.join(out, "extremum.json"))
    want = two_point_action(p["m"], p["k"], p["T"], p["x0"], p["xT"])
    got = res["report"]["lambda"]
    errs = []
    if not abs(got - want) <= CERTIFY_TOL:
        errs.append(f"lambda {got!r} vs two-point action {want!r}")
    if res["converged"] is not True:
        errs.append("search did not converge")
    return errs


def check_search(p, out):
    res = _json(os.path.join(out, "extremum.json"))
    m, k, hb, T, x0, xT = _spec(p)
    init = [res["init"][c] for c in ("S10", "S20", "sigma10", "sigma20")]
    lam, _ = reference_report(m, k, hb, T, x0, xT, init)
    grad = reference_gradient(m, k, hb, T, x0, xT, init, p["penalty_weight"])
    errs = []
    if res["converged"] is not True:
        errs.append("search did not converge")
    if not abs(res["report"]["lambda"] - lam) <= SEARCH_LAMBDA_TOL:
        errs.append(f"lambda {res['report']['lambda']!r} vs reference {lam!r}")
    gnorm = float(np.max(np.abs(grad)))
    if not gnorm <= SEARCH_GRAD_TOL:
        errs.append(f"reference gradient max-norm {gnorm:.3e} at the returned point")
    return errs


def _check_integrate(p, kind, out, extra):
    header, rows, comments = _read_csv(os.path.join(out, "solution.csv"))
    if header != ["t", "S1", "S2", "sigma1", "sigma2", "qS", "qSigma", "qCon"]:
        return [f"unexpected header {header}"]
    last = [float(v) for v in rows[-1]]
    m, k, hb, T, _x0, _xT = _spec(p)
    if kind == "caustic":
        footer = [c for c in comments if c.startswith("# BLOWUP")]
        match = re.fullmatch(r"# BLOWUP last_good_t=(\S+)", footer[-1]) if footer else None
        if match is None:
            return ["no '# BLOWUP last_good_t=' footer"]
        t_last = float(match.group(1))
        if t_last != last[0]:
            return [f"footer t {t_last!r} differs from the last row's {last[0]!r}"]
        if abs(t_last - p["t_caustic"]) > CAUSTIC_WINDOW:
            return [f"blow-up at {t_last!r}, exact caustic at {p['t_caustic']!r}"]
        extra["caustic"] = (t_last, p["t_caustic"])
        return []
    if last[0] != T:
        return [f"grid ends at {last[0]!r}, not T"]
    if kind == "classical":
        want = classical_s1_s2(T, m, k, p["S10"], p["t0"])
    else:
        want = reference_final(m, k, hb, T, [p["S10"], p["S20"], p["sigma10"], p["sigma20"]])[:4]
    errs = []
    for name, got, ref in zip(("S1", "S2", "sigma1", "sigma2"), last[1:5], want):
        if not _close(got, ref, TRAJ_TOL):
            errs.append(f"{name}(T) = {got!r}, exact {ref!r}")
    return errs


def _check_eigenvalue(p, kind, out):
    path = os.path.join(out, "eigenvalue.json")
    if kind == "caustic":
        return ["eigenvalue.json written for a caustic run"] if os.path.exists(path) else []
    got = _json(path)["lambda"]
    m, k, hb, T, x0, xT = _spec(p)
    if kind == "classical":
        want = classical_lambda(m, k, T, x0, xT, p["S10"], p["t0"])
    else:
        want, _ = reference_report(m, k, hb, T, x0, xT, [p["S10"], p["S20"], p["sigma10"], p["sigma20"]])
    return [] if _close(got, want, TRAJ_TOL) else [f"lambda {got!r}, exact {want!r}"]


def _check_scan(p, out):
    header, rows, _ = _read_csv(os.path.join(out, "scan_t0.csv"))
    m, k, _hb, T, x0, xT = _spec(p)
    want = two_point_action(m, k, T, x0, xT)
    col = {name: i for i, name in enumerate(header)}
    errs = [] if len(rows) == 9 else [f"{len(rows)} scan rows, expected 9"]
    for row in rows:
        t0 = float(row[col["t0"]])
        if row[col["status"]] != "ok":
            errs.append(f"t0={t0!r}: status {row[col['status']]}")
            continue
        if not _close(float(row[col["S10"]]), stationary_s10(m, k, T, x0, xT, t0), TRAJ_TOL):
            errs.append(f"t0={t0!r}: stationary S10 {row[col['S10']]}")
        for name in ("lambda_closed", "lambda_ode"):
            if not _close(float(row[col[name]]), want, TRAJ_TOL):
                errs.append(f"t0={t0!r}: {name} {row[col[name]]}, two-point action {want!r}")
    return errs


def _check_sweep(p, out):
    header, rows, _ = _read_csv(os.path.join(out, "sweep_hbar.csv"))
    summary = _json(os.path.join(out, "sweep_hbar_summary.json"))
    m, k, _hb, T, x0, xT = _spec(p)
    init = [p["S10"], p["S20"], p["sigma10"], p["sigma20"]]
    col = {name: i for i, name in enumerate(header)}
    errs = []
    lam0, _ = reference_report(m, k, 0.0, T, x0, xT, init)
    if not _close(summary["lambda_at_zero"], lam0, TRAJ_TOL):
        errs.append(f"lambda_at_zero {summary['lambda_at_zero']!r}, reference {lam0!r}")
    if summary["points_fit"] != len(rows):
        errs.append(f"{summary['points_fit']} of {len(rows)} points fit")
    for row in rows:
        hb = float(row[col["hbar_tilde"]])
        want, _ = reference_report(m, k, hb, T, x0, xT, init)
        if row[col["status"]] != "ok" or not _close(float(row[col["lambda"]]), want, TRAJ_TOL):
            errs.append(f"hbar={hb!r}: lambda {row[col['lambda']]}, reference {want!r}")
    return errs


def _check_convergence(stdout):
    orders = re.findall(r"^(classical|quantum): estimated order (\S+) ", stdout, re.M)
    if len(orders) != 2 or stdout.rstrip().splitlines()[-1] != "PASS":
        return [f"unexpected convergence report {stdout!r}"]
    lo, hi = ORDER_BAND
    return [f"{label} order {v}" for label, v in orders if not lo <= float(v) <= hi]


def check_trajectory(task, out, stdout, extra):
    kind, p = task["kind"], task["params"]
    command = task["command"]
    if command == "integrate":
        return _check_integrate(p, kind, out, extra)
    if command == "eigenvalue":
        return _check_eigenvalue(p, kind, out)
    if command == "scan-t0":
        return _check_scan(p, out)
    if command == "sweep-hbar":
        return _check_sweep(p, out)
    return _check_convergence(stdout)


def check_task(task: dict, stdout: str) -> tuple[list[str], dict]:
    """Problems found in one task's outputs, and the counts it adds."""
    extra: dict = {}
    out = task["out_dir"]
    try:
        if task["kind"] == "certify":
            errs = check_certify(task["params"], out)
        elif task["kind"] == "search":
            errs = check_search(task["params"], out)
        else:
            errs = check_trajectory(task, out, stdout, extra)
    except (OSError, ValueError, KeyError, IndexError, ArithmeticError) as err:
        errs = [f"{type(err).__name__}: {err}"]
    return errs, extra
