"""Named experiments behind the CLI subcommands.

Each command takes an ``ExperimentConfig`` and an output directory and
returns a process exit code (0 success, 2 config/validation error,
3 numerical failure, 4 check failed). All emitted CSV is deterministic
given (config, seed): metadata headers carry the spec snapshot and tool
version but never timestamps; wall-clock information goes only into
JSON summaries.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__
from .action import EigenvalueReport, eigenvalue, endpoint_report, json_17g
from .classical import ClassicalParams, lambda_classical, lambda_star, s10_star
from .config import ExperimentConfig
from .dynamics import _check_step_count, _g17, _start, convergence_order, final_state, integrate
from .errors import (
    BlowUpError,
    ConfigError,
    DegenerateProbeError,
    QapError,
    ResonanceError,
    SingularityError,
)
from .model import InitialData, resonant, t0_to_S20, validation_errors

log = logging.getLogger("qap")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4

#: tolerance of the classical-check gate
CLASSICAL_CHECK_TOL = 1e-6

#: accepted integrator-order band for the convergence gate
ORDER_BAND = (3.7, 4.3)


@dataclass
class SweepTable:
    """Rows of one parameter sweep plus self-describing metadata."""

    parameter: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(tuple(values))

    def write_csv(self, path: Path) -> None:
        with open(path, "w", newline="\n") as out:
            out.write(f"# qap sweep over {self.parameter}\n")
            for key, value in self.metadata.items():
                out.write(f"# {key}={value}\n")
            out.write(",".join(self.columns) + "\n")
            for row in self.rows:
                out.write(
                    ",".join(_g17(v) if isinstance(v, float) else str(v) for v in row)
                    + "\n"
                )


def _spec_metadata(cfg: ExperimentConfig) -> dict:
    s = cfg.spec
    return {
        "m": _g17(s.m),
        "k": _g17(s.k),
        "hbar_tilde": _g17(s.hbar_tilde),
        "T": _g17(s.T),
        "x0": _g17(s.x0),
        "xT": _g17(s.xT),
        "h": _g17(cfg.step),
        "method": cfg.method,
        "seed": cfg.seed,
        "tool_version": __version__,
    }


def _require_step_count(cfg: ExperimentConfig, command: str) -> None:
    """The step every command's runs take: at most ``MAX_STEPS`` over T."""
    try:
        _check_step_count(cfg.spec.T, cfg.step)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _require_init(cfg: ExperimentConfig, command: str) -> None:
    if cfg.init is None:
        raise ConfigError(f"{command} needs an [init] section")


def _require_classical(cfg: ExperimentConfig, command: str) -> None:
    """Preconditions of the closed-form commands: hbar_tilde = 0, k > 0, off resonance."""
    if cfg.spec.hbar_tilde != 0.0:
        raise ConfigError(f"{command} needs hbar_tilde = 0")
    if cfg.spec.k <= 0.0:
        raise ConfigError(f"{command} needs k > 0")
    if resonant(cfg.spec):
        raise ConfigError(f"{command} is undefined at resonance (sin(omega0*T)=0)")


def _require_rk4(cfg: ExperimentConfig, command: str) -> None:
    """The extremizer's projection is exact only for the fixed-step run."""
    if cfg.method != "rk4":
        raise ConfigError(f"{command} needs method = rk4, got {cfg.method}")


def _require_t0_grid(cfg: ExperimentConfig, command: str) -> None:
    if cfg.t0_grid is None:
        raise ConfigError(f"{command} needs [sweep] t0_grid")


def _require_hbar_grid(cfg: ExperimentConfig, command: str) -> None:
    if cfg.hbar_grid is None:
        raise ConfigError(f"{command} needs [sweep] hbar_grid")
    for hb in cfg.hbar_grid:
        errors = validation_errors(replace(cfg.spec, hbar_tilde=float(hb)))
        if errors:
            raise ConfigError(f"hbar_grid entry {hb!r} gives {'; '.join(errors)}")


def _report(spec, init, cfg: ExperimentConfig) -> EigenvalueReport:
    """The eigenvalue report of one run from ``init`` at ``cfg``'s step
    and method.

    Under rk4 it reads ``final_state``'s end row and the run's own start
    state (``_start``, where -0.0 becomes +0.0), so no trajectory is
    kept; the report is ``eigenvalue`` of the kept grid, bit for bit.
    """
    if cfg.method == "rk4":
        end = final_state(spec, init, cfg.step)
        return endpoint_report(spec, _start(spec, init, cfg.step)[0], end)
    return eigenvalue(integrate(spec, init, step=cfg.step, method=cfg.method))


def cmd_integrate(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Integrate once and write the solution grid CSV."""
    path = out_dir / "solution.csv"
    try:
        grid = integrate(cfg.spec, cfg.init, step=cfg.step, method=cfg.method)
    except BlowUpError as err:
        log.info("blow-up at t=%.6g; writing partial grid", err.t_last)
        if err.partial is not None:
            err.partial.to_csv(path, footer=f"BLOWUP last_good_t={_g17(err.t_last)}")
        print(f"BLOWUP after t = {err.t_last:.6g}; partial grid in {path}")
        return EXIT_NUMERIC
    grid.to_csv(path)
    S1, S2, sigma1, sigma2, qS, qSigma, qCon = grid.row(-1)[:7]
    print(f"wrote {path} ({len(grid)} points)")
    print(f"final state: S1={S1:.9g} S2={S2:.9g} sigma1={sigma1:.9g} sigma2={sigma2:.9g}")
    print(f"accumulators: qS={qS:.9g} qSigma={qSigma:.9g} qCon={qCon:.9g}")
    return EXIT_OK


def cmd_eigenvalue(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Integrate once and report the eigenvalue decomposition."""
    report = _report(cfg.spec, cfg.init, cfg)
    path = out_dir / "eigenvalue.json"
    path.write_text(report.to_json() + "\n")
    print(f"lambda = {report.lam:.12g}")
    print(
        f"  boundary={report.boundary_term:.12g} kinetic={report.kinetic_term:.12g} "
        f"quantum={report.quantum_term:.12g}"
    )
    print(f"  constraint_residual = {report.constraint_residual:.12g}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_classical_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Full pipeline against the closed-form degenerate eigenvalue."""
    from .extremize import optimize

    t0 = 0.5 * cfg.spec.T
    s20 = t0_to_S20(t0, cfg.spec)
    s10_guess = cfg.init.S10 if cfg.init is not None else 0.0
    guess = InitialData(S10=s10_guess, S20=s20)
    result = optimize(
        cfg.spec,
        guess,
        active=("S10", "S20"),
        grad_tol=cfg.grad_tol,
        max_iter=cfg.max_iter,
        restarts=cfg.restarts,
        seed=cfg.seed,
        step=cfg.step,
    )
    target = lambda_star(cfg.spec)
    delta = abs(result.report.lam - target)
    ok = delta <= CLASSICAL_CHECK_TOL
    print(f"extremal lambda      = {result.report.lam:.12g}")
    print(f"closed-form lambda   = {target:.12g}")
    print(f"|delta|              = {delta:.3e}  (gate {CLASSICAL_CHECK_TOL:.0e})")
    print(f"gradient max-norm    = {result.gradient_norm:.3e}")
    print(f"converged            = {result.converged}")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK


def cmd_scan_t0(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Sweep the phase offset: closed-form and ODE eigenvalues per point."""
    table = SweepTable(
        parameter="t0",
        columns=("t0", "S10", "lambda_closed", "lambda_ode", "constraint_residual", "status"),
        metadata=_spec_metadata(cfg),
    )
    nan = float("nan")
    ok_values = []
    for t0 in cfg.t0_grid:
        try:
            s10 = s10_star(t0, cfg.spec)
            lam_closed = lambda_classical(ClassicalParams(s10, t0), cfg.spec)
            init = InitialData(S10=s10, S20=t0_to_S20(t0, cfg.spec))
            report = _report(cfg.spec, init, cfg)
            table.add(float(t0), s10, lam_closed, report.lam, report.constraint_residual, "ok")
            ok_values.append(report.lam)
        except BlowUpError as err:
            log.info("t0=%.6g blew up at t=%.6g", t0, err.t_last)
            table.add(float(t0), nan, nan, nan, nan, "blowup")
        except (SingularityError, ResonanceError) as err:
            log.info("t0=%.6g singular: %s", t0, err)
            table.add(float(t0), nan, nan, nan, nan, "singular")
    path = out_dir / "scan_t0.csv"
    table.write_csv(path)
    if ok_values:
        spread = max(ok_values) - min(ok_values)
        print(f"{len(ok_values)}/{len(cfg.t0_grid)} points ok; lambda spread = {spread:.3e}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep_hbar(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Sweep the quantum scale at fixed initial data; fit the correction power."""
    init = cfg.init
    base = replace(cfg.spec, hbar_tilde=0.0)
    lam0 = _report(base, init, cfg).lam

    table = SweepTable(
        parameter="hbar_tilde",
        columns=("hbar_tilde", "lambda", "delta_lambda", "constraint_residual", "status"),
        metadata=_spec_metadata(cfg),
    )
    nan = float("nan")
    fit_points = []
    for hb in cfg.hbar_grid:
        spec_h = replace(cfg.spec, hbar_tilde=float(hb))
        try:
            report = _report(spec_h, init, cfg)
            delta = abs(report.lam - lam0)
            table.add(float(hb), report.lam, delta, report.constraint_residual, "ok")
            if hb > 0 and delta > 0:
                fit_points.append((math.log(hb), math.log(delta)))
        except BlowUpError as err:
            log.info("hbar=%.6g blew up at t=%.6g", hb, err.t_last)
            table.add(float(hb), nan, nan, nan, "blowup")

    exponent = _slope(fit_points) if len(fit_points) >= 2 else None

    csv_path = out_dir / "sweep_hbar.csv"
    table.write_csv(csv_path)
    summary = {
        "lambda_at_zero": lam0,
        "fitted_exponent": exponent,
        "points_fit": len(fit_points),
        "points_total": len(cfg.hbar_grid),
        "spec": cfg.spec.to_dict(),
        "init": init.to_dict(),
        "h": cfg.step,
        "method": cfg.method,
        "seed": cfg.seed,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    json_path = out_dir / "sweep_hbar_summary.json"
    json_path.write_text(json_17g(summary) + "\n")
    if exponent is not None:
        print(f"fitted exponent of |lambda(hbar) - lambda(0)|: {exponent:.4f}")
    else:
        print("fitted exponent: not available (fewer than 2 usable points)")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def _slope(points) -> float | None:
    """Least-squares slope of the line through ``points``; None if every x is equal."""
    mx = math.fsum(x for x, _ in points) / len(points)
    my = math.fsum(y for _, y in points) / len(points)
    sxx = math.fsum((x - mx) ** 2 for x, _ in points)
    sxy = math.fsum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx if sxx > 0 else None


def cmd_extremize(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Extremize the eigenvalue over the configured active coordinates."""
    from .extremize import optimize

    guess = cfg.init if cfg.init is not None else InitialData()
    result = optimize(
        cfg.spec,
        guess,
        active=cfg.active,
        grad_tol=cfg.grad_tol,
        max_iter=cfg.max_iter,
        penalty_weight=cfg.penalty_weight,
        restarts=cfg.restarts,
        seed=cfg.seed,
        step=cfg.step,
    )
    path = out_dir / "extremum.json"
    path.write_text(result.to_json() + "\n")
    print(f"lambda = {result.report.lam:.12g}  converged = {result.converged}")
    print(
        f"init: S10={result.init.S10:.9g} S20={result.init.S20:.9g} "
        f"sigma10={result.init.sigma10:.9g} sigma20={result.init.sigma20:.9g}"
    )
    print(f"gradient max-norm = {result.gradient_norm:.3e}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_convergence(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Integrator-order check on one classical and one quantum run.

    The probe always steps fixed-step rk4 (``convergence_order``), so the
    configured method is not read: ``rk4_adaptive`` prints the same
    output as ``rk4``.
    """
    classical_spec = replace(cfg.spec, hbar_tilde=0.0)
    classical_init = InitialData(S10=1.0)
    hb = cfg.spec.hbar_tilde if cfg.spec.hbar_tilde > 0 else 0.5
    quantum_spec = replace(cfg.spec, hbar_tilde=hb)
    quantum_init = (
        cfg.init
        if cfg.init is not None and (cfg.init.sigma10 != 0 or cfg.init.sigma20 != 0)
        else InitialData(S10=1.0, S20=0.0, sigma10=0.3, sigma20=0.7)
    )
    # a production-size step (1e-3) probes below roundoff; coarsen unless
    # the user explicitly forced a coarse step to stress the estimate
    base_step = cfg.step if cfg.step >= 0.01 else 0.025

    lo, hi = ORDER_BAND
    failures = 0
    for label, spec_x, init_x in (
        ("classical", classical_spec, classical_init),
        ("quantum", quantum_spec, quantum_init),
    ):
        try:
            order = convergence_order(spec_x, init_x, cfg.t_probe, step=base_step)
        except DegenerateProbeError as err:
            print(f"{label}: DEGENERATE ({err})")
            return EXIT_NUMERIC
        except BlowUpError as err:
            print(f"{label}: BLOWUP at t={err.t_last:.6g}")
            return EXIT_NUMERIC
        ok = lo <= order <= hi
        failures += 0 if ok else 1
        print(f"{label}: estimated order {order:.3f} ({'PASS' if ok else 'FAIL'})")
    print("PASS" if failures == 0 else "FAIL")
    return EXIT_OK if failures == 0 else EXIT_CHECK


COMMANDS = {
    "integrate": cmd_integrate,
    "eigenvalue": cmd_eigenvalue,
    "classical-check": cmd_classical_check,
    "scan-t0": cmd_scan_t0,
    "sweep-hbar": cmd_sweep_hbar,
    "extremize": cmd_extremize,
    "convergence": cmd_convergence,
}


#: each command's config preconditions, checked in order before any output exists
PRECONDITIONS = {
    "integrate": (_require_init,),
    "eigenvalue": (_require_init,),
    "classical-check": (_require_classical, _require_rk4),
    "scan-t0": (_require_classical, _require_t0_grid),
    "sweep-hbar": (_require_init, _require_hbar_grid),
    "extremize": (_require_rk4,),
    "convergence": (),
}


def run_command(name: str, cfg: ExperimentConfig, out_dir) -> int:
    """Dispatch one named experiment, mapping failures to exit codes.

    The step count, then the command's ``PRECONDITIONS``, are checked
    before the output directory is made, so a config that fails them
    leaves nothing behind.
    """
    try:
        for require in (_require_step_count, *PRECONDITIONS[name]):
            require(cfg, name)
    except ConfigError as err:
        print(f"config error: {err}")
        return EXIT_CONFIG
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"config error: output directory not writable: {err}")
        return EXIT_CONFIG
    log.info("command=%s out=%s h=%g method=%s seed=%d",
             name, out_dir, cfg.step, cfg.method, cfg.seed)
    try:
        return COMMANDS[name](cfg, out_dir)
    except (ConfigError, ValueError) as err:
        print(f"config error: {err}")
        return EXIT_CONFIG
    except (BlowUpError, DegenerateProbeError) as err:
        print(f"numerical failure: {err}")
        return EXIT_NUMERIC
    except QapError as err:
        print(f"error: {err}")
        return EXIT_CONFIG
    except OSError as err:
        print(f"config error: cannot write output: {err}")
        return EXIT_CONFIG
