#!/usr/bin/env python3
"""The extremizer on its hard cases, one line per search.

    python3 scripts/panel.py

Runs ``qap.extremize.optimize``, with qap imported from this checkout's
``src/``, on:

- ``negx0``: the eight ``quantum-search`` tasks of seed 1 (as
  ``perfbench/workloads.py`` generates them) with x0 scaled by -10/3,
  where q04 and q06 have no root;
- ``no-root``: the penalty-free search along (S10, S20) whose gradient
  decays toward S20 = +inf (``test_penalty_free_search_unchanged``);
- ``stall``: the negative-x0 search whose reduced gradient has a local
  minimum without a root (``test_negative_x0_stall_ends_fast``);
- ``wall``: the penalised search from behind the caustic wall
  (``test_penalised_search_from_behind_caustic_wall``);
- ``far``: the penalised search from the guess (0.222, 2.51, -0.320,
  2.55), near the far saddle root at (S20, sigma20) = (9.34, 11.30);
- ``far-test``: the same search from the guess of
  ``test_root_beyond_unit_coordinates_converges``, which reaches that
  saddle root.

Each line holds the case, ``converged``, the ``repr`` of the eigenvalue,
the Hessian signature, the search's RK4 steps at each step (its runs,
the certificate's tangent run among them) and the eigenvalues of the
reduced Hessian at the returned point: the Hessian of the objective over
the searched coordinates once the linear ones, (S10, sigma10), are
eliminated (the Schur complement of their block in
``stationarity_check``'s Hessian). Two checkouts' lines compare with
``diff``.
"""

import inspect
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import qap.extremize as extremize  # noqa: E402
from qap import InitialData, OscillatorSpec, optimize, stationarity_check  # noqa: E402
from qap.config import load_config  # noqa: E402
from qap.dynamics import _n_steps  # noqa: E402
from workloads import quantum_search  # noqa: E402

UNIT = OscillatorSpec(m=1.0, k=1.0, hbar_tilde=0.0, T=1.0, x0=0.0, xT=1.0)


def negx0_cases(tmp: Path):
    """The seed-1 quantum-search tasks with x0 scaled by -10/3."""
    for task in quantum_search(1):
        path = tmp / f"{task.tid}.ini"
        path.write_text(task.config)
        cfg = load_config(path)
        spec = replace(cfg.spec, x0=cfg.spec.x0 * (-10.0 / 3.0))
        yield f"negx0-{task.tid}", spec, cfg.init, dict(
            active=cfg.active, grad_tol=cfg.grad_tol, max_iter=cfg.max_iter,
            penalty_weight=cfg.penalty_weight, restarts=cfg.restarts, seed=cfg.seed,
            step=cfg.step)


def other_cases():
    yield "no-root", replace(UNIT, hbar_tilde=0.5), InitialData(S10=-3.0, sigma20=1.0), dict(
        active=("S10", "S20"), step=1e-2)
    yield ("stall", OscillatorSpec(m=0.9, k=0.86, hbar_tilde=0.42, T=1, x0=-0.73, xT=0.89),
           InitialData(0.3, 0.2, 0.08, 0.4), dict(penalty_weight=0.25, step=1e-2, seed=104))
    yield "wall", replace(UNIT, hbar_tilde=0.3), InitialData(0.0, -2.0, 0.1, 0.4), dict(
        penalty_weight=0.5, step=2e-2, max_iter=60, restarts=2)
    far = OscillatorSpec(m=1.79, k=0.266, hbar_tilde=0.578, x0=-0.818, xT=-0.637)
    yield "far", far, InitialData(0.222, 2.51, -0.320, 2.55), dict(
        penalty_weight=0.5, step=1e-2, restarts=2)
    yield "far-test", far, InitialData(0.63, 13.95, 0.21, 11.75), dict(
        penalty_weight=0.5, step=1e-2, restarts=2)


def count_steps():
    """Counter of RK4 steps by step size, over every run the extremizer makes."""
    steps = Counter()
    for name in ("integrate", "propagator", "tangent", "taped"):
        inner = getattr(extremize, name)

        def counted(*args, _inner=inner, **kwargs):
            bound = inspect.signature(_inner).bind(*args, **kwargs)
            bound.apply_defaults()
            step = bound.arguments["step"]
            steps[step] += _n_steps(bound.arguments["spec"].T, step)
            return _inner(*args, **kwargs)

        setattr(extremize, name, counted)
    return steps


def reduced_eigenvalues(res, spec, kwargs) -> list[float]:
    """Eigenvalues of the reduced Hessian over the searched coordinates at
    the returned point."""
    idx = [i for i in range(4) if res.active_mask[i]]
    lin = [j for j, i in enumerate(idx) if i in (0, 2)]
    free = [j for j, i in enumerate(idx) if i in (1, 3)]
    if not free or res.hessian_signature is None:
        return []
    H = stationarity_check(res.init, spec, res.active_mask, kwargs.get("penalty_weight", 0.0),
                           kwargs["step"]).hessian
    schur = H[np.ix_(free, free)]
    if lin:
        schur = schur - (H[np.ix_(free, lin)] @ np.linalg.pinv(H[np.ix_(lin, lin)])
                         @ H[np.ix_(lin, free)])
    return [float(e) for e in np.linalg.eigvalsh(schur)]


def main() -> int:
    steps = count_steps()
    total = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        cases = list(negx0_cases(Path(tmp))) + list(other_cases())
    for name, spec, guess, kwargs in cases:
        steps.clear()
        res = optimize(spec, guess, **kwargs)
        work = dict(sorted(steps.items(), reverse=True))
        eigs = reduced_eigenvalues(res, spec, kwargs)
        sig = res.hessian_signature
        print(name, f"converged={res.converged}", f"lambda={res.report.lam!r}",
              "signature=" + ("None" if sig is None else
                              f"{sig.positive},{sig.negative},{sig.near_zero}"),
              "steps=" + ",".join(f"{s:g}:{k}" for s, k in work.items()),
              f"blowups={res.blowups}",
              "reduced_eigenvalues=" + ",".join(f"{e:.4g}" for e in eigs), flush=True)
        if name.startswith("negx0"):
            total.update(work)
    print("negx0 total steps", sum(total.values()),
          "(" + ",".join(f"{s:g}:{k}" for s, k in sorted(total.items(), reverse=True)) + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
