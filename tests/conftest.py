import json
from types import SimpleNamespace

import pytest
from hypothesis import settings

from qap import InitialData, OscillatorSpec
from qap.dynamics import _coefficients, _stage
from qap.model import flow_coefficients

# the same examples on every run: a property test that fails, fails every time
settings.register_profile("deterministic", derandomize=True, print_blob=True)
settings.load_profile("deterministic")


@pytest.fixture
def spec() -> OscillatorSpec:
    """Default experiment constants: unit oscillator, boundary 0 -> 1."""
    return OscillatorSpec(m=1.0, k=1.0, hbar_tilde=0.0, T=1.0, x0=0.0, xT=1.0)


@pytest.fixture
def classical_init() -> InitialData:
    """Unit linear coefficient, zero phase offset, silent amplitude sector."""
    return InitialData(S10=1.0, S20=0.0, sigma10=0.0, sigma20=0.0)


@pytest.fixture
def derivatives():
    """Time derivatives of the state, by component name, by the chain rule
    from the row's reference stage ``_stage`` at u = 1, p = S2, C = 1,
    St = 0: the row of a run that starts at (S1, S2, sigma1, sigma2)."""

    def evaluate(spec, S1=0.0, S2=0.0, sigma1=0.0, sigma2=0.0):
        m_inv, k, hh = flow_coefficients(spec)
        a2 = hh / m_inv
        du, dp, dC, dSt, dJcc, dJcs, dJss, dI2 = _stage(
            1.0, S2, 1.0, 0.0, _coefficients(m_inv, k, hh, sigma2))
        return SimpleNamespace(
            S1=S1 * dC + a2 * sigma1 * dSt - S1 * du,
            S2=dp - S2 * du,
            sigma1=sigma1 * dC - S1 * dSt - sigma1 * du,
            sigma2=-sigma2 * du,
            qS=S1 * S1 * dJcc + 2.0 * a2 * S1 * sigma1 * dJcs + a2 * a2 * sigma1 * sigma1 * dJss,
            qSigma=S1 * S1 * dJss - 2.0 * S1 * sigma1 * dJcs + sigma1 * sigma1 * dJcc + dI2,
            qCon=2.0 * spec.m * du + S1 * sigma1 * (dJcc - a2 * dJss)
            + (a2 * sigma1 * sigma1 - S1 * S1) * dJcs,
            qIntS2=spec.m * du,
        )

    return evaluate


@pytest.fixture
def search_config(tmp_path) -> str:
    """Path of a config whose penalised four-coordinate search reaches
    Nelder-Mead: its guess lies behind the caustic wall, where the run on
    the coarse map blows up, so its attempt runs at h alone."""
    path = tmp_path / "search.json"
    path.write_text(json.dumps({
        "spec": {"hbar_tilde": 0.3},
        "init": {"S10": 0.0, "S20": -2.0, "sigma10": 0.1, "sigma20": 0.4},
        "grid": {"h": 2e-2},
        "optimize": {"active": "S10,S20,sigma10,sigma20", "penalty_weight": 0.5,
                     "max_iter": 400, "restarts": 1},
    }))
    return str(path)
