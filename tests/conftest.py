import json
from types import SimpleNamespace

import pytest

from qap import InitialData, OscillatorSpec
from qap.dynamics import _stage


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
    """Time derivatives from the reference stage ``_stage``, by component name."""

    def evaluate(spec, S1=0.0, S2=0.0, sigma1=0.0, sigma2=0.0):
        m_inv = 1.0 / spec.m
        hh = spec.hbar_tilde * spec.hbar_tilde * 0.5 * m_inv
        d = _stage(S1, S2, sigma1, sigma2, m_inv, spec.k, hh)
        names = ("S1", "S2", "sigma1", "sigma2", "qS", "qSigma", "qCon", "qIntS2")
        return SimpleNamespace(**dict(zip(names, d)))

    return evaluate


@pytest.fixture
def search_config(tmp_path) -> str:
    """Path of a config whose penalised four-coordinate search, in front of
    the caustic wall, reaches Nelder-Mead."""
    path = tmp_path / "search.json"
    path.write_text(json.dumps({
        "spec": {"hbar_tilde": 0.3},
        "init": {"S10": 1.0, "S20": 0.5, "sigma10": 0.1, "sigma20": 0.4},
        "grid": {"h": 2e-2},
        "optimize": {"active": "S10,S20,sigma10,sigma20", "penalty_weight": 0.5,
                     "max_iter": 400, "restarts": 1},
    }))
    return str(path)
