"""Experiment configuration: flat key/value files (INI sections or JSON).

Sections and keys:

    [spec]      m, k, hbar_tilde, T, x0, xT
    [init]      S10, S20, sigma10, sigma20, or t0 in place of S20
    [grid]      h, method, t_probe
    [optimize]  active, grad_tol, max_iter, penalty_weight, restarts, seed
    [sweep]     t0_grid, hbar_grid
    [output]    out_dir

Grids are comma-separated values or a ``start:stop:count`` linspace
shorthand. Unknown sections or keys are rejected: silently ignored
typos are worse than a hard error in a reproducibility tool.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import METHODS
from .errors import ConfigError
from .model import InitialData, OscillatorSpec, t0_to_S20, validate

_SPEC_KEYS = ("m", "k", "hbar_tilde", "T", "x0", "xT")
_INIT_KEYS = ("S10", "S20", "sigma10", "sigma20", "t0")
_GRID_KEYS = ("h", "method", "t_probe")
_OPT_KEYS = ("active", "grad_tol", "max_iter", "penalty_weight", "restarts", "seed")
_SWEEP_KEYS = ("t0_grid", "hbar_grid")
_OUTPUT_KEYS = ("out_dir",)
_SECTIONS = {
    "spec": _SPEC_KEYS,
    "init": _INIT_KEYS,
    "grid": _GRID_KEYS,
    "optimize": _OPT_KEYS,
    "sweep": _SWEEP_KEYS,
    "output": _OUTPUT_KEYS,
}

_POSITIVE = (lambda v: 0 < v < math.inf, "positive and finite")
#: the rule a key's value must meet, and its wording in the error
_RULES = {
    **dict.fromkeys(_INIT_KEYS, (math.isfinite, "finite")),
    **dict.fromkeys(("h", "t_probe", "grad_tol"), _POSITIVE),
    "penalty_weight": (lambda v: 0 <= v < math.inf, "finite and >= 0"),
    **dict.fromkeys(("max_iter", "restarts"), (lambda v: v >= 1, ">= 1")),
    **dict.fromkeys(("seed", "hbar_grid"), (lambda v: v >= 0, ">= 0")),
}


@dataclass
class ExperimentConfig:
    """Everything a command needs, assembled from one config file."""

    spec: OscillatorSpec = field(default_factory=OscillatorSpec)
    init: InitialData | None = None
    step: float = 1e-3
    method: str = "rk4"
    t_probe: float = 0.5
    active: str | None = None
    grad_tol: float = 1e-6
    max_iter: int = 2000
    penalty_weight: float = 0.0
    restarts: int = 5
    seed: int = 42
    t0_grid: list[float] | None = None
    hbar_grid: list[float] | None = None
    out_dir: str | None = None


def parse_grid(text: str) -> list[float]:
    """Parse ``a,b,c`` or ``start:stop:count`` into a float list.

    A malformed shorthand raises ``ConfigError``; its message is written
    to follow the grid's key, which ``load_config`` puts in front.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"shorthand must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ConfigError(f"count must be >= 1, got {count}")
        return [float(v) for v in np.linspace(start, stop, count)]
    return [float(v) for v in text.split(",") if v.strip()]


def _grid(entries, name: str) -> list[float] | None:
    raw = _lookup(entries, name)
    if raw is None:
        return None
    try:
        values = parse_grid(raw)
    except ConfigError as err:
        raise ConfigError(f"{name} {err}") from err
    except ValueError as err:
        raise ConfigError(f"{name} entries must be numbers, got {raw!r}") from err
    if not values:
        raise ConfigError(f"{name} is empty")
    if any(not math.isfinite(v) for v in values):
        raise ConfigError(f"{name} contains non-finite values")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{name} must be strictly increasing")
    if name in _RULES:
        for v in values:
            _checked(name, v)
    return values


def _as_sections(path: Path) -> dict[str, dict[str, str]]:
    text = path.read_text()
    if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON config: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError("JSON config must be an object of sections")

        def as_text(v):
            if isinstance(v, list):
                return ",".join(str(x) for x in v)
            return str(v)

        sections = {}
        for sec, entries in raw.items():
            if not isinstance(entries, dict):
                raise ConfigError(
                    f"section [{sec}] must be an object of keys, got {json.dumps(entries)}"
                )
            sections[str(sec)] = {str(k): as_text(v) for k, v in entries.items()}
        return sections
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"invalid config file: {err}") from err
    return {sec: dict(parser.items(sec)) for sec in parser.sections()}


def _lookup(entries: dict[str, str], key: str) -> str | None:
    # configparser lower-cases keys; accept either spelling
    if key in entries:
        return entries[key]
    return entries.get(key.lower())


def _checked(key: str, value):
    """``value`` if it meets the rule of ``key``; the CLI's overrides go through it too."""
    ok, wording = _RULES[key]
    if not ok(value):
        raise ConfigError(f"{key} must be {wording}, got {value}")
    return value


def _number(entries, key, default, kind=float):
    """``key`` parsed as ``kind`` and checked by its rule, if any; ``default`` if absent."""
    raw = _lookup(entries, key)
    if raw is None:
        return default
    try:
        value = kind(raw)
    except ValueError as err:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"{key} must be {noun}, got {raw!r}") from err
    return _checked(key, value) if key in _RULES else value


def load_config(path) -> ExperimentConfig:
    """Read and validate one INI or JSON config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    sections = _as_sections(path)

    for sec, entries in sections.items():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown config section [{sec}]")
        allowed = {k.lower() for k in _SECTIONS[sec]}
        for key in entries:
            if key.lower() not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")

    cfg = ExperimentConfig()

    spec_entries = sections.get("spec", {})
    cfg.spec = OscillatorSpec(
        m=_number(spec_entries, "m", 1.0),
        k=_number(spec_entries, "k", 1.0),
        hbar_tilde=_number(spec_entries, "hbar_tilde", 0.0),
        T=_number(spec_entries, "T", 1.0),
        x0=_number(spec_entries, "x0", 0.0),
        xT=_number(spec_entries, "xT", 1.0),
    )
    # before anything reads the spec: t0_to_S20 divides by m
    validate(cfg.spec)

    if "init" in sections:
        entries = sections["init"]
        init = {key: _number(entries, key, None) for key in _INIT_KEYS}
        t0 = init.pop("t0")
        if t0 is not None and init["S20"] is not None:
            raise ConfigError("give either t0 or S20 in [init], not both")
        if t0 is not None:
            init["S20"] = t0_to_S20(t0, cfg.spec)
        cfg.init = InitialData(**{k: 0.0 if v is None else v for k, v in init.items()})

    grid_entries = sections.get("grid", {})
    cfg.step = _number(grid_entries, "h", cfg.step)
    method = _lookup(grid_entries, "method")
    if method is not None:
        cfg.method = method.strip()
    if cfg.method not in METHODS:
        raise ConfigError(f"method must be {' or '.join(METHODS)}, got {cfg.method!r}")
    cfg.t_probe = _number(grid_entries, "t_probe", cfg.t_probe)

    opt_entries = sections.get("optimize", {})
    active = _lookup(opt_entries, "active")
    if active is not None:
        cfg.active = active.strip()
    cfg.grad_tol = _number(opt_entries, "grad_tol", cfg.grad_tol)
    cfg.max_iter = _number(opt_entries, "max_iter", cfg.max_iter, int)
    cfg.penalty_weight = _number(opt_entries, "penalty_weight", cfg.penalty_weight)
    cfg.restarts = _number(opt_entries, "restarts", cfg.restarts, int)
    cfg.seed = _number(opt_entries, "seed", cfg.seed, int)

    sweep_entries = sections.get("sweep", {})
    cfg.t0_grid = _grid(sweep_entries, "t0_grid")
    cfg.hbar_grid = _grid(sweep_entries, "hbar_grid")

    out_entries = sections.get("output", {})
    out_dir = _lookup(out_entries, "out_dir")
    if out_dir is not None:
        cfg.out_dir = out_dir.strip()
    return cfg
