"""Experiment configuration: flat key/value files (INI sections or JSON).

Sections and keys, in the order they are read:

    [spec]      m, k, hbar_tilde, T, x0, xT
    [init]      S10, S20, sigma10, sigma20, or t0 in place of S20
    [grid]      h, method, t_probe
    [optimize]  active, grad_tol, max_iter, penalty_weight, restarts, seed
    [sweep]     t0_grid, hbar_grid
    [output]    out_dir

``_KEYS`` holds each key's parser and the rule its value must meet;
``_read`` applies both, and its errors begin with the key. Grids are
comma-separated values or a ``start:stop:count`` linspace shorthand.
Unknown sections or keys are rejected: silently ignored typos are
worse than a hard error in a reproducibility tool.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .dynamics import METHODS
from .errors import ConfigError, SingularityError
from .model import COORD_NAMES, InitialData, OscillatorSpec, parse_active, t0_to_S20, validate


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
    """Parse ``a,b,c`` or ``start:stop:count`` into a non-empty, finite,
    strictly increasing float list. Each error is a ``ConfigError`` whose
    message is written to follow the grid's key, which ``_read`` puts in front."""
    shorthand = text.strip()
    try:
        if ":" in shorthand:
            parts = shorthand.split(":")
            if len(parts) != 3:
                raise ConfigError(f"shorthand must be start:stop:count, got {shorthand!r}")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ConfigError(f"count must be >= 1, got {count}")
            # numpy.linspace's own formula, so the points are its floats
            div = count - 1
            step = (stop - start) / div if div else stop - start
            values = [i * step + start for i in range(count)]
            if div:
                values[-1] = stop
        else:
            values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as err:
        raise ConfigError(f"entries must be numbers, got {text!r}") from err
    if not values:
        raise ConfigError("is empty")
    if not all(map(math.isfinite, values)):
        raise ConfigError("contains non-finite values")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("must be strictly increasing")
    return values


def _as_sections(path: Path) -> dict[str, dict[str, str]]:
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
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


def _valid_active(text: str) -> bool:
    try:
        parse_active(text)
        return True
    except ValueError:
        return False


_FINITE = (math.isfinite, "finite")
_POSITIVE = (lambda v: 0 < v < math.inf, "positive and finite")
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")

#: section -> key -> (parser, rule), in reading order; a rule is a
#: predicate and its wording in the error, or None
_KEYS = {
    "spec": dict.fromkeys(("m", "k", "hbar_tilde", "T", "x0", "xT"), (float, _FINITE)),
    "init": dict.fromkeys((*COORD_NAMES, "t0"), (float, _FINITE)),
    "grid": {
        "h": (float, _POSITIVE),
        "method": (str.strip, (METHODS.__contains__, " or ".join(METHODS))),
        "t_probe": (float, _POSITIVE),
    },
    "optimize": {
        "active": (str.strip, (_valid_active, "one or more of " + ", ".join(COORD_NAMES))),
        "grad_tol": (float, _POSITIVE),
        "max_iter": (int, _AT_LEAST_ONE),
        "penalty_weight": (float, (lambda v: 0 <= v < math.inf, "finite and >= 0")),
        "restarts": (int, _AT_LEAST_ONE),
        "seed": (int, _NON_NEGATIVE),
    },
    "sweep": {"t0_grid": (parse_grid, None), "hbar_grid": (parse_grid, _NON_NEGATIVE)},
    "output": {"out_dir": (str.strip, None)},
}


def _read(section: str, key: str, raw):
    """``raw`` parsed as ``key`` of ``section`` and checked by its rule, entry
    by entry for a grid. The CLI's overrides go through here too."""
    parse, rule = _KEYS[section][key]
    try:
        value = parse(raw)
    except ConfigError as err:
        raise ConfigError(f"{key} {err}") from err
    except ValueError as err:
        noun = "an integer" if parse is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {raw!r}") from err
    if rule is not None:
        ok, wording = rule
        for v in value if isinstance(value, list) else [value]:
            if not ok(v):
                raise ConfigError(f"{key} must be {wording}, got {v!r}")
    return value


def load_config(path) -> ExperimentConfig:
    """Read and validate one INI or JSON config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    sections = _as_sections(path)

    for sec, entries in sections.items():
        if sec not in _KEYS:
            raise ConfigError(f"unknown config section [{sec}]")
        allowed = {k.lower() for k in _KEYS[sec]}
        for key in entries:
            if key.lower() not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")

    values = {}
    for sec, keys in _KEYS.items():
        entries = sections.get(sec, {})
        for key in keys:
            # configparser lower-cases keys; accept either spelling
            raw = entries.get(key, entries.get(key.lower()))
            if raw is not None:
                values[key] = _read(sec, key, raw)
        if sec == "spec":
            # before any [init] value is read: t0_to_S20 divides by m
            spec = validate(OscillatorSpec(**{k: values.pop(k) for k in keys if k in values}))
        if sec == "init" and "t0" in values:
            if "S20" in values:
                raise ConfigError("give either t0 or S20 in [init], not both")
            t0 = values.pop("t0")
            try:
                values["S20"] = t0_to_S20(t0, spec)
            except SingularityError as err:
                raise ConfigError(f"t0 must not be a pole of tan(omega0*t0), got {t0!r}") from err

    init = InitialData(**{k: values.pop(k) for k in COORD_NAMES if k in values})
    if "h" in values:
        values["step"] = values.pop("h")
    return ExperimentConfig(spec=spec, init=init if "init" in sections else None, **values)
