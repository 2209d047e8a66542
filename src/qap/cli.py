"""Command-line front door.

    qap <command> --config PATH [--out DIR] [--seed N] [--h FLOAT]
                  [--method {rk4,rk4_adaptive}]

Commands: integrate | eigenvalue | classical-check | scan-t0 |
sweep-hbar | extremize | convergence; ``qap --help`` lists them with a
one-line summary each. One flat parser takes the command as its first
positional argument and the five options, which every command shares,
before or after it. The QAP_LOG environment variable (error | info |
debug) controls diagnostic logging on stderr; primary results go to
stdout and to files under --out.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import _read, load_config
from .dynamics import METHODS
from .errors import QapError
from .experiments import COMMANDS, EXIT_CONFIG, run_command

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is when the record is
    emitted, so a stream swapped out after ``main`` (and maybe closed)
    is never written to."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _):
        pass


_HANDLER = _StderrHandler()
_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _setup_logging() -> None:
    """Install the one stderr handler on the root logger, at the QAP_LOG level."""
    raw = os.environ.get("QAP_LOG", "error").strip().lower()
    level = _LOG_LEVELS.get(raw, logging.ERROR)
    root = logging.getLogger()
    if _HANDLER not in root.handlers:
        root.addHandler(_HANDLER)
    root.setLevel(level)
    _HANDLER.setLevel(level)


def build_parser() -> argparse.ArgumentParser:
    epilog = ["commands:"]
    for name, fn in COMMANDS.items():
        summary = (fn.__doc__ or "").strip().partition("\n")[0]
        epilog.append(f"  {name:<17}{summary}")
    parser = argparse.ArgumentParser(
        prog="qap",
        description="Coefficient-flow eigenvalue experiments for the harmonic oscillator",
        epilog="\n".join(epilog),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--config", required=True, metavar="PATH", help="INI or JSON config file")
    parser.add_argument("--out", default=None, metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, default=None, metavar="N", help="override config seed")
    parser.add_argument("--h", type=float, default=None, metavar="FLOAT",
                        help="override step size")
    parser.add_argument("--method", choices=METHODS, default=None,
                        help="override integration method")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.h is not None:
            cfg.step = _read("grid", "h", args.h)
        if args.seed is not None:
            cfg.seed = _read("optimize", "seed", args.seed)
    except (QapError, ValueError) as err:
        print(f"config error: {err}")
        return EXIT_CONFIG
    if args.method is not None:
        cfg.method = args.method
    out_dir = args.out or cfg.out_dir or "."
    return run_command(args.command, cfg, out_dir)


if __name__ == "__main__":
    raise SystemExit(main())
