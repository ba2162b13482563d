"""Command line entry point.

    wassinc simulate|peano|filippov|relax|verify --config <file.json> --out <dir>
            [--seed <u64>] [--particles <N>] [--steps <M>] [--p <real>]

The command selects (and overrides) the experiment kind declared in the
config, and its parameters are the ones checked; the optional flags
override the corresponding config values before any check.  Nothing is
written before the config passes.  Exit codes: 0 all verdicts pass, 1
some verdict failed, 2 configuration or runtime error (which leaves no
new output directory and no stale manifest).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import EXPERIMENTS, load_config
from .errors import ConfigError
from .runner import run_scenario

# what exits 2: bad input, or a runtime error the package raises on purpose
RUN_ERRORS = (ConfigError, OSError, ValueError, RuntimeError, OverflowError)


@functools.cache  # one parser per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wassinc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENTS:
        cmd = sub.add_parser(kind, help=f"run the {kind} experiment")
        cmd.add_argument("--config", required=True, help="scenario JSON file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--particles", type=int, default=None)
        cmd.add_argument("--steps", type=int, default=None)
        cmd.add_argument("--p", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(
            args.config, args.command, seed=args.seed, N=args.particles, steps=args.steps, p=args.p
        )
        manifest = run_scenario(config, args.out)
    except RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdicts = manifest.get("verdicts", {})
    for name, ok in verdicts.items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    return 0 if all(verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
