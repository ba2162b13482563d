#!/usr/bin/env python3
"""Run every bundled scenario and print a verdict table.

Usage: python scripts/run_suite.py [out_dir]

A scenario that cannot run prints ``error: <scenario>: <reason>`` and the
suite goes on.  Exit codes follow the CLI: 2 if any scenario errored, else
1 if some verdict failed, else 0.
"""

import sys
from pathlib import Path

from wassinc import load_config, run_scenario
from wassinc.cli import RUN_ERRORS

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    out_root = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "out"
    failures = errors = 0
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        try:
            manifest = run_scenario(load_config(path), out_root / path.stem)
        except RUN_ERRORS as exc:
            print(f"error: {path.stem}: {exc}", file=sys.stderr)
            errors += 1
            continue
        verdicts = manifest["verdicts"]
        status = "pass" if all(verdicts.values()) else "FAIL"
        failures += status == "FAIL"
        detail = ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in verdicts.items()) or "-"
        print(f"{path.stem:42s} {status:4s}  {detail}")
    return 2 if errors else 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
