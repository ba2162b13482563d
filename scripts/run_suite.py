#!/usr/bin/env python3
"""Run every bundled scenario and print a verdict table.

Usage: python scripts/run_suite.py [out_dir]

Each row gives the scenario, its status, the wall time of loading and
running it, and its verdicts; a last line gives the total wall time.  The
times go to stdout only, never into an output file.

A scenario that cannot run prints ``error: <scenario>: <reason>`` and the
suite goes on.  Exit codes follow the CLI: 2 if any scenario errored, else
1 if some verdict failed, else 0.
"""

import sys
import time
from pathlib import Path

from wassinc import load_config, run_scenario
from wassinc.cli import RUN_ERRORS

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    out_root = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "out"
    failures = errors = 0
    total = 0.0
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        start = time.perf_counter()
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
        seconds = time.perf_counter() - start
        total += seconds
        print(f"{path.stem:42s} {status:4s} {seconds:7.3f} s  {detail}")
    print(f"{'total':42s} {'':4s} {total:7.3f} s")
    return 2 if errors else 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
