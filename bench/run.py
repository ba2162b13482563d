"""wassinc benchmark: one workload, one closed-loop run, one result line.

    python3 bench/run.py --workload track|kernel|gronwall1d|suite \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``, never from an installed copy.  The run starts the
workload process (``bench/worker.py``) with BLAS/OpenMP pools capped at
the number of usable cores and fixed malloc thresholds (``MALLOC_ENV``),
times its set-up, and prints

* a line ``env: {...}`` with nproc, the thread cap and the
  Python/numpy/scipy versions, so figures from different machines are
  never compared unlabelled;
* a line ``summary: ...`` with every metric, its unit, and ``fail_frac``;
* last, one JSON object with ``correct``, ``attempted``, ``failed`` and
  ``metrics``: the end-to-end metrics with ``--trace 0``, the per-module
  metrics (and the tracing overhead) with ``--trace 1``.

``run_s`` and ``cpu_s`` are medians of host-corrected operation times:
each operation's wall (CPU) seconds times ``CALIBRATION_REF_S`` over the
wall (CPU) seconds of a fixed calibration run just before it (see
``bench/README.md``).  With ``--trace 0``, set-up is timed
``SETUP_SAMPLES`` times (set-up-only processes, then the measuring one),
each corrected by the fastest of three calibration runs just after it, and
the median reported.  An
operation fails if a call raises or exits non-zero, a check of its
outputs fails, or a file's sha256 differs from the reference digest or
from the run's first operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import PER_LAYER
from worker import CALIBRATION_REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("track", "kernel", "gronwall1d", "suite")
END_TO_END = [
    ("run_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
SETUP_SAMPLES = 3
# Fixed glibc malloc thresholds.  By default glibc raises its mmap
# threshold when a large block is freed, so whether the N x N temporaries
# come from the heap or from fresh (page-faulting) mmaps depends on the
# process's allocation history: track's host-corrected operation time was
# 1.01 to 1.03 s in every process for one seed and 1.23 to 1.37 s for
# another, with the same work.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(16 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}
TIME_LIMIT = 170.0  # seconds for the whole run, set-up samples included


def spawn(cmd, env, deadline):
    """Start ``cmd``; return (seconds until it printed READY, later stdout lines)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"workload process exited with {code} (first line {first.strip()!r})")
    return ready, rest


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for required in (ROOT / "src" / "wassinc" / "__init__.py", ROOT / "scenarios"):
        if not required.exists():
            print(f"error: {required} not found; run inside a wassinc checkout", file=sys.stderr)
            return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env.update(MALLOC_ENV)
    shutil.rmtree(BENCH / ".work" / args.workload, ignore_errors=True)
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", "smoke" if args.smoke else "full",
    ]  # fmt: skip
    deadline = time.monotonic() + TIME_LIMIT
    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                ready, lines = spawn(cmd + ["--setup-only"], env, deadline)
                setup.append(ready * CALIBRATION_REF_S / json.loads(lines[-1])["setup_calibration_s"])
        ready, lines = spawn(cmd, env, deadline)
        result = json.loads(lines[-1])
        setup.append(ready * CALIBRATION_REF_S / result["setup_calibration_s"])
    except (RuntimeError, IndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        specs = PER_LAYER
        values = result["layers"]
    else:
        specs = END_TO_END
        values = {
            "run_s": statistics.median(result["run_s"]),
            "cpu_s": statistics.median(result["cpu_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}
    attempted, failed = result["attempted"], result["failed"]

    print("env: " + json.dumps(result["env"], sort_keys=True))
    q1, q3 = quartiles(result["wall_s"])
    print(
        f"summary: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"operations={len(result['run_s'])} untraced measured (+1 warm-up) "
        f"operation wall median={statistics.median(result['wall_s']):.4f} s "
        f"quartiles=[{q1:.4f}, {q3:.4f}] s "
        f"calibration median={statistics.median(result['calibration_s']):.4f} s "
        f"peak above READY={result['peak_rss_mb'] - result['ready_rss_mb']:.2f} MB "
        f"fail_frac={failed / attempted:.4f} ({failed}/{attempted}) "
        + " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    )
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
