"""One workload process: set up once, then run operations in a closed loop.

    PYTHONPATH=src python3 bench/worker.py --workload NAME --seed N \\
        --seconds S --trace 0|1 [--size full|smoke] [--setup-only]
    PYTHONPATH=src python3 bench/worker.py --record

``bench/run.py`` starts this process and times it.  The process prints
``READY`` once wassinc is imported and the workload's configs are
loaded, then runs one warm-up operation and measured operations until
``--seconds`` would be exceeded, and prints one JSON line of results.
With ``--trace 1`` measured operations alternate between untraced and
traced; spans go to ``bench/.work/<workload>/spans.csv`` at exit.
``--record`` rewrites ``reference_digests.json`` from one operation of
each workload at the default seed.

One caller, no threads: each operation starts only after the previous
one, and its checks, have finished.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_OPS = 3  # measured untraced operations in a run with tracing off
MIN_TRACED = 2  # measured operations of each kind in a traced run
# Typical wall and CPU seconds of calibrate() on the baseline host; the
# scale of the host-corrected run_s and cpu_s.
CALIBRATION_REF_S = 0.020


def setup(name, seed, size):
    """Import wassinc, write and load the workload's configs."""
    import wassinc.cli
    from wassinc.config import load_config

    from workloads import Workload

    work = BENCH / ".work" / name
    work.mkdir(parents=True, exist_ok=True)
    workload = Workload(name, seed, ROOT, work, size)
    for path in workload.config_paths():
        load_config(path)
    return wassinc.cli, workload


def calibration_inputs():
    import numpy as np

    rng = np.random.default_rng(12345)
    return rng.random((96, 2)), rng.random((96, 2))


def calibrate(a, b):
    """Wall and CPU seconds of a fixed piece of work that uses no wassinc
    code: pairwise distances and an assignment, as in the workloads, and
    a plain Python loop.

    A shared host's speed drifts by tens of percent over seconds to
    minutes, in CPU time as much as in wall time.  Timed just before each
    operation, this work slows with the host, so an operation's seconds
    over the calibration's seconds stay steady from run to run.
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    start, cpu = time.perf_counter(), time.process_time()
    for _ in range(20):
        linear_sum_assignment(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2) ** 2)
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start, time.process_time() - cpu


def run_operation(cli, workload):
    """Run one operation; returns (wall seconds, CPU seconds, problems)."""
    shutil.rmtree(workload.out, ignore_errors=True)
    problems = []
    verdict_lines = io.StringIO()
    start, cpu = time.perf_counter(), time.process_time()
    for call in workload.calls:
        try:
            with contextlib.redirect_stdout(verdict_lines):
                code = cli.main(call.argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        except Exception:  # one failed operation must not end the run
            traceback.print_exc()
            code = "exception"
        if code != 0:
            problems.append(f"{call.stem}: exit {code}")
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    if not problems:
        problems = workload.check()
    return wall, cpu, problems


def digest_problems(digests, expected, what):
    if expected is None or digests == expected:
        return []
    differ = sorted(k for k in expected.keys() | digests.keys() if digests.get(k) != expected.get(k))
    return [f"files differ from {what}: {', '.join(differ)}"]


def environment():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run(args):
    cli, workload = setup(args.workload, args.seed, args.size)
    ready_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("READY", flush=True)
    cal_inputs = calibration_inputs()
    # the host's speed just after set-up, for the host-corrected setup_s
    setup_calibration_s = min(calibrate(*cal_inputs)[0] for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_calibration_s": setup_calibration_s}), flush=True)
        return 0

    from tracing import COUNT_METRICS, Tracer

    tracer = Tracer() if args.trace else None
    reference = workload.reference()
    first_digests = None
    first_counts = None
    attempted = failed = 0
    problems_seen = []
    durations = []  # every operation and its calibration, warm-up included
    run_s = {False: [], True: []}  # host-corrected, measured operations
    cpu_s = []
    wall_s = []  # as measured, untraced measured operations
    calibration_s = []
    layer_ops = []

    def operation(traced, measured):
        nonlocal attempted, failed, first_digests, first_counts
        cal_wall, cal_cpu = calibrate(*cal_inputs)
        if traced:
            tracer.op = len(layer_ops)
            tracer.install()
        try:
            seconds, cpu_seconds, problems = run_operation(cli, workload)
        finally:
            if traced:
                tracer.remove()
        digests = workload.digests()
        problems += digest_problems(digests, reference, "the reference digests")
        if first_digests is None:
            first_digests = digests
        problems += digest_problems(digests, first_digests, "the run's first operation")
        if traced:
            metrics = tracer.op_metrics()
            counts = {k: metrics[k] for k in COUNT_METRICS}
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                problems.append("per-module counts differ between traced operations")
            layer_ops.append(metrics)
        attempted += 1
        if problems:
            failed += 1
            problems_seen.extend(problems[:3])
            print(f"operation {attempted} failed: {problems[:3]}", file=sys.stderr)
        durations.append(cal_wall + seconds)
        if measured:
            run_s[traced].append(seconds * CALIBRATION_REF_S / cal_wall)
            if not traced:
                cpu_s.append(cpu_seconds * CALIBRATION_REF_S / cal_cpu)
                wall_s.append(seconds)
                calibration_s.append(cal_wall)

    operation(traced=False, measured=False)  # warm-up
    start = time.perf_counter()
    traced = False
    while True:
        if args.trace:
            enough = min(len(run_s[False]), len(run_s[True])) >= MIN_TRACED
        else:
            enough = len(run_s[False]) >= MIN_OPS
        elapsed = time.perf_counter() - start
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break
        operation(traced=traced, measured=True)
        if args.trace:
            traced = not traced

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems_seen[:10],
        "run_s": run_s[False],
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "calibration_s": calibration_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ready_rss_mb": ready_rss_mb,
        "setup_calibration_s": setup_calibration_s,
        "env": environment(),
    }
    if args.trace:
        layers = {k: statistics.median(op[k] for op in layer_ops) for k in layer_ops[0]}
        layers.update(first_counts)  # counts repeat exactly; keep them whole numbers
        layers["trace.overhead"] = statistics.median(run_s[True]) / statistics.median(run_s[False])
        result["traced_run_s"] = run_s[True]
        result["layers"] = layers
        tracer.write(BENCH / ".work" / args.workload / "spans.csv")
    print(json.dumps(result), flush=True)
    return 0


def record():
    """Write the digests of one default-seed operation of every workload."""
    from workloads import DEFAULT_SEED, GENERATED, REFERENCE

    digests = {}
    for name in (*GENERATED, "suite"):
        cli, workload = setup(name, DEFAULT_SEED, "full")
        _, _, problems = run_operation(cli, workload)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        digests[name] = workload.digests()
    REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
