"""Run the benchmark on several workloads and seeds and summarise it.

    python3 bench/report.py [--seeds 0,1,2] [--trace 0|1] [--json FILE]

Each (workload, seed) is one ``bench/run.py`` process; all seeds of one
workload run back to back, since the host's speed drifts over tens of
minutes.  Prints, per workload and metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (q3 - q1)
over the median, and ``fail_frac`` over all runs.  ``--json`` also
writes that summary with the environment of the runs.  The workloads and
the seconds per run are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
    }


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return json.loads(lines[-1]), env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0", help="comma-separated seeds (default 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]

    values = {w: {} for w in workloads}
    units = {}
    counts = {w: [0, 0] for w in workloads}
    env = None
    for w in workloads:
        for seed in seeds:
            result, env = run_once(w, seed, seconds, args.trace)
            counts[w][0] += result["attempted"]
            counts[w][1] += result["failed"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"# {w} seed={seed} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ), file=sys.stderr)

    summary = {
        "seconds": seconds,
        "seeds": seeds,
        "trace": args.trace,
        "env": env,
        "workloads": {
            w: {
                "attempted": counts[w][0],
                "failed": counts[w][1],
                "fail_frac": counts[w][1] / counts[w][0],
                "metrics": {
                    name: dict(summarise(vals), unit=units[name]) for name, vals in values[w].items()
                },
            }
            for w in workloads
        },
    }
    print(f"env: {json.dumps(env, sort_keys=True)}  seconds={seconds}  seeds={seeds}")
    for w, s in summary["workloads"].items():
        print(f"{w}: fail_frac={s['fail_frac']:.4f} ({s['failed']}/{s['attempted']})")
        for name, m in s["metrics"].items():
            print(
                f"  {name:30s} {m['median']:14.6g} {m['unit']:6s} "
                f"q1={m['q1']:.6g} q3={m['q3']:.6g} spread={m['spread']:.4f} n={m['n']}"
            )
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(s["failed"] == 0 for s in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
