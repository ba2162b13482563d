"""The benchmark's own tests, at smoke size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNT_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=3, cwd=ROOT, script=BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]  # fmt: skip
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload):
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = bench(workload, trace)
        result = result_of(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec
        }
        summary = next(l for l in proc.stdout.splitlines() if l.startswith("summary: "))
        assert "fail_frac=0.0000" in summary
        for m in spec:
            assert f"{m['name']}=" in summary and m["unit"] in summary
        env = json.loads(next(l for l in proc.stdout.splitlines() if l.startswith("env: "))[5:])
        assert {"nproc", "blas_threads", "python", "numpy", "scipy"} <= set(env)


@pytest.mark.parametrize("workload", ["track", "kernel"])
def test_per_module_counts_repeat_across_traced_runs(workload):
    first, second = (result_of(bench(workload, 1))["metrics"] for _ in range(2))
    for name in COUNT_METRICS:
        assert first[name] == second[name], name
    assert first["catalog.rule_calls"]["value"] > 0
    assert first["dynamics.steps"]["value"] > 0


def test_track_counts_follow_the_config():
    metrics = result_of(bench("track", 1))["metrics"]
    size = workloads.SIZES["smoke"]["track"]
    nodes = size["steps"] + 1
    # per config: one sup over the grid per iteration, then the measured series and W_p(mu0, nu0)
    assert metrics["measure.wp_calls"]["value"] == size["configs"] * (size["max_iter"] * nodes + nodes + 1)
    assert metrics["measure.pairwise_entries"]["value"] == metrics["measure.wp_calls"]["value"] * size["N"] ** 2
    assert metrics["filippov.iterations"]["value"] == size["configs"] * size["max_iter"]


def _smoke_args(name):
    return ["--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", "0", "--size", "smoke"]


def test_bad_config_counts_as_one_failed_operation(monkeypatch, capsys):
    calls = {"n": 0}
    real = worker.run_operation

    def second_one_bad(cli, workload):
        calls["n"] += 1
        path = workload.config_paths()[0]
        good = path.read_text()
        if calls["n"] == 2:
            path.write_text(good.replace('"p": 2', '"p": 0.5'))
        try:
            return real(cli, workload)
        finally:
            path.write_text(good)

    monkeypatch.setattr(worker, "run_operation", second_one_bad)
    assert worker.main(_smoke_args("track")) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert calls["n"] >= 4
    assert result["attempted"] == calls["n"]
    assert result["failed"] == 1


def test_digest_mismatch_fails_every_operation(monkeypatch, capsys):
    monkeypatch.setattr(workloads.Workload, "reference", lambda self: {"kernel-0/manifest.json": "0"})
    assert worker.main(_smoke_args("kernel")) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["failed"] == result["attempted"] >= 4
    assert "reference digests" in result["problems"][0]


def test_independent_check_catches_a_wrong_distance():
    cli, workload = worker.setup("gronwall1d", 3, "smoke")
    assert worker.run_operation(cli, workload)[2] == []
    report = workload.out / "gronwall1d-0" / "report.csv"
    lines = report.read_text().splitlines()
    t, measured, *rest = lines[5].split(",")
    lines[5] = ",".join([t, repr(float(measured) * (1 + 1e-6)), *rest])
    report.write_text("\n".join(lines) + "\n")
    problems = workload.check()
    assert any("W_1 at node 4" in p for p in problems)
    assert any("manifest digest differs" in p for p in problems)


def test_exits_nonzero_without_the_package():
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    proc = bench("suite", 0, cwd=bare, script=bare / "bench" / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
