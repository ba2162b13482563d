import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wassinc import cli, measure, parse_config, run_scenario, runner, sample_initial, verify
from wassinc.cli import main as cli_main
from wassinc.errors import ConfigError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

BASE = {
    "p": 1,
    "T": 1.0,
    "d": 1,
    "N": 1,
    "seed": 7,
    "initial": {"kind": "atoms", "atoms": [[1.0]]},
    "field": {"label": "linear_decay", "rates": {"m": 1.0, "l": 1.0, "L": 0.0}},
    "grid": {"steps": 200},
    "experiment": {"kind": "simulate"},
}


def cfg(**overrides):
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return parse_config(raw)


class TestConfigParsing:
    def test_missing_field_named(self):
        raw = dict(BASE)
        del raw["grid"]
        with pytest.raises(ConfigError, match="'grid'"):
            parse_config(raw)

    def test_unknown_experiment_kind(self):
        with pytest.raises(ConfigError, match="experiment kind"):
            cfg(experiment={"kind": "does_not_exist"})

    def test_unknown_field_label(self, tmp_path):
        with pytest.raises(ConfigError, match="does_not_exist"):
            run_scenario(cfg(field={"label": "does_not_exist", "rates": {"m": 0, "l": 0, "L": 0}}), tmp_path)

    def test_rates_required(self, tmp_path):
        with pytest.raises(ConfigError, match="rates"):
            run_scenario(cfg(field={"label": "zero"}), tmp_path)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7", True])
    def test_seed_must_be_u64(self, seed):
        with pytest.raises(ConfigError, match="'seed'"):
            cfg(seed=seed)

    @pytest.mark.parametrize(
        "key, value", [("p", 0.5), ("p", math.nan), ("p", math.inf), ("T", 0.0), ("T", math.nan),
                       ("T", math.inf), ("d", 0), ("N", 0)]
    )
    def test_scalars_checked(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            cfg(**{key: value})

    def test_largest_seed_accepted(self):
        assert cfg(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("grid", [{"steps": 0}, {"steps": -3}, {}, {"steps": 2.5}])
    def test_grid_needs_a_step(self, grid):
        with pytest.raises(ConfigError, match="grid"):
            cfg(grid=grid)

    def test_atoms_shape_checked(self):
        with pytest.raises(ConfigError, match="atoms"):
            sample_initial({"kind": "atoms", "atoms": [[1.0, 2.0]]}, 1, 1, 0)


class TestSamplers:
    def test_reproducible_draws(self):
        a = sample_initial({"kind": "gaussian", "sigma": 2.0}, 8, 3, 5)
        b = sample_initial({"kind": "gaussian", "sigma": 2.0}, 8, 3, 5)
        np.testing.assert_array_equal(a.points, b.points)

    def test_two_clusters_centers(self):
        c = sample_initial({"kind": "two_clusters", "gap": 10.0, "sigma": 0.1}, 9, 2, 1)
        first = c.points[:5, 0]
        second = c.points[5:, 0]
        assert np.all(first > 4.0) and np.all(second < -4.0)

    def test_uniform_box(self):
        c = sample_initial({"kind": "uniform", "halfwidth": 0.5}, 32, 2, 3)
        assert np.all(np.abs(c.points) <= 0.5)


class TestVerifyKinds:
    def test_momentum_zero_field_trivial(self):
        report = verify(
            "momentum",
            cfg(field={"label": "zero", "rates": {"m": 0.0, "l": 0.0, "L": 0.0}}),
        )
        # bound = C_p M_p(mu0), measured stays at M_p(mu0)
        assert report.passed
        np.testing.assert_allclose(report.measured, report.measured[0])
        np.testing.assert_allclose(report.bound, report.measured[0] * report.constants["C_p"])

    def test_abs_continuity_passes(self):
        report = verify("abs_continuity", cfg())
        assert report.passed

    def test_hypotheses_probe_catalog_within_one(self):
        report = verify(
            "hypotheses_probe",
            cfg(
                N=8,
                initial={"kind": "gaussian", "sigma": 1.0},
                field={"label": "mean_attraction", "kappa": 1.5,
                       "rates": {"m": 1.5, "l": 1.5, "L": 1.5}},
                experiment={"kind": "verify", "what": "hypotheses_probe", "samples": 1000},
            ),
        )
        assert report.constants["n_triples"] == 1000
        assert report.times.size == 3 * 1000  # three ratio rows per triple
        assert report.passed
        ratios = [v for k, v in report.constants.items() if k.startswith("max_ratio_")]
        assert max(ratios) <= 1.0 + 1e-9

    def test_hypotheses_probe_family_path(self):
        report = verify(
            "hypotheses_probe",
            cfg(
                N=6,
                d=2,
                initial={"kind": "gaussian", "sigma": 1.0},
                field=None,
                family={"label": "mean_gain", "controls": [0.5, 1.0],
                        "rates": {"m": 1.0, "l": 1.0, "L": 1.0}},
                experiment={"kind": "verify", "what": "hypotheses_probe"},
            ),
        )
        assert report.passed
        assert report.constants["max_ratio_L"] > 0  # measure coupling probed

    def test_gronwall_global_closed_form(self):
        report = verify(
            "gronwall_global",
            cfg(
                grid={"steps": 1000},
                experiment={
                    "kind": "verify",
                    "what": "gronwall_global",
                    "w": {"label": "linear_decay", "rates": {"m": 1.0, "l": 1.0, "L": 0.0}},
                    "ref_initial": {"kind": "atoms", "atoms": [[0.0]]},
                },
            ),
        )
        assert report.passed
        closed = np.exp(-report.times)
        assert np.max(np.abs(report.measured - closed)) < 1e-3
        np.testing.assert_allclose(report.bound, np.exp(report.times), rtol=1e-12)

    def test_gronwall_local_at_infinite_radius_keeps_its_terms(self):
        raw = json.loads((SCENARIOS / "verify_gronwall_local_far_atom.json").read_text())
        raw["experiment"]["R"] = "inf"
        report = verify("gronwall_local", parse_config(raw))
        assert report.kind == "gronwall_local" and report.slack == 0.05
        assert report.constants["R"] == math.inf and "C_T" in report.constants
        np.testing.assert_array_equal(report.extras["E_term"], 0.0)  # no tail outside an infinite ball
        np.testing.assert_array_equal(report.extras["bound_without_tail"], report.bound)

    def test_empty_series_does_not_pass(self):
        # the schema refuses an empty R_list; a caller that skips it gets a verdict that fails
        config = cfg(experiment={"kind": "verify", "what": "equi_integrability"})
        config = dataclasses.replace(config, experiment={**config.experiment, "R_list": ()})
        report = verify("equi_integrability", config)
        assert report.measured.size == 0 and not report.passed

    def test_gronwall_reuses_initial_distance(self, monkeypatch):
        series, solves = [], []
        checks = sys.modules["wassinc.verify"]  # the package's ``verify`` is the function
        costs, solve = checks.wasserstein_costs, measure.linear_sum_assignment
        monkeypatch.setattr(checks, "wasserstein_costs", lambda a, b, p: series.append(len(a)) or costs(a, b, p))
        monkeypatch.setattr(measure, "linear_sum_assignment", lambda D: solves.append(1) or solve(D))
        report = verify(
            "gronwall_global",
            cfg(
                grid={"steps": 10},
                experiment={
                    "kind": "verify",
                    "what": "gronwall_global",
                    "w": {"label": "linear_decay", "rates": {"m": 1.0, "l": 1.0, "L": 0.0}},
                    "ref_initial": {"kind": "atoms", "atoms": [[0.0]]},
                },
            ),
        )
        assert series == [11] and solves == []  # one-atom clouds: one array pass over every node, no solve
        assert report.constants["W_p_initial"] == report.measured[0]

    def test_missing_kind_parameter_named(self):
        with pytest.raises(ConfigError, match="'w'"):
            verify("gronwall_global", cfg(experiment={"kind": "verify", "what": "gronwall_global"}))
        with pytest.raises(ConfigError, match="'R'"):
            verify(
                "gronwall_local",
                cfg(
                    experiment={
                        "kind": "verify",
                        "what": "gronwall_local",
                        "w": {"label": "zero", "rates": {"m": 0, "l": 0, "L": 0}},
                        "ref_initial": {"kind": "atoms", "atoms": [[0.0]]},
                    }
                ),
            )

    @pytest.mark.parametrize("what,steps", [("momentum", 100), ("abs_continuity", 100)])
    def test_pass_stable_under_refinement(self, what, steps):
        base = cfg(
            N=8,
            initial={"kind": "gaussian", "sigma": 1.0},
            field={"label": "mean_attraction", "kappa": 1.0,
                   "rates": {"m": 1.0, "l": 1.0, "L": 1.0}},
            grid={"steps": steps},
            experiment={"kind": "verify", "what": what},
        )
        fine = cfg(
            N=8,
            initial={"kind": "gaussian", "sigma": 1.0},
            field={"label": "mean_attraction", "kappa": 1.0,
                   "rates": {"m": 1.0, "l": 1.0, "L": 1.0}},
            grid={"steps": 2 * steps},
            experiment={"kind": "verify", "what": what},
        )
        assert verify(what, base).passed
        assert verify(what, fine).passed


class TestRunScenario:
    def test_trajectory_row_count(self, tmp_path):
        config = cfg(grid={"steps": 10}, N=1)
        run_scenario(config, tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,particle,x1"
        assert len(lines) == 1 + 11  # header + (steps + 1) rows for one particle

    def test_margins_reproducible_from_csv(self, tmp_path):
        config = cfg(
            grid={"steps": 50},
            experiment={
                "kind": "verify",
                "what": "gronwall_global",
                "w": {"label": "linear_decay", "rates": {"m": 1.0, "l": 1.0, "L": 0.0}},
                "ref_initial": {"kind": "atoms", "atoms": [[0.0]]},
            },
        )
        run_scenario(config, tmp_path)
        rows = (tmp_path / "report.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            t, measured, bound, margin = (float(v) for v in row.split(","))
            assert margin == bound - measured

    def test_byte_identical_reruns(self, tmp_path):
        config = cfg(
            N=4,
            initial={"kind": "gaussian", "sigma": 1.0},
            family={"label": "mean_gain", "controls": [0.5, 1.0],
                    "rates": {"m": 1.0, "l": 1.0, "L": 1.0}},
            field=None,
            grid={"steps": 32},
            experiment={"kind": "peano", "n": 4, "substeps": 8, "strategy": "random"},
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_scenario(config, out_a)
        run_scenario(config, out_b)
        for name in ("trajectory.csv", "signal.csv", "report.csv", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


    def test_peano_solves_each_n_once_and_warns_once(self, tmp_path, monkeypatch):
        # peano_mean_gain: n = 8 and n_list [4, 8, 16, 32]
        config = parse_config(json.loads((SCENARIOS / "peano_mean_gain.json").read_text()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # the interpreter's action: once per call site
            run_scenario(config, tmp_path / "a")
        assert ["convex-valued" in str(w.message) for w in caught] == [True]
        solved, solve = [], runner.peano_solve
        monkeypatch.setattr(runner, "peano_solve", lambda family, start, n, *args, **kw: (
            solved.append(n) or solve(family, start, n, *args, **kw)))
        run_scenario(config, tmp_path / "b")
        assert solved == [4, 8, 16, 32]


class TestCli:
    def _write(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_exit_zero_on_pass(self, tmp_path):
        raw = json.loads(json.dumps(BASE))
        code = cli_main(
            ["simulate", "--config", self._write(tmp_path, raw), "--out", str(tmp_path / "o")]
        )
        assert code == 0

    def test_one_parser_serves_every_call(self, tmp_path, capsys, monkeypatch):
        """The parser is built once per process, and no call leaves a value
        or an error behind for the next."""
        seen = []
        run = cli.run_scenario
        monkeypatch.setattr(cli, "run_scenario", lambda config, out: seen.append(config.p) or run(config, out))
        path = self._write(tmp_path, BASE)

        def main(out, *flags):
            return cli_main(["simulate", "--config", path, "--out", str(tmp_path / out), *flags])

        assert cli.build_parser() is cli.build_parser()
        assert main("a", "--p", "3") == 0 and main("b") == 0
        assert seen == [3.0, BASE["p"]]
        with pytest.raises(SystemExit) as info:
            main("c", "--bogus")
        assert info.value.code == 2 and "--bogus" in capsys.readouterr().err
        assert main("d", "--steps", "7") == 0 and seen[-1] == BASE["p"]
        assert len((tmp_path / "d" / "trajectory.csv").read_text().splitlines()) == 1 + 8 * BASE["N"]
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("experiment, key, spec, message", [
        ({"kind": "simulate"}, "field", {"label": "constant", "vector": [1.0, 2.0, 3.0]},
         "field 'vector' must have d = 1 entries, got 3"),
        ({"kind": "peano", "n": 4, "substeps": 2, "strategy": "min_norm"}, "family",
         {"label": "constants", "controls": [[1.0], [1.0, 2.0]]}, "family 'controls'[1] must have d = 1 entries, got 2"),
    ])
    def test_exit_two_on_a_vector_of_the_wrong_dimension(self, tmp_path, capsys, experiment, key, spec, message):
        raw = json.loads(json.dumps(BASE))
        raw.update({key: {**spec, "rates": {"m": 1.0, "l": 0.0, "L": 0.0}}, "experiment": experiment})
        out = tmp_path / "o"
        assert cli_main([experiment["kind"], "--config", self._write(tmp_path, raw), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_exit_two_on_config_error(self, tmp_path):
        raw = json.loads(json.dumps(BASE))
        raw["field"]["label"] = "does_not_exist"
        code = cli_main(
            ["simulate", "--config", self._write(tmp_path, raw), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize("flags", [[], ["--seed", "-1"]])
    def test_negative_seed_exits_two(self, tmp_path, capsys, flags):
        raw = json.loads(json.dumps(BASE))
        if not flags:
            raw["seed"] = -1
        code = cli_main(
            ["simulate", "--config", self._write(tmp_path, raw), "--out", str(tmp_path / "o")]
            + flags
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: 'seed'")

    def test_failing_experiment_writes_nothing(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "o"
        out.mkdir()
        (out / "trajectory.csv").write_bytes(b"sentinel\n")

        def fail(*args, **kwargs):
            raise RuntimeError("refinement failed")

        monkeypatch.setattr("wassinc.runner.refinement_study", fail)
        code = cli_main(["peano", "--config", str(SCENARIOS / "peano_mean_gain.json"), "--out", str(out)])
        assert code == 2 and capsys.readouterr().err == "error: refinement failed\n"
        assert (out / "trajectory.csv").read_bytes() == b"sentinel\n"
        assert [path.name for path in out.iterdir()] == ["trajectory.csv"]  # no signal.csv, no manifest

    def test_overflowing_bound_saturates(self, tmp_path, capsys):
        # exp(C_p' (l T)^p) = exp(5e5) is past the float range
        raw = json.loads(json.dumps(BASE))
        raw.update(p=2, T=10.0)
        raw["field"]["rates"]["l"] = 100.0
        raw["experiment"] = {
            "kind": "verify",
            "what": "gronwall_global",
            "w": {"label": "linear_decay", "rates": {"m": 1.0, "l": 1.0, "L": 0.0}},
            "ref_initial": {"kind": "atoms", "atoms": [[0.0]]},
        }
        out = tmp_path / "o"
        code = cli_main(["verify", "--config", self._write(tmp_path, raw), "--out", str(out)])
        verdicts = json.loads((out / "manifest.json").read_text())["verdicts"]
        assert code == (0 if all(verdicts.values()) else 1)
        assert "Traceback" not in capsys.readouterr().err
        bounds = [float(r.split(",")[2]) for r in (out / "report.csv").read_text().split()[1:]]
        assert not any(math.isnan(b) for b in bounds) and bounds[-1] == math.inf

    def test_overflowing_power_saturates(self, tmp_path, capsys):
        # (l t)^p = (1e100 t)^4 is past the float range before exp sees it: every bound past
        # t = 0 is inf, so the run checked nothing and is refused
        raw = json.loads(json.dumps(BASE))
        raw.update(p=4, T=10.0, grid={"steps": 20})
        raw["field"]["rates"]["l"] = 1e100
        raw["experiment"] = {
            "kind": "verify",
            "what": "gronwall_global",
            "w": {"label": "linear_decay", "rates": {"m": 1.0, "l": 1.0, "L": 0.0}},
            "ref_initial": {"kind": "atoms", "atoms": [[0.0]]},
        }
        out = tmp_path / "o"
        code = cli_main(["verify", "--config", self._write(tmp_path, raw), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "error: gronwall_global checked nothing at p = 4: its bound is inf from t = 0.5 on\n")
        bounds = verify("gronwall_global", parse_config(raw)).bound
        assert not np.isnan(bounds).any() and bounds[-1] == math.inf

    def test_overflowing_moment_ends_by_its_verdict(self, tmp_path, capsys):
        # |x|^2 = 1e308 per atom: the direct sum of the moment passes the float range
        raw = json.loads(json.dumps(BASE))
        raw.update(p=2, N=2, initial={"kind": "atoms", "atoms": [[1e154], [1e154]]})
        raw["experiment"] = {"kind": "verify", "what": "momentum"}
        out = tmp_path / "o"
        code = cli_main(["verify", "--config", self._write(tmp_path, raw), "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        measured = [float(r.split(",")[1]) for r in (out / "report.csv").read_text().split()[1:]]
        assert measured[0] == 1e154 and all(math.isfinite(m) for m in measured)

    def test_overflowing_transport_cost_exits_two(self, tmp_path, capsys):
        # the matched |x - y|^2 are finite, their total is not: W_2 has no float value
        raw = json.loads(json.dumps(BASE))
        raw.update(p=2, N=2, initial={"kind": "atoms", "atoms": [[0.0], [3e154]]})
        raw["experiment"] = {
            "kind": "verify",
            "what": "gronwall_global",
            "w": {"label": "linear_decay", "rates": {"m": 1.0, "l": 1.0, "L": 0.0}},
            "ref_initial": {"kind": "atoms", "atoms": [[1e154], [4e154]]},
        }
        out = tmp_path / "o"
        assert cli_main(["verify", "--config", self._write(tmp_path, raw), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name", ["verify_equi_two_clusters", "verify_momentum_mean_attraction"])
    def test_large_p_keeps_power_means_finite(self, tmp_path, capsys, name):
        # |x|^2000 overflows for |x| > 1.43: the power means scale by their largest value
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli_main(["verify", "--config", str(SCENARIOS / f"{name}.json"), "--out", str(out), "--p", "2000"])
            config = parse_config({**json.loads((SCENARIOS / f"{name}.json").read_text()), "p": 2000.0})
            measured = verify(config.experiment["what"], config).measured
        if name == "verify_momentum_mean_attraction":  # its bound is inf past t = 0: nothing was checked
            assert code == 2 and not out.exists()
            assert capsys.readouterr().err == (
                "error: momentum checked nothing at p = 2000: its bound is inf from t = 0.005 on\n")
        else:
            verdicts = json.loads((out / "manifest.json").read_text())["verdicts"]
            assert code == 0 and all(verdicts.values())
            assert capsys.readouterr().err == ""
            assert [float(r.split(",")[1]) for r in (out / "report.csv").read_text().split()[1:]] == measured.tolist()
        assert all(math.isfinite(m) for m in measured)

    def test_saturated_abs_continuity_constant_beside_a_zero_rate(self, tmp_path, capsys):
        # c_p saturates to inf at p = 64: a step with int m = 0 is bounded by 0, not NaN
        raw = json.loads(json.dumps(BASE))
        raw.update(N=4, initial={"kind": "uniform", "halfwidth": 1.0}, grid={"steps": 10},
                   field={"label": "zero", "rates": {"m": {"breakpoints": [0, 0.5, 1], "values": [2, 0]},
                                                     "l": 0.0, "L": 0.0}},
                   experiment={"kind": "verify", "what": "abs_continuity"})
        out = tmp_path / "o"
        code = cli_main(["verify", "--config", self._write(tmp_path, raw), "--out", str(out), "--p", "64"])
        assert code == 0 and capsys.readouterr() == ("abs_continuity: pass\n", "")
        rows = [[float(v) for v in r.split(",")] for r in (out / "report.csv").read_text().split()[1:]]
        assert [r[1] for r in rows] == [0.0] * 10
        assert [r[2] for r in rows] == [math.inf] * 5 + [0.0] * 5

    def test_probe_jitter_overflow_exits_two_without_a_warning(self, tmp_path, capsys):
        # scaling atoms at 1e308 by up to 2 overflows: the probe's finite check names it, numpy stays quiet
        raw = json.loads((SCENARIOS / "verify_hypotheses_probe_catalog.json").read_text())
        raw["initial"] = {"kind": "atoms", "atoms": [[1e308, -1e308]] * raw["N"]}
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli_main(["verify", "--config", self._write(tmp_path, raw), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == "error: cloud coordinates must be finite\n"

    def test_zero_declared_rate_fails_honestly(self, tmp_path, capsys):
        # the bundled catalog probe with m = 0 and a nonzero rule
        raw = json.loads((SCENARIOS / "verify_hypotheses_probe_catalog.json").read_text())
        raw["field"]["rates"]["m"] = 0.0
        out = tmp_path / "o"
        code = cli_main(["verify", "--config", self._write(tmp_path, raw), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().out == "hypotheses_probe: FAIL\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["verdicts"] == {"hypotheses_probe": False}
        assert manifest["constants"]["max_ratio_m"] == "inf"
        assert manifest["constants"]["max_ratio_l"] <= 1.0 + 1e-9

    def test_zero_steps_flag_exits_two(self, tmp_path, capsys):
        raw = json.loads(json.dumps(BASE))
        raw["experiment"] = {"kind": "verify", "what": "momentum"}
        args = ["verify", "--config", self._write(tmp_path, raw), "--out", str(tmp_path / "o")]
        assert cli_main(args + ["--steps", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: grid 'steps'")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p", "0.5"], "error: 'p' must be finite and >= 1"),
            (["--p", "inf"], "error: 'p' must be finite and >= 1"),
            (["--particles", "0"], "error: 'd' and 'N'"),
        ],
    )
    def test_invalid_flag_override_exits_two(self, tmp_path, capsys, flags, message):
        # the overrides go through the same checks as the config file
        args = ["simulate", "--config", str(SCENARIOS / "simulate_linear_decay.json"),
                "--out", str(tmp_path / "o")]
        assert cli_main(args + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_command_overrides_experiment(self, tmp_path):
        raw = json.loads(json.dumps(BASE))
        raw["experiment"] = {
            "kind": "simulate",
            "what": "momentum",
        }
        code = cli_main(
            ["verify", "--config", self._write(tmp_path, raw), "--out", str(tmp_path / "o")]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["experiment"] == "verify"
        assert manifest["verdicts"] == {"momentum": True}

    def test_flag_overrides(self, tmp_path):
        raw = json.loads(json.dumps(BASE))
        raw["initial"] = {"kind": "gaussian", "sigma": 1.0}
        code = cli_main(
            [
                "simulate",
                "--config", self._write(tmp_path, raw),
                "--out", str(tmp_path / "o"),
                "--particles", "3",
                "--steps", "5",
            ]
        )
        assert code == 0
        lines = (tmp_path / "o" / "trajectory.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 6

    def test_seed_and_p_flags(self, tmp_path):
        raw = json.loads(json.dumps(BASE))
        raw["initial"] = {"kind": "gaussian", "sigma": 1.0}
        raw["experiment"] = {"kind": "verify", "what": "momentum"}
        args = ["verify", "--config", self._write(tmp_path, raw),
                "--seed", "77", "--p", "2.0"]
        assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
        man_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        man_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert man_a["seed"] == 77
        assert man_a["constants"]["C_p"] == math.sqrt(2.0)  # p = 2 applied
        assert man_a["files"] == man_b["files"]

    def test_console_script_runs(self, tmp_path):
        raw = json.loads(json.dumps(BASE))
        path = self._write(tmp_path, raw)
        proc = subprocess.run(
            [sys.executable, "-m", "wassinc.cli", "simulate", "--config", path,
             "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0

    def test_paths_without_a_solve_never_load_scipy(self, tmp_path):
        # a fresh interpreter: scipy loads on the first assignment solve or pairwise distance only
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**BASE, "typo": 1}))
        script = f"""
import sys
from pathlib import Path
from wassinc import load_config
from wassinc.cli import main

def loaded(stage):
    print(stage, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')[:3])

for path in sorted(Path({str(SCENARIOS)!r}).glob('*.json')):
    load_config(path)
loaded('load_config')
code = main(['simulate', '--config', {str(SCENARIOS / 'simulate_linear_decay.json')!r}, '--out', {str(tmp_path / 'o')!r}])
loaded(f'simulate exit {{code}}')
code = main(['verify', '--config', {str(bad)!r}, '--out', {str(tmp_path / 'bad')!r}])
loaded(f'bad config exit {{code}}')
"""
        path = os.pathsep.join([str(SCENARIOS.parent / "src"), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["load_config []", "simulate exit 0 []", "bad config exit 2 []"]
