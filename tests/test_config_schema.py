"""One checked config schema: every value a scenario declares is typed,
range-checked and built by ``parse_config`` before anything runs or is
written, so bad input exits 2 with one ``error:`` line naming the key and
leaves no output directory.  Also the library guards for callers that skip
the schema, the blow-up report, the suite script's exit codes, and the
README table against the schema it is rendered from."""

import contextlib
import importlib.util
import io
import json
import math
import shutil
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import wassinc.config as config_module
import wassinc.filippov as filippov_module
from wassinc import ControlledFamily, ParticleCloud, RateFunctions, integrate, parse_config
from wassinc.catalog import constants_family, gain_family, zero_field
from wassinc.errors import BlowUpError, ConfigError
from wassinc.filippov import filippov_track
from wassinc.inclusion import ControlSignal, peano_solve
from wassinc.relax import ChatteringControl, convexify, relax_approximate

from conftest import fast_constant_field, run_cli

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def scenario(name):
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def mutate(raw, path, value=None, drop=False):
    """``raw`` with the value at the dotted ``path`` replaced (or dropped)."""
    *blocks, key = path.split(".")
    node = raw
    for block in blocks:
        node = node[block]
    if drop:
        del node[key]
    else:
        node[key] = value
    return raw


# (scenario, path, value, the key the error must name); each of these
# ended in a traceback or ran on a truncated or coerced value before
CASES = {
    "steps_list": ("simulate_linear_decay", "grid.steps", [3], "grid 'steps'"),
    "grid_null": ("simulate_linear_decay", "grid", None, "'grid'"),
    "initial_null": ("simulate_linear_decay", "initial", None, "'initial'"),
    "sigma_list": ("peano_mean_gain", "initial.sigma", [1, 2], "initial 'sigma'"),
    "label_number": ("simulate_linear_decay", "field.label", 3, "field 'label'"),
    "controls_number": ("peano_mean_gain", "family.controls", 5, "family 'controls'"),
    "w_null": ("filippov_gain", "experiment.w", None, "experiment 'w'"),
    "R_list": ("filippov_gain", "experiment.R", [1], "experiment 'R'"),
    "n_list_null": ("peano_mean_gain", "experiment.n_list", None, "experiment 'n_list'"),
    "steps_zero": ("simulate_linear_decay", "grid.steps", 0, "grid 'steps'"),
    "delta_negative": ("relax_bangbang", "experiment.delta", -1, "experiment 'delta'"),
    "N_fraction": ("simulate_linear_decay", "N", 2.9, "'d' and 'N'"),
    "steps_fraction": ("simulate_linear_decay", "grid.steps", 20.9, "grid 'steps'"),
    "max_iter_fraction": ("filippov_gain", "experiment.max_iter", 2.5, "experiment 'max_iter'"),
    "n_fraction": ("peano_mean_gain", "experiment.n", 8.7, "experiment 'n'"),
    "T_string": ("simulate_linear_decay", "T", "1", "'T'"),
    "slack_string": ("verify_momentum_mean_attraction", "slack", "0.1", "'slack'"),
    "steps_string": ("simulate_linear_decay", "grid.steps", "20", "grid 'steps'"),
    "delta_bool": ("relax_bangbang", "experiment.delta", True, "experiment 'delta'"),
    "samples_below_floor": ("verify_hypotheses_probe_catalog", "experiment.samples", 999, "experiment 'samples'"),
    "tol_nan": ("filippov_gain", "experiment.tol", math.nan, "experiment 'tol'"),
    "n_list_fraction": ("peano_mean_gain", "experiment.n_list", [4, 4.5], "experiment 'n_list'[1]"),
    "weights_fraction": ("relax_bangbang", "experiment.weights", [1.5, 0.5], "experiment 'weights'[0]"),
    "rate_string": ("relax_bangbang", "family.rates.m", "7", "config.family.rates.m:"),
    "T_huge_integer": ("simulate_linear_decay", "T", 10**400, "'T'"),
    "p_huge_integer": ("verify_momentum_mean_attraction", "p", 10**400, "'p'"),
    "R_huge_integer": ("filippov_gain", "experiment.R", 10**400, "experiment 'R'"),
    "vector_short": ("verify_momentum_mean_attraction", "field", {"label": "constant", "vector": [1.0], "rates": {
        "m": 1.0, "l": 0.0, "L": 0.0}}, "field 'vector'"),
    "vector_long": ("verify_gronwall_local_far_atom", "field.vector", [1.0, 2.0], "field 'vector'"),
    "w_vector_long": ("filippov_constants", "experiment.w", {"label": "constant", "vector": [1.0, 0.0], "rates": {
        "m": 1.0, "l": 0.0, "L": 0.0}}, "experiment.w 'vector'"),
    "controls_short": ("peano_mean_gain", "family", {"label": "constants", "controls": [[1.0, 0.0], [1.0]], "rates": {
        "m": 1.0, "l": 0.0, "L": 0.0}}, "family 'controls'[1]"),
    "controls_ragged": ("relax_bangbang", "family.controls", [[-1.0], [1.0, 0.0]], "family 'controls'[1]"),
    "n_list_decreasing": ("peano_mean_gain", "experiment.n_list", [8, 4], "experiment 'n_list'"),
    "n_list_single": ("peano_mean_gain", "experiment.n_list", [4], "experiment 'n_list'"),
    "R_list_empty": ("verify_equi_two_clusters", "experiment.R_list", [], "experiment 'R_list'"),
    "controls_empty": ("filippov_constants", "family.controls", [], "family 'controls'"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_value_exits_two_naming_the_key(tmp_path, capsys, case):
    name, path, value, key = CASES[case]
    raw = mutate(scenario(name), path, value)
    code, out = run_cli(tmp_path, raw["experiment"]["kind"], raw)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1, err
    assert not out.exists()


def test_relax_bases_in_any_order(tmp_path):
    # the mixture is the bases and weights as listed; the order only orders each block's switches
    sups = []
    for bases in ([0, 1], [1, 0]):
        (tmp_path / str(bases[0])).mkdir()
        code, out = run_cli(tmp_path / str(bases[0]), "relax", mutate(scenario("relax_bangbang"), "experiment.bases", bases))
        assert code == 0
        sups.append(json.loads((out / "manifest.json").read_text())["constants"]["measured_sup"])
    assert sups[0] == sups[1]
    for bases in ([1, 1], [0, 0]):
        parse_config(mutate(scenario("relax_bangbang"), "experiment.bases", bases))
    with pytest.raises(ConfigError, match=r"^experiment 'bases' must be control indices below 2$"):
        parse_config(mutate(scenario("relax_bangbang"), "experiment.bases", [0, 2]))


# (scenario, dotted path of a key that no table of its block names)
UNKNOWN_KEYS = {
    "top": ("simulate_linear_decay", "typo"),
    "grid": ("simulate_linear_decay", "grid.typo"),
    "sampler": ("peano_mean_gain", "initial.typo"),
    "field": ("simulate_linear_decay", "field.typo"),
    "family": ("peano_mean_gain", "family.typo"),
    "rates": ("peano_mean_gain", "family.rates.typo"),
    "experiment": ("simulate_linear_decay", "experiment.methd"),
    "check": ("verify_momentum_mean_attraction", "experiment.typo"),
    "w": ("filippov_gain", "experiment.w.typo"),
    "ref_initial": ("filippov_gain", "experiment.ref_initial.typo"),
    # a key of another sampler kind or field label
    "other_kind": ("simulate_linear_decay", "initial.halfwidth"),
    "other_label": ("simulate_linear_decay", "field.kappa"),
    "w_other_label": ("filippov_gain", "experiment.w.vector"),
    "ref_initial_other_kind": ("filippov_gain", "experiment.ref_initial.sigma"),
    # keys that no longer exist: a grid is its steps, a mixture's denominator its
    # weights' sum, and a relax run's radius the tail rule
    "grid_dt": ("simulate_linear_decay", "grid.dt"),
    "weight_steps": ("relax_bangbang", "experiment.weight_steps"),
    "radius_policy": ("relax_bangbang", "experiment.radius_policy"),
}


@pytest.mark.parametrize("case", list(UNKNOWN_KEYS))
def test_an_unknown_key_exits_two_naming_it_and_its_block(tmp_path, capsys, case):
    name, path = UNKNOWN_KEYS[case]
    raw = mutate(scenario(name), path, 1)
    code, out = run_cli(tmp_path, raw["experiment"]["kind"], raw)
    block, _, key = f"config.{path}".rpartition(".")
    assert code == 2 and capsys.readouterr().err == f"error: unknown key '{key}' in {block}\n"
    assert not out.exists()


def test_an_unknown_key_of_a_rate_segment_is_named():
    raw = mutate(scenario("simulate_linear_decay"), "field.rates.m", {"breakpoints": [0, 1], "values": [1], "value": 1})
    with pytest.raises(ConfigError, match=r"^unknown key 'value' in config.field.rates.m$"):
        parse_config(raw)


def test_a_kind_override_reads_the_keys_of_every_kind():
    # an experiment block may hold any kind's or check's keys, so each bundled
    # scenario runs as every kind it has the blocks for
    for path in SCENARIOS.glob("*.json"):
        for kind in ("simulate", "peano", "filippov", "relax", "verify"):
            try:
                parse_config(scenario(path.stem), kind)
            except ConfigError as exc:
                assert not str(exc).startswith("unknown key"), (path.stem, kind, exc)


def test_config_error_leaves_no_directory(tmp_path, capsys):
    raw = mutate(scenario("peano_mean_gain"), "experiment.n", drop=True)
    code, out = run_cli(tmp_path, "peano", raw)
    assert code == 2 and capsys.readouterr().err == "error: missing field 'n' in config.experiment\n"
    assert not out.exists()


def test_failed_rerun_leaves_no_stale_manifest(tmp_path, capsys):
    raw = scenario("simulate_linear_decay")
    assert run_cli(tmp_path, "simulate", raw)[0] == 0
    raw["T"] = 100.0
    raw["field"] = {"label": "constant", "vector": [1e308], "rates": {"m": 1e308, "l": 0.0, "L": 0.0}}
    code, out = run_cli(tmp_path, "simulate", raw)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: non-finite coordinate after step ") and err.count("\n") == 1, err
    assert "particle 0, last finite position [" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("m, message", [(1.0, "needs 80 blocks"), (7.0, "needs inf blocks")])
def test_runtime_error_leaves_no_new_directory(tmp_path, capsys, m, message):
    # with m = 7 the moment constant overflows, which once divided by zero
    raw = mutate(scenario("relax_bangbang"), "grid.steps", 40)
    raw["family"]["rates"]["m"] = m
    code, out = run_cli(tmp_path, "relax", raw)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: delta = 0.1 {message} but the signal grid has only 40")
    assert not out.exists()


def test_subcommand_kind_is_the_one_checked(tmp_path, capsys):
    # a verify config run as peano: peano's keys are checked, verify's ignored
    raw = mutate(scenario("verify_momentum_mean_attraction"), "experiment.n", 4)
    assert run_cli(tmp_path, "peano", raw)[0] == 2
    assert capsys.readouterr().err == "error: peano needs a 'family' block\n"
    config = parse_config(scenario("verify_momentum_mean_attraction"), "simulate", steps=4)
    assert config.experiment == {"kind": "simulate", "method": "euler"}
    assert config.steps == 4


def test_defaults_filled_in_and_typed():
    config = parse_config(mutate(scenario("relax_bangbang"), "experiment.max_iter", drop=True))
    exp = config.experiment
    assert exp["max_iter"] == 25 and exp["tol"] == 1e-9
    assert exp["bases"] == (0, 1) and exp["delta"] == 0.1
    config = parse_config(scenario("verify_equi_two_clusters"))
    assert config.experiment["R_list"] == (1.0, 2.0, 5.0)
    assert parse_config(mutate(scenario("filippov_gain"), "experiment.R", drop=True)).experiment["R"] == math.inf
    with pytest.raises(ConfigError, match=r"^missing field 'steps' in config.grid$"):
        parse_config(mutate(scenario("simulate_linear_decay"), "grid.steps", drop=True))


# (scenario, path, value); each asked numpy for an array it could not index
# or allocate, and ended in a traceback with exit 1 or a numpy error
TOO_LARGE = {
    "N_huge_atoms": ("simulate_linear_decay", "N", 10**400),
    "N_huge": ("verify_momentum_mean_attraction", "N", 10**400),
    "N_1e10": ("verify_momentum_mean_attraction", "N", 10**10),
    "steps_huge": ("verify_momentum_mean_attraction", "grid.steps", 10**400),
    "d_huge": ("verify_momentum_mean_attraction", "d", 10**12),
    "peano_n": ("peano_mean_gain", "experiment.n", 10**9),
    "n_list_entry": ("peano_mean_gain", "experiment.n_list", [4, 10**9]),
    "relax_steps": ("relax_bangbang", "grid.steps", 70000),  # 2 bases: 140001 nodes
}


@pytest.mark.parametrize("case", list(TOO_LARGE))
def test_arrays_past_the_ceiling_exit_two(tmp_path, capsys, case):
    name, path, value = TOO_LARGE[case]
    raw = mutate(scenario(name), path, value)
    code, out = run_cli(tmp_path, raw["experiment"]["kind"], raw)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_ceilings_bound_the_grid_the_trajectory_and_the_n_by_n_arrays():
    nodes, entries = config_module.MAX_NODES, config_module.MAX_ENTRIES
    raw = scenario("verify_momentum_mean_attraction")  # d = 2
    parse_config(mutate(raw, "grid.steps", nodes - 1), N=1)
    with pytest.raises(ConfigError, match=r"^steps \+ 1 must be at most 131072 grid nodes$"):
        parse_config(mutate(raw, "grid.steps", nodes), N=1)
    parse_config(mutate(raw, "grid.steps", 2047), N=entries // 4096)
    with pytest.raises(ConfigError, match=r"^\(steps \+ 1\) x 'N' x 'd' must be at most 1048576 array entries$"):
        parse_config(mutate(raw, "grid.steps", 2047), N=entries // 4096 + 1)
    N = math.isqrt(entries)  # 1024: no array holds N x N x d
    parse_config(mutate(raw, "grid.steps", 1), N=N)
    with pytest.raises(ConfigError, match=r"^'N' x 'N' must be at most 1048576 array entries$"):
        parse_config(mutate(raw, "grid.steps", 1), N=N + 1)
    # every bundled scenario is far below the ceilings
    for path in SCENARIOS.glob("*.json"):
        config = parse_config(scenario(path.stem))
        assert config.steps + 1 < nodes // 50
        assert (config.steps + 1) * config.N * config.d < entries // 50 and config.N**2 < entries // 50


def lattice_run(kind, d, R=2.0):
    """A four-step filippov (radius R) or relax run in d dimensions."""
    raw = scenario("filippov_gain" if kind == "filippov" else "relax_bangbang")
    raw.update(d=d, initial={"kind": "gaussian", "sigma": 1.0}, grid={"steps": 4})
    if kind == "filippov":
        raw["experiment"].update(R=R, ref_initial={"kind": "gaussian", "sigma": 1.0})
    else:
        raw["family"]["controls"] = [[-1.0] * d, [1.0] * d]
    return raw


def test_the_tracking_lattice_has_a_ceiling(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(filippov_module, "ball_grid", refuse)
    # ball_grid(R, d, R / 8) meshes 17^d points of d coordinates: 334084 entries at d = 4, 7099285 at d = 5
    for raw in (lattice_run("filippov", 4), lattice_run("filippov", 8, "inf"), lattice_run("relax", 4)):
        parse_config(raw)
    message = r"^the tracking lattice's 17\^'d' x 'd' must be at most 1048576 array entries$"
    for raw in (lattice_run("filippov", 5), lattice_run("relax", 5), lattice_run("filippov", 2**17)):
        with pytest.raises(ConfigError, match=message):
            parse_config(raw)
    code, out = run_cli(tmp_path, "filippov", lattice_run("filippov", 8))  # a 52 GiB mesh
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: the tracking lattice") and err.count("\n") == 1, err
    assert not out.exists()


# (scenario, path, the key the error names); with no ceiling, each value
# drove a loop that was still running when `timeout 20` killed it
UNBOUNDED_LOOPS = {
    "samples": ("verify_hypotheses_probe_catalog", "experiment.samples", "experiment 'samples'"),
}


@pytest.mark.parametrize("case", list(UNBOUNDED_LOOPS))
def test_loop_counts_past_the_ceiling_exit_two_at_once(tmp_path, capsys, case):
    name, path, key = UNBOUNDED_LOOPS[case]
    raw = mutate(scenario(name), path, 10**400)
    start = time.perf_counter()
    code, out = run_cli(tmp_path, raw["experiment"]["kind"], raw)
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: {key} must be an integer in [1000, ") and err.count("\n") == 1, err
    assert not out.exists()


def integer_keys():
    """(scenario, path) of every integer of the bundled scenarios, list entries
    too, but ``max_iter``, which takes 10^400: it caps iterations that stop at
    convergence."""
    def paths(node, prefix=()):
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in items:
            if isinstance(value, int) and not isinstance(value, bool):
                yield prefix + (key,)
            yield from paths(value, prefix + (key,))

    for name in sorted(path.stem for path in SCENARIOS.glob("*.json")):
        for path in paths(scenario(name)):
            if path[-1] != "max_iter":
                yield name, path


INTEGER_KEYS = list(integer_keys())


@pytest.mark.parametrize(
    "name, path", INTEGER_KEYS, ids=[f"{n}:{'.'.join(map(str, p))}" for n, p in INTEGER_KEYS]
)
def test_a_huge_integer_is_echoed_by_its_length(tmp_path, capsys, name, path):
    raw = scenario(name)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 10**400
    code, out = run_cli(tmp_path, raw["experiment"]["kind"], raw)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
    assert len(err) < 200 and "0" * 21 not in err, err
    assert not out.exists()


def test_probe_samples_have_a_ceiling():
    nodes = config_module.MAX_NODES
    probe = scenario("verify_hypotheses_probe_catalog")
    parse_config(mutate(probe, "experiment.samples", nodes // 3))
    with pytest.raises(ConfigError, match=r"^experiment 'samples' must be an integer in \[1000, 43690\], got 43691$"):
        parse_config(mutate(probe, "experiment.samples", nodes // 3 + 1))
    # and a floor: fewer than 1000 samples is refused, not run as 1000
    assert parse_config(mutate(probe, "experiment.samples", 1000)).experiment["samples"] == 1000
    with pytest.raises(ConfigError, match=r"^experiment 'samples' must be an integer in \[1000, 43690\], got 999$"):
        parse_config(mutate(probe, "experiment.samples", 999))


def test_relax_weights_are_one_per_base_with_a_sum_from_one_to_the_node_ceiling():
    # the mixture's denominator is the weights' sum
    relax = scenario("relax_bangbang")
    parse_config(mutate(relax, "experiment.weights", [config_module.MAX_NODES - 2, 1]))
    for weights in ([1], [1, 1, 0], [0, 0], [config_module.MAX_NODES - 1, 1], [10**400, 1]):
        with pytest.raises(ConfigError, match=r"^experiment 'weights' must be one per base, with a sum in \[1, 131071\]$"):
            parse_config(mutate(relax, "experiment.weights", weights))

# a run at each ceiling: N = d = 1 on MAX_NODES nodes, one particle in
# d = MAX_ENTRIES / 2 on two nodes, and the kernel field at N x N =
# MAX_ENTRIES in d = 2 for one step
UNIFORM = {"kind": "uniform", "halfwidth": 1.0}
KERNEL = {"label": "bounded_kernel", "rates": {"m": 1.0, "l": 1.0, "L": 1.0}}
AT_THE_CEILING = {
    "nodes": ({"grid": {"steps": config_module.MAX_NODES - 1}}, config_module.MAX_NODES),
    "entries": ({"grid": {"steps": 1}, "d": config_module.MAX_ENTRIES // 2, "initial": UNIFORM}, 2),
    "pairs": ({"grid": {"steps": 1}, "d": 2, "N": math.isqrt(config_module.MAX_ENTRIES), "initial": UNIFORM,
               "field": KERNEL}, 2 * math.isqrt(config_module.MAX_ENTRIES)),
}


@pytest.mark.parametrize("case", list(AT_THE_CEILING))
def test_a_run_at_the_ceiling_completes(tmp_path, case):
    changes, rows = AT_THE_CEILING[case]
    raw = {**scenario("simulate_linear_decay"), **changes}
    code, out = run_cli(tmp_path, "simulate", raw)
    assert code == 0
    with open(out / "trajectory.csv") as f:
        assert len(f.readline().split(",")) == 2 + raw["d"]
        assert sum(1 for _ in f) == rows


def test_atoms_checked_against_N_and_d():
    with pytest.raises(ConfigError, match=r"^initial 'atoms' must be N = 1 rows of d = 2 entries"):
        parse_config(mutate(scenario("simulate_linear_decay"), "d", 2))
    with pytest.raises(ConfigError, match=r"^initial 'atoms'\[0\]\[0\] must be finite"):
        parse_config(mutate(scenario("simulate_linear_decay"), "initial.atoms", [[math.inf]]))


def test_unknown_kinds_and_labels_named():
    for path, value, message in [
        ("initial.kind", "cauchy", "unknown initial kind 'cauchy'"),
        ("family.label", "gains", "unknown family label 'gains'"),
        ("experiment.what", "energy", "unknown experiment what 'energy'"),
    ]:
        name = "verify_momentum_mean_attraction" if path.endswith("what") else "peano_mean_gain"
        with pytest.raises(ConfigError, match=message):
            parse_config(mutate(scenario(name), path, value))


def test_readme_table_is_the_schema():
    text = (ROOT / "README.md").read_text()
    rows = [
        tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
        for line in text.splitlines()
        if line.startswith("| ") and line.count("|") == 5
    ]
    assert rows[0] == ("block", "key", "default", "accepts")
    assert rows[2:] == list(config_module._schema_rows())
    doc_lines = [line.split() for line in config_module.__doc__.splitlines()]
    for row in config_module._schema_rows():
        assert " ".join(row).split() in doc_lines


# -- library guards for callers that bypass the schema -----------------------


def test_filippov_track_rejects_nan_tol():
    family = constants_family([[-1.0], [1.0]], RateFunctions.constant(1.0, 0.0, 0.0, 1.0))
    w = zero_field(RateFunctions.constant(0.0, 0.0, 0.0, 1.0))
    start = ParticleCloud(np.zeros((1, 1)))
    ref = integrate(w, start, np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError, match="tol must be positive"):
        filippov_track(family, ref, w, start, math.inf, math.nan, 5, 1.0)


@pytest.mark.parametrize("delta", [0.0, -0.1])
def test_relax_rejects_a_nonpositive_delta(delta):
    family = constants_family([[-1.0], [1.0]], RateFunctions.constant(1.0, 0.0, 0.0, 0.25))
    chat = convexify(family, [ChatteringControl((0, 1), (1, 1))])
    grid = np.linspace(0.0, 0.25, 101)
    signal = ControlSignal(grid=grid, indices=np.zeros(100, dtype=int))
    traj = integrate(chat, ParticleCloud(np.zeros((1, 1))), grid)
    with pytest.raises(ValueError, match="delta must be positive"):
        relax_approximate(family, traj, signal, chat, delta, 1.0)
    assert relax_approximate(family, traj, signal, chat, 0.1, 1.0)[2].passed


# -- the blow-up report --------------------------------------------------------


def test_blow_up_names_particle_and_last_position():
    field = ControlledFamily(controls=(0,), rule=lambda t, c, idx, X: X[None] * 1e308,
                             rates=RateFunctions.constant(1, 0, 0, 1.0))
    start = ParticleCloud(np.array([[0.0], [1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning besides the error
        with pytest.raises(BlowUpError) as info:
            integrate(field, start, np.linspace(0.0, 1.0, 5))
    assert str(info.value) == (
        "non-finite coordinate after step 2 (t = 0.5): particle 1, last finite position [2.5e+307]"
    )


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_rk4_stage_blow_up_uses_the_same_report(tmp_path, capsys, method):
    # an rk4 stage overflowed inside ParticleCloud: "cloud coordinates must be finite"
    raw = mutate(scenario("simulate_linear_decay"), "initial.atoms", [[1e308]])
    raw.update(T=10, grid={"steps": 1}, experiment={"kind": "simulate", "method": method})
    code, out = run_cli(tmp_path, "simulate", raw)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == (
        "error: non-finite coordinate after step 1 (t = 10): particle 0, last finite position [1e+308]\n"
    )


def test_rk4_rule_never_sees_a_non_finite_stage():
    def rule(t, points, idx, X):
        assert np.isfinite(points).all() and np.isfinite(X).all()
        return -X[None]

    field = ControlledFamily(controls=(0,), rule=rule, rates=RateFunctions.constant(1, 1, 0, 10.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning besides the error
        with pytest.raises(BlowUpError, match=r"^non-finite coordinate after step 1 \(t = 10\): particle 0"):
            integrate(field, ParticleCloud(np.array([[1e308]])), np.array([0.0, 10.0]), method="rk4")


def test_peano_blow_up_uses_the_same_report():
    family = gain_family([-1e308], RateFunctions.constant(1, 0, 0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the convexity warning
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowUpError, match=r"after step 2 \(t = 0\.5\): particle 1, last finite"):
            peano_solve(family, ParticleCloud(np.array([[0.0], [1.0]])), 4)


# -- the suite script ----------------------------------------------------------


def test_run_suite_reports_errors_and_goes_on(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("run_suite", ROOT / "scripts" / "run_suite.py")
    run_suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_suite)
    (tmp_path / "scenarios").mkdir()
    shutil.copy(SCENARIOS / "simulate_linear_decay.json", tmp_path / "scenarios" / "b_good.json")
    bad = mutate(scenario("simulate_linear_decay"), "N", 2.9)
    (tmp_path / "scenarios" / "a_bad.json").write_text(json.dumps(bad))
    (tmp_path / "scenarios" / "c_fail.json").write_text(json.dumps(fast_constant_field()))
    monkeypatch.setattr(run_suite, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["run_suite.py", str(tmp_path / "out")])
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        assert run_suite.main() == 2
    assert err.getvalue() == "error: a_bad: 'd' and 'N' must be an integer >= 1, got 2.9\n"
    assert out.getvalue().split()[:2] == ["b_good", "pass"]
    assert "c_fail" in out.getvalue() and "FAIL" in out.getvalue()
    # each row, and a last total line, give a wall time in seconds
    rows = [line.split() for line in out.getvalue().splitlines()]
    assert [row[0] for row in rows] == ["b_good", "c_fail", "total"]
    assert all(float(row[2]) >= 0.0 and row[3] == "s" for row in rows[:2])
    assert float(rows[2][1]) >= float(rows[0][2]) and rows[2][2:] == ["s"]
    (tmp_path / "scenarios" / "a_bad.json").unlink()
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_suite.main() == 1
