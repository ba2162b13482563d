import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wassinc import ParticleCloud
from wassinc.catalog import (
    bounded_kernel_field,
    constant_field,
    linear_decay_field,
    mean_attraction_field,
    rotation_field,
    zero_field,
)
from wassinc.dynamics import BLOCK_ENTRIES

from conftest import const_rates


def kernel_tensor_rule(cloud, X):
    """The defining formula: mean over the cloud of the (points, cloud, d) tensor."""
    diff = X[:, None, :] - cloud.points[None, :, :]
    norms = np.linalg.norm(diff, axis=2, keepdims=True)
    return (-diff / (1.0 + norms)).mean(axis=1)


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.flags.c_contiguous
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


RULE = bounded_kernel_field(const_rates(1, 1, 1)).rule
DIMS = st.sampled_from([1, 2, 3, 5])


def probe_set(rng, points, kind, k):
    """1 row, the cloud itself, N + k or N - k rows, or rows that coincide
    with cloud points (including repeats)."""
    n, d = points.shape
    if kind == "one":
        return rng.standard_normal((1, d))
    if kind == "same":
        return points.copy()
    if kind == "more":
        return rng.standard_normal((n + k, d))
    if kind == "fewer":
        return rng.standard_normal((max(1, n - k), d))
    return points[rng.integers(n, size=n + k)]


class TestBoundedKernelRule:
    @given(
        n=st.integers(1, 384),
        d=DIMS,
        kind=st.sampled_from(["one", "same", "more", "fewer", "coincident"]),
        k=st.integers(1, 5),
        duplicates=st.booleans(),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_tensor_formula(self, n, d, kind, k, duplicates, scale, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        points = scale * rng.standard_normal((n, d))
        if duplicates and n > 1:
            points[1::2] = points[0]  # coincident cloud atoms
        cloud = ParticleCloud(points)
        X = probe_set(rng, points, kind, k)
        assert_bitwise(RULE(0.0, cloud.points, [0], X)[0], kernel_tensor_rule(cloud, X))

    @given(
        data=st.data(),
        n=st.integers(1, 9),
        m=st.integers(1, 9),
        d=DIMS,
    )
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_on_drawn_values(self, data, n, m, d):
        # drawn elements include exact zeros, repeats and signed zeros
        values = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1]) | st.floats(
            -50, 50, allow_nan=False, width=64
        )
        cloud = ParticleCloud(data.draw(hnp.arrays(np.float64, (n, d), elements=values)))
        X = data.draw(hnp.arrays(np.float64, (m, d), elements=values))
        assert_bitwise(RULE(0.0, cloud.points, [0], X)[0], kernel_tensor_rule(cloud, X))

    @pytest.mark.parametrize("n, p, d", [
        (200, 1000, 1),  # 327-row blocks: three and 19 rows
        (384, 300, 2),  # 85-row blocks: three and 45 rows
        (500, 140, 3),  # 43-row blocks: three and 11 rows
        (BLOCK_ENTRIES * 2 + 1, 3, 2),  # one row a block
    ])
    def test_probe_row_blocks_keep_the_bits(self, n, p, d):
        rows = max(1, 4 * BLOCK_ENTRIES // (n * d))
        assert p // rows >= 3 and (p % rows or rows == 1)
        rng = np.random.Generator(np.random.Philox(key=n * p * d))
        points = rng.standard_normal((n, d))
        cloud = ParticleCloud(points)
        for X in (rng.standard_normal((p, d)), points[rng.integers(n, size=p)]):  # coincident probes too
            assert_bitwise(RULE(0.0, points, [0], X)[0], kernel_tensor_rule(cloud, X))

    def test_a_block_of_nodes_is_each_node_in_probe_row_blocks(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        points, X = rng.standard_normal((3, 384, 2)), rng.standard_normal((3, 300, 2))
        out = RULE(np.array([0.0, 0.5, 1.0]), points, np.zeros((3, 1), dtype=int), X)
        assert out.shape == (3, 1, 300, 2)
        for k in range(3):
            assert_bitwise(out[k, 0], kernel_tensor_rule(ParticleCloud(points[k]), X[k]))

    @pytest.mark.parametrize("n, d", [(724, 2), (1024, 1)])
    def test_a_call_at_the_ceiling_holds_a_few_blocks(self, n, d):
        """One call with N = P probes at N^2 d = 2^20 traces about 1 MiB; the
        whole pair slab with its distances took 16 MiB."""
        points = np.random.Generator(np.random.Philox(key=n)).standard_normal((n, d))
        RULE(0.0, points, [0], points)
        tracemalloc.start()
        try:
            RULE(0.0, points, [0], points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_single_atom_at_its_own_position(self):
        # every term is -0.0 / 1; the reference sum starts from +0.0
        for d in (1, 2, 3, 5):
            cloud = ParticleCloud(np.ones((1, d)))
            out = RULE(0.0, cloud.points, [0], np.ones((1, d)))[0]
            assert_bitwise(out, kernel_tensor_rule(cloud, np.ones((1, d))))
            assert not np.signbit(out).any()


# each field's velocity at one point x, as the field was first written
POINT_FORMULAS = {
    "zero": lambda c, kappa, mean, x: np.zeros_like(x),
    "constant": lambda c, kappa, mean, x: c.copy(),
    "linear_decay": lambda c, kappa, mean, x: -x,
    "mean_attraction": lambda c, kappa, mean, x: kappa * (mean - x),
    "rotation": lambda c, kappa, mean, x: np.array([-x[1], x[0]]),
}


def catalog_field(name, c, kappa):
    rates = const_rates(1, 1, 1)
    if name == "constant":
        return constant_field(c, rates), f"constant:{c.tolist()}"
    if name == "mean_attraction":
        return mean_attraction_field(kappa, rates), f"mean_attraction:{kappa}"
    builder = {"zero": zero_field, "linear_decay": linear_decay_field, "rotation": rotation_field}[name]
    return builder(rates), name


@given(
    data=st.data(),
    name=st.sampled_from(sorted(POINT_FORMULAS)),
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    d=st.sampled_from([1, 2, 3]),
    kappa=st.sampled_from([0.0, -0.0, 1.25, -3.0, 1e300]),
)
@settings(max_examples=200, deadline=None)
def test_field_stack_is_its_point_formula(data, name, n, m, d, kappa):
    # a field is the family of one control: row 0 of its stack, bit for bit
    d = 2 if name == "rotation" else d
    values = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324]) | st.floats(-1e3, 1e3, allow_nan=False, width=64)
    cloud = ParticleCloud(data.draw(hnp.arrays(np.float64, (n, d), elements=values)))
    X = data.draw(hnp.arrays(np.float64, (m, d), elements=values))
    c = data.draw(hnp.arrays(np.float64, (d,), elements=values))
    field, label = catalog_field(name, c, kappa)
    assert (field.controls, field.label) == ((0,), label)
    with np.errstate(over="ignore", invalid="ignore"):  # kappa = 1e300 may overflow, in both
        stack = field.rule(0.5, cloud.points, [0], X)
        mean = cloud.points.mean(axis=0)
        expected = np.array([POINT_FORMULAS[name](c, kappa, mean, x) for x in X])
    assert stack.shape == (1, m, d)
    assert_bitwise(stack[0], expected)
