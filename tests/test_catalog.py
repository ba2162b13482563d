import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wassinc import ParticleCloud
from wassinc.catalog import bounded_kernel_field

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
        assert_bitwise(RULE(0.0, cloud, X), kernel_tensor_rule(cloud, X))

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
        assert_bitwise(RULE(0.0, cloud, X), kernel_tensor_rule(cloud, X))

    def test_single_atom_at_its_own_position(self):
        # every term is -0.0 / 1; the reference sum starts from +0.0
        for d in (1, 2, 3, 5):
            cloud = ParticleCloud(np.ones((1, d)))
            out = RULE(0.0, cloud, np.ones((1, d)))
            assert_bitwise(out, kernel_tensor_rule(cloud, np.ones((1, d))))
            assert not np.signbit(out).any()
