import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wassinc import ParticleCloud, moment, tail_norm, wasserstein_cost
from wassinc.errors import ShapeMismatchError
from wassinc import measure
from wassinc.measure import pairwise_cost, sup_wasserstein_cost, tail_norms

from conftest import assignment_cost, cloud, delta, random_cloud


def solve_one(a, b, p):
    """``measure._solve_block`` on one pair of (N, d) arrays: the total of its sigma's plan and
    sigma, once the W_p it returned is checked to be the ``_root`` of that plan's mean cost."""
    (cost,), (sigma,) = measure._solve_block(a[None], b[None], p)
    total = assignment_cost(pairwise_cost(a, b, p), sigma)
    assert cost == measure._root(total / len(a), p)
    return total, sigma


def brute_force_cost(a, b, p):
    """Exhaustive minimum over all permutations, sharing the cost matrix."""
    D = pairwise_cost(a.points, b.points, p)
    best = min(assignment_cost(D, perm) for perm in itertools.permutations(range(a.n)))
    if p == 1.0:
        return best / a.n
    if p == 2.0:
        return math.sqrt(best / a.n)
    return (best / a.n) ** (1.0 / p)


class TestMoment:
    def test_singleton_euclidean(self):
        assert moment(delta(3.0, 4.0), 2) == 5.0

    def test_symmetric_pair_cubed(self):
        assert moment(cloud([-1.0], [1.0]), 3) == pytest.approx(1.0, abs=1e-12)

    def test_two_atoms_p2(self):
        # ((0 + 4) / 2)^(1/2)
        assert moment(cloud([0.0], [2.0]), 2) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            moment(delta(1.0), 0.5)

    @pytest.mark.parametrize("r", [0.3, 0.5, 0.9, 2.0**-300])
    def test_norms_below_one_do_not_underflow(self, r):
        # r^2000 underflows to 0 for r < 1: the mean is scaled by its largest norm
        c = cloud([r, 0.0], [0.0, -r], [-r, 0.0], [0.0, r])
        assert moment(c, 2000) == tail_norm(c, 0.0, 2000) == tail_norm(c, 0.5 * r, 2000) == r
        assert moment(cloud([0.0, 0.0], [0.0, 0.0]), 2000) == 0.0

    @pytest.mark.parametrize("r", [1e-200, 1e-170, 3e-162, 1e160, 1e300, 1.7e308])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_norms_neither_underflow_nor_overflow(self, r, p):
        # |x|^2 of every atom under- or overflows, or is subnormal (r = 3e-162): each
        # norm is scaled by its largest coordinate
        c = cloud([r, 0.0], [0.0, -r], [0.6 * r, 0.8 * r])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [moment(c, p), tail_norm(c, 0.0, p), tail_norm(c, 0.5 * r, p), *c.norms()]
        assert values == pytest.approx([r] * 6, rel=4 * 2.0**-52, abs=0.0)

    @given(
        pts=hnp.arrays(
            np.float64,
            (5, 2),
            elements=st.floats(-50, 50, allow_nan=False, width=64),
        ),
        c=st.floats(-10, 10, allow_nan=False, width=64).filter(lambda v: abs(v) > 1e-6),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, pts, c, p):
        base = ParticleCloud(pts)
        scaled = ParticleCloud(c * pts)
        assert moment(scaled, p) == pytest.approx(abs(c) * moment(base, p), rel=1e-9, abs=1e-9)


class TestTailNorm:
    def test_radius_beyond_support(self):
        assert tail_norm(cloud([0.5], [-1.0]), 2.0, 2) == 0.0

    def test_zero_radius_is_moment(self):
        c = cloud([0.3, 1.0], [-2.0, 0.1], [0.0, 0.0])
        assert tail_norm(c, 0.0, 2) == moment(c, 2)

    def test_shifted_example(self):
        assert tail_norm(cloud([0.0], [3.0]), 2.0, 1, shifted=True) == 2.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            tail_norm(delta(1.0), -0.1, 1)
        with pytest.raises(ValueError):
            tail_norms(cloud([1.0], [2.0]).points[None], -0.1, 1)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 2000.0])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_tail_norms_equal_one_call_per_row(self, rng, p, shifted):
        # rows with every atom, some and none of them in the tail, and one whose power overflows
        stack = rng.standard_normal((6, 9, 2)) * [[[1.0]], [[3.0]], [[0.1]], [[5.0]], [[1e-3]], [[2.0]]]
        stack[5, 4] = [1e150, 0.0]
        for R in (0.0, 0.5, 1.0, 4.0, 1e151):
            per_row = [tail_norm(ParticleCloud(rows), R, p, shifted) for rows in stack]
            assert tail_norms(stack, R, p, shifted).tolist() == per_row

    @given(
        pts=hnp.arrays(
            np.float64, (7, 2), elements=st.floats(-20, 20, allow_nan=False, width=64)
        ),
        radii=st.tuples(st.floats(0, 25, width=64), st.floats(0, 25, width=64)),
        p=st.sampled_from([1.0, 2.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_dominated_by_moment_and_monotone(self, pts, radii, p):
        c = ParticleCloud(pts)
        r_lo, r_hi = sorted(radii)
        assert tail_norm(c, r_lo, p) <= moment(c, p) + 1e-12
        assert tail_norm(c, r_hi, p) <= tail_norm(c, r_lo, p) + 1e-12


class TestWasserstein:
    def test_identical_clouds(self):
        a = cloud([0.0, 1.0], [2.0, -1.0], [0.5, 0.5])
        assert wasserstein_cost(a, a, 2) == 0.0

    def test_singletons(self):
        assert wasserstein_cost(delta(0.0, 0.0), delta(3.0, 4.0), 1) == 5.0

    def test_two_point_example(self):
        # identity pairing gives ((1 + 1)/2)^(1/2) = 1, the swap sqrt(5)
        assert wasserstein_cost(cloud([0.0], [2.0]), cloud([1.0], [3.0]), 2) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            wasserstein_cost(cloud([0.0], [1.0]), cloud([0.0]), 1)
        with pytest.raises(ShapeMismatchError):
            wasserstein_cost(delta(0.0), delta(0.0, 0.0), 1)

    def test_tied_permutations(self):
        # every permutation costs the same; the value is their common cost
        assert wasserstein_cost(cloud([0.0], [0.0], [0.0]), cloud([1.0], [2.0], [3.0]), 1) == 2.0
        assert wasserstein_cost(cloud([0.0], [2.0]), cloud([1.0], [1.0]), 1) == 1.0

    def test_matches_exhaustive_minimum_exactly(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 8))
            d = int(rng.integers(1, 4))
            p = float(rng.choice([1.0, 2.0]))
            a, b = random_cloud(rng, n, d), random_cloud(rng, n, d)
            assert wasserstein_cost(a, b, p) == brute_force_cost(a, b, p)

    def test_plan_cost_consistent(self, rng):
        a, b = random_cloud(rng, 9, 2), random_cloud(rng, 9, 2)
        _, sigma = solve_one(a.points, b.points, 2)
        recomputed = math.sqrt(assignment_cost(pairwise_cost(a.points, b.points, 2), sigma) / a.n)
        assert wasserstein_cost(a, b, 2) == recomputed


coords = st.floats(-30, 30, allow_nan=False, width=64)


@st.composite
def cloud_triple(draw):
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 3))
    arrs = [draw(hnp.arrays(np.float64, (n, d), elements=coords)) for _ in range(3)]
    return tuple(ParticleCloud(a) for a in arrs)


class TestMetricAxioms:
    @given(clouds=cloud_triple(), p=st.sampled_from([1.0, 1.5, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_triangle(self, clouds, p):
        a, b, c = clouds
        ab = wasserstein_cost(a, b, p)
        assert ab == pytest.approx(wasserstein_cost(b, a, p), abs=1e-9)
        assert ab <= wasserstein_cost(a, c, p) + wasserstein_cost(c, b, p) + 1e-9

    @given(clouds=cloud_triple(), p=st.sampled_from([1.0, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_identity_of_indiscernibles(self, clouds, p):
        a, _, _ = clouds
        perm = np.random.Generator(np.random.Philox(key=1)).permutation(a.n)
        shuffled = ParticleCloud(a.points[perm])
        assert wasserstein_cost(a, shuffled, p) <= 1e-9

    @given(clouds=cloud_triple(), p=st.sampled_from([1.5, 2.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_p(self, clouds, p):
        a, b, _ = clouds
        assert wasserstein_cost(a, b, 1.0) <= wasserstein_cost(a, b, p) + 1e-12

    @given(
        clouds=cloud_triple(),
        slope=hnp.arrays(np.float64, (3,), elements=st.floats(-5, 5, width=64)),
        offset=st.floats(-5, 5, width=64),
        p=st.sampled_from([1.0, 2.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_test_function_bound(self, clouds, slope, offset, p):
        a, b, _ = clouds
        av = slope[: a.d]
        phi_a = float(np.mean(a.points @ av + offset))
        phi_b = float(np.mean(b.points @ av + offset))
        lip = float(np.linalg.norm(av))
        w1 = wasserstein_cost(a, b, 1.0)
        assert phi_a - phi_b <= lip * w1 + 1e-9
        assert lip * w1 <= lip * wasserstein_cost(a, b, p) + 1e-9


def norm_tensor_cost(a, b, p):
    """The difference-tensor formula pairwise_cost replaced."""
    dist = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2)
    if p == 1.0:
        return dist
    if p == 2.0:
        return dist * dist
    return dist**p


@st.composite
def cloud_pairs(draw, n_max=8, tight=False):
    """1-6 pairs of (n, d) clouds; ``tight`` pairs differ by tiny moves,
    so the identity coupling is close to optimal."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, n_max))
    d = draw(st.integers(1, 3))
    moves = st.floats(-1e-3, 1e-3, allow_nan=False, width=64)
    pairs = []
    for _ in range(k):
        a = draw(hnp.arrays(np.float64, (n, d), elements=coords))
        if tight:
            b = a + draw(hnp.arrays(np.float64, (n, d), elements=moves))
        else:
            b = draw(hnp.arrays(np.float64, (n, d), elements=coords))
        pairs.append((ParticleCloud(a), ParticleCloud(b)))
    return pairs


specials = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])


def relabelled_series(data, n, d):
    """2-8 nodes of a_k = a_0 + k v and b_k = a_k[pi] + drift_k for one
    permutation pi.  The drifts are s_k c for one c and scales s_k in [0, 1],
    so node values lie close, or drawn one by one; c or a drift is one shift,
    or one per particle.  Coordinates repeat and take +-0.0, so points, drifts
    and scales tie."""
    elements = st.one_of(specials, coords)
    a0 = data.draw(hnp.arrays(np.float64, (n, d), elements=elements))
    v = data.draw(hnp.arrays(np.float64, (n, d), elements=st.one_of(specials, st.floats(-1, 1))))
    perm = np.array(data.draw(st.permutations(range(n))), dtype=int)
    shifts = st.sampled_from([(1, d), (n, d)]).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=elements)
    )
    scales = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)
    c = data.draw(shifts) if data.draw(st.booleans()) else None
    pairs = []
    for k in range(data.draw(st.integers(2, 8))):
        drift = data.draw(shifts) if c is None else data.draw(scales) * c
        a = a0 + k * v
        pairs.append((ParticleCloud(a), ParticleCloud(a[perm] + drift)))
    return pairs


def count_cost_matrices(monkeypatch):
    """A list that grows by one entry per ``measure.pairwise_cost`` call."""
    calls, cost = [], measure.pairwise_cost
    monkeypatch.setattr(measure, "pairwise_cost", lambda a, b, p: calls.append(1) or cost(a, b, p))
    return calls


def stacks(pairs):
    """The (K, N, d) stacks of the first and of the second clouds of ``pairs``."""
    return tuple(np.stack([pair[i].points for pair in pairs]) for i in (0, 1))


class TestFastPaths:
    @given(
        data=st.data(),
        n=st.integers(1, 12),
        d=st.sampled_from([1, 2, 3, 5]),
        p=st.sampled_from([1.0, 2.0, 3.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_pairwise_cost_matches_norm_tensor_bitwise(self, data, n, d, p):
        a, b = (
            ParticleCloud(data.draw(hnp.arrays(np.float64, (n, d), elements=coords)))
            for _ in range(2)
        )
        np.testing.assert_array_equal(pairwise_cost(a.points, b.points, p), norm_tensor_cost(a, b, p))

    def test_pairwise_cost_matches_norm_tensor_at_size(self, rng):
        for d in (1, 2, 3, 5):
            a, b = random_cloud(rng, 300, d), random_cloud(rng, 300, d)
            for p in (1.0, 2.0, 3.0):
                np.testing.assert_array_equal(pairwise_cost(a.points, b.points, p), norm_tensor_cost(a, b, p))

    @given(
        pairs=st.one_of(cloud_pairs(tight=True), cloud_pairs(), cloud_pairs(n_max=1)),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_sup_equals_max_of_exact_solves(self, pairs, p):
        assert sup_wasserstein_cost(*stacks(pairs), p) == max(wasserstein_cost(a, b, p) for a, b in pairs)

    @given(
        data=st.data(),
        n=st.sampled_from([1, 2, 3, 16]),
        shifts=st.lists(st.floats(0.689, 0.694), min_size=2, max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_sup_equals_max_of_exact_solves_at_large_p(self, data, n, shifts):
        # at p = 2000 a shift near 0.69 has a subnormal p-th power, where the
        # solver's total is coarsely rounded; atoms within 0.3 keep every cost finite
        base = data.draw(hnp.arrays(np.float64, (n, 1), elements=st.floats(0.0, 0.3)))
        pairs = [(ParticleCloud(base), ParticleCloud(base + s)) for s in shifts]
        assert sup_wasserstein_cost(*stacks(pairs), 2000.0) == max(wasserstein_cost(a, b, 2000.0) for a, b in pairs)

    def test_sup_solves_one_node_where_every_power_underflows(self, rng, monkeypatch):
        # 0.4^2000 underflows to 0: every W_p reads 0, and so does every screening bound
        base = random_cloud(rng, 16, 1).points * 0.1
        pairs = [(ParticleCloud(base), ParticleCloud(base + s)) for s in (0.1, 0.4, 0.2, 0.3)]
        assert [wasserstein_cost(a, b, 2000.0) for a, b in pairs] == [0.0] * 4
        calls = count_cost_matrices(monkeypatch)
        assert sup_wasserstein_cost(*stacks(pairs), 2000.0) == 0.0
        assert len(calls) == 1

    @given(clouds=cloud_triple(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_plan_cost_equals_value_only_cost(self, clouds, p):
        # the assignment the block solver returns is a permutation whose cost is W_p
        a, b, _ = clouds
        total, sigma = solve_one(a.points, b.points, p)
        assert sorted(sigma.tolist()) == list(range(a.n))
        assert assignment_cost(pairwise_cost(a.points, b.points, p), sigma) == total
        assert measure._root(total / a.n, p) == wasserstein_cost(a, b, p)

    def test_sup_solves_only_the_widest_translation(self, rng, monkeypatch):
        # a translated cloud is matched optimally by the identity, so the
        # largest shift gives the sup and every other node is screened out
        base = random_cloud(rng, 16, 2)
        pairs = [(base, ParticleCloud(base.points + [0.1 * k, 0.0])) for k in (3, 1, 4, 2)]
        widest = wasserstein_cost(*pairs[2], 2)
        calls = count_cost_matrices(monkeypatch)
        assert sup_wasserstein_cost(*stacks(pairs), 2) == widest
        assert len(calls) == 1

    @given(
        data=st.data(),
        n=st.sampled_from([1, 2, 16, 64]),
        d=st.sampled_from([1, 2]),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_sup_of_a_relabelled_series_equals_max_of_exact_solves(self, data, n, d, p):
        # b_k = a_k[pi] + drift_k: the identity bound is loose at every node,
        # the bound under a solved node's sigma tight where the drift is a shift
        pairs = relabelled_series(data, n, d)
        assert sup_wasserstein_cost(*stacks(pairs), p) == max(wasserstein_cost(a, b, p) for a, b in pairs)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_sup_of_a_relabelled_series_solves_one_node(self, rng, monkeypatch, p):
        # a shrinking cloud against its relabelled copy shifted by less at each
        # node: the identity bound exceeds every W_p, so it would solve all K
        # nodes; the sigma of the first (and widest) solve bounds every other
        K, base = 8, random_cloud(rng, 16, 2)
        perm = rng.permutation(16)
        pairs = []
        for k in range(K):
            a = base.points * (1.0 - 0.05 * k)
            pairs.append((ParticleCloud(a), ParticleCloud(a[perm] + [0.2 - 0.01 * k, 0.0])))
        exact = [wasserstein_cost(a, b, p) for a, b in pairs]
        identity = [measure.moment(ParticleCloud(a.points - b.points), p) for a, b in pairs]
        assert min(identity) > max(exact)
        calls = count_cost_matrices(monkeypatch)
        assert sup_wasserstein_cost(*stacks(pairs), p) == max(exact)
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_a_bound_just_above_the_best_so_far_is_solved(self, p):
        # both screening bounds are inflated by a relative 1e-9, never deflated: a second
        # node whose bound equals its W_p, 5e-10 above the first node's W_p, must be solved
        s, s_up = 0.25, 0.25 * (1.0 + 5e-10)
        first = (ParticleCloud([[0.0], [2.0]]), ParticleCloud([[2.0 + s], [s]]))  # U_k near 2, W_p = s, sigma swaps
        translated = (ParticleCloud([[0.0], [1.0]]), ParticleCloud([[s_up], [1.0 + s_up]]))  # U_k = W_p
        swapped = (ParticleCloud([[0.0], [1.0]]), ParticleCloud([[1.0 + s_up], [s_up]]))  # U_k near 1, sigma bound = W_p
        for second in (translated, swapped):
            pairs = [first, second]
            exact = [wasserstein_cost(a, b, p) for a, b in pairs]
            assert exact[0] < exact[1] < exact[0] * (1.0 + 1e-9)
            assert sup_wasserstein_cost(*stacks(pairs), p) == exact[1]

    def test_sup_rejects_mismatch_and_empty(self):
        with pytest.raises(ShapeMismatchError):
            sup_wasserstein_cost(np.zeros((2, 1, 1)), np.zeros((2, 1, 2)), 1)
        with pytest.raises(ShapeMismatchError):
            sup_wasserstein_cost(np.zeros((0, 1, 1)), np.zeros((0, 1, 1)), 1)
