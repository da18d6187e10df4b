import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from injflow._util import flat_store, pairwise_sq_dists
from injflow.errors import BudgetExceededError, InvalidArgumentError, NumericError
from injflow.flows import Mlp
from injflow.metrics import (
    SLICE_BLOCK,
    SMALL_FLOW_STEPS,
    directed_supinf,
    draw_directions,
    embedding_gap_upper,
    estimate_embedding_gap,
    fit_candidate_alignment,
    w2_1d_squared,
    w2_enumeration_uniform,
    wasserstein2,
    wasserstein2_exact,
    wasserstein2_sliced,
    wasserstein_bound_check,
    _nearest_rows,
    _small_flow_descent_point,
    _transport,
)


class TestPairwiseSqDists:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 30),
           st.integers(1, 5), st.floats(-6.0, 6.0))
    def test_bitwise_equal_to_explicit_differences(self, seed, n, m, d, log_offset):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, d)) + 10.0 ** log_offset
        b = rng.normal(size=(m, d)) + 10.0 ** log_offset
        same = min(n, m) // 2
        b[:same] = a[:same]
        got = pairwise_sq_dists(a, b)
        want = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(got, want)
        assert (got[np.arange(same), np.arange(same)] == 0.0).all()

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bitwise_equal_to_cdist_across_row_blocks(self, layout):
        # Network outputs are F-ordered; the kernel fills rows in blocks of
        # 128, so the row counts cross one and two block edges.
        rng = np.random.default_rng(17)
        for n, m, d in [(1, 7, 1), (127, 5, 2), (128, 300, 3), (129, 64, 4),
                        (300, 257, 5), (257, 1, 3)]:
            scale = 10.0 ** rng.uniform(-4.0, 4.0)
            a = scale * rng.normal(size=(n, 2 * d))
            b = scale * rng.normal(size=(2 * m, d))
            if layout == "strided":
                a, b = a[:, ::2], b[::2]
            else:
                a, b = np.asarray(a[:, :d], order=layout), np.asarray(b[:m], order=layout)
            b[:min(n, m) // 3] = a[:min(n, m) // 3]
            got = pairwise_sq_dists(a, b)
            np.testing.assert_array_equal(got, cdist(a, b, "sqeuclidean"))
            np.testing.assert_array_equal(pairwise_sq_dists(b, a), got.T)

    def test_mismatched_widths_rejected(self):
        with pytest.raises(InvalidArgumentError, match="shapes"):
            pairwise_sq_dists(np.zeros((4, 3)), np.zeros((5, 2)))
        with pytest.raises(InvalidArgumentError):
            pairwise_sq_dists(np.zeros(3), np.zeros((5, 3)))


def _with_entry(value):
    pts = np.zeros((3, 2))
    pts[1, 0] = value
    return pts


class TestPointClouds:
    """W2 takes (N, d) arrays, each the uniform measure on its rows."""

    @pytest.mark.parametrize("w2", [wasserstein2_exact, wasserstein2_sliced],
                             ids=["exact", "sliced"])
    @pytest.mark.parametrize("a, b", [
        (np.zeros((0, 2)), np.zeros((3, 2))),
        (np.zeros(3), np.zeros((3, 1))),
        (np.zeros((3, 2, 2)), np.zeros((3, 2))),
        (_with_entry(np.nan), np.zeros((3, 2))),
        (_with_entry(np.inf), np.zeros((3, 2))),
        (np.zeros((3, 2)), np.zeros((3, 3))),
    ], ids=["empty", "1-D", "3-D", "nan", "inf", "widths"])
    def test_bad_cloud_refused(self, w2, a, b):
        with pytest.raises(InvalidArgumentError):
            w2(a, b)
        with pytest.raises(InvalidArgumentError):
            w2(b, a)


class TestDirectedSupinf:
    def test_identical_sets_zero(self):
        pts = np.random.default_rng(0).normal(size=(30, 3))
        assert directed_supinf(pts, pts) == 0.0

    def test_single_pair(self):
        assert directed_supinf([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0)

    def test_brute_force_small(self):
        f = np.array([[0.0, 0.0], [1.0, 0.0]])
        g = np.array([[0.0, 0.0]])
        assert directed_supinf(f, g) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            directed_supinf(np.zeros((0, 2)), np.zeros((3, 2)))
        with pytest.raises(InvalidArgumentError):
            directed_supinf(np.zeros((3, 2)), np.zeros((3, 3)))


class TestGapUpper:
    def test_exact_cover_is_zero(self):
        x = np.linspace(-1, 1, 50)[:, None]

        def g(w):
            w = np.atleast_2d(w)
            return np.column_stack([w[:, 0], w[:, 0] ** 2])

        fx = g(x)
        upper = embedding_gap_upper(x, fx, g, lambda p: p)
        assert upper == 0.0

    def test_constant_offset(self):
        eps = 0.25
        x = np.linspace(-1, 1, 40)[:, None]
        fx = np.column_stack([x[:, 0], np.zeros(40)])

        def g(w):
            return np.atleast_2d(w)

        def h(p):
            p = np.atleast_2d(p)
            return np.column_stack([p[:, 0], np.full(p.shape[0], eps)])

        assert embedding_gap_upper(x, fx, g, h) == pytest.approx(eps)


class TestCandidateFit:
    def test_exact_affine_recovery(self):
        rng = np.random.default_rng(1)
        a0 = np.array([[0.7]])
        c0 = np.array([0.3])
        x = np.linspace(-1, 1, 60)[:, None]

        def g(w):
            w = np.atleast_2d(w)
            return np.column_stack([np.sin(w[:, 0]), np.cos(w[:, 0])])

        fx = g(x @ a0.T + c0)
        w_samples = np.vstack([x @ a0.T + c0, rng.uniform(-2, 2, size=(40, 1))])
        cand, upper = fit_candidate_alignment(x, fx, g, w_samples, family="affine")
        assert upper <= 1e-8

    def test_single_point_constant_reduction(self):
        x = np.array([[0.4]])
        fx = np.array([[0.0, 1.0]])
        w = np.array([[0.0], [1.0], [2.0]])

        def g(ws):
            ws = np.atleast_2d(ws)
            return np.column_stack([ws[:, 0], np.ones(ws.shape[0])])

        cand, upper = fit_candidate_alignment(x, fx, g, w)
        assert cand(x)[0].tolist() in w.tolist()
        gw = g(w)
        assert upper == pytest.approx(
            float(np.linalg.norm(gw - fx, axis=1).min()))

    @pytest.mark.parametrize("family", ["affine", "small-flow"])
    def test_never_worse_than_identity_incumbent(self, family):
        rng = np.random.default_rng(2)
        x = np.linspace(-1, 1, 40)[:, None]

        def g(w):
            w = np.atleast_2d(w)
            return np.column_stack([w[:, 0], 0.5 * np.sin(2 * w[:, 0])])

        fx = g(0.8 * x + 0.1) + rng.normal(0, 0.01, size=(40, 2))
        w_samples = np.linspace(-1.5, 1.5, 80)[:, None]
        _, upper = fit_candidate_alignment(x, fx, g, w_samples, family=family)
        identity_upper = embedding_gap_upper(x, fx, g, lambda p: p)
        assert upper <= identity_upper + 1e-12

    @pytest.mark.parametrize("winner", ["icp", "identity-pad", "single-pair",
                                        "small-flow"])
    def test_candidate_reproduces_its_upper(self, winner):
        # Whichever candidate wins, the map returned gives back its upper
        # bound bit for bit.
        x = np.linspace(-1, 1, 40)[:, None]
        w_samples = np.linspace(-1.05, 1.05, 80)[:, None]
        family = "affine"

        def g(w):
            return np.column_stack([np.sin(w[:, 0]), np.cos(w[:, 0])])

        if winner == "icp":
            fx = g(0.7 * x + 0.3)
            w_samples = np.vstack([w_samples, 0.7 * x + 0.3])
        elif winner == "identity-pad":
            fx = g(x)
        elif winner == "single-pair":
            x, fx = x[:1], g(x[:1]) + 0.1
        else:
            fx = g(x + 0.1 * np.sin(np.pi * x))
            family = "small-flow"
        cand, upper = fit_candidate_alignment(x, fx, g, w_samples, family=family)
        assert embedding_gap_upper(x, fx, g, cand) == upper
        if winner == "icp":
            assert upper <= 1e-8 < embedding_gap_upper(x, fx, g, lambda p: p)
        elif winner == "identity-pad":
            assert upper == 0.0 and np.array_equal(cand(x), x)
        elif winner == "single-pair":
            assert cand(x)[0].tolist() in w_samples.tolist()
        else:
            assert upper < fit_candidate_alignment(x, fx, g, w_samples)[1]

    def test_rank_deficient_pairs_rejected(self):
        x = np.zeros((5, 2))  # all identical, rank-deficient but multi-point
        fx = np.zeros((5, 3))
        with pytest.raises(InvalidArgumentError):
            fit_candidate_alignment(x, fx, lambda w: np.zeros((len(np.atleast_2d(w)), 3)),
                                    np.zeros((4, 2)))

    @pytest.mark.parametrize("family", ["affine", "small-flow"])
    @pytest.mark.parametrize("fit", [fit_candidate_alignment, estimate_embedding_gap])
    def test_more_parameter_columns_than_latent_dimensions_rejected(self, fit, family):
        # A 4-rad arc in R^2 against 1-D latents: no affine R^2 -> R^1 map
        # is injective on it, so no upper bound of the gap is certified.
        t = np.linspace(-2.0, 2.0, 30)
        x = np.column_stack([np.cos(t), np.sin(t)])
        fx = np.column_stack([x, t])
        w = np.linspace(-1.0, 1.0, 40)[:, None]
        with pytest.raises(InvalidArgumentError,
                           match="^2 parameter columns exceed the latent dimension 1$"):
            fit(x, fx, lambda w: np.hstack([w, w, w]), w, family=family)

    @pytest.mark.parametrize("fit", [fit_candidate_alignment, estimate_embedding_gap])
    def test_empty_latent_rows_rejected(self, fit):
        x = np.linspace(-1.0, 1.0, 5)[:, None]
        with pytest.raises(InvalidArgumentError, match="w_samples"):
            fit(x, np.hstack([x, x]), lambda w: np.hstack([w, w]), np.zeros((0, 1)))

    def test_nearest_match_memory_grows_linearly(self):
        # The whole 4,000 x 4,000 pairs-by-latents distance matrix would
        # take 128 MB; the fit matches rows in blocks, with the same bits.
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, size=(4000, 1))

        def g(w):
            return np.column_stack([np.cos(w[:, 0]), np.sin(w[:, 0]), w[:, 0]])

        fx = g(0.8 * x + 0.1) + rng.normal(0, 0.01, size=(4000, 3))
        w_samples = rng.uniform(-1.5, 1.5, size=(4000, 1))
        tracemalloc.start()
        try:
            fit_candidate_alignment(x, fx, g, w_samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        d2 = pairwise_sq_dists(fx[:300], g(w_samples))
        nearest, best = _nearest_rows(fx[:300], g(w_samples))
        assert (nearest == d2.argmin(axis=1)).all()
        assert best.tobytes() == d2.min(axis=1).tobytes()

    def test_small_flow_refines_affine(self):
        x = np.linspace(-1, 1, 50)[:, None]

        def g(w):
            return np.atleast_2d(w)

        # Target needs a mild nonlinear reparametrization of W.
        fx = np.column_stack([x[:, 0] + 0.1 * np.sin(np.pi * x[:, 0]),
                              np.zeros(50)])
        w_samples = np.linspace(-1.5, 1.5, 100)[:, None]

        def g2(w):
            w = np.atleast_2d(w)
            return np.column_stack([w[:, 0], np.zeros(w.shape[0])])

        _, upper_affine = fit_candidate_alignment(x, fx[:, :1], g, w_samples)
        _, upper_flow = fit_candidate_alignment(x, fx[:, :1], g, w_samples,
                                                family="small-flow", seed=0)
        assert upper_flow <= upper_affine + 1e-12

    @pytest.mark.parametrize("o", [1, 2])
    def test_small_flow_gradient_matches_central_differences(self, o):
        rng = np.random.default_rng(11)
        x = np.linspace(-1, 1, 30)[:, None]

        def g(w):
            w = np.atleast_2d(w)
            return np.column_stack([np.sin(2 * w.sum(axis=1)),
                                    w[:, 0] * np.cos(w[:, -1]),
                                    np.tanh(w ** 2).sum(axis=1)])

        fx = g(0.8 * x + 0.1) + rng.normal(0, 0.05, size=(30, 3))
        pert = Mlp([1, 8, o], weights=[rng.normal(0, 0.5, size=(8, 1)),
                                        rng.normal(0, 0.5, size=(o, 8))],
                   biases=[rng.normal(0, 0.1, size=8), rng.normal(0, 0.1, size=o)])
        vec, take = flat_store(arr for _, arr in pert.parameters())
        pert.bind_parameters(take)
        base = x @ rng.normal(size=(o, 1)).T + 0.2
        scale = 0.3
        lo, hi = np.full(o, -10.0), np.full(o, 10.0)

        def surrogate():
            resid = g(base + scale * pert(x)) - fx
            return float(np.mean(np.sum(resid ** 2, axis=1)))

        value, grad = _small_flow_descent_point(pert, scale, base, x, fx, g, lo, hi)
        assert value == pytest.approx(surrogate(), rel=1e-12)
        ref = np.empty_like(vec)
        for i in range(vec.size):
            vec[i] += 1e-6
            up = surrogate()
            vec[i] -= 2e-6
            dn = surrogate()
            vec[i] += 1e-6
            ref[i] = (up - dn) / 2e-6
        assert np.linalg.norm(grad - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_small_flow_fit_calls_g_about_once_per_step(self):
        x = np.linspace(-1, 1, 50)[:, None]
        fx = (x[:, 0] + 0.1 * np.sin(np.pi * x[:, 0]))[:, None]
        calls = []

        def g(w):
            calls.append(len(w))
            return np.atleast_2d(w)

        fit_candidate_alignment(x, fx, g, np.linspace(-1.5, 1.5, 100)[:, None],
                                family="small-flow", seed=0)
        assert len(calls) <= 2 * SMALL_FLOW_STEPS + 10

    @pytest.mark.parametrize("family", ["affine", "small-flow"])
    def test_estimate_evaluates_each_point_set_once(self, family):
        # g runs once on W and once per candidate; the estimate carries
        # g(W) and the chosen candidate's images instead of recomputing them.
        rng = np.random.default_rng(4)
        x = np.sort(rng.uniform(-1, 1, 40))[:, None]
        fx = np.column_stack([x[:, 0], np.sin(0.9 * x[:, 0]) + 0.1])
        w_samples = rng.uniform(-1.5, 1.5, size=(60, 1))
        seen = []

        def g(w):
            seen.append((w.shape, w.tobytes()))
            return np.column_stack([w[:, 0], np.sin(w[:, 0])])

        gap = estimate_embedding_gap(x, fx, g, w_samples, family=family)
        assert seen.count((w_samples.shape, w_samples.tobytes())) == 1
        assert len(set(seen)) == len(seen)
        assert gap.range_images.tobytes() == g(w_samples).tobytes()
        assert gap.upper == np.sqrt(((gap.images - fx) ** 2).sum(axis=1)).max()


class TestSandwich:
    def test_lower_below_upper_on_random_instances(self):
        for k in range(10):
            rng = np.random.default_rng(300 + k)
            x = np.sort(rng.uniform(-1, 1, size=12))[:, None]

            def g(w):
                w = np.atleast_2d(w)
                return np.column_stack([w[:, 0], np.tanh(w[:, 0])])

            fx = np.column_stack([x[:, 0], np.tanh(0.8 * x[:, 0]) + 0.2])
            w_samples = rng.uniform(-2, 2, size=(30, 1))
            gap = estimate_embedding_gap(x, fx, g, w_samples)
            assert 0.0 <= gap.lower <= gap.upper

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), st.integers(4, 20))
    def test_lower_below_upper_property(self, seed, dim, n_points):
        """Random polynomial curves t -> sum_k c_k t^k for target and range."""
        rng = np.random.default_rng(seed)
        f_coef, g_coef = rng.normal(size=(2, 4, dim))
        x = np.sort(rng.uniform(-1, 1, size=n_points))[:, None]

        def g(w):
            return np.vander(np.atleast_2d(w)[:, 0], 4, increasing=True) @ g_coef

        fx = np.vander(x[:, 0], 4, increasing=True) @ f_coef
        w_samples = rng.uniform(-2, 2, size=(30, 1))
        gap = estimate_embedding_gap(x, fx, g, w_samples, family="affine")
        assert 0.0 <= gap.lower <= gap.upper


class TestExactW2:
    def test_identical_measures(self):
        pts = np.random.default_rng(3).normal(size=(8, 2))
        assert wasserstein2_exact(pts, pts) == pytest.approx(0.0, abs=1e-12)

    def test_point_masses(self):
        assert wasserstein2_exact([[0.0]], [[1.0]]) == pytest.approx(1.0)

    def test_two_point_coupling_choice(self):
        # Monotone matching costs (1+1)/2 = 1; the crossing one (9+1)/2 = 5.
        assert wasserstein2_exact([[0.0], [2.0]], [[1.0], [3.0]]) == pytest.approx(1.0)

    def test_matches_permutation_enumeration(self):
        rng = np.random.default_rng(4)
        for k in range(30):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(1, 4))
            a = rng.normal(size=(n, d))
            b = rng.normal(size=(n, d))
            got = wasserstein2_exact(a, b)
            want = w2_enumeration_uniform(a, b)
            assert abs(got - want) <= 1e-9

    def test_metric_axioms(self):
        rng = np.random.default_rng(5)
        measures = [rng.normal(size=(6, 2)) for _ in range(6)]
        for m in measures:
            assert wasserstein2_exact(m, m) <= 1e-12
        for a, b in itertools.combinations(measures, 2):
            assert abs(wasserstein2_exact(a, b)
                       - wasserstein2_exact(b, a)) <= 1e-9
        for a, b, c in itertools.combinations(measures, 3):
            assert (wasserstein2_exact(a, c)
                    <= wasserstein2_exact(a, b) + wasserstein2_exact(b, c) + 1e-8)

    def test_unequal_size_lp_path_matches_1d_quantile(self):
        rng = np.random.default_rng(6)
        for n, m in itertools.permutations(range(2, 7), 2):
            x = rng.normal(size=(n, 1))
            y = rng.normal(size=(m, 1))
            got = wasserstein2_exact(x, y)
            want = np.sqrt(w2_1d_squared(x[:, 0], y[:, 0]))
            assert abs(got - want) <= 1e-7

    def test_lp_path_memory_on_unequal_uniform_supports(self):
        rng = np.random.default_rng(7)
        mu = rng.uniform(size=(300, 1))
        nu = rng.uniform(size=(200, 1))
        tracemalloc.start()
        try:
            got = wasserstein2_exact(mu, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        want = np.sqrt(w2_1d_squared(mu[:, 0], nu[:, 0]))
        assert abs(got - want) <= 1e-7

    def test_lp_path_exact_on_unequal_uniform_supports(self):
        rng = np.random.default_rng(7)
        mu = rng.uniform(size=(300, 1))
        nu = rng.uniform(size=(200, 1))
        want = np.sqrt(w2_1d_squared(mu[:, 0], nu[:, 0]))
        assert abs(wasserstein2_exact(mu, nu) - want) <= 1e-12

    def test_budget_exceeded(self):
        pts = np.zeros((300, 1))
        with pytest.raises(BudgetExceededError):
            wasserstein2_exact(pts, pts)



def _assignment_costs(rng, count):
    """Generic float cost matrices of sizes 1-256: Gaussian entries, and
    squared distances between point clouds, unrelated or near duplicates."""
    for k in range(count):
        n = int(rng.integers(1, 257))
        d = int(rng.integers(1, 6))
        a = rng.normal(size=(n, d))
        if k % 3 == 0:
            yield rng.normal(size=(n, n))
        elif k % 3 == 1:
            yield pairwise_sq_dists(a, rng.normal(size=(n, d)))
        else:
            noise = 10.0 ** rng.uniform(-8, -1)
            yield pairwise_sq_dists(a, a + rng.normal(scale=noise, size=(n, d)))


def _checked_plan(plan, n, m):
    """plan, once checked to be an integer plan of the uniform transport
    problem: (n, m), row sums m/g, column sums n/g, g = gcd(n, m)."""
    g = np.gcd(n, m)
    assert plan.shape == (n, m) and plan.dtype.kind == "i" and (plan >= 0).all()
    assert (plan.sum(axis=1) == m // g).all() and (plan.sum(axis=0) == n // g).all()
    return plan


def _permutation(cost):
    """The column _transport gives each row of a square cost matrix."""
    return _checked_plan(_transport(cost), *cost.shape).argmax(axis=1)


class TestAssignment:
    """The exact W2's numpy transport solver at n = m, against scipy."""

    def test_permutation_matches_scipy(self):
        rng = np.random.default_rng(11)
        for cost in _assignment_costs(rng, 45):
            assert np.array_equal(_permutation(cost), linear_sum_assignment(cost)[1])

    @pytest.mark.parametrize("kind", ["integer-ties", "all-zero", "scaled-1e300"])
    def test_total_cost_matches_scipy_on_ties(self, kind):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 121))
            if kind == "integer-ties":
                cost = rng.integers(0, 4, size=(n, n)).astype(float)
            elif kind == "all-zero":
                cost = np.zeros((n, n))
            else:
                cost = rng.integers(0, 4, size=(n, n)) * 1e300
            cols = _permutation(cost)
            rows, want = linear_sum_assignment(cost)
            assert cost[np.arange(n), cols].sum() == cost[rows, want].sum()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_cost_refused(self, bad):
        cost = np.random.default_rng(13).uniform(size=(5, 5))
        cost[2, 3] = bad
        with pytest.raises(NumericError):
            _transport(cost)


def _highs_w2sq(cost):
    """Squared W2 of the transportation LP, solved by HiGHS at 1e-10 primal
    and dual feasibility tolerances: row sums 1/n, column sums 1/m."""
    n, m = cost.shape
    a_eq = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.eye(m))])
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return res.fun


class TestTransport:
    """The exact W2's numpy transport solver on clouds of unequal sizes."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 40),
           st.integers(1, 3),
           st.sampled_from(["gaussian", "near-duplicate", "integer-tied"]))
    def test_integer_plan_at_most_highs_value(self, seed, n, m, d, kind):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, d))
        if kind == "gaussian":
            b = rng.normal(size=(m, d))
        elif kind == "near-duplicate":
            b = a[rng.integers(0, n, size=m)] + 1e-6 * rng.normal(size=(m, d))
        else:
            a = rng.integers(0, 3, size=(n, d)).astype(float)
            b = rng.integers(0, 3, size=(m, d)).astype(float)
        cost = pairwise_sq_dists(a, b)
        plan = _checked_plan(_transport(cost), n, m)
        # The integer plan is exactly feasible, so its cost is at least the
        # optimum; HiGHS's vertex can sit above the optimum at these
        # tolerances (by 9.5e-12 relative once in 3,000 draws, where the 1-D
        # quantile coupling agreed with this plan), so it bounds one side.
        got = wasserstein2_exact(a, b) ** 2
        assert got == pytest.approx((plan * cost).sum() / plan.sum(), rel=1e-12, abs=0)
        assert got <= _highs_w2sq(cost) * (1 + 1e-12)


class TestSlicedW2:
    def test_identical_measures_zero(self):
        pts = np.random.default_rng(7).normal(size=(50, 3))
        assert wasserstein2_sliced(pts, pts, 64, seed=0) == pytest.approx(0.0, abs=1e-12)

    def test_translation_recovers_shift_norm(self):
        rng = np.random.default_rng(8)
        v = np.array([0.3, -0.4, 0.5])
        pts = rng.normal(size=(400, 3))
        got = wasserstein2_sliced(pts, pts + v, n_projections=256, seed=9)
        assert abs(got - np.linalg.norm(v)) <= 0.05 * np.linalg.norm(v)

    def test_bounded_by_exact_on_random_instances(self):
        for k in range(20):
            rng = np.random.default_rng(500 + k)
            d = int(rng.integers(1, 4))
            n = int(rng.integers(5, 40))
            mu = rng.normal(0, 1, size=(n, d))
            nu = rng.normal(0.3, 1.2, size=(n, d))
            ex = wasserstein2_exact(mu, nu)
            sl = wasserstein2_sliced(mu, nu, n_projections=128, seed=k)
            assert sl <= ex + 1e-9

    def test_seeded_determinism(self):
        rng = np.random.default_rng(10)
        mu = rng.normal(size=(30, 2))
        nu = rng.normal(size=(25, 2))
        a = wasserstein2_sliced(mu, nu, 64, seed=11)
        b = wasserstein2_sliced(mu, nu, 64, seed=11)
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 60),
           st.integers(1, 40), st.sampled_from([None, 0, 1]))
    def test_uniform_equal_matches_per_direction_reference(self, seed, d, n, k,
                                                          decimals):
        """The sort-and-subtract branch against one quantile coupling per
        direction; rounding to a coarse grid makes projections tie."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        y = rng.normal(0.5, 1.5, size=(n, d))
        if decimals is not None:
            x, y = np.round(x, decimals), np.round(y, decimals)
        dirs = draw_directions(d, k, seed)
        reference = np.sqrt(d * np.mean([
            w2_1d_squared(x @ dirs[:, j], y @ dirs[:, j]) for j in range(k)]))
        got = wasserstein2_sliced(x, y, n_projections=k, seed=seed)
        assert abs(got - reference) <= 1e-12 * reference

    def test_needs_positive_projections(self):
        m = np.zeros((2, 2))
        with pytest.raises(InvalidArgumentError):
            wasserstein2_sliced(m, m, 0)

    @pytest.mark.parametrize("k", [1, SLICE_BLOCK, SLICE_BLOCK + 1, 3 * SLICE_BLOCK - 5])
    def test_unequal_counts_match_per_direction_reference(self, k):
        rng = np.random.default_rng(k)
        x, y = rng.normal(size=(23, 3)), rng.normal(0.5, 1.5, size=(31, 3))
        dirs = draw_directions(3, k, 4)
        total = sum(w2_1d_squared(x @ dirs[:, j], y @ dirs[:, j]) for j in range(k))
        reference = np.sqrt(3 * total / k)
        got = wasserstein2_sliced(x, y, n_projections=k, seed=4)
        assert abs(got - reference) <= 1e-12 * reference

    def test_unequal_counts_memory(self):
        # SLICE_BLOCK directions at a time: projecting all 128 at once held
        # 22 MB of projections for these rows.
        rng = np.random.default_rng(12)
        mu, nu = rng.normal(size=(5, 3)), rng.normal(size=(20_000, 3))
        tracemalloc.start()
        try:
            wasserstein2_sliced(mu, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestBudgetedW2:
    def test_method_follows_combined_support_budget(self):
        rng = np.random.default_rng(8)
        small = rng.normal(size=(10, 2))
        other = rng.normal(size=(12, 2))
        large = rng.normal(size=(600, 2))
        assert wasserstein2(small, other) == (wasserstein2_exact(small, other), "exact")
        assert (wasserstein2(large, other, seed=3)
                == (wasserstein2_sliced(large, other, seed=3), "sliced"))


class TestBoundCheck:
    def test_exact_cover_gives_zero_w2(self):
        x = np.linspace(-1, 1, 30)[:, None]

        def g(w):
            w = np.atleast_2d(w)
            return np.column_stack([w[:, 0], w[:, 0] ** 3])

        fx = g(x)
        w_samples = np.linspace(-1, 1, 30)[:, None]
        gap = estimate_embedding_gap(x, fx, g, w_samples)
        report = wasserstein_bound_check(fx, gap)
        assert gap.upper <= 1e-8
        assert report.w2 <= 1e-8
        assert report.passed

    def test_random_instance_within_tolerance(self):
        rng = np.random.default_rng(12)
        x = np.sort(rng.uniform(-1, 1, 40))[:, None]

        def g(w):
            w = np.atleast_2d(w)
            return np.column_stack([w[:, 0], np.sin(w[:, 0])])

        fx = np.column_stack([x[:, 0], np.sin(0.9 * x[:, 0]) + 0.1])
        w_samples = np.linspace(-1.5, 1.5, 60)[:, None]
        gap = estimate_embedding_gap(x, fx, g, w_samples)
        report = wasserstein_bound_check(fx, gap, tolerance=0.01)
        assert report.w2 <= gap.upper + 0.01
        assert report.passed
