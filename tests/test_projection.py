import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injflow.errors import (
    InvalidArgumentError,
    InvalidLayerError,
    NumericError,
    UnsupportedLayerError,
)
from injflow.expansive import (
    InjectiveRelu,
    ZeroPad,
    random_injective_relu,
    random_linear_expansive,
    random_well_conditioned,
    relu_sign_pattern,
)
from injflow.flows import identity_block, make_coupling_block
from injflow.network import InjectiveNetwork
from injflow.projection import (
    brute_force_relu_projection,
    linear_pseudo_inverse,
    project_to_range,
    relu_pseudo_inverse,
)


class TestReluPseudoInverse:
    def test_head_dominates(self):
        res = relu_pseudo_inverse([[1.0]], [1.0], [2.0, 0.5])
        assert abs(res.x[0] - 2.0) < 1e-14
        assert abs(res.residual - 0.5) < 1e-14
        assert not res.tie_flag

    def test_tail_dominates(self):
        res = relu_pseudo_inverse([[1.0]], [1.0], [0.5, 2.0])
        assert abs(res.x[0] + 2.0) < 1e-14
        assert abs(res.residual - 0.5) < 1e-14
        assert not res.tie_flag

    def test_tie_has_two_minimizers(self):
        res = relu_pseudo_inverse([[1.0]], [1.0], [1.0, 1.0])
        assert res.tie_flag
        assert abs(res.residual - 1.0) < 1e-14
        # The mirrored preimage attains the same residual.
        other = np.maximum(np.array([[1.0], [-1.0]]) @ np.array([-1.0]), 0.0)
        assert abs(np.linalg.norm([1.0, 1.0] - other) - res.residual) < 1e-14

    def test_general_positive_diagonal(self):
        res = relu_pseudo_inverse([[2.0]], [4.0], [0.5, 2.0])
        # Tail active: alpha = -y_tail / d = -0.5, x = alpha / 2.
        assert abs(res.x[0] + 0.25) < 1e-14

    def test_invalid_parameters(self):
        with pytest.raises(InvalidLayerError):
            relu_pseudo_inverse([[1.0]], [-1.0], [1.0, 0.0])
        with pytest.raises(InvalidLayerError):
            relu_pseudo_inverse([[0.0]], [1.0], [1.0, 0.0])
        with pytest.raises(InvalidArgumentError):
            relu_pseudo_inverse([[1.0]], [1.0], [1.0, 0.0, 2.0])


class TestLinearPseudoInverse:
    def test_zero_pad_matrix(self):
        res = linear_pseudo_inverse([[1.0], [0.0]], [3.0, 4.0])
        assert abs(res.x[0] - 3.0) < 1e-14
        assert abs(res.residual - 4.0) < 1e-14

    def test_normal_equations_vs_grid_search(self):
        w = np.array([[1.0], [1.0]])
        y = np.array([1.0, 3.0])
        res = linear_pseudo_inverse(w, y)
        assert abs(res.x[0] - 2.0) < 1e-12
        assert abs(res.residual - np.sqrt(2.0)) < 1e-12
        grid = np.linspace(-5, 5, 100001)
        vals = np.linalg.norm(y[None, :] - grid[:, None] * w.T, axis=1)
        assert res.residual <= vals.min() + 1e-6

    def test_in_range_query(self):
        res = linear_pseudo_inverse([[1.0], [0.0]], [5.0, 0.0])
        assert abs(res.x[0] - 5.0) < 1e-14
        assert res.residual < 1e-14

    def test_rank_deficiency(self):
        with pytest.raises(InvalidLayerError):
            linear_pseudo_inverse(np.zeros((3, 2)), np.zeros(3))


def _random_no_tie_instance(rng, n, margin=1e-3):
    b = random_well_conditioned(n, rng)
    d = rng.uniform(0.5, 2.0, size=n)
    y = rng.normal(0.0, 1.5, size=2 * n)
    for i in range(n):
        while abs(y[i] - y[i + n]) < margin:
            y[i + n] = rng.normal(0.0, 1.5)
    return b, d, y


class TestOracleOptimality:
    def test_residual_and_preimage_agree_with_oracle(self):
        rng = np.random.default_rng(7)
        for k in range(120):
            n = (1, 2, 3, 5)[k % 4]
            b, d, y = _random_no_tie_instance(rng, n)
            res = relu_pseudo_inverse(b, d, y)
            oracle_min, minimizers = brute_force_relu_projection(b, d, y)
            assert res.residual <= oracle_min + 1e-6
            assert len(minimizers) == 1
            assert np.linalg.norm(res.x - minimizers[0]) <= 1e-6

    def test_single_tie_gives_two_minimizers(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            b, d, y = _random_no_tie_instance(rng, n)
            tie_at = int(rng.integers(0, n))
            v = float(rng.uniform(0.5, 2.0))
            y[tie_at] = v
            y[tie_at + n] = v
            res = relu_pseudo_inverse(b, d, y)
            assert res.tie_flag
            _, minimizers = brute_force_relu_projection(b, d, y)
            assert len(minimizers) == 2
            assert min(np.linalg.norm(res.x - m) for m in minimizers) <= 1e-6

    def test_double_tie_gives_four_minimizers(self):
        rng = np.random.default_rng(9)
        b, d, y = _random_no_tie_instance(rng, 3)
        for i in (0, 2):
            v = float(rng.uniform(0.5, 2.0))
            y[i] = v
            y[i + 3] = v
        res = relu_pseudo_inverse(b, d, y)
        _, minimizers = brute_force_relu_projection(b, d, y)
        assert len(minimizers) == 4
        assert min(np.linalg.norm(res.x - m) for m in minimizers) <= 1e-6

    def test_myw_never_singular(self):
        # (I - Delta - Delta D) B is diagonal-times-invertible for any pattern.
        rng = np.random.default_rng(10)
        for n in (1, 2, 4):
            b = random_well_conditioned(n, rng)
            d = rng.uniform(0.5, 2.0, size=n)
            w = np.vstack([b, -d[:, None] * b])
            for bits in range(2 ** n):
                delta = np.array([(bits >> i) & 1 for i in range(n)], dtype=float)
                m_y = np.hstack([np.diag(1 - delta), np.diag(delta)])
                assert abs(np.linalg.det(m_y @ w)) > 1e-12


def _query_pair(kind, u, v):
    return {"free": (u, v), "tie": (abs(u), abs(u)), "negative": (-abs(u), -abs(v))}[kind]


# Each coordinate pair (y_i, y_{n+i}) of a query: about 60 % drawn freely,
# 20 % a tie y_i = y_{n+i} and 20 % both negative.  Free pairs include
# near-ties, whose two cones differ by far less than the residual.
_QUERY_PAIRS = st.lists(
    st.builds(_query_pair, st.sampled_from(("free", "free", "free", "tie", "negative")),
              st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    min_size=1, max_size=5)


class TestExactOracle:
    def test_all_negative_pair_is_one_minimizer(self):
        # Criterion 1's instance k = 143: pair 2 is all-negative, so alpha_2 = 0
        # on both of its cones and the two cones share one minimizer.
        b = np.array([
            [-0.4350442503914094, -0.4221387660706532, 0.7978768461965727,
             -0.4112468517826729, 0.1484304767324876],
            [0.9519278564073852, -0.4848669106296492, 1.680686825897258e-05,
             -0.5686214264391865, 0.05117322759585053],
            [-0.14852668324379786, 0.2480095304887182, -0.11589613532056886,
             -0.47225544427722893, 0.8746730156991249],
            [-0.482525874400467, -0.5343227369076496, -0.7731376208065965,
             -0.3393993650273105, -0.11921171495568873],
            [-0.024081668873876572, 0.651284512483222, 0.021568699133769662,
             -0.6999226310801326, -0.5170507854689468]])
        d = np.array([0.724699391532404, 1.8921544422435725, 1.1995487577559927,
                      1.5885595118480913, 0.5539381989372487])
        y = np.array([0.015070641239897877, 0.8988617452312784, -0.17043464127226984,
                      1.642435711889115, -0.28528524349699674, -0.050331154620854315,
                      -2.6224092009930295, -2.0557889448495517, -0.16406258407931246,
                      -0.6484649298691028])
        _, minimizers = brute_force_relu_projection(b, d, y)
        assert len(minimizers) == 1

    def test_near_tie_is_not_a_second_minimizer(self):
        # Pair 0 is (0, 6.1035e-05): its positive cone is worse by only 9.3e-10
        # in residual, within an absolute 1e-9, but it is no tie.
        rng = np.random.default_rng(0)
        b, d = random_well_conditioned(2, rng), rng.uniform(0.5, 2.0, size=2)
        y = np.array([0.0, 0.0, 6.1035e-05, -2.0])
        oracle_min, minimizers = brute_force_relu_projection(b, d, y)
        assert oracle_min == pytest.approx(2.0, abs=1e-12)
        assert len(minimizers) == 1
        layer = InjectiveRelu(b, d)
        assert abs(np.linalg.norm(y - layer(minimizers[0][None])[0]) - oracle_min) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(_QUERY_PAIRS, st.integers(0, 2 ** 16))
    def test_minimizers_attain_oracle_min_and_no_probe_beats_it(self, pairs, seed):
        n = len(pairs)
        y = np.array(pairs).T.ravel()
        rng = np.random.default_rng(seed)
        b = random_well_conditioned(n, rng)
        d = rng.uniform(0.5, 2.0, size=n)
        layer = InjectiveRelu(b, d)
        oracle_min, minimizers = brute_force_relu_projection(b, d, y)

        def residuals(xs):
            return np.linalg.norm(y - layer(np.atleast_2d(xs)), axis=1)

        for x in minimizers:
            assert abs(residuals(x)[0] - oracle_min) <= 1e-12
            probes = np.vstack([x + scale * rng.normal(size=(25, n))
                                for scale in (1e-6, 1e-2, 1.0, 10.0)])
            assert residuals(probes).min() >= oracle_min - 1e-12


class TestRegionMap:
    def test_pattern_examples(self):
        assert relu_sign_pattern(np.array([[2.0, 0.5]]))[0].tolist() == [[False]]
        assert relu_sign_pattern(np.array([[0.5, 2.0]]))[0].tolist() == [[True]]

    def test_tie_point_on_boundary(self):
        delta, ties = relu_sign_pattern(np.array([[1.0, 1.0]]))
        assert ties.tolist() == [[True]]
        assert delta.tolist() == [[False]]

    def test_halfplane_pattern_on_grid(self):
        axis = np.linspace(-2.0, 2.0, 100)
        grid = np.column_stack([a.ravel() for a in np.meshgrid(axis, axis, indexing="ij")])
        delta, _ = relu_sign_pattern(grid)
        np.testing.assert_array_equal(delta[:, 0], grid[:, 1] > grid[:, 0])


def _supported_network(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    kind = int(rng.integers(0, 3))
    mid = 2 * n if kind == 2 else n + int(rng.integers(1, 3))
    m = mid + int(rng.integers(1, 3))
    t0 = (make_coupling_block(n, 2, rng=rng, final_scale=0.4, hidden=8)
          if n >= 2 else identity_block(n))
    if kind == 0:
        r1 = ZeroPad(n, mid)
    elif kind == 1:
        r1 = random_linear_expansive(n, mid, rng)
    else:
        r1 = random_injective_relu(n, mid, rng)
    t1 = make_coupling_block(mid, 2, rng=rng, final_scale=0.4, hidden=8)
    r2 = random_linear_expansive(mid, m, rng)
    t2 = make_coupling_block(m, 2, rng=rng, final_scale=0.4, hidden=8)
    return InjectiveNetwork([t0, r1, t1, r2, t2])


class TestProjectToRange:
    def test_in_range_query_recovers_preimage(self):
        net = _supported_network(3)
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=net.latent_dim)
        y = net.forward(x0)
        res = project_to_range(net, y)
        assert res.residual <= 1e-8
        assert np.linalg.norm(res.x - x0) <= 1e-8

    def test_zero_pad_reduction(self):
        net = InjectiveNetwork([identity_block(1), ZeroPad(1, 2), identity_block(2)])
        res = project_to_range(net, [3.0, 4.0])
        np.testing.assert_allclose(res.y_hat, [3.0, 0.0], atol=1e-12)
        assert abs(res.residual - 4.0) < 1e-12

    def test_idempotence_over_random_networks(self):
        for k in range(6):
            net = _supported_network(100 + k)
            rng = np.random.default_rng(200 + k)
            for _ in range(15):
                y = rng.normal(0, 2.0, size=net.ambient_dim)
                first = project_to_range(net, y)
                second = project_to_range(net, first.y_hat)
                assert np.linalg.norm(second.y_hat - first.y_hat) <= 1e-8
                # Range-point consistency: y_hat is the forward image of x.
                assert np.linalg.norm(net.forward(first.x) - first.y_hat) <= 1e-10

    def test_unsupported_kinds_rejected(self):
        rng = np.random.default_rng(5)
        wide_relu = random_injective_relu(2, 5, rng)  # m > 2n with M rows
        net = InjectiveNetwork([identity_block(2), wide_relu, identity_block(5)])
        with pytest.raises(UnsupportedLayerError):
            project_to_range(net, np.zeros(5))

    def test_dimension_mismatch(self):
        net = _supported_network(6)
        with pytest.raises(InvalidArgumentError):
            project_to_range(net, np.zeros(net.ambient_dim + 1))


# --- batched projection properties ------------------------------------------


def _query_stack(net, rng, n_off, n_tied):
    """Off-range Gaussians, one on-range point, and (for an R1 ReLU layer)
    forward images of points tied at R1 (z_i = z_{i+n}), which take the tie
    branch on the way back.  Returns (queries, number of tied rows at the end)."""
    parts = [rng.normal(0.0, 2.0, size=(n_off, net.ambient_dim)),
             np.atleast_2d(net.forward(rng.normal(size=(1, net.latent_dim))))]
    t0, r1, t1, r2, t2 = net.stages
    if not isinstance(r1, InjectiveRelu):
        return np.vstack(parts), 0
    z = r1(t0.forward(rng.normal(size=(n_tied, net.latent_dim))))
    rows = np.arange(n_tied)
    col = rng.integers(0, r1.in_dim, size=n_tied)
    z[rows, col] = z[rows, col + r1.in_dim] = np.abs(rng.normal(size=n_tied)) + 0.1
    parts.append(t2.forward(r2(t1.forward(z))))
    return np.vstack(parts), n_tied


_PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)
_net_seeds = st.integers(0, 2 ** 16)


class TestBatchedProjectionProperties:
    @_PROPERTY_SETTINGS
    @given(_net_seeds, st.integers(0, 2 ** 16), st.integers(0, 6), st.integers(0, 4))
    def test_batch_matches_per_row_calls(self, net_seed, query_seed, n_off, n_tied):
        net = _supported_network(net_seed)
        queries, tied = _query_stack(net, np.random.default_rng(query_seed), n_off, n_tied)
        batch = project_to_range(net, queries)
        assert batch.x.shape == (len(queries), net.latent_dim)
        assert batch.tie_flag[len(queries) - tied:].all()
        for i, y in enumerate(queries):
            single = project_to_range(net, y)
            assert single.tie_flag == batch.tie_flag[i]
            if not single.tie_flag:
                assert np.abs(single.x - batch.x[i]).max() <= 1e-12
                assert np.abs(single.y_hat - batch.y_hat[i]).max() <= 1e-12
                assert abs(single.residual - batch.residual[i]) <= 1e-12

    @_PROPERTY_SETTINGS
    @given(_net_seeds, st.integers(0, 2 ** 16), st.integers(1, 6), st.integers(0, 4))
    def test_batch_idempotent_and_range_consistent(self, net_seed, query_seed,
                                                   n_off, n_tied):
        net = _supported_network(net_seed)
        queries, _ = _query_stack(net, np.random.default_rng(query_seed), n_off, n_tied)
        first = project_to_range(net, queries)
        second = project_to_range(net, first.y_hat)
        assert np.linalg.norm(second.y_hat - first.y_hat, axis=1).max() <= 1e-8
        assert np.linalg.norm(net.forward(first.x) - first.y_hat, axis=1).max() <= 1e-10
        np.testing.assert_allclose(first.residual,
                                   np.linalg.norm(queries - first.y_hat, axis=1))

    @_PROPERTY_SETTINGS
    @given(_net_seeds, st.integers(1, 3), st.integers(1, 3))
    def test_rank_check_after_in_place_update(self, seed, n, extra):
        rng = np.random.default_rng(seed)
        layer = random_linear_expansive(n, n + extra, rng)
        net = InjectiveNetwork([identity_block(n), layer, identity_block(n + extra)])
        # Training updates the weight in place, after construction validated it.
        layer.weight[:, int(rng.integers(0, n))] = 0.0
        with pytest.raises(InvalidLayerError):
            layer.pseudo_inverse(rng.normal(size=(3, n + extra)))
        with pytest.raises(NumericError) as err:
            project_to_range(net, rng.normal(size=(3, n + extra)))
        assert err.value.stage_index == 1

