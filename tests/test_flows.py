import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injflow.errors import InvalidLayerError, NumericError
from injflow.flows import (
    SCALE_CLAMP,
    AutoregressiveLayer,
    CouplingLayer,
    FlowBlock,
    Mlp,
    identity_block,
    make_autoregressive_block,
    make_coupling_block,
)
from injflow.network import InjectiveNetwork


def _const(value, width, in_dim=1):
    """Constant-output Mlp (zero weight, bias value) for closed-form checks."""
    return Mlp([in_dim, width], weights=[np.zeros((width, in_dim))],
               biases=[np.full(width, float(value))])


def _linear(weight):
    """Bias-free linear Mlp x -> weight @ x."""
    weight = np.asarray(weight, dtype=float)
    return Mlp([weight.shape[1], weight.shape[0]], weights=[weight],
               biases=[np.zeros(weight.shape[0])])


def _coupling(dim=2, split=1, s=None, t=None, perm=None):
    s = s if s is not None else _const(0.0, split, dim - split)
    t = t if t is not None else _const(0.0, split, dim - split)
    return CouplingLayer(dim, split, s, t, perm=perm)


class TestCouplingExamples:
    def test_identity_case(self):
        layer = _coupling()
        x = np.array([[0.7, -1.3]])
        np.testing.assert_allclose(layer.forward(x), x, atol=1e-15)

    def test_shift_by_conditioner(self):
        layer = _coupling(t=_linear([[1.0]]))
        np.testing.assert_allclose(layer.forward(np.array([[1.0, 2.0]])), [[3.0, 2.0]])

    def test_constant_log2_scale(self):
        layer = _coupling(s=_const(np.log(2.0), 1))
        np.testing.assert_allclose(layer.forward(np.array([[1.0, 5.0]])), [[2.0, 5.0]])

    def test_inverse_of_shift_example(self):
        layer = _coupling(t=_linear([[1.0]]))
        np.testing.assert_allclose(layer.inverse(np.array([[3.0, 2.0]])), [[1.0, 2.0]])

    def test_identity_inverse(self):
        layer = _coupling()
        y = np.array([[4.0, -2.0]])
        np.testing.assert_allclose(layer.inverse(y), y, atol=1e-15)

    def test_roundtrip_1000_random(self):
        rng = np.random.default_rng(0)
        block = make_coupling_block(4, 4, rng=rng, final_scale=0.6)
        x = rng.normal(size=(1000, 4))
        err = np.abs(block.inverse(block.forward(x)) - x).max()
        assert err <= 1e-10

    def test_nonfinite_subnet_output_raises(self):
        layer = _coupling(s=_const(np.inf, 1))
        with pytest.raises(NumericError):
            layer.forward(np.array([[1.0, 2.0]]))


class TestAutoregressiveExamples:
    def test_identity_conditioners(self):
        layer = AutoregressiveLayer(2, conditioners=[_const(0.0, 2)])
        x = np.array([[0.4, -0.9]])
        np.testing.assert_allclose(layer.forward(x), x, atol=1e-15)

    def test_prefix_shift(self):
        # g_2(x1) = (log 1, x1): y2 = x2 * 1 + x1.
        layer = AutoregressiveLayer(2, conditioners=[_linear([[0.0], [1.0]])])
        np.testing.assert_allclose(layer.forward(np.array([[1.0, 1.0]])), [[1.0, 2.0]])
        np.testing.assert_allclose(layer.inverse(np.array([[1.0, 2.0]])), [[1.0, 1.0]])

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        block = make_autoregressive_block(3, 2, rng=rng, final_scale=0.6)
        x = rng.normal(size=(500, 3))
        err = np.abs(block.inverse(block.forward(x)) - x).max()
        assert err <= 1e-10

    def test_triangularity_exact(self):
        rng = np.random.default_rng(2)
        layer = AutoregressiveLayer(4, rng=rng, final_scale=0.5)
        x = rng.normal(size=(1, 4))
        y = layer.forward(x)
        for j in range(1, 4):
            x2 = x.copy()
            x2[0, j] += 10.0
            y2 = layer.forward(x2)
            assert (y2[0, :j] == y[0, :j]).all()


def _saturating_mlp(rng, in_dim, signs):
    """Tanh Mlp whose output i stays above +SCALE_CLAMP (sign 1), below
    -SCALE_CLAMP (sign -1) or well inside the clamp (sign 0) on every input.

    The small output weights keep the subnet's Lipschitz constant low: an
    inverse at scale exp(-SCALE_CLAMP) amplifies prefix errors by about
    exp(SCALE_CLAMP) times that constant per autoregressive coordinate."""
    signs = np.asarray(signs, dtype=float)
    net = Mlp([in_dim, 6, signs.size], rng=rng, final_scale=0.1)
    reach = np.abs(net.weights[-1]).sum(axis=1)  # |tanh| <= 1 per hidden unit
    net.biases[-1][...] = signs * (SCALE_CLAMP + reach + rng.uniform(0.1, 2.0, signs.size))
    return net


def _recording(mlp, log):
    """Make mlp.vjp append the output gradient it receives to log."""
    vjp = mlp.vjp

    def recording_vjp(cache, grad_out, *args):
        log.append(grad_out)
        return vjp(cache, grad_out, *args)

    mlp.vjp = recording_vjp
    return mlp


_signs = st.lists(st.sampled_from((-1, 0, 1)), min_size=4, max_size=4)


class TestClampSaturation:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), _signs)
    def test_coupling(self, seed, dim, signs):
        rng = np.random.default_rng(seed)
        split = int(rng.integers(1, dim))
        signs = np.array(signs[:split])
        log = []
        s_net = _recording(_saturating_mlp(rng, dim - split, signs), log)
        t_net = Mlp([dim - split, 6, split], rng=rng, final_scale=0.5)
        perm = rng.permutation(dim)
        layer = CouplingLayer(dim, split, s_net, t_net, perm=perm)
        x = rng.normal(size=(20, dim))
        s_raw = s_net(x[:, perm][:, split:])
        saturated = np.abs(s_raw) >= SCALE_CLAMP
        assert (saturated == (signs != 0)[None, :]).all()

        y, cache = layer.forward_with_cache(x)
        _, grads = layer.vjp(cache, rng.normal(size=y.shape))
        assert (log[0][saturated] == 0.0).all()
        b1 = [name for name, _ in layer.parameters()].index("s_net.b1")
        assert (grads[b1][signs != 0] == 0.0).all()
        assert np.abs(layer.inverse(y) - x).max() <= 1e-10
        np.testing.assert_array_equal(cache["log_scale"],
                                      np.clip(s_raw, -SCALE_CLAMP, SCALE_CLAMP))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), _signs)
    def test_autoregressive(self, seed, dim, signs):
        rng = np.random.default_rng(seed)
        logs = [[] for _ in range(dim)]
        conds = [_recording(_saturating_mlp(rng, i, [signs[i], 0]), logs[i])
                 for i in range(1, dim)]
        first = [signs[0] * (SCALE_CLAMP + rng.uniform(0.1, 2.0)), rng.normal()]
        layer = AutoregressiveLayer(dim, conditioners=conds, first_params=first)
        x = rng.normal(size=(20, dim))
        ls_raw = np.column_stack(
            [np.full(20, first[0])] + [c(x[:, :i])[:, 0] for i, c in enumerate(conds, 1)])
        saturated = np.abs(ls_raw) >= SCALE_CLAMP
        assert (saturated == (np.array(signs[:dim]) != 0)[None, :]).all()

        y, cache = layer.forward_with_cache(x)
        _, grads = layer.vjp(cache, rng.normal(size=y.shape))
        for i in range(1, dim):
            assert (logs[i][0][saturated[:, i], 0] == 0.0).all()
        first_idx = [name for name, _ in layer.parameters()].index("first")
        if saturated[0, 0]:
            assert grads[first_idx][0] == 0.0
        assert np.abs(layer.inverse(y) - x).max() <= 1e-10
        np.testing.assert_array_equal(cache["log_scale"],
                                      np.clip(ls_raw, -SCALE_CLAMP, SCALE_CLAMP))


class TestBijectivityProperty:
    def test_fifty_random_blocks(self):
        worst = 0.0
        for k in range(50):
            rng = np.random.default_rng(1000 + k)
            dim = int(rng.integers(2, 6))
            if k % 2 == 0:
                block = make_coupling_block(dim, int(rng.integers(1, 4)),
                                            rng=rng, final_scale=0.6, hidden=8)
            else:
                block = make_autoregressive_block(dim, int(rng.integers(1, 3)),
                                                  rng=rng, final_scale=0.6, hidden=8)
            x = rng.normal(size=(20, dim))
            worst = max(worst,
                        float(np.abs(block.inverse(block.forward(x)) - x).max()),
                        float(np.abs(block.forward(block.inverse(x)) - x).max()))
        assert worst <= 1e-10


class TestLipschitzBound:
    def test_bound_dominates_samples(self):
        rng = np.random.default_rng(3)
        block = make_coupling_block(3, 3, rng=rng, final_scale=0.8)
        x = rng.uniform(-2, 2, size=(300, 3))
        radius = float(np.linalg.norm(x, axis=1).max())
        y = block.forward(x)
        dx = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        dy = np.linalg.norm(y[:, None] - y[None, :], axis=2)
        keep = dx > 1e-9
        assert (dy[keep] / dx[keep]).max() <= block.ball_bound(radius)[0]

    def test_autoregressive_bound_dominates_samples(self):
        rng = np.random.default_rng(14)
        block = make_autoregressive_block(3, 2, rng=rng, final_scale=0.8)
        x = rng.uniform(-2, 2, size=(200, 3))
        radius = float(np.linalg.norm(x, axis=1).max())
        y = block.forward(x)
        dx = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        dy = np.linalg.norm(y[:, None] - y[None, :], axis=2)
        keep = dx > 1e-9
        assert (dy[keep] / dx[keep]).max() <= block.ball_bound(radius)[0]


def test_serialization_roundtrip():
    rng = np.random.default_rng(5)
    block = FlowBlock(3, make_coupling_block(3, 2, rng=rng, final_scale=0.7).layers
                      + make_autoregressive_block(3, 1, rng=rng, final_scale=0.7).layers)
    blob = json.dumps(InjectiveNetwork([block]).to_config())
    clone = InjectiveNetwork.from_config(json.loads(blob)).stages[0]
    x = rng.normal(size=(30, 3))
    np.testing.assert_array_equal(clone.forward(x), block.forward(x))
    np.testing.assert_array_equal(clone.inverse(x), block.inverse(x))


def test_identity_block_is_identity():
    x = np.random.default_rng(6).normal(size=(5, 3))
    blk = identity_block(3)
    assert (blk.forward(x) == x).all() and (blk.inverse(x) == x).all()


def test_bad_split_rejected():
    with pytest.raises(InvalidLayerError):
        CouplingLayer(2, 2, _const(0, 1), _const(0, 1))
    with pytest.raises(InvalidLayerError):
        CouplingLayer(2, 0, _const(0, 1), _const(0, 1))


@pytest.mark.parametrize("make", [
    lambda: CouplingLayer(3, 1, _const(0, 2, 2), _const(0, 1, 2)),
    lambda: CouplingLayer(3, 1, _const(0, 1, 2), _const(0, 1, 1)),
    lambda: AutoregressiveLayer(2, conditioners=[_const(0, 3)]),
    lambda: AutoregressiveLayer(3, conditioners=[_const(0, 2), _const(0, 2)]),
], ids=["coupling-s-out", "coupling-t-in", "conditioner-out", "conditioner-in"])
def test_subnet_shapes_checked_at_construction(make):
    with pytest.raises(InvalidLayerError):
        make()


@pytest.mark.parametrize("weights, biases", [
    ([np.zeros((4, 1)), np.zeros((1, 4))], [np.zeros(4), np.zeros(1)]),
    ([np.zeros((4, 2)), np.zeros((1, 4))], [np.zeros(3), np.zeros(1)]),
    ([np.zeros((4, 2))], [np.zeros(4)]),
], ids=["dropped-column", "short-bias", "missing-layer"])
def test_mlp_parameters_checked_against_sizes(weights, biases):
    with pytest.raises(InvalidLayerError):
        Mlp([2, 4, 1], weights=weights, biases=biases)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _matmul_forward(mlp, X):
    """Mlp.forward_with_cache written with @."""
    acts, h = [X], X
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = h @ w.T + b[None, :]
        if k != len(mlp.weights) - 1:
            h = np.tanh(h)
        acts.append(h)
    return h, acts


def _matmul_vjp(mlp, acts, g):
    """Mlp.vjp written with @."""
    grads = []
    for k in range(len(mlp.weights) - 1, -1, -1):
        if k != len(mlp.weights) - 1:
            g = g * (1.0 - acts[k + 1] ** 2)
        grads = [g.T @ acts[k], g.sum(axis=0)] + grads
        g = g @ mlp.weights[k]
    return g, grads


@pytest.mark.parametrize("rows", [1, 7, 256])
def test_one_wide_mlp_matches_matmul_bitwise(rows):
    # The 1-wide products take np.dot instead of numpy's slow matmul path,
    # and bias, tanh and tanh' run in place on fresh arrays; the bits, signs
    # of zeros included, must be those of @ and out-of-place arithmetic.
    rng = np.random.default_rng(rows)
    mlp = Mlp([1, 40, 40, 1], rng=rng, final_scale=0.5)
    X = rng.normal(size=(rows, 1))
    X[0] = -0.0
    X_before = X.copy()
    out, acts = mlp.forward_with_cache(X)
    want_out, want_acts = _matmul_forward(mlp, X)
    assert _same_bits(out, want_out)
    assert all(_same_bits(a, b) for a, b in zip(acts, want_acts))
    g = rng.normal(size=out.shape)
    g[-1] = -0.0
    g_before = g.copy()
    gx, grads = mlp.vjp(acts, g)
    want_gx, want_grads = _matmul_vjp(mlp, acts, g)
    assert _same_bits(gx, want_gx)
    assert len(grads) == len(want_grads)
    assert all(_same_bits(a, b) for a, b in zip(grads, want_grads))
    # The in-place kernels write only into arrays they allocated.
    assert _same_bits(X, X_before) and _same_bits(g, g_before)
    assert all(_same_bits(a, b) for a, b in zip(acts, want_acts))


def test_mlp_vjp_without_params_returns_no_gradients():
    rng = np.random.default_rng(5)
    mlp = Mlp([2, 6, 1], rng=rng, final_scale=0.5)
    out, acts = mlp.forward_with_cache(rng.normal(size=(9, 2)))
    g = rng.normal(size=out.shape)
    gx, grads = mlp.vjp(acts, g, params=False)
    assert grads == []
    assert _same_bits(gx, mlp.vjp(acts, g)[0])
