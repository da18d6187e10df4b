import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from injflow.errors import InvalidArgumentError, InvalidLayerError, NumericError
from injflow.expansive import (
    LinearExpansive,
    ZeroPad,
    random_injective_relu,
    random_linear_expansive,
)
from injflow.flows import (
    CouplingLayer,
    FlowBlock,
    Mlp,
    identity_block,
    make_autoregressive_block,
    make_coupling_block,
)
from injflow.network import InjectiveNetwork, lipschitz_estimate


def _random_network(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    kind = int(rng.integers(0, 3))
    mid = 2 * n if kind == 2 else n + int(rng.integers(1, 3))
    m = mid + int(rng.integers(1, 3))
    t0 = (make_coupling_block(n, 2, rng=rng, final_scale=0.5, hidden=8)
          if n >= 2 else identity_block(n))
    if kind == 0:
        r1 = ZeroPad(n, mid)
    elif kind == 1:
        r1 = random_linear_expansive(n, mid, rng)
    else:
        r1 = random_injective_relu(n, mid, rng)
    t1 = make_coupling_block(mid, 2, rng=rng, final_scale=0.5, hidden=8)
    r2 = random_linear_expansive(mid, m, rng)
    t2 = make_coupling_block(m, 2, rng=rng, final_scale=0.5, hidden=8)
    return InjectiveNetwork([t0, r1, t1, r2, t2])


def _mixed_stages():
    """coupling -> ReLU -> autoregressive -> linear -> identity block."""
    rng = np.random.default_rng(0)
    return [make_coupling_block(2, 1, rng=rng, hidden=4), random_injective_relu(2, 4, rng),
            make_autoregressive_block(4, 1, rng=rng, hidden=4),
            random_linear_expansive(4, 5, rng), identity_block(5)]


_PARAMETER_SLOTS = [(idx, name) for idx, name, _
                    in InjectiveNetwork(_mixed_stages()).parameters()]


class TestForward:
    def test_identity_zero_pad(self):
        net = InjectiveNetwork([identity_block(1), ZeroPad(1, 2), identity_block(2)])
        np.testing.assert_array_equal(net.forward([3.0]), [3, 0])

    def test_single_linear_between_identity_flows(self):
        net = InjectiveNetwork([identity_block(1),
                                LinearExpansive([[1.0], [1.0]]),
                                identity_block(2)])
        np.testing.assert_array_equal(net.forward([2.0]), [2, 2])

    def test_injectivity_spot_check(self):
        net = _random_network(11)
        rng = np.random.default_rng(12)
        x = rng.uniform(-3, 3, size=(1000, net.latent_dim))
        x2 = rng.uniform(-3, 3, size=(1000, net.latent_dim))
        distinct = np.linalg.norm(x - x2, axis=1) > 1e-12
        gaps = np.linalg.norm(np.atleast_2d(net.forward(x))
                              - np.atleast_2d(net.forward(x2)), axis=1)
        assert (gaps[distinct] > 0.0).all()

    def test_single_vector_matches_batch_row(self):
        # One latent vector takes the batched path as a one-row stack; BLAS
        # may sum a one-row product in another order, so not bitwise.
        for seed in range(10):
            net = _random_network(seed)
            X = np.random.default_rng(seed).normal(size=(6, net.latent_dim))
            y = net.forward(X[0])
            assert y.shape == (net.ambient_dim,)
            np.testing.assert_allclose(y, net.forward(X)[0], rtol=0, atol=1e-12)

    def test_stage_indexed_numeric_error(self):
        def zero():
            return Mlp([1, 1], weights=[np.zeros((1, 1))], biases=[[0.0]])

        layer = CouplingLayer(2, 1, zero(), zero())
        net = InjectiveNetwork([identity_block(1), ZeroPad(1, 2), FlowBlock(2, [layer])])
        # In place after construction, as a diverging step would: validate()
        # refuses a block built with an inf bias.
        for mlp in (layer.s_net, layer.t_net):
            mlp.biases[0][:] = np.inf
        with pytest.raises(NumericError) as err:
            net.forward([1.0])
        assert err.value.stage_index == 2


class TestConstruction:
    def test_monotone_dimensions_enforced(self):
        # The layer itself refuses to map 3 dimensions to 2.
        with pytest.raises(InvalidLayerError):
            InjectiveNetwork([identity_block(2),
                              LinearExpansive(np.eye(3)[:, :2].T),
                              identity_block(1)])

    def test_alternation_enforced(self):
        with pytest.raises(InvalidLayerError):
            InjectiveNetwork([ZeroPad(1, 2), identity_block(2)])
        with pytest.raises(InvalidLayerError):
            InjectiveNetwork([identity_block(1), ZeroPad(1, 2)])

    def test_invalid_expansive_rejected(self):
        layer = LinearExpansive(np.eye(3)[:, :2])
        layer.weight[:] = 0.0  # as a training step updates it, in place
        with pytest.raises(InvalidLayerError):
            InjectiveNetwork([identity_block(2), layer, identity_block(3)])

    @pytest.mark.parametrize("stages, message", [
        ([], "^network needs an odd number of stages, got 0$"),
        ([identity_block(1), ZeroPad(1, 2)],
         "^network needs an odd number of stages, got 2$"),
        ([ZeroPad(1, 2), identity_block(2), ZeroPad(2, 3)],
         "^stage 0: expected a flow block$"),
        ([identity_block(1), identity_block(1), identity_block(1)],
         "^stage 1: expected an expansive layer$"),
        ([identity_block(1), ZeroPad(1, 2), identity_block(3)],
         "^stage 2: input dim 3 does not match 2$"),
        ([identity_block(2), ZeroPad(1, 3), identity_block(3)],
         "^stage 1: input dim 1 does not match 2$"),
    ], ids=["empty", "T0-R1", "expansive-first", "flow-at-odd-index",
            "flow-dim-mismatch", "expansive-dim-mismatch"])
    def test_structure_rejected(self, stages, message):
        with pytest.raises(InvalidLayerError, match=message):
            InjectiveNetwork(stages)

    def test_one_svd_per_expansive_stage(self, tmp_path, monkeypatch):
        # Layer constructors check shapes only: the network's validate()
        # calls are the only rank checks, on construction and on loading.
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *args, **kw: calls.append(1) or svd(*args, **kw))
        net = InjectiveNetwork(_mixed_stages())  # a ReLU and a linear stage
        assert len(calls) == 2
        net.save_checkpoint(tmp_path / "net.json")
        calls.clear()
        InjectiveNetwork.load_checkpoint(tmp_path / "net.json")
        assert len(calls) == 2

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    @pytest.mark.parametrize("idx, name", _PARAMETER_SLOTS,
                             ids=[f"{idx}.{name}" for idx, name in _PARAMETER_SLOTS])
    def test_non_finite_parameter_rejected(self, idx, name, value):
        # Every parameter array of every stage kind: coupling subnets, the
        # autoregressive first pair and conditioners, a linear weight.
        stages = _mixed_stages()
        dict(stages[idx].parameters())[name].flat[-1] = value
        with pytest.raises(InvalidLayerError,
                           match=f"^stage {idx}: non-finite parameter entry$"):
            InjectiveNetwork(stages)


class TestLipschitz:
    def test_identity_network_bound_one(self):
        net = InjectiveNetwork([identity_block(2), ZeroPad(2, 3), identity_block(3)])
        assert net.lipschitz_bound(radius=5.0) == 1.0

    def test_estimate_of_scaling_map(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(20, 3))
        assert abs(lipschitz_estimate(lambda x: 2.0 * x, samples) - 2.0) <= 1e-12
        assert abs(lipschitz_estimate(lambda x: x, samples) - 1.0) <= 1e-12

    def test_estimate_below_bound_on_50_networks(self):
        for k in range(50):
            net = _random_network(100 + k)
            rng = np.random.default_rng(200 + k)
            samples = rng.uniform(-3, 3, size=(40, net.latent_dim))
            radius = float(np.linalg.norm(samples, axis=1).max())
            assert lipschitz_estimate(net.forward, samples) <= net.lipschitz_bound(radius)

    def test_estimate_needs_two_usable_samples(self):
        with pytest.raises(InvalidArgumentError):
            lipschitz_estimate(lambda x: x, np.zeros((1, 2)))
        with pytest.raises(InvalidArgumentError):
            lipschitz_estimate(lambda x: x, np.zeros((5, 2)))  # coincident


_EXPANSIVE_KINDS = ("zero_pad", "linear", "relu")


def _random_expansive(kind, n, rng):
    if kind == "zero_pad":
        return ZeroPad(n, n + int(rng.integers(1, 3)))
    if kind == "linear":
        return random_linear_expansive(n, n + int(rng.integers(1, 3)), rng)
    return random_injective_relu(n, 2 * n + int(rng.integers(0, 2)), rng)


def _autoregressive_network(seed, n, kinds, final_scale):
    """Autoregressive flow blocks around the given expansive kinds."""
    rng = np.random.default_rng(seed)
    stages = [make_autoregressive_block(n, int(rng.integers(1, 3)), rng=rng,
                                        hidden=6, final_scale=final_scale)]
    for kind in kinds:
        stages.append(_random_expansive(kind, stages[-1].dim, rng))
        stages.append(make_autoregressive_block(stages[-1].out_dim, 1, rng=rng,
                                                hidden=6, final_scale=final_scale))
    return InjectiveNetwork(stages)


class TestLipschitzEstimateKernel:
    def test_bitwise_equal_to_difference_norms_on_fixed_net(self):
        # cdist computes the pair distances; the estimate must be the one
        # from explicit difference-tensor norms, chunked or not.
        net = _random_network(51)
        samples = np.random.default_rng(52).normal(size=(300, net.latent_dim))
        images = np.atleast_2d(net.forward(samples))
        dx = np.linalg.norm(samples[:, None, :] - samples[None, :, :], axis=2)
        dy = np.linalg.norm(images[:, None, :] - images[None, :, :], axis=2)
        mask = dx > 1e-9
        want = float((dy[mask] / dx[mask]).max())
        assert lipschitz_estimate(net.forward, samples) == want
        assert lipschitz_estimate(net.forward, samples, chunk=64) == want


@pytest.mark.parametrize("chunk", [1, 3, 16, 1000])
def test_estimate_covers_every_pair_whatever_the_chunk(chunk):
    # Each row block meets only the columns from its own start on; the
    # max over those must be the max over all pairs, whatever the chunk.
    rng = np.random.default_rng(53)
    samples = rng.normal(size=(40, 2))
    images = samples * rng.uniform(0.5, 2.0, size=(40, 1))
    dx = np.linalg.norm(samples[:, None, :] - samples[None, :, :], axis=2)
    dy = np.linalg.norm(images[:, None, :] - images[None, :, :], axis=2)
    mask = dx > 1e-9
    want = float((dy[mask] / dx[mask]).max())
    assert lipschitz_estimate(lambda _: images, samples, chunk=chunk) == want
    two = lipschitz_estimate(lambda x: 3.0 * x, [[0.0], [1.0]], chunk=chunk)
    assert two == 3.0
    with pytest.raises(InvalidArgumentError, match="usable"):
        lipschitz_estimate(lambda x: x, [[1.0], [1.0]], chunk=chunk)


@pytest.mark.parametrize("chunk", [1, 64, 1000])
def test_estimate_skips_duplicated_samples_with_distinct_images(chunk):
    # A duplicated sample row whose images differ is a pair at distance 0
    # with a positive image distance: dividing on it would raise under
    # errstate.  Distinct rows sit 10 apart and their images move by unit
    # noise, so every quotient is below the image distance of some
    # duplicated pair, which must not reach the max either.
    rng = np.random.default_rng(54)
    grid = 10.0 * np.stack(np.divmod(np.arange(80), 9), axis=1)
    samples = grid[rng.integers(0, 80, size=150)]
    images = np.column_stack([samples, np.zeros(150)]) + rng.normal(size=(150, 3))
    dx = np.linalg.norm(samples[:, None, :] - samples[None, :, :], axis=2)
    dy = np.linalg.norm(images[:, None, :] - images[None, :, :], axis=2)
    mask = dx > 1e-9
    want = float((dy[mask] / dx[mask]).max())
    assert dy[~mask].max() > want  # duplicated rows, farther-apart images
    with np.errstate(all="raise"):
        assert lipschitz_estimate(lambda _: images, samples, chunk=chunk) == want


class TestLipschitzProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
           st.lists(st.sampled_from(_EXPANSIVE_KINDS), min_size=1, max_size=2),
           st.floats(0.05, 1.0), st.floats(0.1, 3.0))
    def test_estimate_below_bound(self, seed, n, kinds, final_scale, scale):
        net = _autoregressive_network(seed, n, kinds, final_scale)
        samples = np.random.default_rng(seed + 1).uniform(-scale, scale, size=(30, n))
        radius = float(np.linalg.norm(samples, axis=1).max())
        assert lipschitz_estimate(net.forward, samples) <= net.lipschitz_bound(radius)


class TestOutputRadiusProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
           st.sampled_from(("coupling", "autoregressive") + _EXPANSIVE_KINDS),
           st.floats(0.05, 1.0), st.floats(0.1, 3.0))
    def test_image_of_ball_within_output_radius(self, seed, n, kind, final_scale,
                                                radius):
        """Both halves of ball_bound(radius) hold on samples of the ball:
        image norms within the output radius, difference quotients within
        the Lipschitz bound."""
        rng = np.random.default_rng(seed)
        if kind == "coupling":
            n = max(n, 2)
            stage = make_coupling_block(n, int(rng.integers(1, 3)), rng=rng,
                                        hidden=6, final_scale=final_scale)
        elif kind == "autoregressive":
            stage = make_autoregressive_block(n, int(rng.integers(1, 3)), rng=rng,
                                              hidden=6, final_scale=final_scale)
        else:
            stage = _random_expansive(kind, n, rng)
        x = rng.normal(size=(200, n))
        x *= radius / np.linalg.norm(x, axis=1, keepdims=True)
        x[100:] *= rng.uniform(size=(100, 1))
        y = stage(x)
        lip, out_radius = stage.ball_bound(radius)
        assert np.linalg.norm(y, axis=1).max() <= out_radius * (1 + 1e-12)
        dx, dy = cdist(x, x), cdist(y, y)
        # Rounding in a quotient grows like 1e-16 |x| / |dx|: pairs closer
        # than 1e-6 radius are skipped, the rest allowed 1e-9 relative.
        keep = dx > 1e-6 * radius
        assert (dy[keep] / dx[keep]).max() <= lip * (1 + 1e-9)


class TestComposition:
    def test_stagewise_equals_fused_pipeline(self):
        net = _random_network(31)
        rng = np.random.default_rng(32)
        x = rng.normal(size=(50, net.latent_dim))
        fused = functools.reduce(
            lambda acc, stage: (stage.forward(acc) if isinstance(stage, FlowBlock)
                                else stage(acc)),
            net.stages, x)
        assert np.abs(np.atleast_2d(net.forward(x)) - fused).max() <= 1e-12


@pytest.mark.parametrize("make, dim", [
    (lambda rng: ZeroPad(2, 3), 2),
    (lambda rng: random_linear_expansive(2, 3, rng), 2),
    (lambda rng: random_injective_relu(2, 5, rng), 2),
    (lambda rng: make_coupling_block(3, 2, rng=rng, hidden=6, final_scale=0.4), 3),
    (lambda rng: make_autoregressive_block(4, 2, rng=rng, hidden=6, final_scale=0.4), 4),
], ids=["zero_pad", "linear", "relu", "coupling", "autoregressive"])
def test_vjp_gradients_come_in_parameters_order(make, dim):
    rng = np.random.default_rng(17)
    stage = make(rng)
    y, cache = stage.forward_with_cache(rng.normal(size=(7, dim)))
    _, grads = stage.vjp(cache, rng.normal(size=y.shape))
    assert [g.shape for g in grads] == [a.shape for _, a in stage.parameters()]


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestFrozenStageVjp:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(1, 3),
           st.lists(st.sampled_from(_EXPANSIVE_KINDS), min_size=1, max_size=2),
           st.data())
    def test_matches_full_vjp_bitwise(self, seed, autoregressive, n, kinds, data):
        # Frozen stages skip their parameter gradients; what is computed
        # must be the full VJP's bits, read through the same views.
        net = (_autoregressive_network(seed, n, kinds, 0.5) if autoregressive
               else _random_network(seed))
        trainable = data.draw(st.sets(st.integers(0, len(net.stages) - 1)),
                              label="trainable")
        rng = np.random.default_rng(seed + 1)
        y, caches = net.forward_with_cache(rng.normal(size=(16, net.latent_dim)))
        g = rng.normal(size=y.shape)
        gx_full, full = net.vjp(caches, g)
        gx, part = net.vjp(caches, g, trainable=trainable)
        assert _same_bits(gx, gx_full)
        assert part.size == sum(a.size for _, _, a in net.parameters(trainable))
        want = [(idx, name, view) for idx, name, view in net.parameter_views(full)
                if idx in trainable]
        got = net.parameter_views(part, trainable)
        assert [(idx, name) for idx, name, _ in got] == [
            (idx, name) for idx, name, _ in want]
        assert all(_same_bits(a, b) for (_, _, a), (_, _, b) in zip(got, want))


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        net = _random_network(41)
        path = tmp_path / "net.json"
        net.save_checkpoint(path)
        clone = InjectiveNetwork.load_checkpoint(path)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(30, net.latent_dim))
        np.testing.assert_array_equal(np.atleast_2d(clone.forward(x)),
                                      np.atleast_2d(net.forward(x)))

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other", "stages": []}')
        with pytest.raises(InvalidArgumentError):
            InjectiveNetwork.load_checkpoint(path)
