import copy
import importlib.util
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from injflow._util import block_rows
from injflow.errors import (
    InjectiveFlowError,
    InvalidArgumentError,
    InvalidConfigError,
    NumericError,
)
from injflow.expansive import ZeroPad, random_injective_relu, random_linear_expansive
from injflow.flows import (
    AutoregressiveLayer,
    FlowBlock,
    identity_block,
    make_autoregressive_block,
    make_coupling_block,
)
from injflow.geometry import ManifoldTarget
from injflow.metrics import directed_supinf
from injflow.network import InjectiveNetwork
from injflow.training import (
    EVAL_COUNT,
    Adam,
    build_obstruction_network,
    PhaseConfig,
    TraceRecord,
    TrainingConfig,
    TrainingTrace,
    _chamfer_and_supinf,
    chamfer_loss_and_grad,
    compute_gradients,
    default_layerwise_config,
    draw_directions,
    loss_mix,
    run_layerwise,
    sliced_w2sq,
    sliced_w2sq_loss_and_grad,
)


def _tied_clouds(seed, n, d, spread):
    """Two (n, d) clouds on an integer grid of side `spread`, each row drawn
    from a pool of n // 2 + 1 rows: duplicate rows, and many equal
    distances and equal projections."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(-spread, spread + 1, size=(n // 2 + 1, d)).astype(float)
    return (pool[rng.integers(0, len(pool), size=n)],
            rng.integers(-spread, spread + 1, size=(n, d)).astype(float))


class TestChamfer:
    def test_equal_sets_zero(self):
        pts = np.random.default_rng(0).normal(size=(20, 3))
        value, grad = chamfer_loss_and_grad(pts, pts.copy())
        assert value == 0.0
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_single_point_pair(self):
        value, _ = chamfer_loss_and_grad(np.array([[0.0, 0.0]]),
                                         np.array([[3.0, 4.0]]))
        assert value == pytest.approx(50.0)

    def test_zero_loss_forces_coverage(self):
        rng = np.random.default_rng(1)
        gen = rng.normal(size=(15, 2))
        value, _ = chamfer_loss_and_grad(gen, gen[rng.permutation(15)])
        assert value == 0.0
        assert directed_supinf(gen, gen) == 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            chamfer_loss_and_grad(np.zeros((0, 2)), np.zeros((3, 2)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300), st.integers(1, 3),
           st.integers(1, 3))
    def test_bitwise_equal_to_full_matrix_reference(self, seed, n, d, spread):
        # The target -> generated argmin runs over column blocks; with up to
        # 300 targets, tied minima sit on both sides of a block boundary,
        # and each column must still pick the first of its tied rows.
        gen, tgt = _tied_clouds(seed, n, d, spread)
        d2 = cdist(gen, tgt, "sqeuclidean")
        jmin, imin = np.argmin(d2, axis=1), np.argmin(d2, axis=0)
        want = float(d2[np.arange(n), jmin].mean() + d2[imin, np.arange(n)].mean())
        want_grad = 2.0 * (gen - tgt[jmin]) / n
        np.add.at(want_grad, imin, 2.0 * (gen[imin] - tgt) / n)
        value, grad = chamfer_loss_and_grad(gen, tgt)
        assert value == want
        np.testing.assert_array_equal(grad, want_grad)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300), st.integers(1, 3),
           st.integers(1, 3))
    def test_minima_value_bitwise_equal_to_argmin_value(self, seed, n, d, spread):
        # The diagnostics record takes the Chamfer value and the sup-inf from
        # row and column minima; on tied distances argmin picks one of equal
        # entries, so the values must agree to the bit.  Up to 300 rows
        # cross the row blocks of pairwise_sq_dists.
        gen, tgt = _tied_clouds(seed, n, d, spread)
        chamfer, supinf = _chamfer_and_supinf(gen, tgt)
        assert chamfer == chamfer_loss_and_grad(gen, tgt)[0]
        assert supinf == directed_supinf(tgt, gen)

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    def test_minima_bitwise_equal_to_full_matrix_reference(self, n):
        # block_rows(512) is 64: n generated rows against 512 targets fill
        # one block, one full block, one block and a row, or three blocks,
        # and 512 against n take one block or two.  Rows of a small grid
        # repeat, and the rows on both sides of each block edge are equal,
        # so column minima tie across the edges.
        rng = np.random.default_rng(n)
        grid = 0.37 * rng.integers(-2, 3, size=(40, 3))
        gen, tgt = grid[rng.integers(0, 40, size=n)], grid[rng.integers(0, 40, size=512)]
        for rows, width in ((gen, 512), (tgt, n)):
            for edge in range(block_rows(width), len(rows), block_rows(width)):
                rows[edge] = rows[edge - 1]
        for a, b in ((gen, tgt), (tgt, gen)):
            d2 = cdist(a, b, "sqeuclidean")
            to_b, to_a = d2[np.arange(len(a)), d2.argmin(axis=1)], d2.min(axis=0)
            assert _chamfer_and_supinf(a, b) == (float(to_b.mean() + to_a.mean()),
                                                 float(np.sqrt(to_a.max())))


class TestSlicedLoss:
    def test_matched_batches_zero(self):
        pts = np.random.default_rng(2).normal(size=(30, 2))
        dirs = draw_directions(2, 32, 3)
        value, grad = sliced_w2sq_loss_and_grad(pts, pts.copy(), dirs)
        assert value == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_1d_translation_gives_c_squared(self):
        rng = np.random.default_rng(3)
        c = 0.7
        x = rng.normal(size=(200, 1))
        dirs = draw_directions(1, 8, 4)
        value, _ = sliced_w2sq_loss_and_grad(x + c, x, dirs)
        assert value == pytest.approx(c ** 2, rel=1e-9)

    def test_unequal_batches_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sliced_w2sq_loss_and_grad(np.zeros((3, 1)), np.zeros((4, 1)),
                                      draw_directions(1, 4, 0))
        with pytest.raises(InvalidArgumentError):
            sliced_w2sq(np.zeros((3, 1)), np.zeros((4, 1)), draw_directions(1, 4, 0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 4),
           st.integers(1, 20), st.integers(1, 3))
    def test_value_half_bitwise_equal_to_loss_value(self, seed, n, d, k, spread):
        # Duplicate rows and grid points give equal projections, which the
        # gradient half sorts stably and the value half does not.
        gen, tgt = _tied_clouds(seed, n, d, spread)
        rng = np.random.default_rng(seed + 1)
        dirs = draw_directions(d, k, rng)
        dirs = np.where(rng.uniform(size=dirs.shape) < 0.3, 0.0, dirs.round(1))
        assert sliced_w2sq(gen, tgt, dirs) == sliced_w2sq_loss_and_grad(gen, tgt, dirs)[0]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 5),
           st.integers(1, 20), st.sampled_from((None, 0, 1)))
    def test_bitwise_equal_to_column_wise_reference(self, seed, n, d, k, decimals):
        # Rounded inputs put ties into the projections; the stable argsort
        # must resolve them as the column-wise reference does.
        rng = np.random.default_rng(seed)
        gen = rng.normal(size=(n, d))
        tgt = rng.normal(size=(n, d))
        dirs = draw_directions(d, k, rng)
        if decimals is not None:
            gen, tgt = gen.round(decimals), tgt.round(decimals)
            dirs = np.where(rng.uniform(size=dirs.shape) < 0.3, 0.0, dirs.round(1))
        value, grad = sliced_w2sq_loss_and_grad(gen, tgt, dirs)
        ref_value, ref_grad = _column_wise_sliced_loss(gen, tgt, dirs)
        assert value == ref_value
        np.testing.assert_array_equal(grad, ref_grad)


def _column_wise_sliced_loss(generated, target, directions):
    """Reference sliced loss: one projection per column, argsort on both sides."""
    n, d = generated.shape
    k = directions.shape[1]
    pg = generated @ directions
    pt = target @ directions
    order_g = np.argsort(pg, axis=0, kind="stable")
    order_t = np.argsort(pt, axis=0, kind="stable")
    diffs = (np.take_along_axis(pg, order_g, axis=0)
             - np.take_along_axis(pt, order_t, axis=0))
    gproj = np.zeros_like(pg)
    np.put_along_axis(gproj, order_g, 2.0 * d * diffs / (n * k), axis=0)
    return float(d * np.mean(diffs ** 2)), gproj @ directions.T


def _loss_value(net, loss, latent, target, dirs, weights=None):
    gen = np.atleast_2d(np.asarray(net.forward(latent), dtype=float))
    w = dict(weights) if weights else {loss: 1.0}
    w.setdefault(loss, 1.0)
    total = 0.0
    for name, wk in w.items():
        if name == "manifold":
            total += wk * chamfer_loss_and_grad(gen, target)[0]
        else:
            total += wk * sliced_w2sq_loss_and_grad(gen, target, dirs)[0]
    return total


def _grad_check(net, loss, latent, target, dirs, weights=None, h=1e-5,
                max_coords=4):
    value, grads = compute_gradients(net, loss, latent, target,
                                     directions=dirs, loss_weights=weights)
    params = {(s, n): a for s, n, a in net.parameters()}
    worst = 0.0
    for s, n, g in net.parameter_views(grads):
        arr = params[(s, n)]
        flat_idx = np.ndindex(arr.shape)
        for count, idx in enumerate(flat_idx):
            if count >= max_coords:
                break
            old = arr[idx]
            arr[idx] = old + h
            up = _loss_value(net, loss, latent, target, dirs, weights)
            arr[idx] = old - h
            dn = _loss_value(net, loss, latent, target, dirs, weights)
            arr[idx] = old
            fd = (up - dn) / (2 * h)
            rel = abs(fd - g[idx]) / max(1e-6, abs(fd), abs(g[idx]))
            worst = max(worst, rel)
    return value, worst


def _mixed_network(seed):
    rng = np.random.default_rng(seed)
    t0 = make_coupling_block(2, 2, rng=rng, final_scale=0.4, hidden=8)
    r1 = random_injective_relu(2, 4, rng)
    t1 = make_autoregressive_block(4, 1, rng=rng, final_scale=0.4, hidden=8)
    r2 = random_linear_expansive(4, 5, rng)
    t2 = make_coupling_block(5, 1, rng=rng, final_scale=0.4, hidden=8)
    return InjectiveNetwork([t0, r1, t1, r2, t2])


class TestGradients:
    def test_manifold_and_density_match_finite_differences(self):
        rng = np.random.default_rng(5)
        net = _mixed_network(4)
        latent = rng.normal(size=(10, 2))
        target = rng.normal(size=(10, 5))
        dirs = draw_directions(5, 12, rng)
        for loss in ("manifold", "density"):
            _, worst = _grad_check(net, loss, latent, target, dirs)
            assert worst <= 1e-4

    def test_mixed_weights_match_finite_differences(self):
        rng = np.random.default_rng(6)
        net = _mixed_network(7)
        latent = rng.normal(size=(8, 2))
        target = rng.normal(size=(8, 5))
        dirs = draw_directions(5, 8, rng)
        _, worst = _grad_check(net, "manifold", latent, target, dirs,
                               weights={"manifold": 1.0, "density": 0.5})
        assert worst <= 1e-4

    def test_perfect_fit_has_zero_gradients(self):
        net = InjectiveNetwork([identity_block(1), ZeroPad(1, 2),
                                identity_block(2)])
        rng = np.random.default_rng(8)
        latent = rng.normal(size=(15, 1))
        target = np.atleast_2d(net.forward(latent))
        value, grads = compute_gradients(net, "manifold", latent, target)
        assert value <= 1e-12
        assert grads.size == 0
        assert all(np.abs(g).max() <= 1e-10 for _, _, g in net.parameter_views(grads))

    def test_linear_layer_matches_normal_equation_residual(self):
        # Single linear stage with one paired point: Chamfer reduces to
        # ||Wx - y||^2 whose gradient in W is 2 (Wx - y) x^T.
        w0 = np.array([[1.0], [0.5]])
        net = InjectiveNetwork([identity_block(1),
                                random_linear_expansive(1, 2, 0),
                                identity_block(2)])
        net.stages[1].weight[...] = w0
        x = np.array([[2.0]])
        y = np.array([[1.0, 3.0]])
        _, grads = compute_gradients(net, "manifold", x, y)
        got = {(s, n): g for s, n, g in net.parameter_views(grads)}[(1, "weight")]
        want = 2.0 * 2.0 * (w0 @ x[0] - y[0])[:, None] * x[0][None, :]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("stage, name", [(0, "layer1.t_net.b2"),
                                             (2, "layer0.cond1.w0"),
                                             (3, "weight")])
    def test_non_finite_gradient_names_stage_and_parameter(self, stage, name):
        net = _mixed_network(11)
        vjp = net.stages[stage].vjp
        index = [n for n, _ in net.stages[stage].parameters()].index(name)

        def poisoned_vjp(cache, grad_out, *args):
            g, grads = vjp(cache, grad_out, *args)
            grads[index] = grads[index].copy()
            grads[index].flat[-1] = np.nan
            return g, grads

        net.stages[stage].vjp = poisoned_vjp
        rng = np.random.default_rng(12)
        with pytest.raises(NumericError, match=re.escape(f"parameter {name}") + "$") as err:
            compute_gradients(net, "manifold", rng.normal(size=(6, 2)),
                              rng.normal(size=(6, 5)))
        assert err.value.stage_index == stage

    def test_non_finite_log_scale_names_stage(self):
        net = _mixed_network(13)
        net.stages[4].layers[0].s_net.biases[-1][:] = np.inf
        rng = np.random.default_rng(14)
        with pytest.raises(NumericError, match="log-scale") as err:
            compute_gradients(net, "manifold", rng.normal(size=(6, 2)),
                              rng.normal(size=(6, 5)))
        assert err.value.stage_index == 4


class TestLossMix:
    def test_given_weights_first_then_named_loss(self):
        assert list(loss_mix("density", {"manifold": 0.1}).items()) == [
            ("manifold", 0.1), ("density", 1.0)]
        assert list(loss_mix("manifold", {"density": 0.5, "manifold": 2.0}).items()) == [
            ("density", 0.5), ("manifold", 2.0)]

    @pytest.mark.parametrize("loss, weights", [("manifold", {"density": 0.0}),
                                               ("density", {"density": 0.0, "manifold": 1.0})])
    def test_zero_weight_dropped_and_needs_no_directions(self, loss, weights):
        assert loss_mix(loss, weights) == {"manifold": 1.0}
        rng = np.random.default_rng(15)
        net = _mixed_network(16)
        latent, target = rng.normal(size=(6, 2)), rng.normal(size=(6, 5))
        value, grads = compute_gradients(net, loss, latent, target, loss_weights=weights)
        want_value, want_grads = compute_gradients(net, "manifold", latent, target)
        assert value == want_value
        assert np.array_equal(grads, want_grads)

    def test_unknown_loss_name_rejected(self):
        rng = np.random.default_rng(17)
        net = _mixed_network(18)
        with pytest.raises(InvalidConfigError, match="foo"):
            compute_gradients(net, "manifold", rng.normal(size=(6, 2)),
                              rng.normal(size=(6, 5)), loss_weights={"foo": 1.0})
        with pytest.raises(InvalidConfigError, match="nope"):
            compute_gradients(net, "nope", rng.normal(size=(6, 2)),
                              rng.normal(size=(6, 5)))


class TestLosses:
    def test_manifold_loss_examples(self):
        net = InjectiveNetwork([identity_block(1), ZeroPad(1, 2),
                                identity_block(2)])
        latent = np.linspace(-1, 1, 10)[:, None]
        target = np.column_stack([latent[:, 0], np.zeros(10)])
        value, _ = chamfer_loss_and_grad(net.forward(latent), target)
        assert value <= 1e-14

    def test_density_loss_orientation(self):
        net = InjectiveNetwork([identity_block(1), ZeroPad(1, 2),
                                identity_block(2)])
        rng = np.random.default_rng(9)
        latent = rng.normal(size=(50, 1))
        target = np.column_stack([latent[:, 0] + 0.5, np.zeros(50)])
        val, _ = sliced_w2sq_loss_and_grad(net.forward(latent), target,
                                           draw_directions(2, 64, 1))
        assert val > 0.0

    def test_1d_density_descent_converges(self):
        # Affine dim-1 flow fitting a shifted and scaled line: convex-ish
        # problem that must reach 1e-3 within 2000 steps.
        rng = np.random.default_rng(10)
        t0 = FlowBlock(1, [AutoregressiveLayer(1)])
        net = InjectiveNetwork([t0, ZeroPad(1, 2), identity_block(2)])
        base = rng.uniform(-1, 1, size=(256, 1))
        target_latent = 0.6 * base + 0.4
        target = np.column_stack([target_latent[:, 0], np.zeros(256)])
        opt = Adam(net.parameter_store({0}), lr=5e-2)
        value = np.inf
        for step in range(2000):
            dirs = draw_directions(2, 16, rng)
            value, grads = compute_gradients(net, "density", base, target,
                                             trainable={0}, directions=dirs)
            if value <= 1e-3:
                break
            opt.step(grads)
        assert value <= 1e-3


def _per_array_adam(params, grads, state, t, lr=1e-3, beta1=0.9,
                    beta2=0.999, eps=1e-8):
    """Reference Adam step, one array at a time."""
    b1c = 1.0 - beta1 ** t
    b2c = 1.0 - beta2 ** t
    for key, g in grads.items():
        m, v = state.setdefault(key, (np.zeros_like(g), np.zeros_like(g)))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        params[key][...] -= (lr / b1c) * m / (np.sqrt(v / b2c) + eps)


def _params(net):
    return {(s, n): a for s, n, a in net.parameters()}


class TestParameterStore:
    def _train_both(self, net, trainable, latent_dim, ambient_dim, steps=5,
                    lr=2e-3):
        """Train two deep copies of net on the same batches: one through the
        flat store, one through the per-array reference."""
        flat_net, ref_net = copy.deepcopy(net), copy.deepcopy(net)
        opt = Adam(flat_net.parameter_store(trainable), lr=lr)
        ref_params, ref_state = _params(ref_net), {}
        rng = np.random.default_rng(21)
        weights = {"manifold": 1.0, "density": 0.5}
        for t in range(1, steps + 1):
            latent = rng.normal(size=(64, latent_dim))
            target = rng.normal(size=(64, ambient_dim))
            dirs = draw_directions(ambient_dim, 16, rng)
            _, grads = compute_gradients(flat_net, "manifold", latent, target,
                                         trainable=trainable, directions=dirs,
                                         loss_weights=weights)
            opt.step(grads)
            _, ref_grads = compute_gradients(ref_net, "manifold", latent, target,
                                             trainable=trainable, directions=dirs,
                                             loss_weights=weights)
            named = {(s, n): g for s, n, g in ref_net.parameter_views(ref_grads, trainable)}
            _per_array_adam(ref_params, named, ref_state, t, lr=lr)
        return flat_net, ref_net

    def test_obstruction_net_bitwise_equal_to_per_array_adam(self):
        net = build_obstruction_network(seed=3)
        flat_net, ref_net = self._train_both(net, {0, 1, 2}, 2, 3)
        flat, ref, init = _params(flat_net), _params(ref_net), _params(net)
        assert flat.keys() == ref.keys()
        for key in flat:
            np.testing.assert_array_equal(flat[key], ref[key], err_msg=str(key))
        assert any(not np.array_equal(flat[key], init[key]) for key in flat)

    def test_mixed_net_with_frozen_stage(self):
        net = _mixed_network(13)
        frozen_before = {k: a.copy() for k, a in _params(net).items() if k[0] == 0}
        flat_net, ref_net = self._train_both(net, {1, 2, 3, 4}, 2, 5)
        flat, ref = _params(flat_net), _params(ref_net)
        for key in flat:
            np.testing.assert_array_equal(flat[key], ref[key], err_msg=str(key))
        for key, before in frozen_before.items():
            np.testing.assert_array_equal(flat[key], before, err_msg=str(key))
        kinds = {type(layer).__name__ for stage in net.stages
                 for layer in getattr(stage, "layers", [stage])}
        assert {"CouplingLayer", "AutoregressiveLayer", "LinearExpansive"} <= kinds

    def test_arrays_are_views_in_parameters_order(self):
        net = _mixed_network(14)
        values = [(s, n, a.copy()) for s, n, a in net.parameters({1, 2, 3})]
        vector = net.parameter_store({1, 2, 3})
        keys = [(s, n) for s, n, _ in net.parameter_views(vector, {1, 2, 3})]
        assert keys == [(s, n) for s, n, _ in values]
        start = 0
        for (s, n, before), (_, _, arr) in zip(values, net.parameters({1, 2, 3})):
            np.testing.assert_array_equal(arr, before)
            assert np.shares_memory(arr, vector[start:start + arr.size])
            start += arr.size
        assert start == vector.size
        assert not any(np.shares_memory(a, vector) for _, _, a in net.parameters({0, 4}))

    def test_trainable_gradient_is_its_slice_of_the_full_gradient(self):
        net = _mixed_network(15)
        rng = np.random.default_rng(16)
        latent, target = rng.normal(size=(9, 2)), rng.normal(size=(9, 5))
        _, full = compute_gradients(net, "manifold", latent, target)
        _, part = compute_gradients(net, "manifold", latent, target,
                                    trainable={1, 2, 3})
        start = sum(a.size for _, _, a in net.parameters({0}))
        np.testing.assert_array_equal(part, full[start:start + part.size])
        assert part.size == sum(a.size for _, _, a in net.parameters({1, 2, 3}))
        assert part.size == net.parameter_store({1, 2, 3}).size

    def test_zero_parameter_store(self):
        net = InjectiveNetwork([identity_block(1), ZeroPad(1, 2),
                                identity_block(2)])
        vector = net.parameter_store({0, 1, 2})
        assert vector.shape == (0,) and net.parameter_views(vector, {0, 1, 2}) == []
        opt = Adam(vector)
        opt.step(np.zeros(0))
        assert opt.t == 1


def _tiny_target():
    def f(params):
        t = params[:, 0]
        return np.column_stack([t, 0.3 * np.sin(np.pi * t)])
    return ManifoldTarget("tiny-curve", 1, 2, f, domain=(-1.0, 1.0))


def _tiny_network(seed=0):
    rng = np.random.default_rng(seed)
    t0 = FlowBlock(1, [AutoregressiveLayer(1)])
    r1 = random_linear_expansive(1, 2, rng)
    t1 = make_coupling_block(2, 2, rng=rng, hidden=8)
    return InjectiveNetwork([t0, r1, t1])


def _tiny_config(seed=0, steps=40):
    return TrainingConfig(
        phases=(
            PhaseConfig(trainable_stages=(1, 2), loss="manifold",
                        steps=steps, learning_rate=5e-3),
            PhaseConfig(trainable_stages=(0,), loss="density",
                        steps=steps, learning_rate=1e-2),
        ),
        batch_size=64, seed=seed, lipschitz_log_interval=20)


class TestRunLayerwise:
    def test_identity_target_converged_at_step_zero(self):
        net = InjectiveNetwork([identity_block(1), ZeroPad(1, 2),
                                identity_block(2)])

        def f(params):
            return np.column_stack([params[:, 0], np.zeros(params.shape[0])])

        target = ManifoldTarget("identity-pad", 1, 2, f, domain=(-1.0, 1.0))
        config = _tiny_config(steps=5)
        result = run_layerwise(net, target, config)
        assert result.trace.records[0].step == 0
        assert result.trace.records[0].loss <= 1e-6

    def test_phase_isolation_bit_identical(self):
        net = _tiny_network(1)
        result = run_layerwise(net, _tiny_target(), _tiny_config(seed=1))
        assert result.frozen_intact
        for before, after in result.frozen_digests:
            assert before == after

    def test_seeded_reproducibility(self):
        traces = []
        for _ in range(2):
            net = _tiny_network(2)
            result = run_layerwise(net, _tiny_target(), _tiny_config(seed=2))
            traces.append(result.trace.records)
        assert traces[0] == traces[1]

    def test_config_validation(self):
        net = _tiny_network(3)
        bad = TrainingConfig(
            phases=(PhaseConfig(trainable_stages=(9,), loss="manifold",
                                steps=5, learning_rate=1e-3),),
            batch_size=8, seed=0)
        with pytest.raises(InvalidConfigError):
            run_layerwise(net, _tiny_target(), bad)
        with pytest.raises(InvalidConfigError):
            PhaseConfig(trainable_stages=(0,), loss="manifold", steps=0,
                        learning_rate=1e-3)
        with pytest.raises(InvalidConfigError):
            PhaseConfig(trainable_stages=(0,), loss="nope", steps=5,
                        learning_rate=1e-3)

    def test_unknown_loss_weight_rejected(self):
        # An unknown key, or a weight that is not a finite number >= 0, is
        # refused at construction, naming the key.
        for key, weight in (("foo", 1.0), ("density", -0.5), ("density", np.nan),
                            ("manifold", np.inf), ("density", "1.0"),
                            ("manifold", None)):
            with pytest.raises(InvalidConfigError, match=key):
                PhaseConfig(trainable_stages=(0,), loss="manifold", steps=5,
                            learning_rate=1e-3, loss_weights={key: weight})

    @pytest.mark.parametrize("loss, stages", [("manifold", (1, 2)), ("density", (0,))])
    def test_record_matches_supinf_and_chamfer_bitwise(self, loss, stages):
        # The record takes its Chamfer term and its sup-inf from the same
        # row blocks of one distance matrix; the EVAL_COUNT eval rows cross
        # several of them.
        net = _tiny_network(5)
        target = _tiny_target()
        config = TrainingConfig(
            phases=(PhaseConfig(trainable_stages=stages, loss=loss, steps=3,
                                learning_rate=5e-3),),
            batch_size=32, seed=5, lipschitz_log_interval=2)
        final = run_layerwise(net, target, config).trace.final
        eval_latent = np.linspace(-1.0, 1.0, EVAL_COUNT)[:, None]
        eval_target = target.map_points(eval_latent)
        gen = net.forward(eval_latent)
        assert final.directed_supinf == directed_supinf(eval_target, gen)
        if loss == "manifold":
            assert final.loss == chamfer_loss_and_grad(gen, eval_target)[0]

    def test_zero_weighted_named_loss_trains_as_the_rest_of_the_mix(self):
        # A density phase whose density weight is 0 draws no projection
        # directions and trains exactly as a plain manifold phase.
        traces = []
        for loss, weights in (("density", {"density": 0.0, "manifold": 1.0}),
                              ("manifold", None)):
            config = TrainingConfig(
                phases=(PhaseConfig(trainable_stages=(1, 2), loss=loss, steps=4,
                                    learning_rate=5e-3, loss_weights=weights),),
                batch_size=16, seed=6, lipschitz_log_interval=2)
            result = run_layerwise(_tiny_network(6), _tiny_target(), config)
            traces.append(result.trace.records)
        assert traces[0] == traces[1]

    def test_latent_dim_must_match_target(self):
        net = _tiny_network(4)

        def f(params):
            return np.column_stack([params, params[:, :1]])

        target = ManifoldTarget("plane", 2, 3, f, domain=(-1.0, 1.0))
        with pytest.raises(InvalidConfigError):
            run_layerwise(net, target, _tiny_config())


def _phases(config):
    return [(p.trainable_stages, p.loss, p.steps, p.learning_rate, p.loss_weights)
            for p in config.phases]


def _toy_schedule(p1, p2):
    leg1 = max(1, p1 // 2)
    leg2 = max(1, p1 // 3)
    leg3 = max(1, p1 - leg1 - leg2)
    leg4 = max(1, (2 * p2) // 3)
    leg5 = max(1, p2 - leg4)
    mix = {"manifold": 1.0, "density": 0.5}
    return [((1, 2, 3, 4), "manifold", leg1, 5e-3, mix),
            ((1, 2, 3, 4), "manifold", leg2, 1.2e-3, mix),
            ((1, 2, 3, 4), "manifold", leg3, 3e-4, mix),
            ((0,), "density", leg4, 1e-2, None),
            ((0,), "density", leg5, 3e-3, None)]


def _obstruction_schedule(steps_manifold, steps_density):
    leg1 = max(1, steps_density // 2)
    leg2 = max(1, (3 * steps_density) // 10)
    leg3 = max(1, steps_density - leg1 - leg2)
    mix = {"density": 1.0, "manifold": 0.1}
    return [((0, 1, 2), "manifold", steps_manifold, 5e-3,
             {"manifold": 1.0, "density": 0.5}),
            ((0, 1, 2), "density", leg1, 2e-3, mix),
            ((0, 1, 2), "density", leg2, 7e-4, mix),
            ((0, 1, 2), "density", leg3, 2.5e-4, mix)]


class TestSchedules:
    """Both presets' annealed schedules, leg by leg, against the leg
    formulas written out, at every small budget (where the max(1, ...)
    floors fire) and at the full defaults."""

    def test_layerwise_toy(self):
        assert _phases(default_layerwise_config()) == _toy_schedule(2400, 600)
        for steps in range(1, 41):
            config = default_layerwise_config(seed=steps, phase1_steps=steps,
                                              phase2_steps=steps)
            assert _phases(config) == _toy_schedule(steps, steps)
            assert (config.batch_size, config.seed,
                    config.lipschitz_log_interval) == (320, steps, 50)

    @pytest.mark.parametrize("arm", ["treatment", "control"])
    def test_obstruction_arm(self, arm, monkeypatch):
        import inspect

        from injflow import training

        configs = []

        def capture(net, config, *samplers_and_eval_sets):
            configs.append(config)
            return training.LayerwiseResult(TrainingTrace(), [], [], [])

        monkeypatch.setattr(training, "_run_phases", capture)
        defaults = inspect.signature(training.run_obstruction_experiment).parameters
        budgets = [(defaults["steps_manifold"].default, defaults["steps_density"].default),
                   *((steps, steps) for steps in range(1, 41))]
        for steps_manifold, steps_density in budgets:
            training._obstruction_arm(arm, seed=3, steps_manifold=steps_manifold,
                                      steps_density=steps_density, batch_size=8,
                                      lipschitz_log_interval=2)
            config = configs.pop()
            assert _phases(config) == _obstruction_schedule(steps_manifold, steps_density)
            assert (config.batch_size, config.seed,
                    config.lipschitz_log_interval) == (8, 3, 2)
        assert budgets[0] == (2500, 3500)


class TestObstructionSmoke:
    def test_one_record_peak_below_2mib(self):
        # One diagnostics record on the obstruction arm's 512-point eval set
        # builds no loss gradient and no whole 512 x 512 distance matrix,
        # which alone takes 2 MiB: its traced peak is ~1.6 MB.
        from injflow import training
        target = training.trefoil_target()
        eval_latent = training.sample_circle(512)
        eval_target = target.map_points(training._ArclengthSampler(target).grid(512))
        net = build_obstruction_network(seed=0)
        weights = {"density": 1.0, "manifold": 0.1}
        dirs = draw_directions(3, 64, 7)
        record = training._record(net, 0, weights, eval_latent, eval_target, dirs, 7)
        tracemalloc.start()
        try:
            again = training._record(net, 0, weights, eval_latent, eval_target, dirs, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == record
        assert peak < 2 * 2 ** 20

    def test_seed_sweep_tool_line(self, capsys):
        # tools/obstruction_seeds.py at a smoke budget: one JSON line per
        # seed, with the criterion-7 verdict and its margins.
        path = Path(__file__).resolve().parents[1] / "tools" / "obstruction_seeds.py"
        spec = importlib.util.spec_from_file_location("obstruction_seeds", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert tool.main(["--seeds", "0", "--steps-manifold", "20",
                          "--steps-density", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        line = json.loads(lines[0])
        assert list(line) == ["seed", "passed", "control_final_sliced_w2",
                              "control_final_lipschitz", "treatment_min_sliced_w2",
                              "treatment_tight_records", "lipschitz_ratio", "wall_s"]
        assert line["seed"] == 0 and isinstance(line["passed"], bool)

    def test_tiny_budget_run_shapes_and_summary(self):
        from injflow.training import run_obstruction_experiment
        result = run_obstruction_experiment(seed=1, steps_manifold=6,
                                            steps_density=6, batch_size=32,
                                            lipschitz_log_interval=3)
        for trace in (result.treatment, result.control):
            steps = trace.column("step")
            assert (np.diff(steps) > 0).all()
            for col in ("loss", "directed_supinf", "sliced_w2",
                        "lipschitz_estimate"):
                assert np.isfinite(trace.column(col)).all()
        assert {"control_final_sliced_w2", "control_final_lipschitz",
                "treatment_min_sliced_w2",
                "lipschitz_ratio"} <= set(result.summary)

    def test_forked_control_arm_equals_in_process_arm(self):
        from injflow.training import _obstruction_arm, run_obstruction_experiment
        forked = run_obstruction_experiment(seed=1, steps_manifold=6,
                                            steps_density=6).control
        local = _obstruction_arm("control", seed=1, steps_manifold=6, steps_density=6,
                                 batch_size=256, lipschitz_log_interval=50)
        assert len(forked) > 0
        assert forked.records == local.records

    def test_treatment_error_does_not_wait_for_control_arm(self, monkeypatch):
        import time

        from injflow import training

        budget = dict(seed=1, steps_manifold=300, steps_density=300, batch_size=7,
                      lipschitz_log_interval=50)
        start = time.perf_counter()
        training._obstruction_arm("control", **budget)
        control_s = time.perf_counter() - start

        # A trefoil that is NaN on training batches (the only calls with
        # `batch_size` points) makes the treatment arm raise at its first step.
        trefoil = training.trefoil_target

        def nan_trefoil(**kwargs):
            good = trefoil(**kwargs).map_points
            return ManifoldTarget(
                "nan-trefoil", 1, 3,
                lambda t: np.full((7, 3), np.nan) if len(t) == 7 else good(t),
                domain=(0.0, 2.0 * np.pi))
        monkeypatch.setattr(training, "trefoil_target", nan_trefoil)
        start = time.perf_counter()
        with pytest.raises(NumericError):
            training.run_obstruction_experiment(**budget)
        assert time.perf_counter() - start < 0.5 * control_s

    def test_control_error_does_not_wait_for_treatment_arm(self, monkeypatch):
        import time

        from injflow import training

        budget = dict(seed=1, steps_manifold=300, steps_density=300, batch_size=7,
                      lipschitz_log_interval=50)
        start = time.perf_counter()
        training._obstruction_arm("treatment", **budget)
        treatment_s = time.perf_counter() - start

        # A planar circle that is NaN on training batches (the only calls
        # with `batch_size` points) makes the forked control arm raise at
        # its first step; patched before the fork, it reaches only the worker.
        circle = training.planar_circle_target

        def nan_circle():
            good = circle().map_points
            return ManifoldTarget(
                "nan-circle", 1, 3,
                lambda t: np.full((7, 3), np.nan) if len(t) == 7 else good(t),
                domain=(0.0, 2.0 * np.pi))
        monkeypatch.setattr(training, "planar_circle_target", nan_circle)
        start = time.perf_counter()
        with pytest.raises(NumericError):
            training.run_obstruction_experiment(**budget)
        assert time.perf_counter() - start < 0.5 * treatment_s

    def test_killed_control_worker_raises(self, monkeypatch):
        import os
        import signal

        from injflow import training

        arm = training._obstruction_arm

        # Patched before the fork: only the worker runs the control arm.
        def killed_control(which, *args):
            if which == "control":
                os.kill(os.getpid(), signal.SIGKILL)
            return arm(which, *args)
        monkeypatch.setattr(training, "_obstruction_arm", killed_control)
        with pytest.raises(InjectiveFlowError, match="worker process died"):
            training.run_obstruction_experiment(seed=1, steps_manifold=6,
                                                steps_density=6, batch_size=32,
                                                lipschitz_log_interval=3)


class TestTrace:
    def test_monotone_steps_enforced(self):
        trace = TrainingTrace()
        trace.append(TraceRecord(0, 1.0, 1.0, 1.0, 1.0))
        with pytest.raises(InvalidArgumentError):
            trace.append(TraceRecord(0, 1.0, 1.0, 1.0, 1.0))

    def test_finite_values_enforced(self):
        trace = TrainingTrace()
        with pytest.raises(NumericError, match="^non-finite trace values at step 0: loss$"):
            trace.append(TraceRecord(0, np.nan, 1.0, 1.0, 1.0))
        with pytest.raises(NumericError, match="at step 2000: sliced_w2, lipschitz_estimate$"):
            trace.append(TraceRecord(2000, 1.0, 1.0, np.inf, -np.inf))
        assert len(trace) == 0

    def test_csv_columns(self, tmp_path):
        trace = TrainingTrace()
        trace.append(TraceRecord(0, 1.0, 0.5, 0.25, 2.0))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,directed_supinf,sliced_w2,lipschitz_estimate"
        assert lines[1].startswith("0,1,0.5,0.25,2")
