import json

import numpy as np
import pytest

from injflow.errors import InvalidLayerError
from injflow.expansive import (
    InjectiveRelu,
    LinearExpansive,
    ZeroPad,
    random_injective_relu,
    random_linear_expansive,
)
from injflow.flows import identity_block
from injflow.network import InjectiveNetwork


class TestZeroPad:
    def test_basic(self):
        np.testing.assert_array_equal(ZeroPad(2, 4)(np.array([[1.0, 2.0]])),
                                      [[1, 2, 0, 0]])
        np.testing.assert_array_equal(ZeroPad(1, 2)(np.array([[0.0]])), [[0, 0]])
        np.testing.assert_array_equal(ZeroPad(2, 3)(np.array([[3.0, -1.0]])),
                                      [[3, -1, 0]])

    def test_left_inverse_recovers_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 3))
        y = ZeroPad(3, 7)(x)
        assert (y[:, :3] == x).all()

    def test_always_validates(self):
        ZeroPad(1, 2).validate()


class TestLinear:
    def test_axis_embedding(self):
        np.testing.assert_array_equal(
            LinearExpansive([[1.0], [0.0]])(np.array([[5.0]])), [[5, 0]])

    def test_duplicate_coordinate(self):
        np.testing.assert_array_equal(
            LinearExpansive([[1.0], [1.0]])(np.array([[2.0]])), [[2, 2]])

    def test_hand_product(self):
        w = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        np.testing.assert_array_equal(LinearExpansive(w)(np.array([[1.0, 2.0]])),
                                      [[1, 2, 3]])

    def test_rank_deficiency_rejected_by_validate(self):
        with pytest.raises(InvalidLayerError, match="^rank-deficient"):
            LinearExpansive([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]).validate()

    def test_validation_reports(self):
        LinearExpansive([[1.0], [0.0]]).validate()
        bad = LinearExpansive([[1.0], [0.0]])
        bad.weight[0, 0] = 0.0
        with pytest.raises(InvalidLayerError, match="^zero weight matrix has rank 0$"):
            bad.validate()

    def test_square_matrix_not_expansive(self):
        with pytest.raises(InvalidLayerError):
            LinearExpansive(np.eye(3))


class TestInjectiveRelu:
    def test_positive_branch(self):
        layer = InjectiveRelu([[1.0]], [1.0])
        np.testing.assert_array_equal(layer(np.array([[2.0]])), [[2, 0]])

    def test_negative_branch(self):
        layer = InjectiveRelu([[1.0]], [1.0])
        np.testing.assert_array_equal(layer(np.array([[-3.0]])), [[0, 3]])

    def test_with_extra_rows(self):
        layer = InjectiveRelu([[1.0]], [2.0], [[1.0]])
        np.testing.assert_array_equal(layer(np.array([[1.0]])), [[1, 0, 1]])

    def test_invalid_parameters_rejected_by_validate(self):
        with pytest.raises(InvalidLayerError, match="^D has non-positive entries$"):
            InjectiveRelu([[1.0]], [0.0]).validate()
        with pytest.raises(InvalidLayerError, match="^B nearly singular"):
            InjectiveRelu([[0.0]], [1.0]).validate()

    def test_nonpositive_diagonal_reported(self):
        bad = InjectiveRelu([[1.0]], [1.0])
        bad.d_diag[0] = 0.0
        with pytest.raises(InvalidLayerError, match="^D has non-positive entries$"):
            bad.validate()


@pytest.mark.parametrize("make", [
    lambda: LinearExpansive([[1.0, 0.0], [0.0, np.inf], [0.0, 0.0]]),
    lambda: InjectiveRelu([[1, 0], [0, 1]], [np.nan, 1]),
    lambda: InjectiveRelu([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0]),
    lambda: InjectiveRelu([[1.0]], [1.0], [[np.nan]]),
], ids=["linear-inf", "relu-d-nan", "relu-b-inf", "relu-m-nan"])
def test_non_finite_parameters_rejected(make):
    # Every comparison with NaN is false, so the rank and sign checks alone
    # would pass these; a linear layer with an inf weight then hung in lstsq.
    with pytest.raises(InvalidLayerError, match="^non-finite parameter entry$"):
        make().validate()


def _sampled_injectivity(layer, rng, n_pairs=10_000, box=5.0):
    x = rng.uniform(-box, box, size=(n_pairs, layer.in_dim))
    x2 = rng.uniform(-box, box, size=(n_pairs, layer.in_dim))
    distinct = np.linalg.norm(x - x2, axis=1) > 1e-12
    gaps = np.linalg.norm(layer(x) - layer(x2), axis=1)
    return bool((gaps[distinct] > 0.0).all())


def _lipschitz_honored(layer, rng, n_pairs=2000, box=5.0):
    x = rng.uniform(-box, box, size=(n_pairs, layer.in_dim))
    x2 = rng.uniform(-box, box, size=(n_pairs, layer.in_dim))
    num = np.linalg.norm(layer(x) - layer(x2), axis=1)
    den = np.linalg.norm(x - x2, axis=1)
    keep = den > 1e-9
    return float((num[keep] / den[keep]).max()) <= layer.lipschitz_bound() * (1 + 1e-12)


@pytest.mark.parametrize("make", [
    lambda rng: ZeroPad(3, 5),
    lambda rng: random_linear_expansive(3, 5, rng),
    lambda rng: random_injective_relu(2, 5, rng),
    lambda rng: random_injective_relu(2, 4, rng),
])
def test_sampled_injectivity_and_lipschitz(make):
    rng = np.random.default_rng(42)
    layer = make(rng)
    layer.validate()
    assert _sampled_injectivity(layer, rng)
    assert _lipschitz_honored(layer, rng)


def test_json_serialization_roundtrip():
    rng = np.random.default_rng(9)
    layers = [ZeroPad(2, 4), random_linear_expansive(2, 4, rng),
              random_injective_relu(2, 6, rng)]
    x = rng.normal(size=(20, 2))
    for layer in layers:
        net = InjectiveNetwork([identity_block(layer.in_dim), layer,
                                identity_block(layer.out_dim)])
        blob = json.dumps(net.to_config())
        clone = InjectiveNetwork.from_config(json.loads(blob)).stages[1]
        np.testing.assert_array_equal(clone(x), layer(x))
