"""Exact layer-wise projection onto the network's range.

Every stage owns a batched `pseudo_inverse`: linear layers solve least
squares, m = 2n injective ReLU layers use the closed-form sign-pattern
selection, flow blocks invert exactly.  Composing the stage inverses
back-to-front gives an idempotent (generally non-orthogonal) projection onto
the range of the whole network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import as_batch
from .errors import (
    InvalidArgumentError,
    InvalidLayerError,
    NumericError,
    UnsupportedLayerError,
)
from .expansive import InjectiveRelu, LinearExpansive
from .flows import identity_block
from .network import InjectiveNetwork


@dataclass(frozen=True)
class ProjectionResult:
    """Preimage x, range point y_hat, residual ||y - y_hat||, tie flag;
    one row or entry per query for a stack of queries."""

    x: np.ndarray
    y_hat: np.ndarray
    residual: float | np.ndarray
    tie_flag: bool | np.ndarray


def relu_pseudo_inverse(b_mat, d_diag, y) -> ProjectionResult:
    """Least-squares preimage of y under x -> ReLU([B; -DB] x).

    See InjectiveRelu.pseudo_inverse for the closed form and its ties.
    """
    return _project_through(InjectiveRelu(b_mat, d_diag), y)


def linear_pseudo_inverse(weight, y) -> ProjectionResult:
    """Unique least-squares preimage of y under x -> Wx for a tall W."""
    return _project_through(LinearExpansive(weight), y)


def _project_through(layer, y) -> ProjectionResult:
    net = InjectiveNetwork([identity_block(layer.in_dim), layer,
                            identity_block(layer.out_dim)])
    return project_to_range(net, y)


def _require_finite(values: np.ndarray, what: str, stage_index: int | None) -> None:
    bad = np.nonzero(~np.isfinite(values.reshape(values.shape[0], -1)).all(axis=1))[0]
    if bad.size:
        row = int(bad[0])
        raise NumericError(f"non-finite {what} at query row {row}",
                           stage_index=stage_index, row=row)


def project_to_range(net: InjectiveNetwork, y) -> ProjectionResult:
    """Project y, one query or an (N, m) stack, onto the network's range by
    stage-wise pseudo-inversion, back to front.  Idempotent but in general
    not orthogonal.  A non-finite stage inverse or residual raises
    NumericError naming the stage (if any) and the first offending row; a
    stage kind without a pseudo-inverse raises UnsupportedLayerError naming
    the stage.
    """
    Y, single = as_batch(y, net.ambient_dim, "query")
    Z = Y
    ties = np.zeros(Y.shape[0], dtype=bool)
    for idx in range(len(net.stages) - 1, -1, -1):
        try:
            Z, stage_ties = net.stages[idx].pseudo_inverse(Z)
        except UnsupportedLayerError as err:
            raise UnsupportedLayerError(f"stage {idx}: {err}") from err
        except (InvalidLayerError, NumericError) as err:
            raise NumericError(f"stage {idx} inversion failed: {err}",
                               stage_index=idx) from err
        _require_finite(Z, "stage inverse", idx)
        ties |= stage_ties
    y_hat = net.forward(Z)
    with np.errstate(over="ignore"):  # an overflow is reported just below
        residual = np.linalg.norm(Y - y_hat, axis=1)
    _require_finite(residual, "residual", None)
    if single:
        return ProjectionResult(x=Z[0], y_hat=y_hat[0], residual=float(residual[0]),
                                tie_flag=bool(ties[0]))
    return ProjectionResult(x=Z, y_hat=y_hat, residual=residual, tie_flag=ties)


# --- independent optimality oracle ----------------------------------------


def brute_force_relu_projection(b_mat, d_diag, y):
    """Enumerate all 2^n sign patterns and solve each cone-constrained
    least-squares problem numerically; return (best residual, minimizers).

    In alpha = Bx coordinates the range restricted to a sign pattern is
    affine, so each pattern yields a bounded least-squares problem over its
    cone.  Minimizers within 1e-9 of the best feasible value are
    collected and deduplicated.  Independent of the closed-form path: this
    route never builds the sign pattern Delta_y or calls pseudo_inverse.
    Imports its solver at first call, so `injflow project` never loads
    scipy.optimize.
    """
    from scipy.optimize import lsq_linear

    layer = InjectiveRelu(b_mat, d_diag)
    b, d, n = layer.b_mat, layer.d_diag, layer.in_dim
    yv = np.asarray(y, dtype=float).ravel()
    if yv.shape != (2 * n,):
        raise InvalidArgumentError(f"query must have dimension {2 * n}")
    best_val = np.inf
    solutions: list[tuple[float, np.ndarray]] = []
    for bits in range(2 ** n):
        signs = np.array([(bits >> i) & 1 for i in range(n)])  # 1 = negative cone
        # On this cone ReLU([alpha; -D alpha]) = A alpha with A affine.
        a_mat = np.zeros((2 * n, n))
        lb = np.where(signs == 1, -np.inf, 0.0)
        ub = np.where(signs == 1, 0.0, np.inf)
        for i in range(n):
            if signs[i] == 1:
                a_mat[n + i, i] = -d[i]
            else:
                a_mat[i, i] = 1.0
        res = lsq_linear(a_mat, yv, bounds=(lb, ub), tol=1e-14)
        alpha = res.x
        fitted = np.maximum(np.concatenate([alpha, -d * alpha]), 0.0)
        val = float(np.linalg.norm(yv - fitted))
        solutions.append((val, np.linalg.solve(b, alpha)))
        best_val = min(best_val, val)
    keep: list[np.ndarray] = []
    for val, x in solutions:
        if val <= best_val + 1e-9:
            if not any(np.linalg.norm(x - k) <= 1e-7 * max(1.0, np.linalg.norm(k))
                       for k in keep):
                keep.append(x)
    return best_val, keep
