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
    # A non-finite stage inverse or residual is reported with its first
    # row, so no floating-point error may raise where it arises.
    with np.errstate(all="ignore"):
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
        residual = np.linalg.norm(Y - y_hat, axis=1)
    _require_finite(residual, "residual", None)
    if single:
        return ProjectionResult(x=Z[0], y_hat=y_hat[0], residual=float(residual[0]),
                                tie_flag=bool(ties[0]))
    return ProjectionResult(x=Z, y_hat=y_hat, residual=residual, tie_flag=ties)


# --- independent optimality oracle ----------------------------------------


def brute_force_relu_projection(b_mat, d_diag, y):
    """Enumerate all 2^n sign cones and solve each cone's least squares
    exactly; return (best residual, minimizers).

    On a cone, beta = |alpha| >= 0 for alpha = Bx and the output is A_s beta,
    column i of A_s being e_i (alpha_i >= 0) or D_ii e_{n+i} (alpha_i <= 0).
    Each passive set P of that non-negative least squares gives one set of
    normal equations (on the columns in P, the identity off P), solved in
    batches; the feasible beta with the least residual is the cone's optimum.
    Minimizers within 4 ulps (relative) of the best value are kept and
    deduplicated: the cones' own rounding spreads a true tie by about one.
    Independent of the closed-form path: this route never builds the sign
    pattern Delta_y or calls pseudo_inverse.
    """
    layer = InjectiveRelu(b_mat, d_diag)
    layer.validate()
    b, d, n = layer.b_mat, layer.d_diag, layer.in_dim
    yv = np.asarray(y, dtype=float).ravel()
    if yv.shape != (2 * n,):
        raise InvalidArgumentError(f"query must have dimension {2 * n}")
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1  # row k: cone k and set k
    cols = np.arange(n)
    a_mats = np.zeros((2 ** n, 2 * n, n))
    a_mats[:, cols, cols] = 1 - bits  # 1 = negative cone
    a_mats[:, n + cols, cols] = bits * d
    a_t = np.swapaxes(a_mats, 1, 2)
    gram, rhs = a_t @ a_mats, a_t @ yv  # restricted to each P by the masks below
    on_p, off_p = bits[:, :, None] * bits[:, None, :], np.eye(n) * (1 - bits)[:, None, :]
    beta = np.empty((2 ** n, n))
    step = max(1, 4096 >> n)  # cones per solve: at most 4096 systems
    for start in range(0, 2 ** n, step):
        cones = slice(start, start + step)
        sol = np.linalg.solve(gram[cones, None] * on_p + off_p,
                              (rhs[cones, None] * bits)[..., None])[..., 0]
        resid = np.linalg.norm(yv - sol @ a_t[cones], axis=-1)
        resid[(sol < 0).any(axis=-1)] = np.inf
        beta[cones] = sol[np.arange(len(sol)), resid.argmin(axis=1)]
    alpha = np.where(bits == 1, -beta, beta)
    vals = np.linalg.norm(yv - np.maximum(np.hstack([alpha, -d * alpha]), 0.0), axis=1)
    best_val = float(vals.min())
    keep: list[np.ndarray] = []
    for x in np.linalg.solve(b, alpha.T).T[vals <= best_val * (1 + 4 * np.finfo(float).eps)]:
        if not any(np.linalg.norm(x - k) <= 1e-7 * max(1.0, np.linalg.norm(k))
                   for k in keep):
            keep.append(x)
    return best_val, keep
