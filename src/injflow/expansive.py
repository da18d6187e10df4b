"""Injective dimension-raising layers with constructive injectivity checks.

Three kinds: zero padding, full-rank linear maps and injective ReLU layers
ReLU(Wx) with W = [B; -DB; M].  Every kind carries a computable Lipschitz
bound (operator norm of the assembled weights) and an injectivity check,
`validate()`, that raises InvalidLayerError; constructors check shapes
only, and InjectiveNetwork runs validate().  Layers take (N, n) float
arrays, one point per row.
"""

from __future__ import annotations

import numpy as np

from ._util import as_rng, check_finite, spectral_norm
from .errors import InvalidLayerError, UnsupportedLayerError

RANK_TOLERANCE = 1e-10
# |z_i - z_{i+n}| below this (relative) threshold flags a tie between the
# two per-coordinate minimizers of the ReLU pseudo-inverse.
TIE_RELATIVE_TOLERANCE = 1e-12


class ExpansiveLayer:
    """Base class: an injective Lipschitz map R^n -> R^m with m > n.  Its
    Lipschitz bound is global, so ball_bound(radius) derives from it."""

    kind = "abstract"

    def __init__(self, in_dim: int, out_dim: int):
        if in_dim < 1 or out_dim <= in_dim:
            raise InvalidLayerError(
                f"expansive layer needs out_dim > in_dim >= 1, "
                f"got {in_dim} -> {out_dim}")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)

    def __call__(self, X):
        return self.forward_with_cache(X)[0]

    def forward_with_cache(self, X: np.ndarray):
        """(output rows, cache that vjp reads) for the rows of X."""
        raise NotImplementedError

    def vjp(self, cache, grad_out: np.ndarray, params: bool = True):
        """(grad wrt input, parameter gradients in parameters() order, or []
        when params is false)."""
        raise NotImplementedError

    def pseudo_inverse(self, Z: np.ndarray):
        """(X, tie_rows): least-squares preimages of the rows of Z and a flag
        per row whose minimizer is not unique."""
        raise UnsupportedLayerError(
            f"projection does not support expansive kind {self.kind!r}")

    def parameters(self):
        return []

    def lipschitz_bound(self) -> float:
        raise NotImplementedError

    def ball_bound(self, radius: float):
        """(Lipschitz bound, output radius) on the ball ||x||_2 <= radius."""
        lip = self.lipschitz_bound()
        return lip, lip * radius

    def validate(self) -> None:
        """Raise InvalidLayerError unless the layer is injective.  The base
        does nothing: zero padding, which has no parameters, always is."""

    def to_config(self) -> dict:
        raise NotImplementedError


class ZeroPad(ExpansiveLayer):
    """x -> [x; 0]: appends out_dim - in_dim zero coordinates."""

    kind = "zero_pad"

    def forward_with_cache(self, X):
        out = np.zeros((X.shape[0], self.out_dim))
        out[:, :self.in_dim] = X
        return out, None

    def vjp(self, cache, grad_out, params=True):
        return grad_out[:, :self.in_dim], []

    def pseudo_inverse(self, Z):
        return Z[:, :self.in_dim], np.zeros(Z.shape[0], dtype=bool)

    def lipschitz_bound(self) -> float:
        return 1.0

    def to_config(self) -> dict:
        return {"kind": self.kind, "n": self.in_dim, "m": self.out_dim}

    @classmethod
    def from_config(cls, cfg: dict) -> "ZeroPad":
        return cls(cfg["n"], cfg["m"])


class LinearExpansive(ExpansiveLayer):
    """x -> Wx for a full-rank tall matrix W (rank checked by validate())."""

    kind = "linear"

    def __init__(self, weight):
        w = np.asarray(weight, dtype=float)
        if w.ndim != 2:
            raise InvalidLayerError("weight must be a matrix")
        super().__init__(w.shape[1], w.shape[0])
        self.weight = w.copy()

    def forward_with_cache(self, X):
        # The input batch is the cache: the weight gradient needs it.  np.dot,
        # not @: numpy's matmul is ~3x slower on a 1-wide inner dimension.
        return np.dot(X, self.weight.T), X

    def vjp(self, cache, grad_out, params=True):
        return np.dot(grad_out, self.weight), [np.dot(grad_out.T, cache)] if params else []

    def pseudo_inverse(self, Z):
        # Training updates the weight in place, so the rank is checked again.
        X, _, _, sv = np.linalg.lstsq(self.weight, Z.T, rcond=None)
        _check_column_rank(sv)
        return X.T, np.zeros(Z.shape[0], dtype=bool)

    def parameters(self):
        return [("weight", self.weight)]

    def bind_parameters(self, take):
        self.weight = take(self.weight)

    def lipschitz_bound(self) -> float:
        return spectral_norm(self.weight)

    def validate(self) -> None:
        check_finite(self.weight)
        _check_column_rank(np.linalg.svd(self.weight, compute_uv=False))

    def to_config(self) -> dict:
        return {"kind": self.kind, "n": self.in_dim, "m": self.out_dim,
                "weight": self.weight.tolist()}

    @classmethod
    def from_config(cls, cfg: dict) -> "LinearExpansive":
        return cls(cfg["weight"])


def _check_column_rank(sv: np.ndarray) -> None:
    """Raise InvalidLayerError unless a weight with these singular values
    (descending) has full column rank."""
    if sv.size == 0 or sv[0] == 0.0:
        raise InvalidLayerError("zero weight matrix has rank 0")
    if sv[-1] <= RANK_TOLERANCE * sv[0]:
        raise InvalidLayerError(
            f"rank-deficient: sigma_min/sigma_max = {sv[-1] / sv[0]:.3e}")


def assemble_relu_weight(b_mat: np.ndarray, d_diag: np.ndarray,
                         m_mat: np.ndarray | None) -> np.ndarray:
    """Stack [B; -diag(d) B; M] into the full (m x n) weight."""
    rows = [b_mat, -d_diag[:, None] * b_mat]
    if m_mat is not None and m_mat.size:
        rows.append(m_mat)
    return np.vstack(rows)


def relu_sign_pattern(Z: np.ndarray):
    """(delta, ties) for the rows of Z (N, 2n), both (N, n) booleans:
    delta_i where the -DB row carries the preimage (z_{i+n} > z_i), ties_i
    where z_i and z_{i+n} agree within TIE_RELATIVE_TOLERANCE."""
    n = Z.shape[1] // 2
    head, tail = Z[:, :n], Z[:, n:]
    ties = np.abs(head - tail) <= TIE_RELATIVE_TOLERANCE * np.maximum(1.0, np.abs(head))
    return tail > head, ties


class InjectiveRelu(ExpansiveLayer):
    """x -> ReLU(Wx) with W = [B; -DB; M], B invertible, D positive diagonal.

    Globally injective: for each coordinate of alpha = Bx, either the B row
    or the -DB row is active, so alpha (and hence x) is recoverable.
    """

    kind = "injective_relu"

    def __init__(self, b_mat, d_diag, m_mat=None):
        b = np.asarray(b_mat, dtype=float)
        d = np.asarray(d_diag, dtype=float).ravel()
        m = None if m_mat is None else np.atleast_2d(np.asarray(m_mat, dtype=float))
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise InvalidLayerError("B must be square")
        n = b.shape[0]
        if d.shape != (n,):
            raise InvalidLayerError("D must be a length-n positive diagonal")
        if m is not None and m.size and m.shape[1] != n:
            raise InvalidLayerError("M must have n columns")
        extra = 0 if m is None or not m.size else m.shape[0]
        super().__init__(n, 2 * n + extra)
        self.b_mat = b.copy()
        self.d_diag = d.copy()
        self.m_mat = None if m is None or not m.size else m.copy()
        self.weight = assemble_relu_weight(self.b_mat, self.d_diag, self.m_mat)

    def forward_with_cache(self, X):
        pre = X @ self.weight.T
        return np.maximum(pre, 0.0), pre

    def vjp(self, cache, grad_out, params=True):
        mask = (cache > 0.0).astype(float)
        return (grad_out * mask) @ self.weight, []

    def pseudo_inverse(self, Z):
        """Least-squares preimages under x -> ReLU([B; -DB] x).

        Solves (M_z W) x = M_z z, with the selection M_z = [(I - Delta),
        Delta] for Delta = diag(delta), through its per-coordinate form: in
        alpha = Bx coordinates, alpha_i = z_i on the inactive-tail pattern
        and alpha_i = -z_{i+n}/D_ii on the active one.  When a pair
        (z_i, z_{i+n}) is entirely negative the selected value is clipped
        to the range corner alpha_i = 0, which is the actual per-coordinate
        minimizer there (the raw selection formula would overshoot past
        the corner).  Away from ties (z_i = z_{i+n}) a row's result is the
        unique minimizer of ||z - ReLU(Wx)||_2; on ties it is one of the
        minimizers and the row is flagged.  Only m = 2n (no M rows) has
        this closed form.
        """
        if self.m_mat is not None:
            raise UnsupportedLayerError(
                f"{self.kind!r} projection needs m = 2n and no extra M rows")
        n = self.in_dim
        delta, ties = relu_sign_pattern(Z)
        alpha = np.where(delta, -np.maximum(Z[:, n:], 0.0) / self.d_diag,
                         np.maximum(Z[:, :n], 0.0))
        return np.linalg.solve(self.b_mat, alpha.T).T, ties.any(axis=1)

    def lipschitz_bound(self) -> float:
        # ReLU is 1-Lipschitz, so the assembled weight's norm dominates.
        return spectral_norm(self.weight)

    def validate(self) -> None:
        check_finite(self.b_mat, self.d_diag, self.m_mat)
        if np.any(self.d_diag <= 0.0):
            raise InvalidLayerError("D has non-positive entries")
        sv = np.linalg.svd(self.b_mat, compute_uv=False)
        if sv[-1] <= RANK_TOLERANCE * max(sv[0], 1e-300):
            raise InvalidLayerError(f"B nearly singular: sigma_min = {sv[-1]:.3e}")

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "n": self.in_dim, "m": self.out_dim,
               "b": self.b_mat.tolist(), "d": self.d_diag.tolist()}
        if self.m_mat is not None:
            cfg["m_rows"] = self.m_mat.tolist()
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "InjectiveRelu":
        return cls(cfg["b"], cfg["d"], cfg.get("m_rows"))


# --- constructors ----------------------------------------------------------


def random_orthonormal_columns(n: int, m: int, rng) -> np.ndarray:
    q, _ = np.linalg.qr(as_rng(rng).normal(size=(m, n)))
    return q[:, :n]


def random_well_conditioned(n: int, rng) -> np.ndarray:
    rng = as_rng(rng)
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = rng.uniform(0.8, 1.25, size=n)
    return q1 @ np.diag(s) @ q2


def random_linear_expansive(n: int, m: int, rng) -> LinearExpansive:
    return LinearExpansive(random_orthonormal_columns(n, m, rng))


def random_injective_relu(n: int, m: int, rng) -> InjectiveRelu:
    rng = as_rng(rng)
    if m < 2 * n:
        raise InvalidLayerError("injective ReLU layer needs m >= 2n")
    b = random_well_conditioned(n, rng)
    d = rng.uniform(0.5, 2.0, size=n)
    m_extra = m - 2 * n
    m_mat = rng.normal(size=(m_extra, n)) if m_extra else None
    return InjectiveRelu(b, d, m_mat)
