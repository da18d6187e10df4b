"""Small shared array helpers."""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidArgumentError, InvalidLayerError

# 17 significant digits round-trip every float64.
CSV_FLOAT_FORMAT = "%.17g"
CSV_BLOCK_ROWS = 256
# Squared distances per block, 256 KiB: pairwise_sq_dists fills its rows and
# the nearest-row and minima scans built on it take their rows this many
# distances at a time, so none holds a whole distance matrix it only reduces.
DIST_BLOCK_ENTRIES = 2 ** 15
# nearest_rows screens a call whose coordinates all lie within this bound,
# so that no product or sum of squares it forms can overflow.
SCREEN_LIMIT = 2.0 ** 400
EPS = np.finfo(float).eps
SUBNORMAL = np.finfo(float).smallest_subnormal


def as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def as_batch(x, dim: int, what: str = "input"):
    """Coerce a vector or a stack of vectors to shape (N, dim).

    Returns the 2-D array and a flag telling whether the input was a single
    vector (so callers can squeeze the result back).
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise InvalidArgumentError(
                f"{what} has dimension {arr.shape[0]}, expected {dim}")
        return arr[None, :], True
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise InvalidArgumentError(
                f"{what} has dimension {arr.shape[1]}, expected {dim}")
        return arr, False
    raise InvalidArgumentError(f"{what} must be 1-D or 2-D, got ndim={arr.ndim}")


def spectral_norm(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


def block_rows(m: int) -> int:
    """Rows of an (N, m) distance matrix per DIST_BLOCK_ENTRIES block, at
    least one."""
    return max(1, DIST_BLOCK_ENTRIES // max(1, m))


def _point_sets(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1] or a.shape[1] == 0:
        raise InvalidArgumentError(
            f"point sets must be (N, d) and (M, d) arrays with d >= 1, got "
            f"shapes {a.shape} and {b.shape}")
    return a, b


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of a (N,d) and b (M,d).

    Computed from explicit differences, not the gram-matrix identity, which
    loses absolute accuracy near zero (coincident points).  Each entry sums
    the squared coordinate differences in coordinate order,
    ((dx0^2 + dx1^2) + dx2^2) ..., so the result is bitwise symmetric in
    (a, b) and bitwise equal to scipy's "sqeuclidean" metric, however its
    rows are blocked.  Rows are filled block_rows(M) at a time with one
    reused scratch block.
    """
    a, b = _point_sets(a, b)
    n, d = a.shape
    out = np.empty((n, b.shape[0]))
    bt = np.ascontiguousarray(b.T)
    step = block_rows(b.shape[0])
    scratch = np.empty((min(n, step), b.shape[0]))
    for start in range(0, n, step):
        block = a[start:start + step]
        rows = out[start:start + step]
        np.subtract(block[:, 0:1], bt[0], out=rows)
        np.multiply(rows, rows, out=rows)
        diff = scratch[:len(block)]
        for k in range(1, d):
            np.subtract(block[:, k:k + 1], bt[k], out=diff)
            np.multiply(diff, diff, out=diff)
            rows += diff
    return out


def _paired_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance of each row of a to the same row of b, by the
    arithmetic of pairwise_sq_dists, so each equals its entry there."""
    diff = a - b
    diff *= diff
    out = diff[:, 0].copy()
    for k in range(1, diff.shape[1]):
        out += diff[:, k]
    return out


def nearest_rows(a: np.ndarray, b: np.ndarray):
    """(index, sq_dist) per row of a (N, d): the first-occurrence argmin of
    its row of pairwise_sq_dists(a, b) and that entry, bit for bit, without
    the explicit (N, M) matrix.

    A screen, one matrix product [a, 1] @ [-2b, |b|^2]^T, gives
    |b_j|^2 - 2 a_i.b_j, which is |a_i - b_j|^2 - |a_i|^2, and its row argmin
    names one candidate per row, whose distance is measured explicitly.  A
    row whose screen holds a second value within the rounding bound of its
    minimum is measured in full by pairwise_sq_dists.  The bound,
    4(d+3) eps (|a_i| + max_j |b_j|)^2 + (3d+1) * (least subnormal), covers
    the screen's error on both entries and the explicit sum's relative
    error (each distance is at most (|a_i| + max|b|)^2), and the absolute
    error of products that underflow; so a row measured only at its
    candidate has that candidate as its unique exact minimum.  A call with
    a coordinate that is not finite or exceeds SCREEN_LIMIT in magnitude
    (or an empty set) takes pairwise_sq_dists as a whole, so it returns
    and raises exactly what that does.
    """
    a, b = _point_sets(a, b)
    if not (a.size and b.size and np.abs(a).max() <= SCREEN_LIMIT
            and np.abs(b).max() <= SCREEN_LIMIT):
        d2 = pairwise_sq_dists(a, b)
        return d2.argmin(axis=1), d2.min(axis=1)
    n, d = a.shape
    sq_norms = np.einsum("ij,ij->i", b, b)
    lhs = np.ones((n, d + 1))
    lhs[:, :d] = a
    rhs = np.empty((d + 1, len(b)))
    np.multiply(b.T, -2.0, out=rhs[:d])
    rhs[d] = sq_norms
    screen = lhs @ rhs
    rows = np.arange(n)
    index = screen.argmin(axis=1)
    reach = np.sqrt(np.einsum("ij,ij->i", a, a)) + np.sqrt(sq_norms.max())
    bound = (screen[rows, index] + 4 * (d + 3) * EPS * reach * reach
             + (3 * d + 1) * SUBNORMAL)
    screen[rows, index] = np.inf
    close = np.flatnonzero(screen[rows, screen.argmin(axis=1)] <= bound)
    sq_dist = _paired_sq_dists(a, b[index])
    if close.size:
        d2 = pairwise_sq_dists(a[close], b)
        index[close] = d2.argmin(axis=1)
        sq_dist[close] = d2.min(axis=1)
    return index, sq_dist


def flatten(arrays) -> np.ndarray:
    """One float64 vector of the arrays' entries in order (empty for none)."""
    return np.concatenate([np.zeros(0), *arrays], axis=None)


def check_finite(*arrays) -> None:
    """Raise InvalidLayerError on a NaN or inf entry (None: no array)."""
    if not np.isfinite(flatten(a for a in arrays if a is not None)).all():
        raise InvalidLayerError("non-finite parameter entry")


def flat_views(vector, arrays) -> list:
    """Views of vector shaped like the arrays, laid end to end in order."""
    ends = np.cumsum([a.size for a in arrays], dtype=int)
    return [vector[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)]


def flat_store(arrays):
    """(vector, take): the arrays' entries copied into one vector, and take,
    which maps each of the arrays to its view into that vector (the argument
    a `bind_parameters` method takes)."""
    arrays = list(arrays)
    vector = flatten(arrays)
    views = {id(a): v for a, v in zip(arrays, flat_views(vector, arrays))}
    return vector, lambda arr: views[id(arr)]


def write_csv(path, columns, rows) -> None:
    """Header line of column names, then one line per row of numbers.

    Cells are formatted from Python floats, which format faster than numpy
    scalars, with one `%` per block of `CSV_BLOCK_ROWS` rows, which bounds
    the text held in memory."""
    table = np.asarray(rows, dtype=float)
    line = ",".join([CSV_FLOAT_FORMAT] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def write_json(path, payload) -> None:
    """Strict JSON (a non-finite float raises ValueError), indent 1, then a
    final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, allow_nan=False)
        fh.write("\n")
