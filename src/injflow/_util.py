"""Small shared array helpers."""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidArgumentError, InvalidLayerError

# 17 significant digits round-trip every float64.
CSV_FLOAT_FORMAT = "%.17g"
CSV_BLOCK_ROWS = 256
# Rows of pairwise_sq_dists filled per pass, so its scratch block stays small.
DIST_BLOCK_ROWS = 128


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


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of a (N,d) and b (M,d).

    Computed from explicit differences, not the gram-matrix identity, which
    loses absolute accuracy near zero (coincident points).  Each entry sums
    the squared coordinate differences in coordinate order,
    ((dx0^2 + dx1^2) + dx2^2) ..., so the result is bitwise symmetric in
    (a, b) and bitwise equal to scipy's "sqeuclidean" metric.  Rows are
    filled in blocks of DIST_BLOCK_ROWS with one reused scratch block.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1] or a.shape[1] == 0:
        raise InvalidArgumentError(
            f"point sets must be (N, d) and (M, d) arrays with d >= 1, got "
            f"shapes {a.shape} and {b.shape}")
    n, d = a.shape
    out = np.empty((n, b.shape[0]))
    bt = np.ascontiguousarray(b.T)
    scratch = np.empty((min(n, DIST_BLOCK_ROWS), b.shape[0]))
    for start in range(0, n, DIST_BLOCK_ROWS):
        block = a[start:start + DIST_BLOCK_ROWS]
        rows = out[start:start + DIST_BLOCK_ROWS]
        np.subtract(block[:, 0:1], bt[0], out=rows)
        np.multiply(rows, rows, out=rows)
        diff = scratch[:len(block)]
        for k in range(1, d):
            np.subtract(block[:, k:k + 1], bt[k], out=diff)
            np.multiply(diff, diff, out=diff)
            rows += diff
    return out


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
