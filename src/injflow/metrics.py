"""Embedding-gap bounds and Wasserstein-2 distances between point clouds.

The gap between a target curve/surface f(K) and a candidate map g(W) is
reported as a certified interval: the lower end is the directed sup-inf
distance evaluated on samples, the upper end is the sup deviation of
g composed with a fitted alignment map h: K -> W from f itself.  The exact
infimum over all re-embeddings is not computable; both ends are, and they
bracket it in the sampling limit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._util import (as_rng, block_rows, flat_store, flatten, nearest_rows,
                    pairwise_sq_dists)
from .errors import BudgetExceededError, InvalidArgumentError, NumericError
from .flows import Mlp

EXACT_W2_MAX_POINTS = 512
# Directions projected at once on sliced W2's unequal-count path, which
# would otherwise hold every row's projections on all directions.
SLICE_BLOCK = 16
DOMAIN_TOLERANCE = 1e-9
# Passes of match-then-regress in the affine candidate fit.
ICP_PASSES = 6
# Descent steps of the small-flow refinement.
SMALL_FLOW_STEPS = 150


@dataclass(frozen=True)
class EmbeddingGapEstimate:
    """Certified interval [lower, upper] around the embedding gap, with the
    fitted candidate's images g(h(x)) and the range samples g(W)."""

    lower: float
    upper: float
    images: np.ndarray
    range_images: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper < np.inf):
            raise InvalidArgumentError(
                f"need 0 <= lower <= upper < inf, got [{self.lower}, {self.upper}]")


def _inside(H: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            tol: float = DOMAIN_TOLERANCE) -> bool:
    """Whether every row of H lies in the box [lo - tol, hi + tol]."""
    return bool(np.all(H >= lo - tol) and np.all(H <= hi + tol))


def directed_supinf(f_points, g_points) -> float:
    """Max over rows of f_points of the min distance to g_points.

    Sample version of sup_{x in K} inf_{w in W} ||g(w) - f(x)||_2; a lower
    bound for the embedding gap in the sampling limit.  Both are checked by
    _cloud, and _util.nearest_rows refuses sets of different widths.
    """
    return float(np.sqrt(_nearest_rows(_cloud(f_points), _cloud(g_points))[1].max()))


def _nearest_rows(F: np.ndarray, G: np.ndarray):
    """(argmin, min) per row of F of its squared distances to the rows of G,
    by _util.nearest_rows on block_rows(len(G)) rows of F at a time; no row
    depends on the blocking."""
    nearest = np.empty(len(F), dtype=np.intp)
    best = np.empty(len(F))
    step = block_rows(len(G))
    for start in range(0, len(F), step):
        nearest[start:start + step], best[start:start + step] = nearest_rows(
            F[start:start + step], G)
    return nearest, best


def embedding_gap_upper(f_params, f_points, g, h) -> float:
    """Sup over sampled pairs of ||g(h(x)) - f(x)||_2.

    Valid upper bound on the gap for any injective candidate h with
    h(K) inside g's domain.
    """
    X = np.asarray(f_params, dtype=float)
    FX = np.asarray(f_points, dtype=float)
    if X.shape[0] != FX.shape[0] or X.shape[0] == 0:
        raise InvalidArgumentError("f_params and f_points must align and be non-empty")
    H = np.atleast_2d(np.asarray(h(X), dtype=float))
    return _upper_and_images(FX, g, H)[0]


def _upper_and_images(FX: np.ndarray, g, H: np.ndarray):
    """(sup_i ||g(H_i) - FX_i||_2, g(H)): the upper bound of the candidate
    whose outputs are H, and the images it is measured on."""
    GH = np.atleast_2d(np.asarray(g(H), dtype=float))
    # Same arithmetic as the directed sup-inf path so the sandwich
    # lower <= upper holds to the last ulp when both see the same pairs.
    devs = np.sqrt(((GH - FX) ** 2).sum(axis=1))
    return float(devs.max()), GH


def _finite_upper(upper: float) -> float:
    """upper, if finite; a NaN or an overflow in g's outputs or in their
    distances to the target is a numeric failure."""
    if not np.isfinite(upper):
        raise NumericError(f"the embedding-gap upper bound is {upper}, not finite: "
                           "g's outputs or their distances overflow")
    return upper


def _affine_func(a: np.ndarray, c: np.ndarray):
    def apply(X):
        return X @ a.T + c[None, :]
    return apply


def _fit_affine(X: np.ndarray, targets: np.ndarray):
    """Least-squares affine fit X -> targets; raises on rank deficiency."""
    n = X.shape[1]
    design = np.hstack([X, np.ones((X.shape[0], 1))])
    if np.linalg.matrix_rank(design, tol=1e-10 * max(1.0, np.abs(design).max())) < n + 1:
        raise InvalidArgumentError(
            "degenerate pair set: affine regression is rank-deficient")
    sol, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return sol[:-1].T, sol[-1]


# A surrogate or gradient past the float range is inf or NaN, which no
# descent step accepts: the refinement then keeps the affine incumbent.
@np.errstate(over="ignore", invalid="ignore")
def _small_flow_descent_point(pert: Mlp, scale: float, base: np.ndarray,
                              X: np.ndarray, FX: np.ndarray, g,
                              lo: np.ndarray, hi: np.ndarray):
    """Surrogate mean_i ||g(H_i) - f(x_i)||^2 at H = base + scale * pert(X)
    and its gradient in pert.parameters() order; (inf, 0.0) when H leaves
    the box [lo, hi].  One g call on [H; H + fd e_j; H - fd e_j], j < o,
    gives g(H) and g's Jacobian by central differences; pert.vjp carries
    the rest."""
    out, cache = pert.forward_with_cache(X)
    H = base + scale * out
    if not _inside(H, lo, hi, 0.0):
        return np.inf, 0.0
    rows, o = H.shape
    fd = 1e-5
    shifts = fd * np.eye(o)
    G = np.atleast_2d(np.asarray(
        g(np.vstack([H, *(H + e for e in shifts), *(H - e for e in shifts)])),
        dtype=float)).reshape(2 * o + 1, rows, -1)
    resid = G[0] - FX
    jac = (G[1:o + 1] - G[o + 1:]) / (2 * fd)  # (o, rows, m)
    grad_h = (2.0 / rows) * np.einsum("jrm,rm->rj", jac, resid)
    value = float(np.mean(np.sum(resid ** 2, axis=1)))
    return value, flatten(pert.vjp(cache, scale * grad_h)[1])


def fit_candidate_alignment(f_params, f_points, g, w_samples,
                            family: str = "affine",
                            seed: int = 0):
    """Fit the candidate map h minimizing the empirical gap upper bound.

    The affine family generalizes the canonical witness g o A o f^{-1}: match
    each target sample to its nearest g(W) sample, regress an affine map onto
    the matched parameters, and iterate; the identity embedding of the
    parameters competes too, and a single pair maps to its best constant in
    W.  The small-flow family refines the best of these affine candidates
    with a scaled tanh perturbation, an Mlp trained by gradient descent
    through its forward and VJP on the mean squared deviation, with g's
    Jacobian taken by central differences.  Returns the
    candidate together with its upper bound; the incumbent never worsens.
    """
    candidate, upper, _, _ = _fit(f_params, f_points, g, w_samples, family, seed)
    return candidate, upper


def _fit(f_params, f_points, g, w_samples, family: str, seed: int):
    """(h, upper, g(h(X)), g(W)) of fit_candidate_alignment: the inputs are
    checked once, and g runs once on W, once per candidate and once per
    small-flow descent point."""
    X = np.asarray(f_params, dtype=float)
    FX = np.asarray(f_points, dtype=float)
    W = np.asarray(w_samples, dtype=float)
    if X.ndim != 2 or FX.ndim != 2 or W.ndim != 2:
        raise InvalidArgumentError("f_params, f_points, w_samples must be 2-D")
    if X.shape[0] != FX.shape[0] or X.shape[0] == 0:
        raise InvalidArgumentError("f_params and f_points must align and be non-empty")
    if W.shape[0] == 0:
        raise InvalidArgumentError("w_samples must be non-empty")
    if family not in ("affine", "small-flow"):
        raise InvalidArgumentError(f"unknown candidate family {family!r}")
    n, o = X.shape[1], W.shape[1]
    if n > o:  # the upper bound needs an injective h: R^n -> R^o
        raise InvalidArgumentError(f"{n} parameter columns exceed the latent dimension {o}")
    lo, hi = W.min(axis=0) - 1e-9, W.max(axis=0) + 1e-9  # g's domain box
    GW = np.atleast_2d(np.asarray(g(W), dtype=float))
    nearest_w, d_gw = _nearest_rows(FX, GW)

    # (upper, g(h(X)), a, c) per candidate h: x -> a x + c inside the box.
    candidates: list = []

    if X.shape[0] == 1:
        # Degenerate single-point reduction: the best constant map into W.
        a, c = np.zeros((o, n)), W[nearest_w[0]].copy()
        candidates.append((*_upper_and_images(FX, g, _affine_func(a, c)(X)), a, c))
    else:
        # Identity-style embedding of the parameters into R^o as the incumbent.
        a, c = np.eye(o, n), np.zeros(o)
        H = _affine_func(a, c)(X)
        if _inside(H, lo, hi):
            candidates.append((*_upper_and_images(FX, g, H), a, c))

    # Nearest-neighbor matched affine fit, ICP-style refinement, on two or
    # more pairs.  A rank-deficient regression is a caller error regardless
    # of incumbents.
    matched = W[nearest_w]
    prev_upper = np.inf
    for _ in range(ICP_PASSES if X.shape[0] > 1 else 0):
        a, c = _fit_affine(X, matched)
        H = _affine_func(a, c)(X)
        if not _inside(H, lo, hi):
            # Pull outputs toward the box center until feasible; stays affine.
            center = 0.5 * (lo + hi)
            for shrink in (0.9, 0.7, 0.5, 0.25, 0.1):
                a2 = a * shrink
                c2 = center + (c - center) * shrink
                H2 = _affine_func(a2, c2)(X)
                if _inside(H2, lo, hi):
                    a, c, H = a2, c2, H2
                    break
            else:
                break
        up, GH = _upper_and_images(FX, g, H)
        candidates.append((up, GH, a, c))
        if up >= prev_upper - 1e-15:
            break
        prev_upper = up
        # Re-match each target against the closer of W samples and the
        # candidate's own in-domain outputs.
        d_gh = np.sum((GH - FX) ** 2, axis=1)
        use_h = d_gh < d_gw
        matched_new = W[nearest_w]
        matched_new[use_h] = H[use_h]
        if np.allclose(matched_new, matched, atol=1e-14):
            break
        matched = matched_new

    if not candidates:
        raise InvalidArgumentError("no feasible candidate found inside the domain box")

    best_upper, images, a, c = min(candidates, key=lambda t: t[0])
    _finite_upper(best_upper)  # no refinement starts from an infinite bound
    best = affine = _affine_func(a, c)
    # Injectivity guard: the perturbation's Lipschitz bound stays below the
    # affine start's least singular value, so a start whose least singular
    # value is 0 (the single-pair constant) is not refined.
    sigma_min = np.linalg.svd(a, compute_uv=False).min() if a.size else 0.0

    if family == "small-flow" and sigma_min > 0:
        rng = as_rng(seed)
        hidden = 8
        w1 = rng.normal(0, 0.5, size=(hidden, n))
        w2 = rng.normal(0, 0.5, size=(o, hidden))
        pert = Mlp([n, hidden, o], weights=[w1, w2],
                   biases=[np.zeros(hidden), np.zeros(o)])
        vec, take = flat_store(arr for _, arr in pert.parameters())
        pert.bind_parameters(take)
        scale = min(1.0, 0.5 * sigma_min / max(pert.lipschitz_bound(), 1e-12))
        base = affine(X)
        value, grad = _small_flow_descent_point(pert, scale, base, X, FX, g, lo, hi)
        step = 0.05
        for _ in range(SMALL_FLOW_STEPS):
            kept = vec.copy()
            vec -= step * grad
            trial = _small_flow_descent_point(pert, scale, base, X, FX, g, lo, hi)
            if trial[0] < value:
                value, grad = trial
            else:
                vec[:] = kept
                step *= 0.5
                if step < 1e-6:
                    break
        # Re-certify injectivity: training may have grown the perturbation
        # weights past the scale chosen at initialization.
        lip = pert.lipschitz_bound()
        if scale * lip > 0.9 * sigma_min:
            scale = 0.9 * sigma_min / max(lip, 1e-12)

        def flow(x):
            return affine(x) + scale * pert(x)
        H = flow(X)
        if _inside(H, lo, hi):
            flow_upper, flow_images = _upper_and_images(FX, g, H)
            if flow_upper < best_upper:
                best_upper, images, best = flow_upper, flow_images, flow

    return best, float(best_upper), images, GW


def estimate_embedding_gap(f_params, f_points, g, w_samples,
                           family: str = "affine",
                           seed: int = 0) -> EmbeddingGapEstimate:
    """Certified [lower, upper] interval for the gap on the given samples.

    The candidate's own outputs g(h(x)) are counted as range samples when
    taking the directed sup-inf, which makes lower <= upper hold exactly.
    """
    _, upper, images, range_images = _fit(f_params, f_points, g, w_samples, family, seed)
    lower = directed_supinf(f_points, np.vstack([range_images, images]))
    # g(h(x)) sits in the candidate set, so lower <= upper holds exactly;
    # the min guards the one-ulp case where reductions round differently.
    return EmbeddingGapEstimate(min(lower, upper), upper, images, range_images)


# --- Wasserstein-2 -------------------------------------------------------


def _transport(cost: np.ndarray):
    """An optimal plan of the uniform transport problem on an (n, m) cost
    matrix: an integer (n, m) array whose rows each ship m/g units and whose
    columns each take n/g, g = gcd(n, m).  At n = m it is a permutation
    matrix: scipy.optimize's when the optimum is unique, of equal cost on ties.

    Successive shortest paths with dual prices u, v (Crouse 2016 at n = m).
    Warm start: v holds the column minima, each row in turn ships what it
    can to its cheapest reduced column, and u makes that edge tight.  Each
    row with supply left runs Dijkstra passes over whole rows of reduced
    costs until spent, popping the cheapest column: one with room ends the
    pass, a full one passes its label to the rows that ship into it.  A
    finished column's price is -inf, so it is not updated or picked again.
    """
    if not np.all(np.isfinite(cost)):
        raise NumericError("transport cost matrix has non-finite entries")
    n, m = cost.shape
    g = math.gcd(n, m)
    supply, room = [m // g] * n, [n // g] * m
    ships = [{} for _ in range(m)]  # ships[col][row]: the units row sends col
    v = cost.min(axis=0)
    reduced = cost - v
    u = np.zeros(n)
    for row, col in enumerate(reduced.argmin(axis=1).tolist()):
        units = min(supply[row], room[col])
        if units:
            ships[col][row] = units
            supply[row] -= units
            room[col] -= units
            u[row] = reduced[row, col]
    r = np.empty(m)
    better = np.empty(m, dtype=bool)
    for free in range(n):
        while supply[free]:
            dist = np.full(m, np.inf)
            path = np.empty(m, dtype=int)
            price = v.copy()
            via = {free: -1}  # each row reached: the column it was reached by
            popped = {}  # each finished column: its path length
            queue, low = [free], 0.0
            while True:
                while queue:
                    row = queue.pop()
                    np.subtract(cost[row], price, out=r)
                    r += low - u[row]
                    np.less(r, dist, out=better)
                    np.copyto(dist, r, where=better)
                    np.copyto(path, row, where=better)
                col = int(dist.argmin())
                low = dist[col]
                if room[col]:
                    break
                popped[col] = low
                dist[col] = np.inf
                price[col] = -np.inf
                for row in ships[col]:
                    if row not in via:
                        via[row] = col
                        queue.append(row)
            # Shift the prices of the rows and columns the search finished by
            # their slack below the path length: reduced costs stay nonnegative
            # and the path's edges become tight.
            reached = list(via)[1:]
            u[free] += low
            u[reached] += low - np.array([popped[via[row]] for row in reached])
            v[list(popped)] -= low - np.array(list(popped.values()))
            # Push the most units the path allows, then move them along it.
            end, units, row = col, min(supply[free], room[col]), int(path[col])
            while row != free:
                units = min(units, ships[via[row]][row])
                row = int(path[via[row]])
            supply[free] -= units
            room[end] -= units
            row = int(path[end])
            while True:
                ships[col][row] = ships[col].get(row, 0) + units
                if row == free:
                    break
                col = via[row]
                ships[col][row] -= units
                if not ships[col][row]:
                    del ships[col][row]
                row = int(path[col])
    plan = np.zeros((n, m), dtype=int)
    for col, shippers in enumerate(ships):
        plan[list(shippers), col] = list(shippers.values())
    return plan


def _cloud(points) -> np.ndarray:
    """points as a float (N, d) array, the uniform measure on its rows."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidArgumentError("points must be a non-empty (N, d) array")
    if not np.all(np.isfinite(pts)):
        raise InvalidArgumentError("points must be finite")
    return pts


def wasserstein2_exact(a, b) -> float:
    """Exact discrete W2, squared Euclidean ground cost, between the uniform
    measures on the rows of a and b.

    The square root of the cost of _transport's plan per unit moved.
    Supports are capped at EXACT_W2_MAX_POINTS combined; larger inputs must
    use the sliced variant.
    """
    a, b = _cloud(a), _cloud(b)
    if a.shape[1] != b.shape[1]:
        raise InvalidArgumentError("point clouds must share an ambient dimension")
    if len(a) + len(b) > EXACT_W2_MAX_POINTS:
        raise BudgetExceededError(
            f"combined support {len(a) + len(b)} exceeds the exact budget "
            f"{EXACT_W2_MAX_POINTS}; use wasserstein2_sliced")
    cost = pairwise_sq_dists(a, b)
    plan = _transport(cost)
    used = plan > 0  # in row order: at n = m, the mean over the permutation
    return float(np.sqrt((plan[used] * cost[used]).sum() / plan.sum()))


def w2_1d_squared(x, y) -> float:
    """Exact squared 1-D W2 between uniform atoms via the quantile coupling."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    cx = np.cumsum(np.full(len(x), 1.0 / len(x)))
    cy = np.cumsum(np.full(len(y), 1.0 / len(y)))
    edges = np.unique(np.concatenate([[0.0], cx, cy]))
    edges = edges[edges <= min(cx[-1], cy[-1]) + 1e-15]
    masses = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    xi = np.searchsorted(cx, mids, side="left")
    yi = np.searchsorted(cy, mids, side="left")
    xi = np.minimum(xi, len(x) - 1)
    yi = np.minimum(yi, len(y) - 1)
    return float(np.sum(masses * (x[xi] - y[yi]) ** 2))


def _slice_projections(generated: np.ndarray, target: np.ndarray,
                       directions: np.ndarray):
    """(pg, pt): both batches projected on the (d, K) directions, one C-ordered
    row of n values per direction, so each sort runs along contiguous memory;
    pt is sorted.  The batches must be non-empty and of equal size."""
    if generated.size == 0 or target.size == 0:
        raise InvalidArgumentError("batches must be non-empty")
    if generated.shape[0] != target.shape[0]:
        raise InvalidArgumentError("sliced loss needs equal-size batches")
    pg = (generated @ directions).T.copy()
    pt = (target @ directions).T.copy()
    pt.sort(axis=1)
    return pg, pt


def _scaled_mean_square(diffs: np.ndarray, d: int) -> float:
    # mean sums in memory order, so it reads the C-ordered (n, K) transpose.
    return float(d * np.mean(np.square(diffs.T, out=np.empty(diffs.shape[::-1]))))


def sliced_w2sq(generated: np.ndarray, target: np.ndarray,
                directions: np.ndarray) -> float:
    """The value of sliced_w2sq_loss_and_grad, bitwise, without its gradient:
    sorted values are the same whichever order a sort breaks ties in, so
    no sort order is kept."""
    pg, pt = _slice_projections(generated, target, directions)
    pg.sort(axis=1)
    pg -= pt
    return _scaled_mean_square(pg, generated.shape[1])


def sliced_w2sq_loss_and_grad(generated: np.ndarray, target: np.ndarray,
                              directions: np.ndarray):
    """Dimension-scaled mean of squared 1-D W2 over the given unit directions,
    differentiable through the sorting-based quantile coupling.

    Batches must have equal size (uniform weights); directions is (d, K).
    """
    pg, pt = _slice_projections(generated, target, directions)
    n, d = generated.shape
    k = directions.shape[1]
    # Without ties every sort gives the one stable order, so the faster
    # default sort is re-done stably only when a row has equal neighbours.
    # The row orders index the flat (k, n) arrays, faster than *_along_axis.
    offsets = np.arange(k)[:, None] * n
    flat = np.argsort(pg, axis=1) + offsets
    sorted_pg = pg.take(flat)
    if (sorted_pg[:, 1:] == sorted_pg[:, :-1]).any():
        flat = np.argsort(pg, axis=1, kind="stable") + offsets
        sorted_pg = pg.take(flat)
    # The differences, then their gradient, in the buffer take filled; the
    # gradient is scattered back into pg, whose projections are spent.
    diffs = sorted_pg
    diffs -= pt
    value = _scaled_mean_square(diffs, d)
    diffs *= 2.0 * d
    diffs /= n * k
    pg.reshape(-1)[flat] = diffs
    # matmul, like mean, sums in memory order: it reads the (n, K) transpose.
    return value, pg.T.copy() @ directions.T


def draw_directions(dim: int, count: int, rng) -> np.ndarray:
    """(dim, count) unit directions, one per column, drawn from the seed."""
    if count < 1:
        raise InvalidArgumentError("the projection count must be >= 1")
    dirs = as_rng(rng).normal(size=(dim, count))
    return dirs / np.linalg.norm(dirs, axis=0, keepdims=True)


def wasserstein2_sliced(a, b, n_projections: int = 128, seed: int = 0) -> float:
    """Sliced W2 between the uniform measures on the rows of a and b: root
    of the dimension-scaled mean of squared 1-D W2 values.

    Scaled by the ambient dimension so that a pure translation by v reports
    ||v|| in expectation; deterministic under the seed.  Equal row counts
    go through sliced_w2sq, the value half of the training loss's
    sort-and-subtract kernel, unequal ones through one quantile coupling
    per direction, SLICE_BLOCK directions projected at a time.
    """
    a, b = _cloud(a), _cloud(b)
    if a.shape[1] != b.shape[1]:
        raise InvalidArgumentError("point clouds must share an ambient dimension")
    d = a.shape[1]
    dirs = draw_directions(d, n_projections, seed)
    if len(a) == len(b):
        return float(np.sqrt(sliced_w2sq(a, b, dirs)))
    total = 0.0
    for start in range(0, n_projections, SLICE_BLOCK):
        block = dirs[:, start:start + SLICE_BLOCK]
        px, py = a @ block, b @ block
        for k in range(block.shape[1]):
            total += w2_1d_squared(px[:, k], py[:, k])
    return float(np.sqrt(d * total / n_projections))


def wasserstein2(a, b, seed: int = 0) -> tuple[float, str]:
    """(W2, "exact") while the combined support fits EXACT_W2_MAX_POINTS,
    else (sliced W2 on the default directions, "sliced")."""
    if len(a) + len(b) <= EXACT_W2_MAX_POINTS:
        return wasserstein2_exact(a, b), "exact"
    return wasserstein2_sliced(a, b, seed=seed), "sliced"


@dataclass(frozen=True)
class BoundCheckReport:
    """Outcome of checking W2(f#mu, g#mu_o) against the gap upper bound."""

    w2: float
    upper: float
    tolerance: float
    passed: bool
    method: str


def wasserstein_bound_check(f_points, gap: EmbeddingGapEstimate,
                            tolerance: float = 0.01,
                            seed: int = 0) -> BoundCheckReport:
    """Verify W2(f#mu, g#mu_o) <= gap.upper + tolerance, where g#mu_o is the
    uniform measure on gap.images: the parameter samples pushed through the
    fitted candidate and g."""
    w2, method = wasserstein2(f_points, gap.images, seed=seed)
    return BoundCheckReport(w2=w2, upper=gap.upper, tolerance=tolerance,
                            passed=bool(w2 <= gap.upper + tolerance),
                            method=method)


def w2_enumeration_uniform(a, b) -> float:
    """Brute-force W2 over all permutation couplings (uniform equal supports).

    Independent oracle for the transport solver at n = m; factorial cost,
    so only for supports of size <= ~8.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InvalidArgumentError("enumeration oracle needs equal-size supports")
    n = a.shape[0]
    cost = pairwise_sq_dists(a, b)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        c = cost[np.arange(n), perm].mean()
        if c < best:
            best = c
    return float(np.sqrt(best))
