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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import as_rng, flat_store, flatten, pairwise_sq_dists
from .errors import (
    BudgetExceededError,
    InvalidArgumentError,
    InvalidCandidateError,
    NumericError,
)
from .flows import Mlp

EXACT_W2_MAX_POINTS = 512
DOMAIN_TOLERANCE = 1e-9
# Passes of match-then-regress in the affine candidate fit.
ICP_PASSES = 6


@dataclass(frozen=True)
class CandidateMap:
    """An alignment map h from the target's parameter set into W."""

    kind: str
    func: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.func(x)


@dataclass(frozen=True)
class EmbeddingGapEstimate:
    """Certified interval [lower, upper] around the embedding gap."""

    lower: float
    upper: float
    candidate: CandidateMap

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper):
            raise InvalidArgumentError(
                f"need 0 <= lower <= upper, got [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box used as the declared domain of an evaluable map."""

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def from_points(cls, points, margin: float = 0.0) -> "DomainBox":
        pts = np.asarray(points, dtype=float)
        return cls(pts.min(axis=0) - margin, pts.max(axis=0) + margin)

    def contains(self, points, tol: float = DOMAIN_TOLERANCE) -> bool:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return bool(
            np.all(pts >= self.lo[None, :] - tol)
            and np.all(pts <= self.hi[None, :] + tol))


def directed_supinf(f_points, g_points) -> float:
    """Max over rows of f_points of the min distance to g_points.

    Sample version of sup_{x in K} inf_{w in W} ||g(w) - f(x)||_2; a lower
    bound for the embedding gap in the sampling limit.  Both are checked by
    _cloud, and pairwise_sq_dists refuses sets of different widths.
    """
    return float(np.sqrt(_nearest_rows(_cloud(f_points), _cloud(g_points))[1].max()))


# A squared distance past the float range is inf, farther than any finite
# one; when every candidate distance is, the bound built on them is not
# finite, and _finite_upper reports that.
@np.errstate(over="ignore")
def _nearest_rows(F: np.ndarray, G: np.ndarray):
    """(argmin, min) per row of F of its squared distances to the rows of G,
    in row blocks of about 2e5 distances; no row depends on the blocking."""
    nearest, best = [], []
    chunk = max(1, int(2e5) // max(1, len(G)))
    for start in range(0, F.shape[0], chunk):
        d2 = pairwise_sq_dists(F[start:start + chunk], G)
        nearest.append(np.argmin(d2, axis=1))
        best.append(d2.min(axis=1))
    return np.concatenate(nearest), np.concatenate(best)


def embedding_gap_upper(f_params, f_points, g, h, g_domain: DomainBox | None = None,
                        tol: float = DOMAIN_TOLERANCE) -> float:
    """Sup over sampled pairs of ||g(h(x)) - f(x)||_2.

    Valid upper bound on the gap for any injective candidate h with
    h(K) inside g's domain.
    """
    X = np.asarray(f_params, dtype=float)
    FX = np.asarray(f_points, dtype=float)
    if X.shape[0] != FX.shape[0] or X.shape[0] == 0:
        raise InvalidArgumentError("f_params and f_points must align and be non-empty")
    H = np.atleast_2d(np.asarray(h(X), dtype=float))
    if g_domain is not None and not g_domain.contains(H, tol=tol):
        raise InvalidCandidateError("candidate output leaves g's declared domain box")
    GH = np.atleast_2d(np.asarray(g(H), dtype=float))
    # Same arithmetic as the directed sup-inf path so the sandwich
    # lower <= upper holds to the last ulp when both see the same pairs.
    # An overflow gives an infinite bound, which _finite_upper reports.
    with np.errstate(over="ignore"):
        devs = np.sqrt(((GH - FX) ** 2).sum(axis=1))
    return float(devs.max())


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


def _constant_func(w: np.ndarray):
    def apply(X):
        return np.repeat(w[None, :], X.shape[0], axis=0)
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
                              g_domain: DomainBox):
    """Surrogate mean_i ||g(H_i) - f(x_i)||^2 at H = base + scale * pert(X)
    and its gradient in pert.parameters() order; (inf, 0.0) when H leaves
    the box.  One g call on [H; H + fd e_j; H - fd e_j], j < o, gives g(H)
    and g's Jacobian by central differences; pert.vjp carries the rest."""
    out, cache = pert.forward_with_cache(X)
    H = base + scale * out
    if not g_domain.contains(H, tol=0.0):
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
                            flow_steps: int = 150,
                            seed: int = 0) -> tuple[CandidateMap, float]:
    """Fit the candidate map h minimizing the empirical gap upper bound.

    The affine family generalizes the canonical witness g o A o f^{-1}: match
    each target sample to its nearest g(W) sample, regress an affine map onto
    the matched parameters, and iterate.  The small-flow family refines the
    affine incumbent with a scaled tanh perturbation, an Mlp trained by
    gradient descent through its forward and VJP on the mean squared
    deviation, with g's Jacobian taken by central differences.  Returns the
    candidate together with its upper bound; the incumbent never worsens.
    """
    X = np.asarray(f_params, dtype=float)
    FX = np.asarray(f_points, dtype=float)
    W = np.asarray(w_samples, dtype=float)
    if X.ndim != 2 or FX.ndim != 2 or W.ndim != 2:
        raise InvalidArgumentError("f_params, f_points, w_samples must be 2-D")
    if X.shape[0] != FX.shape[0] or X.shape[0] == 0:
        raise InvalidArgumentError("f_params and f_points must align and be non-empty")
    if family not in ("affine", "small-flow"):
        raise InvalidArgumentError(f"unknown candidate family {family!r}")
    n, o = X.shape[1], W.shape[1]
    g_domain = DomainBox.from_points(W, margin=1e-9)
    GW = np.atleast_2d(np.asarray(g(W), dtype=float))

    def upper_of(func) -> float:
        return embedding_gap_upper(X, FX, g, func, g_domain=g_domain)

    candidates: list[tuple[float, CandidateMap]] = []
    best_affine: tuple[np.ndarray, np.ndarray] | None = None

    if X.shape[0] == 1:
        # Degenerate single-point reduction: the best constant map into W.
        j = int(np.argmin(np.linalg.norm(GW - FX[0][None, :], axis=1)))
        cand = CandidateMap("constant", _constant_func(W[j].copy()))
        return cand, _finite_upper(upper_of(cand.func))

    # Identity-style embedding of the parameters into R^o as the incumbent.
    if o >= n:
        def identity_pad(Xb, _n=n, _o=o):
            out = np.zeros((Xb.shape[0], _o))
            out[:, :_n] = Xb
            return out
        if g_domain.contains(identity_pad(X)):
            cand = CandidateMap("identity", identity_pad)
            candidates.append((upper_of(cand.func), cand))

    # Nearest-neighbor matched affine fit, ICP-style refinement.  A
    # rank-deficient regression is a caller error regardless of incumbents.
    nearest_w, d_gw = _nearest_rows(FX, GW)
    matched = W[nearest_w]
    prev_upper = np.inf
    for _ in range(ICP_PASSES):
        a, c = _fit_affine(X, matched)
        func = _affine_func(a, c)
        if not g_domain.contains(func(X)):
            # Pull outputs toward the box center until feasible; stays affine.
            center = 0.5 * (g_domain.lo + g_domain.hi)
            for shrink in (0.9, 0.7, 0.5, 0.25, 0.1):
                a2 = a * shrink
                c2 = center + (c - center) * shrink
                if g_domain.contains(_affine_func(a2, c2)(X)):
                    a, c, func = a2, c2, _affine_func(a2, c2)
                    break
            else:
                break
        cand = CandidateMap("affine", func)
        up = upper_of(cand.func)
        candidates.append((up, cand))
        if best_affine is None or up <= min(u for u, cc in candidates
                                            if cc.kind == "affine"):
            best_affine = (a, c)
        if up >= prev_upper - 1e-15:
            break
        prev_upper = up
        # Re-match each target against the closer of W samples and the
        # candidate's own in-domain outputs.
        H = func(X)
        GH = np.atleast_2d(np.asarray(g(H), dtype=float))
        d_gh = np.sum((GH - FX) ** 2, axis=1)
        use_h = d_gh < d_gw
        matched_new = W[nearest_w]
        matched_new[use_h] = H[use_h]
        if np.allclose(matched_new, matched, atol=1e-14):
            break
        matched = matched_new

    if not candidates:
        raise InvalidArgumentError("no feasible candidate found inside the domain box")

    best_upper, best = min(candidates, key=lambda t: t[0])
    _finite_upper(best_upper)  # no refinement starts from an infinite bound

    if family == "small-flow":
        a, c = best_affine if best_affine is not None else (np.eye(o, n), np.zeros(o))
        rng = as_rng(seed)
        hidden = 8
        w1 = rng.normal(0, 0.5, size=(hidden, n))
        w2 = rng.normal(0, 0.5, size=(o, hidden))
        pert = Mlp([n, hidden, o], weights=[w1, w2],
                   biases=[np.zeros(hidden), np.zeros(o)])
        vec, take = flat_store(arr for _, arr in pert.parameters())
        pert.bind_parameters(take)
        # Injectivity guard: perturbation Lipschitz below the affine gain.
        sigma_min = np.linalg.svd(a, compute_uv=False).min() if a.size else 0.0
        scale = (0.0 if sigma_min <= 0 else
                 min(1.0, 0.5 * sigma_min / max(pert.lipschitz_bound(), 1e-12)))
        affine = _affine_func(a, c)
        base = affine(X)
        value, grad = _small_flow_descent_point(pert, scale, base, X, FX, g, g_domain)
        step = 0.05
        for _ in range(max(0, flow_steps)):
            kept = vec.copy()
            vec -= step * grad
            trial = _small_flow_descent_point(pert, scale, base, X, FX, g, g_domain)
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
        if sigma_min > 0 and scale * lip > 0.9 * sigma_min:
            scale = 0.9 * sigma_min / max(lip, 1e-12)

        def flow(x):
            return affine(x) + scale * pert(x)
        try:
            flow_upper = upper_of(flow)
        except InvalidCandidateError:
            flow_upper = np.inf
        if flow_upper < best_upper:
            best_upper = flow_upper
            best = CandidateMap("small-flow", flow)

    return best, float(best_upper)


def estimate_embedding_gap(f_params, f_points, g, w_samples,
                           family: str = "affine",
                           seed: int = 0) -> EmbeddingGapEstimate:
    """Certified [lower, upper] interval for the gap on the given samples.

    The candidate's own outputs g(h(x)) are counted as range samples when
    taking the directed sup-inf, which makes lower <= upper hold exactly.
    """
    X = np.asarray(f_params, dtype=float)
    FX = np.asarray(f_points, dtype=float)
    W = np.asarray(w_samples, dtype=float)
    candidate, upper = fit_candidate_alignment(
        X, FX, g, W, family=family, seed=seed)
    GW = np.atleast_2d(np.asarray(g(W), dtype=float))
    GH = np.atleast_2d(np.asarray(g(candidate(X)), dtype=float))
    lower = directed_supinf(FX, np.vstack([GW, GH]))
    # g(h(x)) sits in the candidate set, so lower <= upper holds exactly;
    # the min guards the one-ulp case where reductions round differently.
    lower = min(lower, upper)
    return EmbeddingGapEstimate(lower=lower, upper=upper, candidate=candidate)


# --- Wasserstein-2 -------------------------------------------------------


def _assignment(cost: np.ndarray) -> np.ndarray:
    """cols minimizing cost[arange(n), cols].sum() over permutations of a
    square matrix.

    Shortest augmenting paths with dual prices u, v (Crouse 2016, the
    method of scipy.optimize's assignment solver).  Warm start: v holds the
    column minima, each row claims its cheapest reduced column, the first
    claimant of a column keeps it, and u makes its edge tight.  Each free
    row then runs one Dijkstra pass over whole rows of reduced costs; a
    finished column's working price is -inf, so its reduced cost is +inf
    and it is neither updated nor picked again.  With a unique optimum the
    permutation is scipy's; on ties the total cost is.
    """
    cost = np.asarray(cost, dtype=float)
    if not np.all(np.isfinite(cost)):
        raise NumericError("assignment cost matrix has non-finite entries")
    n = cost.shape[0]
    v = cost.min(axis=0)
    reduced = cost - v
    claim = reduced.argmin(axis=1)
    cols, first = np.unique(claim, return_index=True)
    col4row = np.full(n, -1)
    row4col = np.full(n, -1)
    col4row[first] = cols
    row4col[cols] = first
    u = np.zeros(n)
    u[first] = reduced[first, cols]
    r = np.empty(n)
    better = np.empty(n, dtype=bool)
    for free in np.flatnonzero(col4row < 0):
        dist = np.full(n, np.inf)
        path = np.empty(n, dtype=int)
        price = v.copy()
        done, lengths = [], []
        row, low = free, 0.0
        while True:
            np.subtract(cost[row], price, out=r)
            r += low - u[row]
            np.less(r, dist, out=better)
            np.copyto(dist, r, where=better)
            np.copyto(path, row, where=better)
            col = int(dist.argmin())
            low = dist[col]
            if row4col[col] < 0:
                break
            done.append(col)
            lengths.append(low)
            dist[col] = np.inf
            price[col] = -np.inf
            row = row4col[col]
        # Shift the prices of the rows and columns the search finished by
        # their slack below the path length: reduced costs stay nonnegative
        # and the path's edges become tight.  Then flip the path.
        done = np.array(done, dtype=int)
        slack = low - np.array(lengths)
        u[free] += low
        u[row4col[done]] += slack
        v[done] -= slack
        while True:
            row = path[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
            if row == free:
                break
    return col4row


def _cloud(points) -> np.ndarray:
    """points as a float (N, d) array, the uniform measure on its rows."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidArgumentError("points must be a non-empty (N, d) array")
    if not np.all(np.isfinite(pts)):
        raise InvalidArgumentError("points must be finite")
    return pts


# The LP routine imports its solver at first call: loading scipy.optimize
# adds ~0.5 s and ~43 MB to a process, and only unequal-size clouds need
# the transportation LP.
def _w2_exact_lp(cost: np.ndarray) -> float:
    from scipy import sparse
    from scipy.optimize import linprog

    n, m = cost.shape
    # Transportation polytope: row sums 1/n, column sums 1/m.
    a_eq = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.eye(m))])
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    # HiGHS's default 1e-7 feasibility tolerances leave ~1e-8 errors in W2.
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise InvalidArgumentError(f"transport LP failed: {res.message}")
    return float(np.sqrt(max(res.fun, 0.0)))


def wasserstein2_exact(a, b) -> float:
    """Exact discrete W2, squared Euclidean ground cost, between the uniform
    measures on the rows of a and b.

    Equal row counts go through an assignment solve, unequal ones through
    the transportation LP.  Supports are capped at EXACT_W2_MAX_POINTS
    combined; larger inputs must use the sliced variant.
    """
    a, b = _cloud(a), _cloud(b)
    if a.shape[1] != b.shape[1]:
        raise InvalidArgumentError("point clouds must share an ambient dimension")
    if len(a) + len(b) > EXACT_W2_MAX_POINTS:
        raise BudgetExceededError(
            f"combined support {len(a) + len(b)} exceeds the exact budget "
            f"{EXACT_W2_MAX_POINTS}; use wasserstein2_sliced")
    # A squared distance past the float range is inf: a numeric failure,
    # which neither solver is given.
    with np.errstate(over="ignore"):
        cost = pairwise_sq_dists(a, b)
    if not np.all(np.isfinite(cost)):
        raise NumericError("exact W2 cost matrix has non-finite entries")
    if len(a) != len(b):
        return _w2_exact_lp(cost)
    cols = _assignment(cost)
    return float(np.sqrt(cost[np.arange(len(cols)), cols].mean()))


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
    return float(d * np.mean((diffs ** 2).T.copy()))


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
    diffs = sorted_pg - pt
    gproj = np.empty_like(pg)
    gproj.put(flat, 2.0 * d * diffs / (n * k))
    # matmul, like mean, sums in memory order: it reads the (n, K) transpose.
    return _scaled_mean_square(diffs, d), gproj.T.copy() @ directions.T


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
    per direction.
    """
    a, b = _cloud(a), _cloud(b)
    if a.shape[1] != b.shape[1]:
        raise InvalidArgumentError("point clouds must share an ambient dimension")
    d = a.shape[1]
    dirs = draw_directions(d, n_projections, seed)
    if len(a) == len(b):
        return float(np.sqrt(sliced_w2sq(a, b, dirs)))
    px = a @ dirs
    py = b @ dirs
    total = 0.0
    for k in range(n_projections):
        total += w2_1d_squared(px[:, k], py[:, k])
    return float(np.sqrt(d * total / n_projections))


def wasserstein2(a, b, n_projections: int = 128, seed: int = 0) -> tuple[float, str]:
    """(W2, "exact") while the combined support fits EXACT_W2_MAX_POINTS,
    else (sliced W2, "sliced")."""
    if len(a) + len(b) <= EXACT_W2_MAX_POINTS:
        return wasserstein2_exact(a, b), "exact"
    return wasserstein2_sliced(a, b, n_projections, seed), "sliced"


@dataclass(frozen=True)
class BoundCheckReport:
    """Outcome of checking W2(f#mu, g#mu_o) against the gap upper bound."""

    w2: float
    upper: float
    tolerance: float
    passed: bool
    method: str


def wasserstein_bound_check(f_params, f_points, g, w_samples,
                            gap: EmbeddingGapEstimate,
                            tolerance: float = 0.01,
                            n_projections: int = 128,
                            seed: int = 0) -> BoundCheckReport:
    """Construct mu_o by pushing the parameter samples through the fitted
    candidate and verify W2(f#mu, g#mu_o) <= gap.upper + tolerance."""
    X = np.asarray(f_params, dtype=float)
    FX = np.asarray(f_points, dtype=float)
    if not np.isfinite(gap.upper):
        raise InvalidArgumentError("gap.upper must be finite")
    H = np.atleast_2d(np.asarray(gap.candidate(X), dtype=float))
    box = DomainBox.from_points(np.asarray(w_samples, dtype=float), margin=1e-6)
    if not box.contains(H, tol=1e-6):
        raise InvalidCandidateError("candidate output leaves the W sample box")
    w2, method = wasserstein2(FX, np.atleast_2d(np.asarray(g(H), dtype=float)),
                              n_projections=n_projections, seed=seed)
    return BoundCheckReport(w2=w2, upper=gap.upper, tolerance=tolerance,
                            passed=bool(w2 <= gap.upper + tolerance),
                            method=method)


def w2_enumeration_uniform(a, b) -> float:
    """Brute-force W2 over all permutation couplings (uniform equal supports).

    Independent oracle for the assignment path; factorial cost, so only for
    supports of size <= ~8.
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
