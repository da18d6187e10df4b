"""Target manifolds, parameter-domain samplers, and pushforward sampling.

Supplies the compact parameter sets (intervals, circles, annuli), the
embedded target curves and surfaces (unit circle, trefoil knot, knotted
ribbon, toy arcs), and the uniform pushforward measures consumed by the
diagnostics and training experiments.  Everything here is deterministic
under a seed and immutable after construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import as_rng, write_csv
from .errors import InvalidArgumentError
from .metrics import EmpiricalMeasure

RIBBON_R_MIN = 0.5
RIBBON_R_MAX = 1.5
DEFAULT_RIBBON_HALF_WIDTH = 0.1
# Below this curvature norm the Frenet normal is ill-conditioned and a fixed
# reference vector is projected off the tangent instead.
_CURVATURE_FLOOR = 1e-8


@dataclass(frozen=True)
class CompactSampleSet:
    """Finite point cloud standing in for a compact parameter set."""

    points: np.ndarray
    generator: str = "unspecified"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InvalidArgumentError("sample set must be a non-empty (N, d) array")
        if not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("sample points must be finite")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def to_csv(self, path) -> None:
        save_points_csv(path, self.points)

    @classmethod
    def from_csv(cls, path, generator: str = "csv") -> "CompactSampleSet":
        return cls(load_points_csv(path), generator=generator)


def save_points_csv(path, points: np.ndarray) -> None:
    """One point per row, header x0..x{d-1}, 17 significant digits."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    write_csv(path, [f"x{i}" for i in range(pts.shape[1])], pts)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_points_csv(path) -> np.ndarray:
    """Numeric rows after one header line; an unreadable or non-numeric
    file, one whose first line is a row of numbers rather than a header,
    one without data rows or one with a non-finite cell raises
    InvalidArgumentError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            with warnings.catch_warnings():
                # loadtxt warns on a file without data; that file is refused below.
                warnings.simplefilter("ignore", UserWarning)
                points = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as err:
        raise InvalidArgumentError(f"cannot load points CSV {path}: {err}") from err
    if all(_is_number(cell) for cell in header.split(",")):
        raise InvalidArgumentError(f"points CSV {path} has no header line")
    if points.size == 0:
        raise InvalidArgumentError(f"points CSV {path} holds no data rows")
    bad = np.nonzero(~np.isfinite(points).all(axis=1))[0]
    if bad.size:
        raise InvalidArgumentError(
            f"points CSV {path} has a non-finite value in data row {bad[0] + 1}")
    return points


@dataclass(frozen=True)
class ManifoldTarget:
    """A parametrized target: injective map from a compact domain into R^m."""

    name: str
    intrinsic_dim: int
    ambient_dim: int
    param_map: Callable[[np.ndarray], np.ndarray]
    domain: str

    def map_points(self, params) -> np.ndarray:
        x = np.asarray(params, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[1] != self.intrinsic_dim:
            raise InvalidArgumentError(
                f"parameters have dimension {x.shape[1]}, "
                f"target {self.name!r} expects {self.intrinsic_dim}")
        out = np.atleast_2d(np.asarray(self.param_map(x), dtype=float))
        if out.shape != (x.shape[0], self.ambient_dim):
            raise InvalidArgumentError(
                f"target {self.name!r} returned shape {out.shape}, "
                f"expected ({x.shape[0]}, {self.ambient_dim})")
        return out


# --- samplers ------------------------------------------------------------


def sample_circle(count: int, mode: str = "grid", seed: int = 0) -> CompactSampleSet:
    """Points on the unit circle in R^2, uniform in angle.

    mode 'grid' places count equispaced angles starting at 0; mode 'random'
    draws angles uniformly with the given seed.
    """
    if count < 1:
        raise InvalidArgumentError("count must be >= 1")
    if mode == "grid":
        theta = 2.0 * np.pi * np.arange(count) / count
        gen = f"circle-grid(count={count})"
    elif mode == "random":
        theta = as_rng(seed).uniform(0.0, 2.0 * np.pi, size=count)
        gen = f"circle-random(count={count}, seed={seed})"
    else:
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    return CompactSampleSet(pts, generator=gen)


def sample_interval(count: int, lo: float = -1.0, hi: float = 1.0,
                    mode: str = "grid", seed: int = 0) -> CompactSampleSet:
    if count < 1:
        raise InvalidArgumentError("count must be >= 1")
    if lo >= hi:
        raise InvalidArgumentError("need lo < hi")
    if mode == "grid":
        t = np.linspace(lo, hi, count)
        gen = f"interval-grid([{lo}, {hi}], count={count})"
    elif mode == "random":
        t = as_rng(seed).uniform(lo, hi, size=count)
        gen = f"interval-random([{lo}, {hi}], count={count}, seed={seed})"
    else:
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    return CompactSampleSet(t[:, None], generator=gen)


def sample_annulus(count: int, r_min: float = RIBBON_R_MIN,
                   r_max: float = RIBBON_R_MAX, seed: int = 0) -> CompactSampleSet:
    """(r, theta) parameter samples, uniform in area over the annulus."""
    if count < 1:
        raise InvalidArgumentError("count must be >= 1")
    rng = as_rng(seed)
    u = rng.uniform(size=count)
    r = np.sqrt(u * (r_max ** 2 - r_min ** 2) + r_min ** 2)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    pts = np.column_stack([r, theta])
    gen = f"annulus-random([{r_min}, {r_max}], count={count}, seed={seed})"
    return CompactSampleSet(pts, generator=gen)


def sample_grid_2d(lo: float, hi: float, per_axis: int) -> CompactSampleSet:
    """Regular (per_axis x per_axis) grid over [lo, hi]^2, row-major order."""
    if per_axis < 1:
        raise InvalidArgumentError("per_axis must be >= 1")
    axis = np.linspace(lo, hi, per_axis)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([g1.ravel(), g2.ravel()])
    return CompactSampleSet(pts, generator=f"grid2d([{lo},{hi}], {per_axis})")


# --- trefoil knot and knotted ribbon --------------------------------------


def trefoil(theta):
    """Trefoil curve (sin t + 2 sin 2t, cos t - 2 cos 2t, -sin 3t)."""
    t = np.asarray(theta, dtype=float)
    out = np.stack([
        np.sin(t) + 2.0 * np.sin(2.0 * t),
        np.cos(t) - 2.0 * np.cos(2.0 * t),
        -np.sin(3.0 * t),
    ], axis=-1)
    return out


def _trefoil_d1(t):
    return np.stack([
        np.cos(t) + 4.0 * np.cos(2.0 * t),
        -np.sin(t) + 4.0 * np.sin(2.0 * t),
        -3.0 * np.cos(3.0 * t),
    ], axis=-1)


def _trefoil_d2(t):
    return np.stack([
        -np.sin(t) - 8.0 * np.sin(2.0 * t),
        -np.cos(t) + 8.0 * np.cos(2.0 * t),
        9.0 * np.sin(3.0 * t),
    ], axis=-1)


def trefoil_tangent(theta) -> np.ndarray:
    t = np.asarray(theta, dtype=float)
    d1 = _trefoil_d1(t)
    return d1 / np.linalg.norm(d1, axis=-1, keepdims=True)


def trefoil_normal(theta) -> np.ndarray:
    """Unit normal to the trefoil, continuous in theta.

    Frenet construction: the second derivative with its tangential component
    removed, normalized.  Where the curvature vector nearly vanishes, a fixed
    reference vector projected off the tangent is used instead.
    """
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    tang = trefoil_tangent(t)
    d2 = _trefoil_d2(t)
    raw = d2 - np.sum(d2 * tang, axis=-1, keepdims=True) * tang
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    flat = (norms[..., 0] < _CURVATURE_FLOOR)
    if np.any(flat):
        ref = np.array([0.0, 0.0, 1.0])
        alt = ref[None, :] - np.sum(ref * tang[flat], axis=-1, keepdims=True) * tang[flat]
        raw[flat] = alt
        norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    out = raw / norms
    if np.isscalar(theta) or np.asarray(theta).ndim == 0:
        return out[0]
    return out


def knotted_ribbon(r, theta, a: float = DEFAULT_RIBBON_HALF_WIDTH) -> np.ndarray:
    """Knotted ribbon point f(theta) + a (r - 1) v(theta).

    r must lie in the annulus band [1/2, 3/2]; v is the trefoil's unit normal.
    """
    if a <= 0:
        raise InvalidArgumentError("half-width scale a must be positive")
    rr = np.asarray(r, dtype=float)
    tt = np.asarray(theta, dtype=float)
    if np.any(rr < RIBBON_R_MIN - 1e-12) or np.any(rr > RIBBON_R_MAX + 1e-12):
        raise InvalidArgumentError(
            f"radial coordinate must lie in [{RIBBON_R_MIN}, {RIBBON_R_MAX}]")
    core = trefoil(tt)
    normal = trefoil_normal(tt)
    return core + a * (rr[..., None] - 1.0) * normal


# --- targets ---------------------------------------------------------------


def circle_target(radius: float = 1.0) -> ManifoldTarget:
    def f(params):
        th = params[:, 0]
        return radius * np.column_stack([np.cos(th), np.sin(th)])
    return ManifoldTarget("circle", 1, 2, f, domain="interval[0, 2pi)")


def trefoil_target(scale: float = 1.0) -> ManifoldTarget:
    def f(params):
        return scale * trefoil(params[:, 0])
    return ManifoldTarget("trefoil", 1, 3, f, domain="interval[0, 2pi)")


def planar_circle_target(radius: float = 1.0, tilt: float = 0.0,
                         center=(0.0, 0.0, 0.0)) -> ManifoldTarget:
    """A round circle embedded in R^3, optionally tilted out of the xy plane.

    The unknotted control target for the obstruction experiment.
    """
    c = np.asarray(center, dtype=float)

    def f(params):
        th = params[:, 0]
        x = radius * np.cos(th)
        y = radius * np.sin(th)
        z = np.zeros_like(th)
        pts = np.column_stack([x, y * np.cos(tilt) - z * np.sin(tilt),
                               y * np.sin(tilt) + z * np.cos(tilt)])
        return pts + c[None, :]
    return ManifoldTarget("planar-circle", 1, 3, f, domain="interval[0, 2pi)")


def arc_target(radius: float = 0.5, pitch: float = 0.25,
               sweep: float = 0.75 * np.pi) -> ManifoldTarget:
    """A helical arc of diameter about one: the layerwise-toy target curve."""
    def f(params):
        t = params[:, 0]
        return np.column_stack([
            radius * np.cos(sweep * t),
            radius * np.sin(sweep * t),
            pitch * t,
        ])
    return ManifoldTarget("helical-arc", 1, 3, f, domain="interval[-1, 1]")


def pushforward_samples(target: ManifoldTarget,
                        base: CompactSampleSet) -> EmpiricalMeasure:
    """Uniform-weight measure on the image of the base samples under f."""
    if base.dim != target.intrinsic_dim:
        raise InvalidArgumentError(
            f"base dimension {base.dim} does not match target "
            f"intrinsic dimension {target.intrinsic_dim}")
    return EmpiricalMeasure.uniform(target.map_points(base.points))
