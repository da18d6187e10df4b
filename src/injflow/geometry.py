"""Target curves, the circle sampler and point CSV I/O.

Supplies the embedded target curves (trefoil knot, planar circle, helical
arc) as parametrized maps, the unit-circle latent sampler and the point CSV
reader and writer used by the CLI.  Everything here is deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import write_csv
from .errors import InvalidArgumentError


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
    """A parametrized target: injective map from a compact domain into R^m;
    domain is the (lo, hi) interval of every parameter coordinate."""

    name: str
    intrinsic_dim: int
    ambient_dim: int
    param_map: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float]

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


def sample_circle(count: int) -> np.ndarray:
    """(count, 2) points on the unit circle at count equispaced angles,
    starting at angle 0."""
    if count < 1:
        raise InvalidArgumentError("count must be >= 1")
    theta = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(theta), np.sin(theta)])


# --- targets ---------------------------------------------------------------


def trefoil(theta):
    """Trefoil curve (sin t + 2 sin 2t, cos t - 2 cos 2t, -sin 3t)."""
    t = np.asarray(theta, dtype=float)
    out = np.stack([
        np.sin(t) + 2.0 * np.sin(2.0 * t),
        np.cos(t) - 2.0 * np.cos(2.0 * t),
        -np.sin(3.0 * t),
    ], axis=-1)
    return out


def trefoil_target() -> ManifoldTarget:
    """The trefoil knot: the knotted treatment target of the obstruction
    experiment."""
    def f(params):
        return trefoil(params[:, 0])
    return ManifoldTarget("trefoil", 1, 3, f, domain=(0.0, 2.0 * np.pi))


def planar_circle_target() -> ManifoldTarget:
    """A round circle of radius 2 in R^3, tilted by 0.35 rad out of the xy
    plane and centred at (0.1, 0, 0.1): the unknotted control target of
    the obstruction experiment."""
    tilt = 0.35

    def f(params):
        th = params[:, 0]
        y = 2.0 * np.sin(th)
        pts = np.column_stack([2.0 * np.cos(th), y * np.cos(tilt), y * np.sin(tilt)])
        return pts + np.array([0.1, 0.0, 0.1])
    return ManifoldTarget("planar-circle", 1, 3, f, domain=(0.0, 2.0 * np.pi))


def arc_target() -> ManifoldTarget:
    """A helical arc of diameter about one (radius 0.5, pitch 0.25, swept
    over 0.75 pi each way): the layerwise-toy target curve."""
    def f(params):
        t = params[:, 0]
        sweep = 0.75 * np.pi
        return np.column_stack([0.5 * np.cos(sweep * t), 0.5 * np.sin(sweep * t),
                                0.25 * t])
    return ManifoldTarget("helical-arc", 1, 3, f, domain=(-1.0, 1.0))
