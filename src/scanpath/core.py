"""Domain vocabulary: grids, gaze points, scanpaths and per-pixel probability maps.

Coordinates follow image convention: x indexes columns, y indexes rows, and a
pixel (x, y) is the unit cell centered on integer coordinates. Gaze points may
be continuous; discretization only happens when a point is rendered into a map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ParameterError, ShapeError

# Smoothing floor applied to every probability map so that KL divergences
# stay finite for arbitrary map pairs.
EPS = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Pixel dimensions of the map domain."""

    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ParameterError(f"grid dimensions must be positive, got {self.width}x{self.height}")
        if self.width * self.height < 4:
            raise ParameterError("grid must contain at least 4 pixels")

    def contains(self, x: float, y: float) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.width - 1) / 2.0, (self.height - 1) / 2.0)


@dataclass(frozen=True)
class GazePoint:
    """One fixation: continuous pixel coordinates plus sequence position."""

    x: float
    y: float
    index: int = 0

    def __post_init__(self):
        if self.index < 0:
            raise ParameterError("fixation index must be nonnegative")


@dataclass(frozen=True)
class Scanpath:
    """Ordered fixation sequence of one observer on one image."""

    points: tuple[GazePoint, ...]
    image_id: str = ""
    observer_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) == 0:
            raise ParameterError("a scanpath needs at least one fixation")

    @property
    def n(self) -> int:
        return len(self.points)

    def coords(self) -> np.ndarray:
        """(N, 2) array of (x, y) rows."""
        return np.array([(p.x, p.y) for p in self.points], dtype=np.float64)


def group_by_image(scanpaths) -> dict[str, list[Scanpath]]:
    """Scanpaths per image_id: images in first-seen order, each image's paths in input order."""
    out: dict[str, list[Scanpath]] = {}
    for s in scanpaths:
        out.setdefault(s.image_id, []).append(s)
    return out


def smooth_and_normalize(raw: np.ndarray) -> np.ndarray:
    """Turn nonnegative per-pixel mass into a valid probability map.

    Adds the EPS floor before normalizing, then re-applies the floor so every
    entry is >= EPS exactly; the second pass perturbs the sum by at most
    n_pixels * EPS, well inside the 1e-6 validity tolerance.
    """
    v = np.asarray(raw, dtype=np.float64) + EPS
    v = v / v.sum()
    return np.maximum(v, EPS)


@dataclass(frozen=True, eq=False)
class ProbMap:
    """Per-pixel probability map over a grid; entries sum to 1, all >= EPS."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.height, self.grid.width):
            raise ShapeError(f"map shape {v.shape} does not match grid {self.grid.height}x{self.grid.width}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def gaussian_maps(xy, grid: GridSpec, sigma: float) -> np.ndarray:
    """[K, H, W] isotropic Gaussians centered on the K (x, y) rows of xy, discretized per pixel.

    Each map is EPS-smoothed and normalized on its own, by smooth_and_normalize's arithmetic: the EPS floor is
    added, the map is divided by its sum, and the floor is applied again. Its argmax pixel is the rounded point.
    Every step runs in place on the one [K, H, W] buffer: a second one costs as much as the rendering itself.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ParameterError(f"sigma must be positive and finite, got {sigma}")
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    inside = (xy >= 0) & (xy < (grid.width, grid.height))
    if not inside.all():
        bx, by = xy[np.argmin(inside.all(axis=1))]
        raise BoundsError(f"point ({bx}, {by}) outside {grid.width}x{grid.height} grid")
    xs = np.arange(grid.width, dtype=np.float64) - xy[:, :1]
    ys = np.arange(grid.height, dtype=np.float64) - xy[:, 1:]
    v = ys[:, :, None] ** 2 + xs[:, None, :] ** 2
    v /= -2.0 * sigma * sigma
    np.exp(v, out=v)
    v += EPS
    v /= v.sum(axis=(1, 2), keepdims=True)
    return np.maximum(v, EPS, out=v)


def gaussian_map(p: GazePoint, grid: GridSpec, sigma: float) -> ProbMap:
    """gaussian_maps' map for one point."""
    return ProbMap(gaussian_maps((p.x, p.y), grid, sigma)[0], grid)


def spatialize(s: Scanpath, grid: GridSpec, sigma: float) -> np.ndarray:
    """The scanpath's [N, H, W] map stack: one Gaussian map per fixation, in order."""
    return gaussian_maps(s.coords(), grid, sigma)


def align(cost: np.ndarray, step, border) -> np.ndarray:
    """Fill a stack of alignment tables T[P, n + 1, m + 1] over the costs cost[P, n, m, ...].

    border(k) gives row 0 and column 0 at the indices k; then each cell is
    T[:, i + 1, j + 1] = step(up, left, diag, c) of T at (i, j + 1), (i + 1, j)
    and (i, j), where c is cost[:, i, j] with the stack axis moved last. A cell
    depends only on cells above and to its left.
    """
    P, n, m = cost.shape[:3]
    T = np.empty((n + 1, m + 1, P))  # cell-major: each cell is one contiguous [P] vector
    T[0], T[:, 0] = border(np.arange(m + 1))[:, None], border(np.arange(n + 1))[:, None]
    for i, row in enumerate(np.moveaxis(cost, 0, -1)):
        up, left = T[i], T[i + 1, 0]
        for j, c in enumerate(row):
            T[i + 1, j + 1] = left = step(up[j + 1], left, up[j], c)
    return np.moveaxis(T, -1, 0)


def inf_border(k: np.ndarray) -> np.ndarray:
    """align's border for path costs: 0 at the corner and inf elsewhere, so every path starts at (0, 0)."""
    return np.where(k == 0, 0.0, np.inf)


def parse_value(raw: str, kind: str):
    """A config or checkpoint field's value from its text, by the field's type name.

    kind is one of "int", "float", "str" and "bool"; text the type does not
    accept raises ValueError.
    """
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected boolean, got '{raw}'")
    return {"int": int, "float": float, "str": str}[kind](raw)
