"""Domain vocabulary: grids, gaze points, scanpaths and per-pixel probability maps.

Coordinates follow image convention: x indexes columns, y indexes rows, and a
pixel (x, y) is the unit cell centered on integer coordinates. Gaze points may
be continuous; discretization only happens when a point is rendered into a map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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


def nearest_pixel(v: float, limit: int) -> int:
    """Round a continuous coordinate to the nearest pixel index in [0, limit).

    Exact halves resolve to the smaller index so the result always agrees with
    map_argmax's tie-break on the two equal-valued neighbours.
    """
    return int(min(max(math.ceil(v - 0.5), 0), limit - 1))


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

    def validate(self) -> None:
        if not np.isfinite(self.values).all():
            raise ParameterError("probability map contains non-finite entries")
        if self.values.min() < EPS:
            raise ParameterError("probability map entries must be >= EPS")
        if abs(float(self.values.sum()) - 1.0) > 1e-6:
            raise ParameterError(f"probability map sums to {self.values.sum()}, not 1")


@dataclass(frozen=True, eq=False)
class SpatializedScanpath:
    """A scanpath rendered as one Gaussian probability map per fixation."""

    maps: tuple[ProbMap, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if len(self.maps) == 0:
            raise ParameterError("spatialized scanpath cannot be empty")
        grid = self.maps[0].grid
        if any(m.grid != grid for m in self.maps):
            raise ShapeError("all maps of a spatialized scanpath must share one grid")

    @property
    def n(self) -> int:
        return len(self.maps)

    @property
    def grid(self) -> GridSpec:
        return self.maps[0].grid

    @cached_property
    def log_values(self) -> np.ndarray:
        """[n, pixels] natural log of every map, computed on first use and kept."""
        out = np.log(np.stack([m.values.reshape(-1) for m in self.maps]))
        out.flags.writeable = False
        return out


def gaussian_map(p: GazePoint, grid: GridSpec, sigma: float) -> ProbMap:
    """Isotropic Gaussian centered on the point, discretized per pixel.

    The returned map is EPS-smoothed and normalized; its argmax pixel is the
    rounded point.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ParameterError(f"sigma must be positive and finite, got {sigma}")
    if not grid.contains(p.x, p.y):
        raise BoundsError(f"point ({p.x}, {p.y}) outside {grid.width}x{grid.height} grid")
    xs = np.arange(grid.width, dtype=np.float64) - p.x
    ys = np.arange(grid.height, dtype=np.float64) - p.y
    sq = ys[:, None] ** 2 + xs[None, :] ** 2
    raw = np.exp(-sq / (2.0 * sigma * sigma))
    return ProbMap(smooth_and_normalize(raw), grid)


def spatialize(s: Scanpath, grid: GridSpec, sigma: float) -> SpatializedScanpath:
    """Render every fixation of the scanpath as a Gaussian map."""
    return SpatializedScanpath(tuple(gaussian_map(p, grid, sigma) for p in s.points))


def map_argmax(m: ProbMap) -> GazePoint:
    """Pixel of maximum probability; ties go to the smallest row, then column."""
    flat = int(np.argmax(m.values))
    row, col = divmod(flat, m.grid.width)
    return GazePoint(float(col), float(row))


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
