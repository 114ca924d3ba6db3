import math

import numpy as np
import pytest

from scanpath.core import (
    EPS,
    GazePoint,
    GridSpec,
    ProbMap,
    Scanpath,
    gaussian_map,
    gaussian_maps,
    spatialize,
)
from scanpath.data_io import Checkpoint, PreparedExample
from scanpath.errors import BoundsError, ParameterError
from scanpath.metrics import MetricConfig
from scanpath.model import ModelConfig


def validate_probmap(m: ProbMap) -> None:
    """Raise ParameterError unless every entry is finite and >= EPS and the entries sum to 1."""
    if not np.isfinite(m.values).all():
        raise ParameterError("probability map contains non-finite entries")
    if m.values.min() < EPS:
        raise ParameterError("probability map entries must be >= EPS")
    if abs(float(m.values.sum()) - 1.0) > 1e-6:
        raise ParameterError(f"probability map sums to {m.values.sum()}, not 1")


def direct_gaussian(px, py, grid, sigma):
    """Independent scalar-loop evaluation of the discretized Gaussian."""
    total = 0.0
    raw = np.zeros((grid.height, grid.width))
    for y in range(grid.height):
        for x in range(grid.width):
            raw[y, x] = math.exp(-((x - px) ** 2 + (y - py) ** 2) / (2 * sigma * sigma))
            total += raw[y, x]
    return raw / total


def peak(values: np.ndarray) -> tuple[int, int]:
    """(x, y) of the largest entry; ties go to the smallest row, then column."""
    row, col = np.unravel_index(np.argmax(values), values.shape)
    return int(col), int(row)


def test_gaussian_center_symmetry():
    grid = GridSpec(9, 9)
    m = gaussian_map(GazePoint(4, 4), grid, sigma=1.0)
    assert peak(m.values) == (4, 4)
    assert np.allclose(m.values, np.rot90(m.values))
    assert np.allclose(m.values, np.rot90(m.values, 2))


def test_gaussian_corner_normalization():
    m = gaussian_map(GazePoint(0, 0), GridSpec(9, 9), sigma=1.0)
    assert peak(m.values) == (0, 0)
    assert abs(m.values.sum() - 1.0) <= 1e-6


def test_gaussian_matches_direct_reimplementation():
    grid = GridSpec(8, 8)
    m = gaussian_map(GazePoint(2, 3), grid, sigma=2.0)
    expected = direct_gaussian(2, 3, grid, 2.0)
    assert np.abs(m.values - expected).max() < 1e-9


def test_gaussian_validity_everywhere():
    grid = GridSpec(16, 12)
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = GazePoint(rng.uniform(0, grid.width - 1e-9), rng.uniform(0, grid.height - 1e-9))
        m = gaussian_map(p, grid, sigma=rng.uniform(0.3, 4.0))
        validate_probmap(m)
        assert m.values.min() >= EPS


def test_gaussian_errors():
    grid = GridSpec(8, 8)
    with pytest.raises(BoundsError):
        gaussian_map(GazePoint(8.0, 1.0), grid, 1.0)
    with pytest.raises(BoundsError):
        gaussian_map(GazePoint(1.0, -0.5), grid, 1.0)
    with pytest.raises(ParameterError):
        gaussian_map(GazePoint(1.0, 1.0), grid, 0.0)


def literal_gaussian_map(px, py, grid, sigma):
    """One point's map, pixel by pixel: exp, the EPS floor added, divided by the map's sum, the floor again."""
    raw = [[math.exp(-((x - px) ** 2 + (y - py) ** 2) / (2 * sigma * sigma)) + EPS for x in range(grid.width)]
           for y in range(grid.height)]
    total = math.fsum(v for row in raw for v in row)
    return np.array([[max(v / total, EPS) for v in row] for row in raw])


@pytest.mark.parametrize("width,height", [(7, 5), (17, 5), (3, 2), (1, 5), (10, 7), (33, 31)])
@pytest.mark.parametrize("sigma", [0.7, 1.0, 2.0, 4.5])
def test_gaussian_maps_match_a_per_point_oracle(width, height, sigma):
    grid = GridSpec(width, height)
    rng = np.random.default_rng(width * 100 + height)
    far = (width - 1e-9, height - 1e-9)
    xy = np.array([far, (0.0, 0.0), (width - 1e-9, 0.0), (0.0, height - 1e-9),
                   *zip(rng.uniform(0, width, 5), rng.uniform(0, height, 5))])
    maps = gaussian_maps(xy, grid, sigma)
    assert maps.shape == (len(xy), height, width)
    for (px, py), m in zip(xy, maps):
        np.testing.assert_allclose(m, literal_gaussian_map(px, py, grid, sigma), rtol=1e-13, atol=0)
        assert m.min() >= EPS and abs(m.sum() - 1.0) <= width * height * EPS  # what the floor adds back
        assert np.array_equal(m, gaussian_map(GazePoint(px, py), grid, sigma).values)
    path = Scanpath(tuple(GazePoint(px, py, i) for i, (px, py) in enumerate(xy)))
    assert np.array_equal(spatialize(path, grid, sigma), maps)


@pytest.mark.parametrize("x,y", [(7.0, 1.0), (1.0, 5.0), (-1e-9, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf)])
def test_gaussian_maps_reject_a_point_outside_the_grid(x, y):
    with pytest.raises(BoundsError, match="outside 7x5 grid"):
        gaussian_maps([(1.0, 1.0), (x, y), (2.0, 2.0)], GridSpec(7, 5), 1.0)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
def test_gaussian_maps_reject_a_bad_sigma(sigma):
    with pytest.raises(ParameterError, match="sigma"):
        gaussian_maps([(1.0, 1.0)], GridSpec(7, 5), sigma)


def test_gaussian_translation_equivariance():
    # interior shift: values move with the point, up to border-truncation noise
    grid = GridSpec(32, 32)
    sigma = 1.0
    a = gaussian_map(GazePoint(12, 14), grid, sigma)
    b = gaussian_map(GazePoint(15, 16), grid, sigma)
    # compare a window around each center (>= 4 sigma from every border)
    wa = a.values[14 - 4:14 + 5, 12 - 4:12 + 5]
    wb = b.values[16 - 4:16 + 5, 15 - 4:15 + 5]
    assert np.abs(wa - wb).max() / wa.max() < 1e-3


def nearest_pixel(v: float, limit: int) -> int:
    """Round a continuous coordinate to the nearest pixel index in [0, limit).

    Exact halves resolve to the smaller index so the result always agrees with
    peak's tie-break on the two equal-valued neighbours.
    """
    return int(min(max(math.ceil(v - 0.5), 0), limit - 1))


def test_nearest_pixel_half_down():
    assert nearest_pixel(2.5, 8) == 2
    assert nearest_pixel(3.5, 8) == 3
    assert nearest_pixel(3.49, 8) == 3
    assert nearest_pixel(3.51, 8) == 4
    assert nearest_pixel(7.9, 8) == 7
    assert nearest_pixel(-0.4, 8) == 0


def test_spatialize_basic():
    grid = GridSpec(8, 8)
    s1 = Scanpath((GazePoint(1, 1, 0),), "img", "obs")
    out = spatialize(s1, grid, 1.0)
    assert type(out) is np.ndarray and out.shape == (1, 8, 8)

    s2 = Scanpath((GazePoint(3, 4, 0), GazePoint(3, 4, 1)), "img", "obs")
    out2 = spatialize(s2, grid, 1.0)
    assert np.array_equal(out2[0], out2[1])


def test_spatialize_argmax_recovers_rounded_points():
    grid = GridSpec(32, 32)
    rng = np.random.default_rng(3)
    pts = tuple(
        GazePoint(rng.uniform(0, 31.99), rng.uniform(0, 31.99), i) for i in range(8)
    )
    s = Scanpath(pts, "img", "obs")
    out = spatialize(s, grid, sigma=2.0)
    assert out.shape == (8, 32, 32)
    for p, m in zip(pts, out):
        assert peak(m) == (nearest_pixel(p.x, 32), nearest_pixel(p.y, 32))


def test_gaussian_map_peaks_at_its_point():
    m = gaussian_map(GazePoint(5, 7), GridSpec(12, 12), 1.5)
    assert peak(m.values) == (5, 7)


def test_grid_and_scanpath_invariants():
    with pytest.raises(ParameterError):
        GridSpec(1, 2)
    with pytest.raises(ParameterError):
        GridSpec(0, 5)
    with pytest.raises(ParameterError):
        Scanpath((), "img", "obs")
    s = Scanpath((GazePoint(1, 2, 0), GazePoint(3, 4, 1)), "img", "obs")
    assert s.n == 2
    assert s.coords().shape == (2, 2)


@pytest.mark.parametrize("make", [
    lambda: ModelConfig(grid=GridSpec(8, 8), sigma=math.nan),
    lambda: ModelConfig(grid=GridSpec(8, 8), sigma=math.inf),
    lambda: ModelConfig(grid=GridSpec(8, 8), feature_channels=0),
    lambda: gaussian_map(GazePoint(1, 1), GridSpec(8, 8), math.inf),
    lambda: gaussian_map(GazePoint(1, 1), GridSpec(8, 8), math.nan),
    lambda: MetricConfig(recurrence_radius=math.nan),
    lambda: MetricConfig(recurrence_radius=math.inf),
    lambda: MetricConfig(image_width=math.nan),
    lambda: MetricConfig(image_width=-3),
], ids=["model_sigma_nan", "model_sigma_inf", "feature_channels_0", "gaussian_sigma_inf",
        "gaussian_sigma_nan", "radius_nan", "radius_inf", "image_width_nan", "image_width_neg"])
def test_rejects_nonfinite_and_out_of_range(make):
    with pytest.raises(ParameterError):
        make()


def _array_holder(kind):
    grid = GridSpec(4, 4)
    path = Scanpath((GazePoint(1, 1, 0), GazePoint(2, 3, 1)), "img", "o")
    if kind == "ProbMap":
        return gaussian_map(GazePoint(1, 2), grid, 1.0)
    if kind == "PreparedExample":
        return PreparedExample("img", (path,), grid, 1.0, np.zeros((4, 4)))
    return Checkpoint(tensors={"w": np.arange(3.0)}, hyper={"step": "1"})


@pytest.mark.parametrize("kind", ["ProbMap", "PreparedExample", "Checkpoint"])
def test_array_holders_compare_and_hash_by_identity(kind):
    # generated __eq__ would compare numpy arrays and raise on their ambiguous truth value
    a, b = _array_holder(kind), _array_holder(kind)
    assert a == a and a != b
    assert hash(a) == hash(a) and isinstance(hash(b), int)
