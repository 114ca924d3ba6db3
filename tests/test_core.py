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
    map_argmax,
    nearest_pixel,
    spatialize,
)
from scanpath.data_io import Checkpoint, PreparedExample
from scanpath.errors import BoundsError, ParameterError
from scanpath.metrics import MetricConfig
from scanpath.model import ModelConfig


def direct_gaussian(px, py, grid, sigma):
    """Independent scalar-loop evaluation of the discretized Gaussian."""
    total = 0.0
    raw = np.zeros((grid.height, grid.width))
    for y in range(grid.height):
        for x in range(grid.width):
            raw[y, x] = math.exp(-((x - px) ** 2 + (y - py) ** 2) / (2 * sigma * sigma))
            total += raw[y, x]
    return raw / total


def test_gaussian_center_symmetry():
    grid = GridSpec(9, 9)
    m = gaussian_map(GazePoint(4, 4), grid, sigma=1.0)
    p = map_argmax(m)
    assert (p.x, p.y) == (4, 4)
    assert np.allclose(m.values, np.rot90(m.values))
    assert np.allclose(m.values, np.rot90(m.values, 2))


def test_gaussian_corner_normalization():
    m = gaussian_map(GazePoint(0, 0), GridSpec(9, 9), sigma=1.0)
    p = map_argmax(m)
    assert (p.x, p.y) == (0, 0)
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
        m.validate()
        assert m.values.min() >= EPS


def test_gaussian_errors():
    grid = GridSpec(8, 8)
    with pytest.raises(BoundsError):
        gaussian_map(GazePoint(8.0, 1.0), grid, 1.0)
    with pytest.raises(BoundsError):
        gaussian_map(GazePoint(1.0, -0.5), grid, 1.0)
    with pytest.raises(ParameterError):
        gaussian_map(GazePoint(1.0, 1.0), grid, 0.0)


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
    assert out.n == 1

    s2 = Scanpath((GazePoint(3, 4, 0), GazePoint(3, 4, 1)), "img", "obs")
    out2 = spatialize(s2, grid, 1.0)
    assert np.array_equal(out2.maps[0].values, out2.maps[1].values)


def test_spatialized_log_values_computed_once():
    grid = GridSpec(6, 4)
    out = spatialize(Scanpath((GazePoint(1, 1, 0), GazePoint(4.5, 2, 1)), "img", "obs"), grid, 1.5)
    logs = out.log_values
    assert logs.shape == (2, 24) and not logs.flags.writeable
    assert logs.tobytes() == np.log(np.stack([m.values.reshape(-1) for m in out.maps])).tobytes()
    assert out.log_values is logs


def test_spatialize_argmax_recovers_rounded_points():
    grid = GridSpec(32, 32)
    rng = np.random.default_rng(3)
    pts = tuple(
        GazePoint(rng.uniform(0, 31.99), rng.uniform(0, 31.99), i) for i in range(8)
    )
    s = Scanpath(pts, "img", "obs")
    out = spatialize(s, grid, sigma=2.0)
    assert out.n == 8
    for p, m in zip(pts, out.maps):
        q = map_argmax(m)
        assert q.x == nearest_pixel(p.x, 32)
        assert q.y == nearest_pixel(p.y, 32)


def test_map_argmax_delta_and_uniform():
    grid = GridSpec(4, 4)
    v = np.full((4, 4), EPS)
    v[2, 1] = 1.0 - 15 * EPS
    assert (map_argmax(ProbMap(v, grid)).x, map_argmax(ProbMap(v, grid)).y) == (1, 2)

    u = np.full((4, 4), 1.0 / 16)
    p = map_argmax(ProbMap(u, grid))
    assert (p.x, p.y) == (0, 0)


def test_map_argmax_gaussian():
    m = gaussian_map(GazePoint(5, 7), GridSpec(12, 12), 1.5)
    p = map_argmax(m)
    assert (p.x, p.y) == (5, 7)


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
    if kind == "SpatializedScanpath":
        return spatialize(path, grid, 1.0)
    if kind == "PreparedExample":
        return PreparedExample("img", (path,), (spatialize(path, grid, 1.0),), np.zeros((4, 4)))
    return Checkpoint(tensors={"w": np.arange(3.0)}, hyper={"step": "1"})


@pytest.mark.parametrize("kind", ["ProbMap", "SpatializedScanpath", "PreparedExample", "Checkpoint"])
def test_array_holders_compare_and_hash_by_identity(kind):
    # generated __eq__ would compare numpy arrays and raise on their ambiguous truth value
    a, b = _array_holder(kind), _array_holder(kind)
    assert a == a and a != b
    assert hash(a) == hash(a) and isinstance(hash(b), int)
