import math

import numpy as np
import pytest

from scanpath.core import GazePoint, GridSpec, Scanpath
from scanpath.errors import DataError, ParameterError
from scanpath.losses import soft_dtw
from scanpath.metrics import (
    METRIC_ORDER,
    MetricConfig,
    _run_marks,
    all_metrics,
    curve_metrics,
    direction,
    evaluate_set,
    hard_dtw,
    human_baseline,
    levenshtein,
    random_baseline,
    recurrence_metrics,
    series_metrics,
    string_metrics,
)


def path(coords, image_id="img", observer_id="o"):
    return Scanpath(tuple(GazePoint(x, y, i) for i, (x, y) in enumerate(coords)), image_id, observer_id)


CFG = MetricConfig(image_width=80, image_height=50)


def brute_frechet(pa, pb):
    """Recursive coupled-walk definition, memoized."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def c(i, j):
        d = math.dist(pa[i], pb[j])
        if i == 0 and j == 0:
            return d
        opts = []
        if i > 0:
            opts.append(c(i - 1, j))
        if j > 0:
            opts.append(c(i, j - 1))
        if i > 0 and j > 0:
            opts.append(c(i - 1, j - 1))
        return max(min(opts), d)

    return c(len(pa) - 1, len(pb) - 1)


# ---------------------------------------------------------------------------
# string metrics


def test_string_metrics_identity():
    a = path([(5, 5), (25, 15), (75, 45)])
    lev, scam = string_metrics(a, a, CFG)
    assert lev == 0
    assert scam == pytest.approx(1.0)


def test_levenshtein_one_substitution():
    # "AB" vs "AC" on the bin alphabet
    a = path([(5, 5), (15, 5)])
    b = path([(5, 5), (25, 5)])
    lev, _ = string_metrics(a, b, CFG)
    assert lev == 1
    assert levenshtein("AB", "AC") == 1
    assert levenshtein("kitten", "sitting") == 3


def test_scam_zero_for_maximally_far_bins():
    # bins (0,0) and (7,4) are the two extreme corners of the 8x5 bin grid
    a = path([(5, 5)] * 4)
    b = path([(75, 45)] * 4)
    _, scam = string_metrics(a, b, CFG)
    assert abs(scam) < 1e-9


def test_levenshtein_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    paths = [
        path([(rng.uniform(0, 80), rng.uniform(0, 50)) for _ in range(rng.integers(2, 7))])
        for _ in range(30)
    ]
    for _ in range(200):
        i, j, k = rng.integers(0, len(paths), 3)
        dij, _ = string_metrics(paths[i], paths[j], CFG)
        dji, _ = string_metrics(paths[j], paths[i], CFG)
        dik, _ = string_metrics(paths[i], paths[k], CFG)
        dkj, _ = string_metrics(paths[k], paths[j], CFG)
        assert dij == dji
        assert dij <= dik + dkj


# ---------------------------------------------------------------------------
# curve metrics


def test_curve_metrics_identity():
    a = path([(0, 0), (3, 4), (10, 10)])
    assert curve_metrics(a, a) == (0.0, 0.0)


def test_curve_metrics_hand_triangle():
    a = path([(0, 0)])
    b = path([(3, 4)])
    hau, fre = curve_metrics(a, b)
    assert hau == pytest.approx(5.0)
    assert fre == pytest.approx(5.0)


def test_curve_metrics_brute_force_couplings():
    a = path([(0, 0)])
    b = path([(0, 0), (0, 3)])
    hau, fre = curve_metrics(a, b)
    assert hau == pytest.approx(3.0)
    assert fre == pytest.approx(3.0)
    assert fre == pytest.approx(brute_frechet(((0, 0),), ((0, 0), (0, 3))))


def test_curve_metrics_symmetry_and_frechet_oracle():
    rng = np.random.default_rng(1)
    for _ in range(15):
        a = path([(rng.uniform(0, 80), rng.uniform(0, 50)) for _ in range(rng.integers(1, 6))])
        b = path([(rng.uniform(0, 80), rng.uniform(0, 50)) for _ in range(rng.integers(1, 6))])
        hau_ab, fre_ab = curve_metrics(a, b)
        hau_ba, fre_ba = curve_metrics(b, a)
        assert hau_ab == pytest.approx(hau_ba)
        assert fre_ab == pytest.approx(fre_ba)
        assert fre_ab == pytest.approx(brute_frechet(tuple(map(tuple, a.coords())), tuple(map(tuple, b.coords()))))
        # FRE is bounded below by the worse endpoint pairing
        end = max(
            math.dist(a.coords()[0], b.coords()[0]),
            math.dist(a.coords()[-1], b.coords()[-1]),
        )
        assert fre_ab >= end - 1e-12


# ---------------------------------------------------------------------------
# series metrics


def test_series_metrics_identity():
    a = path([(0, 0), (5, 5), (9, 1)])
    fdtw, tde = series_metrics(a, a, MetricConfig(image_width=80, image_height=50, tde_k=2))
    assert fdtw == pytest.approx(0.0)
    assert tde == pytest.approx(0.0)


def test_hard_dtw_hand_matrix():
    assert hard_dtw(np.array([[1.0, 2.0], [3.0, 1.0]])) == pytest.approx(2.0)
    for bad in ([[math.nan, 1.0]], [[math.inf]], [[1.0], [-math.inf]]):
        with pytest.raises(ParameterError):
            hard_dtw(bad)


def test_fdtw_matches_exhaustive_alignments():
    from test_losses import enumerate_path_costs

    rng = np.random.default_rng(2)
    for _ in range(10):
        pa = rng.uniform(0, 50, (rng.integers(1, 6), 2))
        pb = rng.uniform(0, 50, (rng.integers(1, 6), 2))
        d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2))
        a = path([tuple(p) for p in pa])
        b = path([tuple(p) for p in pb])
        fdtw, _ = series_metrics(a, b, CFG)
        assert fdtw == pytest.approx(min(enumerate_path_costs(d)))


def test_fdtw_consistent_with_soft_dtw_low_gamma():
    rng = np.random.default_rng(3)
    pa = rng.uniform(0, 50, (5, 2))
    pb = rng.uniform(0, 50, (6, 2))
    d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2))
    fdtw, _ = series_metrics(path([tuple(p) for p in pa]), path([tuple(p) for p in pb]), CFG)
    assert abs(fdtw - soft_dtw(d, gamma=1e-8)) < 1e-3


def test_tde_hand_value_and_undefined_marker():
    cfg = MetricConfig(image_width=80, image_height=50, tde_k=1)
    _, tde = series_metrics(path([(0, 0)]), path([(6, 8)]), cfg)
    assert tde == pytest.approx(10.0)

    cfg3 = MetricConfig(image_width=80, image_height=50, tde_k=3)
    _, tde3 = series_metrics(path([(0, 0), (1, 1)]), path([(6, 8), (0, 0), (1, 2)]), cfg3)
    assert tde3 is None


# ---------------------------------------------------------------------------
# recurrence metrics


def test_recurrence_identity_large_radius():
    # all-ones recurrence matrix: full recurrence and full laminarity; the two
    # anti-corner cells sit on length-1 diagonals, which the line rule excludes
    a = path([(0, 0), (10, 0), (20, 10)])
    cfg = MetricConfig(image_width=80, image_height=50, recurrence_radius=1000.0)
    rec, det, lam, corm = recurrence_metrics(a, a, cfg)
    assert rec == pytest.approx(100.0)
    assert det == pytest.approx(100.0 * (9 - 2) / 9)
    assert lam == pytest.approx(100.0)
    assert corm == pytest.approx(0.0)


def test_recurrence_identity_small_radius():
    # well-separated fixations: the recurrence matrix is the identity, a single
    # full-length diagonal line
    a = path([(0, 0), (30, 0), (60, 40)])
    cfg = MetricConfig(image_width=80, image_height=50, recurrence_radius=1.0)
    rec, det, lam, corm = recurrence_metrics(a, a, cfg)
    assert rec == pytest.approx(100.0 / 3)
    assert det == pytest.approx(100.0)
    assert lam == pytest.approx(0.0)
    assert corm == pytest.approx(0.0)


def test_recurrence_no_pairs_in_radius():
    a = path([(0, 0), (1, 0)])
    b = path([(70, 45), (75, 40)])
    cfg = MetricConfig(image_width=80, image_height=50, recurrence_radius=2.0)
    assert recurrence_metrics(a, b, cfg) == (0.0, 0.0, 0.0, 0.0)


def test_recurrence_identity_matrix_hand_values():
    # R == I(3): REC = 100*3/9, DET = 100 (one length-3 diagonal), LAM = 0, CORM = 0
    a = path([(0, 0), (30, 0), (60, 40)])
    b = path([(0.5, 0), (30.5, 0), (60.5, 40)])
    cfg = MetricConfig(image_width=80, image_height=50, recurrence_radius=1.0)
    rec, det, lam, corm = recurrence_metrics(a, b, cfg)
    assert rec == pytest.approx(100.0 / 3)
    assert det == pytest.approx(100.0)
    assert lam == pytest.approx(0.0)
    assert corm == pytest.approx(0.0)


def test_recurrence_asymmetric_case():
    # hand-built R: a revisits b_0 twice -> one vertical run, no diagonal run
    a = path([(0, 0), (0.5, 0), (40, 20)])
    b = path([(0, 0), (70, 45)])
    cfg = MetricConfig(image_width=80, image_height=50, recurrence_radius=1.0)
    rec, det, lam, corm = recurrence_metrics(a, b, cfg)
    # R = [[1,0],[1,0],[0,0]] -> C=2
    assert rec == pytest.approx(100.0 * 2 / 6)
    assert det == pytest.approx(0.0)
    assert lam == pytest.approx(100.0)
    assert corm == pytest.approx(100.0 * (0 - 0 + 0 - 1) / (1 * 2))


def mark_runs(line, min_len):
    """Per-line oracle: positions on a run of ones of length >= min_len."""
    marks = np.zeros(len(line), dtype=bool)
    start = None
    for idx, v in enumerate(line):
        if v and start is None:
            start = idx
        if (not v or idx == len(line) - 1) and start is not None:
            end = idx + 1 if v else idx
            if end - start >= min_len:
                marks[start:end] = True
            start = None
    return marks


def oracle_line_marks(R, min_line):
    """Diagonal and horizontal-or-vertical run marks, one line at a time."""
    n, m = R.shape
    diag = np.zeros_like(R)
    for off in range(-(n - 1), m):
        idx = np.arange(max(0, -off), min(n, m - off))
        diag[idx, idx + off] = mark_runs(R[idx, idx + off], min_line)
    hv = np.zeros_like(R)
    for i in range(n):
        hv[i] |= mark_runs(R[i], min_line)
    for j in range(m):
        hv[:, j] |= mark_runs(R[:, j], min_line)
    return diag, hv


def test_run_marks_match_per_line_oracle():
    rng = np.random.default_rng(12)
    for _ in range(400):
        n, m = rng.integers(1, 10, 2)
        min_line = int(rng.integers(2, 6))
        R = rng.random((n, m)) < rng.uniform(0.2, 0.9)
        diag, hv = oracle_line_marks(R, min_line)
        assert np.array_equal(_run_marks(R, 1, 1, min_line), diag)
        assert np.array_equal(_run_marks(R, 0, 1, min_line) | _run_marks(R, 1, 0, min_line), hv)


def test_det_lam_match_per_line_oracle():
    rng = np.random.default_rng(13)
    for _ in range(100):
        # integer coordinates on a small lattice make long recurrent runs likely
        a = path(rng.integers(0, 4, (rng.integers(1, 10), 2)).tolist())
        b = path(rng.integers(0, 4, (rng.integers(1, 10), 2)).tolist())
        cfg = MetricConfig(image_width=80, image_height=50, recurrence_radius=1.5,
                           min_line=int(rng.integers(2, 6)))
        R = np.sqrt(((a.coords()[:, None] - b.coords()[None]) ** 2).sum(axis=2)) <= 1.5
        if not R.any():
            continue
        diag, hv = oracle_line_marks(R, cfg.min_line)
        _, det, lam, _ = recurrence_metrics(a, b, cfg)
        assert det == 100.0 * diag.sum() / R.sum()
        assert lam == 100.0 * hv.sum() / R.sum()


# ---------------------------------------------------------------------------
# aggregation and baselines


def test_evaluate_set_identity_singleton():
    a = path([(5, 5), (25, 15), (75, 45)])
    report = evaluate_set([a], [a], CFG)
    assert report.means["LEV"] == 0
    assert report.means["SCAM"] == pytest.approx(1.0)
    assert report.means["HAU"] == 0
    assert report.means["fDTW"] == 0


def test_evaluate_set_duplicate_truth_mean_invariant():
    rng = np.random.default_rng(4)
    preds = [path([(rng.uniform(0, 80), rng.uniform(0, 50)) for _ in range(4)], observer_id=f"p{i}") for i in range(2)]
    gts = [path([(rng.uniform(0, 80), rng.uniform(0, 50)) for _ in range(4)], observer_id=f"g{i}") for i in range(2)]
    r1 = evaluate_set(preds, gts, CFG)
    r2 = evaluate_set(preds, gts + gts, CFG)
    for metric in METRIC_ORDER:
        assert r1.means[metric] == pytest.approx(r2.means[metric])
        assert r1.stds[metric] == pytest.approx(r2.stds[metric])


def test_evaluate_set_image_mismatch():
    a = path([(1, 1)], image_id="x")
    b = path([(1, 1)], image_id="y")
    with pytest.raises(DataError):
        evaluate_set([a], [b], CFG)


def test_directions_match_suite():
    assert [direction(m) for m in METRIC_ORDER] == [
        "lower", "higher", "lower", "lower", "lower", "lower",
        "higher", "higher", "higher", "higher",
    ]


def test_random_baseline_bounds_and_reproducibility():
    grid = GridSpec(64, 48)
    a = random_baseline(grid, 8, 5, np.random.default_rng(9))
    b = random_baseline(grid, 8, 5, np.random.default_rng(9))
    assert len(a) == 5
    for s in a:
        assert s.n == 8
        for p in s.points:
            assert 0 <= p.x < 64 and 0 <= p.y < 48
    assert all(np.array_equal(x.coords(), y.coords()) for x, y in zip(a, b))


def test_random_baseline_mean_near_center():
    grid = GridSpec(64, 48)
    paths = random_baseline(grid, 10, 1000, np.random.default_rng(10))
    pts = np.concatenate([s.coords() for s in paths])
    # mean of uniform[0, w) is w/2; allow 3 standard errors
    se_x = (64 / math.sqrt(12)) / math.sqrt(len(pts))
    se_y = (48 / math.sqrt(12)) / math.sqrt(len(pts))
    assert abs(pts[:, 0].mean() - 32) < 3 * se_x
    assert abs(pts[:, 1].mean() - 24) < 3 * se_y


def test_human_baseline_identical_observers():
    a = path([(5, 5), (25, 15)], observer_id="a")
    b = path([(5, 5), (25, 15)], observer_id="b")
    report = human_baseline([a, b], CFG)
    assert report.means["LEV"] == 0
    assert report.means["SCAM"] == pytest.approx(1.0)


def test_human_baseline_disjoint_paths_no_recurrence():
    cfg = MetricConfig(image_width=80, image_height=50, recurrence_radius=2.0)
    a = path([(1, 1), (2, 2)], observer_id="a")
    b = path([(70, 45), (75, 48)], observer_id="b")
    report = human_baseline([a, b], cfg)
    assert report.means["REC"] == 0


def test_human_baseline_single_path_image_warns():
    a = path([(1, 1), (2, 2)], image_id="solo", observer_id="a")
    b1 = path([(5, 5), (6, 6)], image_id="pair", observer_id="b1")
    b2 = path([(7, 7), (8, 8)], image_id="pair", observer_id="b2")
    with pytest.warns(UserWarning):
        report = human_baseline([a, b1, b2], CFG)
    assert report.n_pairs["LEV"] == 2
    with pytest.raises(DataError), pytest.warns(UserWarning):
        human_baseline([a], CFG)


# ---------------------------------------------------------------------------
# scaling equivariance


def test_coordinate_scaling_property():
    rng = np.random.default_rng(11)
    lam = 2.5
    a = path([(rng.uniform(0, 80), rng.uniform(0, 50)) for _ in range(6)])
    b = path([(rng.uniform(0, 80), rng.uniform(0, 50)) for _ in range(5)])
    a2 = path([(p.x * lam, p.y * lam) for p in a.points])
    b2 = path([(p.x * lam, p.y * lam) for p in b.points])

    cfg1 = MetricConfig(image_width=80, image_height=50, recurrence_radius=8.0)
    cfg2 = MetricConfig(image_width=80 * lam, image_height=50 * lam, recurrence_radius=8.0 * lam)
    m1 = all_metrics(a, b, cfg1)
    m2 = all_metrics(a2, b2, cfg2)
    for metric in ("HAU", "FRE", "fDTW", "TDE"):
        assert m2[metric] == pytest.approx(lam * m1[metric])
    for metric in ("LEV", "SCAM", "REC", "DET", "LAM", "CORM"):
        assert m2[metric] == pytest.approx(m1[metric])


def test_empty_scanpath_is_rejected_by_constructor():
    with pytest.raises(ParameterError):
        path([])
