"""Scanpath similarity metrics and baseline reports.

Ten metrics over four families: string alignment (LEV, SCAM), curve similarity
(HAU, FRE), time-series analysis (fDTW, TDE) and cross-recurrence analysis
(REC, DET, LAM, CORM). All operate on raw pixel coordinates in the dataset's
native image space so magnitudes stay comparable across datasets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import GazePoint, GridSpec, Scanpath, align, group_by_image, inf_border
from .data_io import write_atomic
from .errors import DataError, ParameterError

METRIC_ORDER = ("LEV", "SCAM", "HAU", "FRE", "fDTW", "TDE", "REC", "DET", "LAM", "CORM")
LOWER_BETTER = {"LEV", "HAU", "FRE", "fDTW", "TDE"}


def direction(metric: str) -> str:
    return "lower" if metric in LOWER_BETTER else "higher"


@dataclass(frozen=True)
class MetricConfig:
    """Binning, recurrence and embedding parameters of the metric suite.

    image_width/image_height define the coordinate space; at 0, the default,
    they are inferred from the scanpaths being compared. recurrence_radius at
    0 is a tenth of the image diagonal. The three must be finite and >= 0.
    """

    bin_cols: int = 8
    bin_rows: int = 5
    recurrence_radius: float = 0.0
    min_line: int = 2
    tde_k: int = 3
    image_width: float = 0.0
    image_height: float = 0.0

    def __post_init__(self):
        if self.bin_cols < 1 or self.bin_rows < 1:
            raise ParameterError("bin grid must be at least 1x1")
        if self.min_line < 2:
            raise ParameterError("minimum line length must be >= 2")
        if self.tde_k < 1:
            raise ParameterError("delay-embedding dimension must be >= 1")
        for name in ("recurrence_radius", "image_width", "image_height"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ParameterError(f"{name} must be finite and nonnegative (0: inferred), got {value}")

    def resolved(self, *path_groups) -> "MetricConfig":
        """Fill in image dimensions and radius left at 0 from the data."""
        w, h = self.image_width, self.image_height
        if not (w and h):
            tops = [s.coords().max(axis=0) for group in path_groups for s in group]
            max_x, max_y = np.max(tops + [(0.0, 0.0)], axis=0)
            w = w or math.floor(max_x) + 1.0
            h = h or math.floor(max_y) + 1.0
        rho = self.recurrence_radius or math.hypot(w, h) / 10.0
        return replace(self, image_width=w, image_height=h, recurrence_radius=rho)


@dataclass(frozen=True)
class MetricReport:
    """Mean and standard deviation per metric over all evaluated pairs."""

    means: dict
    stds: dict
    n_pairs: dict

    def row(self, metric: str) -> tuple[str, float, float, str]:
        return metric, self.means[metric], self.stds[metric], direction(metric)

    def rows(self):
        return [self.row(m) for m in METRIC_ORDER]


def write_report_csv(report: MetricReport, path) -> None:
    """Fixed-order CSV: metric,mean,std,direction — one row per metric."""
    lines = ["metric,mean,std,direction"]
    for name, mean, std, direc in report.rows():
        lines.append(f"{name},{mean:.6f},{std:.6f},{direc}")
    write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])


def _coords(s: Scanpath) -> np.ndarray:
    """(N, 2) coordinates of a scanpath; the metrics need them finite and nonnegative."""
    c = s.coords()
    if not np.all((c >= 0) & (c < np.inf)):
        raise ParameterError(f"scanpath {s.observer_id!r} of {s.image_id!r}: coordinates must be finite, >= 0")
    return c


def _distances(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Euclidean distance between every row of pa and every row of pb, over pb's leading stack axes."""
    return np.sqrt(((pa[..., :, None, :] - pb[..., None, :, :]) ** 2).sum(axis=-1))


def _edit_step(up, left, diag, mismatch):
    return np.minimum(np.minimum(up + 1, left + 1), diag + mismatch)


def _dtw_step(up, left, diag, d):
    return d + np.minimum(np.minimum(up, left), diag)


def _bins(xy: np.ndarray, cfg: MetricConfig) -> np.ndarray:
    """Bin r * bin_cols + c of every point; points at or past the far edge fall in the last bin."""
    grid = np.array([cfg.bin_cols, cfg.bin_rows])
    col_row = np.minimum(xy * grid / np.array([cfg.image_width, cfg.image_height]), grid - 1).astype(np.intp)
    return col_row[..., 1] * cfg.bin_cols + col_row[..., 0]


@lru_cache(maxsize=16)
def _scam_scores(cols: int, rows: int, width: float, height: float) -> np.ndarray:
    """SCAM substitution score (d_max - d) / d_max of every pair of bins, d between their centers."""
    centers = [((c + 0.5) * width / cols, (r + 0.5) * height / rows) for r in range(rows) for c in range(cols)]
    d_max = math.dist(centers[0], centers[-1])
    out = np.array([[(d_max - math.dist(p, q)) / d_max for q in centers] for p in centers])
    out.flags.writeable = False
    return out


def _run_marks(R: np.ndarray, di: int, dj: int, min_line: int) -> np.ndarray:
    """Cells of R[..., n, m] on a run of at least min_line ones along the step (di, dj).

    A run starts wherever min_line shifted copies of R are all one; every cell
    of such a window is on the run.
    """
    n, m = R.shape[-2:]
    h, w = max(n - (min_line - 1) * di, 0), max(m - (min_line - 1) * dj, 0)
    windows = [(..., slice(t * di, t * di + h), slice(t * dj, t * dj + w)) for t in range(min_line)]
    starts = np.logical_and.reduce([R[win] for win in windows])
    marks = np.zeros_like(R)
    for win in windows:
        marks[win] |= starts
    return marks


def _scores(a: np.ndarray, partners: list[np.ndarray], cfg: MetricConfig) -> tuple:
    """The ten metrics of each of Q pairs (a[q], partners[q]), as [Q] arrays in METRIC_ORDER.

    a stacks Q first paths of one length n as [Q, n, 2]. The partners are
    zero-padded to the longest one and their distances set to inf there. A
    table that core.align fills over all pairs is read at each pair's own
    corner (n, m_q), which the padded columns to its right never reach.
    TDE is nan where undefined.
    """
    n, m = a.shape[1], np.array([len(b) for b in partners])
    valid = np.arange(m.max()) < m[:, None]
    b = np.zeros(valid.shape + (2,))
    b[valid] = np.concatenate(partners)
    d = np.where(valid[:, None, :], _distances(a, b), np.inf)
    ends = (np.arange(len(partners)), n, m)

    bins_a, bins_b = _bins(a, cfg)[:, :, None], _bins(b, cfg)[:, None, :]
    lev = align((bins_a != bins_b).astype(np.float64), _edit_step, lambda k: k)[ends]
    sub = _scam_scores(cfg.bin_cols, cfg.bin_rows, cfg.image_width, cfg.image_height)[bins_a, bins_b]
    nw = align(sub, lambda up, left, diag, s: np.maximum(np.maximum(diag + s, up), left), np.zeros_like)

    hau = np.maximum(d.min(axis=2).max(axis=1), np.where(valid, d.min(axis=1), -np.inf).max(axis=1))
    fre = align(d, lambda up, left, diag, c: np.maximum(np.minimum(np.minimum(up, left), diag), c), inf_border)

    k, tde = cfg.tde_k, np.full(len(partners), np.nan)
    if n >= k and b.shape[1] >= k:
        # delay embedding: window j holds points j to j + k - 1, flattened
        wa, wb = (np.concatenate([xy[..., t:xy.shape[-2] - k + 1 + t, :] for t in range(k)], axis=-1)
                  for xy in (a, b))
        own = np.arange(wb.shape[1]) <= (m - k)[:, None]
        tde_d = np.where(own[:, None, :], _distances(wa, wb), np.inf)
        tde = np.where(m >= k, tde_d.min(axis=2).mean(axis=1), np.nan)

    R = d <= cfg.recurrence_radius
    C = R.sum(axis=(1, 2))
    shown = np.maximum(C, 1)  # a pair with no recurrent point scores 0 on all four
    det = _run_marks(R, 1, 1, cfg.min_line).sum(axis=(1, 2))
    lam = (_run_marks(R, 0, 1, cfg.min_line) | _run_marks(R, 1, 0, cfg.min_line)).sum(axis=(1, 2))
    corm = 100.0 * ((np.arange(R.shape[2]) - np.arange(n)[:, None]) * R).sum(axis=(1, 2))
    corm = np.where(m == 1, 0.0, corm / (np.maximum(m - 1, 1) * shown))
    return (lev, nw[ends] / np.maximum(n, m), hau, fre[ends], align(d, _dtw_step, inf_border)[ends], tde,
            100.0 * C / (n * m), 100.0 * det / shown, 100.0 * lam / shown, corm)


def all_metrics(a: Scanpath, b: Scanpath, cfg: MetricConfig) -> dict:
    """The ten metrics of one pair, by name; TDE is None where undefined."""
    scores = _scores(_coords(a)[None], [_coords(b)], cfg.resolved([a], [b]))
    return {k: None if np.isnan(v[0]) else float(v[0]) for k, v in zip(METRIC_ORDER, scores)}


def string_metrics(a: Scanpath, b: Scanpath, cfg: MetricConfig) -> tuple[float, float]:
    """LEV: edit distance between bin strings. SCAM: normalized alignment score.

    SCAM runs Needleman-Wunsch with gap penalty 0 and substitution score
    (d_max - d) / d_max, where d is the Euclidean distance between bin
    centers and d_max the distance between the two extreme corner bins.
    """
    m = all_metrics(a, b, cfg)
    return m["LEV"], m["SCAM"]


def curve_metrics(a: Scanpath, b: Scanpath) -> tuple[float, float]:
    """HAU: symmetric Hausdorff distance. FRE: discrete Frechet distance."""
    m = all_metrics(a, b, MetricConfig())
    return m["HAU"], m["FRE"]


def series_metrics(a: Scanpath, b: Scanpath, cfg: MetricConfig) -> tuple[float, float | None]:
    """fDTW: hard DTW over Euclidean fixation distances. TDE: delay-embedding distance.

    TDE is None (undefined, excluded from aggregation) when either path is
    shorter than the embedding length k.
    """
    m = all_metrics(a, b, cfg)
    return m["fDTW"], m["TDE"]


def recurrence_metrics(a: Scanpath, b: Scanpath, cfg: MetricConfig):
    """Cross-recurrence statistics: REC, DET, LAM and CORM (percentages).

    R[i, j] = 1 when fixations a_i and b_j fall within the recurrence radius.
    DET counts recurrent points on diagonal runs of length >= min_line, LAM
    those on horizontal or vertical runs, CORM locates the recurrence mass
    relative to the main diagonal.
    """
    m = all_metrics(a, b, cfg)
    return m["REC"], m["DET"], m["LAM"], m["CORM"]


def _report(pairs, cfg: MetricConfig) -> MetricReport:
    """Mean and standard deviation of every metric over the (image_id, a, b) pairs, in their order.

    The pairs of one image whose first paths share a length are scored in one
    _scores call, and each pair's scores go back to its place in the order.
    Undefined values are left out.
    """
    groups = {}
    for q, (image_id, a, _) in enumerate(pairs):
        groups.setdefault((image_id, len(a)), []).append(q)
    scores = np.empty((len(METRIC_ORDER), len(pairs)))
    for qs in groups.values():
        scores[:, qs] = _scores(np.stack([pairs[q][1] for q in qs]), [pairs[q][2] for q in qs], cfg)
    vals = {metric: v[~np.isnan(v)] for metric, v in zip(METRIC_ORDER, scores)}
    nan = float("nan")
    return MetricReport(means={m: float(v.mean()) if len(v) else nan for m, v in vals.items()},
                        stds={m: float(v.std()) if len(v) else nan for m, v in vals.items()},
                        n_pairs={m: len(v) for m, v in vals.items()})


def evaluate_set(predicted, ground_truth, cfg: MetricConfig) -> MetricReport:
    """Score every predicted scanpath against every ground truth of its image."""
    predicted, ground_truth = list(predicted), list(ground_truth)
    if not predicted or not ground_truth:
        raise ParameterError("evaluate_set needs nonempty scanpath lists")
    truth = {image_id: [_coords(g) for g in paths] for image_id, paths in group_by_image(ground_truth).items()}
    pairs = []
    for p in predicted:
        if p.image_id not in truth:
            raise DataError(f"no ground truth for image '{p.image_id}'")
        a = _coords(p)
        pairs += [(p.image_id, a, b) for b in truth[p.image_id]]
    return _report(pairs, cfg.resolved(predicted, ground_truth))


def human_baseline(ground_truth, cfg: MetricConfig) -> MetricReport:
    """Leave-one-out agreement between real observers, image by image."""
    ground_truth = list(ground_truth)
    if not ground_truth:
        raise ParameterError("human_baseline needs scanpaths")
    pairs = []
    for image_id, paths in group_by_image(ground_truth).items():
        xy = [_coords(s) for s in paths]
        if len(paths) < 2:
            warnings.warn(f"image '{image_id}' has a single scanpath; excluded from human baseline")
            continue
        pairs += [(image_id, a, b) for i, a in enumerate(xy) for b in xy[:i] + xy[i + 1:]]
    if not pairs:
        raise DataError("no image has two or more scanpaths")
    return _report(pairs, cfg.resolved(ground_truth))


def random_baseline(grid: GridSpec, n_points: int, count: int, rng: np.random.Generator,
                    image_id: str = "random") -> list[Scanpath]:
    """Uniform i.i.d. in-bounds scanpaths of fixed length."""
    if count < 1:
        raise ParameterError("count must be >= 1")
    out = []
    for c in range(count):
        pts = tuple(
            GazePoint(float(rng.uniform(0, grid.width)), float(rng.uniform(0, grid.height)), i)
            for i in range(n_points)
        )
        out.append(Scanpath(pts, image_id=image_id, observer_id=f"random{c}"))
    return out
