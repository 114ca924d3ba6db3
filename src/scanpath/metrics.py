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

import numpy as np

from .core import GazePoint, GridSpec, Scanpath, group_by_image
from .errors import DataError, ParameterError

METRIC_ORDER = ("LEV", "SCAM", "HAU", "FRE", "fDTW", "TDE", "REC", "DET", "LAM", "CORM")
LOWER_BETTER = {"LEV", "HAU", "FRE", "fDTW", "TDE"}


def direction(metric: str) -> str:
    return "lower" if metric in LOWER_BETTER else "higher"


@dataclass(frozen=True)
class MetricConfig:
    """Binning, recurrence and embedding parameters of the metric suite.

    image_width/image_height define the coordinate space; when left at None
    they are inferred from the scanpaths being compared. recurrence_radius
    defaults to a tenth of the image diagonal.
    """

    bin_cols: int = 8
    bin_rows: int = 5
    recurrence_radius: float | None = None
    min_line: int = 2
    tde_k: int = 3
    image_width: float | None = None
    image_height: float | None = None

    def __post_init__(self):
        if self.bin_cols < 1 or self.bin_rows < 1:
            raise ParameterError("bin grid must be at least 1x1")
        if self.min_line < 2:
            raise ParameterError("minimum line length must be >= 2")
        if self.tde_k < 1:
            raise ParameterError("delay-embedding dimension must be >= 1")
        for name in ("recurrence_radius", "image_width", "image_height"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be positive and finite, got {value}")

    def resolved(self, *path_groups) -> "MetricConfig":
        """Fill in image dimensions and radius from the data when unset."""
        w, h = self.image_width, self.image_height
        if w is None or h is None:
            max_x = max_y = 0.0
            for group in path_groups:
                for s in group:
                    c = s.coords()
                    max_x = max(max_x, float(c[:, 0].max()))
                    max_y = max(max_y, float(c[:, 1].max()))
            w = w if w is not None else math.floor(max_x) + 1.0
            h = h if h is not None else math.floor(max_y) + 1.0
        rho = self.recurrence_radius
        if rho is None:
            rho = math.hypot(w, h) / 10.0
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _require_nonempty(*paths):
    for s in paths:
        if s.n == 0:
            raise ParameterError("metrics need nonempty scanpaths")


def _bin_sequence(s: Scanpath, cfg: MetricConfig) -> list[int]:
    w, h = cfg.image_width, cfg.image_height
    cols, rows = cfg.bin_cols, cfg.bin_rows
    out = []
    for p in s.points:
        c = min(int(p.x * cols / w), cols - 1)
        r = min(int(p.y * rows / h), rows - 1)
        out.append(r * cols + c)
    return out


def _bin_center(b: int, cfg: MetricConfig) -> tuple[float, float]:
    r, c = divmod(b, cfg.bin_cols)
    return (
        (c + 0.5) * cfg.image_width / cfg.bin_cols,
        (r + 0.5) * cfg.image_height / cfg.bin_rows,
    )


def levenshtein(a, b) -> int:
    """Classic edit distance between two symbol sequences."""
    n, m = len(a), len(b)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[m]


def string_metrics(a: Scanpath, b: Scanpath, cfg: MetricConfig) -> tuple[float, float]:
    """LEV: edit distance between bin strings. SCAM: normalized alignment score.

    SCAM runs Needleman-Wunsch with gap penalty 0 and substitution score
    (d_max - d) / d_max, where d is the Euclidean distance between bin
    centers and d_max the distance between the two extreme corner bins.
    """
    _require_nonempty(a, b)
    cfg = cfg.resolved([a], [b])
    sa, sb = _bin_sequence(a, cfg), _bin_sequence(b, cfg)
    lev = float(levenshtein(sa, sb))

    c0 = _bin_center(0, cfg)
    c1 = _bin_center(cfg.bin_rows * cfg.bin_cols - 1, cfg)
    d_max = math.dist(c0, c1)
    n, m = len(sa), len(sb)
    H = np.zeros((n + 1, m + 1))
    for i in range(1, n + 1):
        pa = _bin_center(sa[i - 1], cfg)
        for j in range(1, m + 1):
            sub = (d_max - math.dist(pa, _bin_center(sb[j - 1], cfg))) / d_max
            H[i, j] = max(H[i - 1, j - 1] + sub, H[i - 1, j], H[i, j - 1])
    scam = float(H[n, m]) / max(n, m)
    return lev, scam


def _distances(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Euclidean distance between every row of pa and every row of pb."""
    return np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2))


def curve_metrics(a: Scanpath, b: Scanpath) -> tuple[float, float]:
    """HAU: symmetric Hausdorff distance. FRE: discrete Frechet distance."""
    _require_nonempty(a, b)
    d = _distances(a.coords(), b.coords())
    hau = float(max(d.min(axis=1).max(), d.min(axis=0).max()))

    # an infinite border and a 0 corner: the first row and column take their
    # single predecessor and cell (0, 0) its own distance
    n, m = d.shape
    ca = np.full((n + 1, m + 1), np.inf)
    ca[0, 0] = 0.0
    for i in range(n):
        for j in range(m):
            ca[i + 1, j + 1] = max(min(ca[i, j + 1], ca[i, j], ca[i + 1, j]), d[i, j])
    return hau, float(ca[n, m])


def hard_dtw(delta: np.ndarray) -> float:
    """Dynamic time warping total cost over an explicit cost matrix."""
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 2 or delta.size == 0:
        raise ParameterError("hard_dtw needs a nonempty 2-D cost matrix")
    if not np.isfinite(delta).all():
        raise ParameterError("hard_dtw needs finite costs")
    n, m = delta.shape
    R = np.full((n + 1, m + 1), np.inf)
    R[0, 0] = 0.0
    for i in range(n):
        for j in range(m):
            R[i + 1, j + 1] = delta[i, j] + min(R[i, j + 1], R[i + 1, j], R[i, j])
    return float(R[n, m])


def series_metrics(a: Scanpath, b: Scanpath, cfg: MetricConfig) -> tuple[float, float | None]:
    """fDTW: hard DTW over Euclidean fixation distances. TDE: delay-embedding distance.

    TDE is None (undefined, excluded from aggregation) when either path is
    shorter than the embedding length k.
    """
    _require_nonempty(a, b)
    pa, pb = a.coords(), b.coords()
    fdtw = hard_dtw(_distances(pa, pb))

    k = cfg.tde_k
    if len(pa) < k or len(pb) < k:
        return fdtw, None
    wa = np.array([pa[i:i + k].reshape(-1) for i in range(len(pa) - k + 1)])
    wb = np.array([pb[j:j + k].reshape(-1) for j in range(len(pb) - k + 1)])
    tde = float(_distances(wa, wb).min(axis=1).mean())
    return fdtw, tde


def _run_marks(R: np.ndarray, di: int, dj: int, min_line: int) -> np.ndarray:
    """Cells of R on a run of at least min_line ones along the step (di, dj).

    A run starts wherever min_line shifted copies of R are all one; every cell
    of such a window is on the run.
    """
    n, m = R.shape
    h, w = max(n - (min_line - 1) * di, 0), max(m - (min_line - 1) * dj, 0)
    windows = [(slice(t * di, t * di + h), slice(t * dj, t * dj + w)) for t in range(min_line)]
    starts = np.logical_and.reduce([R[win] for win in windows])
    marks = np.zeros_like(R)
    for win in windows:
        marks[win] |= starts
    return marks


def recurrence_metrics(a: Scanpath, b: Scanpath, cfg: MetricConfig):
    """Cross-recurrence statistics: REC, DET, LAM and CORM (percentages).

    R[i, j] = 1 when fixations a_i and b_j fall within the recurrence radius.
    DET counts recurrent points on diagonal runs of length >= min_line, LAM
    those on horizontal or vertical runs, CORM locates the recurrence mass
    relative to the main diagonal.
    """
    _require_nonempty(a, b)
    cfg = cfg.resolved([a], [b])
    R = _distances(a.coords(), b.coords()) <= cfg.recurrence_radius
    n, m = R.shape
    C = int(R.sum())
    if C == 0:
        return 0.0, 0.0, 0.0, 0.0

    rec = 100.0 * C / (n * m)

    det = 100.0 * _run_marks(R, 1, 1, cfg.min_line).sum() / C
    hv_marks = _run_marks(R, 0, 1, cfg.min_line) | _run_marks(R, 1, 0, cfg.min_line)
    lam = 100.0 * hv_marks.sum() / C

    if m == 1:
        corm = 0.0
    else:
        jj, ii = np.meshgrid(np.arange(m), np.arange(n))
        corm = 100.0 * float(((jj - ii) * R).sum()) / ((m - 1) * C)
    return float(rec), float(det), float(lam), float(corm)


def all_metrics(a: Scanpath, b: Scanpath, cfg: MetricConfig) -> dict:
    lev, scam = string_metrics(a, b, cfg)
    hau, fre = curve_metrics(a, b)
    fdtw, tde = series_metrics(a, b, cfg)
    rec, det, lam, corm = recurrence_metrics(a, b, cfg)
    return {
        "LEV": lev, "SCAM": scam, "HAU": hau, "FRE": fre,
        "fDTW": fdtw, "TDE": tde, "REC": rec, "DET": det, "LAM": lam, "CORM": corm,
    }


def _report(pairs, cfg: MetricConfig) -> MetricReport:
    """Mean and standard deviation of every metric over the (a, b) pairs; undefined values are left out."""
    scores = [all_metrics(a, b, cfg) for a, b in pairs]
    means, stds, counts = {}, {}, {}
    for metric in METRIC_ORDER:
        vals = np.array([s[metric] for s in scores if s[metric] is not None], dtype=np.float64)
        counts[metric] = len(vals)
        means[metric] = float(vals.mean()) if len(vals) else float("nan")
        stds[metric] = float(vals.std()) if len(vals) else float("nan")
    return MetricReport(means=means, stds=stds, n_pairs=counts)


def evaluate_set(predicted, ground_truth, cfg: MetricConfig) -> MetricReport:
    """Score every predicted scanpath against every ground truth of its image."""
    predicted, ground_truth = list(predicted), list(ground_truth)
    if not predicted or not ground_truth:
        raise ParameterError("evaluate_set needs nonempty scanpath lists")
    cfg = cfg.resolved(predicted, ground_truth)
    by_image = group_by_image(ground_truth)
    for p in predicted:
        if p.image_id not in by_image:
            raise DataError(f"no ground truth for image '{p.image_id}'")
    return _report(((p, g) for p in predicted for g in by_image[p.image_id]), cfg)


def human_baseline(ground_truth, cfg: MetricConfig) -> MetricReport:
    """Leave-one-out agreement between real observers, image by image."""
    ground_truth = list(ground_truth)
    if not ground_truth:
        raise ParameterError("human_baseline needs scanpaths")
    cfg = cfg.resolved(ground_truth)
    pairs = []
    for image_id, paths in group_by_image(ground_truth).items():
        if len(paths) < 2:
            warnings.warn(f"image '{image_id}' has a single scanpath; excluded from human baseline")
            continue
        pairs += [(p, g) for i, p in enumerate(paths) for j, g in enumerate(paths) if i != j]
    if not pairs:
        raise DataError("no image has two or more scanpaths")
    return _report(pairs, cfg)


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
