"""Spatio-temporal training objective.

The per-pair cost is a KL divergence between a predicted map and a spatialized
ground-truth fixation, optionally penalized for sitting on the center prior;
soft dynamic time warping aligns the two sequences and the loss averages the
alignment cost over every ground-truth scanpath of the image.

One soft-DTW program, vectorised over a stack of cost matrices, serves both
`soft_dtw` and `kl_dtw_loss`; its gradient is the expected alignment propagated
back through the kept soft-min weights (Cuturi & Blondel 2017, Alg. 2), so the
loss is one autodiff node whatever the number and length of the sequences.

All operations accept either plain arrays (metric/evaluation use) or autodiff
tensors (training use) and return the matching kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import GridSpec, ProbMap, Scanpath, SpatializedScanpath, gaussian_map, GazePoint, spatialize
from .errors import ParameterError, ShapeError

# Guard for the 1/KL regularizer when a prediction coincides with the prior.
REG_KL_FLOOR = 1e-6


@dataclass(frozen=True)
class LossConfig:
    """Temperature, center-bias schedule coefficients and spatialization width."""

    gamma: float = 0.1
    lambda_base: float = 0.05
    lambda_slope: float = 0.05
    sigma: float = 2.0

    def __post_init__(self):
        _check_positive("gamma", self.gamma)
        _check_positive("sigma", self.sigma)
        if not all(math.isfinite(c) and c >= 0 for c in (self.lambda_base, self.lambda_slope)):
            raise ParameterError("schedule coefficients must be finite and nonnegative")


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class CenterPrior:
    """Gaussian map at the grid center used by the bias regularizer."""

    g_c: ProbMap

    @classmethod
    def for_grid(cls, grid: GridSpec, sigma: float) -> "CenterPrior":
        cx, cy = grid.center
        return cls(gaussian_map(GazePoint(cx, cy), grid, sigma))


def _values_of(p):
    """Raw array for ProbMap/ndarray inputs, pass tensors through."""
    if isinstance(p, Tensor):
        return p
    if isinstance(p, ProbMap):
        return p.values
    return np.asarray(p, dtype=np.float64)


def kl_div(p, q):
    """sum_j P(j) ln(P(j)/Q(j)); >= 0 and 0 iff P == Q.

    Either side may be an autodiff tensor, in which case the result is a
    scalar tensor differentiable in the tensor arguments.
    """
    pv, qv = _values_of(p), _values_of(q)
    pshape = pv.shape if not isinstance(pv, Tensor) else pv.data.shape
    qshape = qv.shape if not isinstance(qv, Tensor) else qv.data.shape
    if pshape != qshape:
        raise ShapeError(f"kl_div: shape {pshape} vs {qshape}")
    if isinstance(pv, Tensor) or isinstance(qv, Tensor):
        pt = pv if isinstance(pv, Tensor) else ad.constant(pv)
        qt = qv if isinstance(qv, Tensor) else ad.constant(qv)
        return ad.tsum(ad.hadamard(pt, ad.sub(ad.tlog(pt), ad.tlog(qt))))
    if np.any(pv <= 0) or np.any(qv <= 0):
        raise ParameterError("kl_div needs strictly positive entries")
    return float(np.sum(pv * (np.log(pv) - np.log(qv))))


def _soft_min_rows(a: np.ndarray, gamma: float):
    """Stabilised soft-min over the last axis, and its weights d out / d a."""
    m = a.min(axis=-1, keepdims=True)
    e = np.exp(-(a - m) / gamma)
    z = e.sum(axis=-1, keepdims=True)
    return (m - gamma * np.log(z))[..., 0], e / z


def _stack_scalars(values) -> Tensor:
    """One 1-D tensor from single-entry tensors and floats, differentiable in each."""
    parts = []
    for v in values:
        t = v if isinstance(v, Tensor) else ad.constant(v)
        if t.data.size != 1:
            raise ShapeError(f"expected a scalar entry, got shape {t.data.shape}")
        parts.append(ad.reshape(t, (1,)))
    return ad.concat0(parts)


def soft_min(values, gamma: float):
    """-gamma * ln sum(exp(-a_i / gamma)), <= min(values), -> min as gamma -> 0."""
    values = list(values)
    if not values:
        raise ParameterError("soft_min of an empty collection")
    _check_positive("gamma", gamma)
    if any(isinstance(v, Tensor) for v in values):
        x = _stack_scalars(values)
        shift = float(x.data.min())  # max of -x / gamma, held constant
        scaled = ad.scalar_mul(ad.sub(x, ad.constant(np.full(x.shape, shift))), -1.0 / gamma)
        return ad.add(ad.scalar_mul(ad.tlog(ad.tsum(ad.texp(scaled))), -gamma), ad.constant(shift))
    return float(_soft_min_rows(np.asarray(values, dtype=np.float64), gamma)[0])


def _soft_dtw_dp(D: np.ndarray, gamma: float):
    """Soft-DTW over a stack of cost matrices D[S, N, M], vectorised over S.

    Returns the alignment costs R[S] and the weights W[S, N + 1, M + 1, 3]
    that each cell's soft-min gives its (up, left, diagonal) predecessors;
    row N and column M of W are zero padding for the backward pass.
    """
    S, N, M = D.shape
    # an infinite border gets weight 0: the first row and column then add up
    # their single predecessor exactly, and cell (0, 0) starts from 0
    R = np.full((S, N + 1, M + 1), np.inf)
    R[:, 0, 0] = 0.0
    W = np.zeros((S, N + 1, M + 1, 3))
    for i in range(N):
        for j in range(M):
            prev = np.stack((R[:, i, j + 1], R[:, i + 1, j], R[:, i, j]), axis=-1)
            smin, W[:, i, j] = _soft_min_rows(prev, gamma)
            R[:, i + 1, j + 1] = D[:, i, j] + smin
    return R[:, N, M], W


def _soft_dtw_alignment(W: np.ndarray) -> np.ndarray:
    """Expected alignment E[S, N, M] = d R[S] / d D from the weights of _soft_dtw_dp."""
    S, N, M = W.shape[0], W.shape[1] - 1, W.shape[2] - 1
    E = np.zeros((S, N + 1, M + 1))
    E[:, N - 1, M - 1] = 1.0
    for i in reversed(range(N)):
        for j in reversed(range(M)):
            if i < N - 1 or j < M - 1:
                E[:, i, j] = (E[:, i + 1, j] * W[:, i + 1, j, 0] + E[:, i, j + 1] * W[:, i, j + 1, 1]
                              + E[:, i + 1, j + 1] * W[:, i + 1, j + 1, 2])
    return E[:, :N, :M]


def soft_dtw(delta, gamma: float):
    """Soft-DTW over a cost matrix via the soft-min dynamic program.

    Accepts an ndarray, a 2-D tensor or nested rows whose entries may be
    floats or scalar tensors; any tensor makes the result a scalar tensor
    differentiable in every entry.
    """
    _check_positive("gamma", gamma)
    if not isinstance(delta, (np.ndarray, Tensor)):
        rows = [list(r) for r in delta]
        if any(len(r) != len(rows[0]) for r in rows):
            raise ShapeError("soft_dtw cost matrix rows have unequal lengths")
        flat = [v for r in rows for v in r]
        if any(isinstance(v, Tensor) for v in flat):
            delta = ad.reshape(_stack_scalars(flat), (len(rows), len(rows[0])))
        else:
            delta = np.array(rows, dtype=np.float64)
    data = delta.data if isinstance(delta, Tensor) else np.asarray(delta, dtype=np.float64)
    if data.ndim != 2 or data.size == 0:
        raise ParameterError("soft_dtw needs a nonempty 2-D cost matrix")
    if not np.isfinite(data).all():
        raise ParameterError("soft_dtw cost entries must be finite")
    R, W = _soft_dtw_dp(data[None], gamma)
    if not isinstance(delta, Tensor):
        return float(R[0])
    return ad.node(R[0], (delta,), lambda g: (g * _soft_dtw_alignment(W)[0],))


def lambda_schedule(t: float, cfg: LossConfig) -> float:
    """Center-bias weight at time index t: base + slope * ln(t + 1)."""
    if t < 0:
        raise ParameterError(f"schedule index must be >= 0, got {t}")
    return cfg.lambda_base + cfg.lambda_slope * math.log(t + 1.0)


def pairwise_cost(r_i, g_j, lam: float, prior: CenterPrior):
    """KL(r_i || g_j) plus lam / KL(r_i || g_c), the denominator floored.

    The regularizer grows as the prediction approaches the center prior,
    discouraging predictions that park on the image center.
    """
    if lam < 0:
        raise ParameterError("lambda must be nonnegative")
    base = kl_div(r_i, g_j)
    if lam == 0:
        return base
    denom = kl_div(r_i, prior.g_c)
    if isinstance(base, Tensor) or isinstance(denom, Tensor):
        denom_t = denom if isinstance(denom, Tensor) else ad.constant(denom)
        reg = ad.recip(ad.clamp_min(denom_t, REG_KL_FLOOR))
        base_t = base if isinstance(base, Tensor) else ad.constant(base)
        return ad.add(base_t, ad.scalar_mul(reg, lam))
    return base + lam / max(denom, REG_KL_FLOOR)


def _spatialized(truth, grid: GridSpec, sigma: float) -> list[SpatializedScanpath]:
    out = []
    for s in truth:
        if isinstance(s, SpatializedScanpath):
            out.append(s)
        elif isinstance(s, Scanpath):
            out.append(spatialize(s, grid, sigma))
        else:
            raise ParameterError(f"unsupported ground-truth entry: {type(s)!r}")
    return out


def kl_dtw_loss(pred_maps, truth, cfg: LossConfig, grid: GridSpec | None = None):
    """Mean soft-DTW alignment cost of the prediction against every scanpath.

    pred_maps: predicted per-step maps (tensors during training); truth: the
    image's ground-truth scanpaths, raw or already spatialized. The center-bias
    weight for row i follows lambda_schedule(i), the fixation's time index.

    The cost matrices are assembled from shared per-prediction subterms
    (sum P log P and the center regularizer are independent of the ground
    truth), which is algebraically identical to calling pairwise_cost per pair.
    Scanpaths of equal length share one cost stack and one dynamic program.
    """
    pred_maps = [_values_of(p) for p in pred_maps]
    if not pred_maps:
        raise ParameterError("prediction sequence is empty")
    if not truth:
        raise ParameterError("ground-truth scanpath set is empty")
    arrays = [p.data if isinstance(p, Tensor) else p for p in pred_maps]
    shape = arrays[0].shape
    if grid is None:
        grid = GridSpec(width=shape[1], height=shape[0])
    spat = _spatialized(truth, grid, cfg.sigma)
    if any(a.shape != shape for a in arrays) or any(g.values.shape != shape for s in spat for g in s.maps):
        raise ShapeError(f"kl_dtw_loss: every predicted and ground-truth map must have shape {shape}")
    P = np.stack(arrays).reshape(len(arrays), -1)
    if np.any(P <= 0):
        raise ParameterError("predicted maps must be strictly positive")
    log_p = np.log(P)
    selfs = (P * log_p).sum(axis=1)
    lambdas = np.array([lambda_schedule(i, cfg) for i in range(len(arrays))])
    log_gc = np.log(CenterPrior.for_grid(grid, cfg.sigma).g_c.values).reshape(-1)
    kl_c = selfs - P @ log_gc
    floored = np.maximum(kl_c, REG_KL_FLOOR)
    reg = lambdas / floored  # exactly 0 where lambda is 0
    reg_slope = np.where(kl_c >= REG_KL_FLOOR, -reg / floored, 0.0)  # d reg / d kl_c
    by_length: dict[int, list] = {}
    for s in spat:
        by_length.setdefault(s.n, []).append(s.log_values)
    log_qs = [np.stack(group) for group in by_length.values()]  # [S_m, M, pixels]
    weights, total = [], 0.0
    for log_q in log_qs:
        D = selfs[None, :, None] - np.einsum("ik,sjk->sij", P, log_q, optimize=True) + reg[None, :, None]
        R, W = _soft_dtw_dp(D, cfg.gamma)
        weights.append(W)
        total += R.sum()
    value = total / len(spat)
    if not any(isinstance(p, Tensor) for p in pred_maps):
        return float(value)

    def vjp(g):
        scale = float(np.asarray(g).reshape(())) / len(spat)
        grad = np.zeros_like(P)
        row_weight = np.zeros(len(arrays))  # d loss / d (selfs[i] + reg[i])
        for log_q, W in zip(log_qs, weights):
            E = _soft_dtw_alignment(W) * scale
            row_weight += E.sum(axis=(0, 2))
            grad -= np.einsum("sij,sjk->ik", E, log_q, optimize=True)
        grad += row_weight[:, None] * (log_p + 1.0) + (row_weight * reg_slope)[:, None] * (log_p + 1.0 - log_gc)
        return tuple(row.reshape(shape) for row in grad)

    preds = [p if isinstance(p, Tensor) else ad.constant(p) for p in pred_maps]
    return ad.node(np.asarray(value), preds, vjp)
