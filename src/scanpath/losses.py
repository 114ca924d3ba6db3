"""Spatio-temporal training objective.

The per-pair cost is a KL divergence between a predicted map and a spatialized
ground-truth fixation, optionally penalized for sitting on the center prior;
soft dynamic time warping aligns the two sequences and the loss averages the
alignment cost over every ground-truth scanpath of the image.

One soft-DTW program, vectorised over a stack of cost matrices, serves both
`soft_dtw` and `kl_dtw_loss`; its gradient is the expected alignment propagated
back through the kept soft-min weights (Cuturi & Blondel 2017, Alg. 2), so the
loss is one autodiff node whatever the number and length of the sequences.

Every loss computes once, on autodiff tensors. Plain arrays and floats
(metric/evaluation use) enter as constants; a call given no tensor returns the
result's float, and a call given any tensor the result tensor (training use).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import GazePoint, GridSpec, ProbMap, Scanpath, align, gaussian_map, gaussian_maps, inf_border
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


def _tensor(x) -> Tensor:
    """x itself when it is a tensor, else a constant of its values (a ProbMap's, an array's or a float's)."""
    if isinstance(x, Tensor):
        return x
    return ad.constant(x.values if isinstance(x, ProbMap) else x)


def _matching(result: Tensor, args):
    """result when any of args is a tensor, else its float."""
    return result if any(isinstance(a, Tensor) for a in args) else result.item()


def kl_div(p, q):
    """sum_j P(j) ln(P(j)/Q(j)); >= 0 and 0 iff P == Q.

    Either side may be an autodiff tensor, in which case the result is a
    scalar tensor differentiable in the tensor arguments.
    """
    pt, qt = _tensor(p), _tensor(q)
    if pt.shape != qt.shape:
        raise ShapeError(f"kl_div: shape {pt.shape} vs {qt.shape}")
    return _matching(ad.tsum(ad.hadamard(pt, ad.sub(ad.tlog(pt), ad.tlog(qt)))), (p, q))


def _soft_min_rows(a: np.ndarray, gamma: float) -> np.ndarray:
    """Stabilised soft-min over the last axis."""
    m = a.min(axis=-1, keepdims=True)
    return (m - gamma * np.log(np.exp(-(a - m) / gamma).sum(axis=-1, keepdims=True)))[..., 0]


def _stack_scalars(values) -> Tensor:
    """One 1-D tensor from single-entry tensors and floats, differentiable in each."""
    parts = []
    for v in values:
        t = _tensor(v)
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
    x = _stack_scalars(values)
    shift = float(x.data.min())  # max of -x / gamma, held constant
    scaled = ad.scalar_mul(ad.sub(x, ad.constant(np.full(x.shape, shift))), -1.0 / gamma)
    return _matching(ad.add(ad.scalar_mul(ad.tlog(ad.tsum(ad.texp(scaled))), -gamma), ad.constant(shift)), values)


def _soft_dtw_dp(D: np.ndarray, gamma: float):
    """Soft-DTW over a stack of cost matrices D[S, N, M], vectorised over S.

    Returns the alignment costs R[S] and the weights W[S, N + 1, M + 1, 3]
    that each cell's soft-min gives its (up, left, diagonal) predecessors;
    row N and column M of W are zero padding for the backward pass. The
    infinite border gets weight 0.
    """
    S, N, M = D.shape
    R = align(D, lambda up, left, diag, d: d + _soft_min_rows(np.stack((up, left, diag), axis=-1), gamma),
              inf_border)
    prev = np.stack((R[:, :-1, 1:], R[:, 1:, :-1], R[:, :-1, :-1]), axis=-1)  # every cell's predecessors
    e = np.exp(-(prev - prev.min(axis=-1, keepdims=True)) / gamma)
    W = np.zeros((S, N + 1, M + 1, 3))
    W[:, :N, :M] = e / e.sum(axis=-1, keepdims=True)
    return R[:, N, M], W


def _soft_dtw_alignment(W: np.ndarray) -> np.ndarray:
    """Expected alignment E[S, N, M] = d R[S] / d D from the weights of _soft_dtw_dp.

    A cell's E sums its (down, right, diagonal) successors' E, each times the weight its soft-min gives the
    cell: align's recurrence over the table flipped on both axes, with those weights as each cell's cost.
    """
    w = np.stack((W[:, 1:, :-1, 0], W[:, :-1, 1:, 1], W[:, 1:, 1:, 2]), axis=-1)
    w[:, -1, -1, 2] = 1.0  # the far corner's own diagonal step starts the recurrence from the border's 1
    E = align(w[:, ::-1, ::-1], lambda up, left, diag, c: up * c[0] + left * c[1] + diag * c[2],
              lambda k: np.where(k == 0, 1.0, 0.0))
    return E[:, :0:-1, :0:-1].copy()


def soft_dtw(delta, gamma: float):
    """Soft-DTW over a cost matrix via the soft-min dynamic program.

    Accepts an ndarray, a 2-D tensor or nested rows whose entries may be
    floats or scalar tensors; any tensor makes the result a scalar tensor
    differentiable in every entry.
    """
    _check_positive("gamma", gamma)
    args = [delta]
    if not isinstance(delta, (np.ndarray, Tensor)):
        rows = [list(r) for r in delta]
        if any(len(r) != len(rows[0]) for r in rows):
            raise ShapeError("soft_dtw cost matrix rows have unequal lengths")
        args = [v for r in rows for v in r]
        delta = ad.reshape(_stack_scalars(args), (len(rows), len(rows[0]))) if args else np.zeros((len(rows), 0))
    d = _tensor(delta)
    if d.data.ndim != 2 or d.data.size == 0:
        raise ParameterError("soft_dtw needs a nonempty 2-D cost matrix")
    if not np.isfinite(d.data).all():
        raise ParameterError("soft_dtw cost entries must be finite")
    R, W = _soft_dtw_dp(d.data[None], gamma)
    return _matching(ad.node(R[0], (d,), lambda g: (g * _soft_dtw_alignment(W)[0],)), args)


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
    if not (math.isfinite(lam) and lam >= 0):
        raise ParameterError(f"lambda must be finite and nonnegative, got {lam}")
    r = _tensor(r_i)
    cost = kl_div(r, g_j)
    if lam > 0:
        cost = ad.add(cost, ad.scalar_mul(ad.recip(ad.clamp_min(kl_div(r, prior.g_c), REG_KL_FLOOR)), lam))
    return _matching(cost, (r_i, g_j))


def _truth_stack(group, grid: GridSpec, sigma: float) -> np.ndarray:
    """A new [S, M, H, W] array of equal-length ground-truth entries, or its [S * M, H, W] when every entry is raw:
    raw scanpaths are rendered straight into it, map stacks copied as they are."""
    if all(isinstance(s, Scanpath) for s in group):
        return gaussian_maps(np.concatenate([s.coords() for s in group]), grid, sigma)
    return np.array([gaussian_maps(s.coords(), grid, sigma) if isinstance(s, Scanpath) else s for s in group],
                    dtype=np.float64)


def kl_dtw_loss(pred_maps, truth, cfg: LossConfig, grid: GridSpec):
    """Mean soft-DTW alignment cost of the prediction against every scanpath.

    pred_maps: predicted per-step maps (tensors during training); truth: the
    image's ground-truth scanpaths, each a raw Scanpath or its [N, H, W] map
    stack (what spatialize returns: positive and finite); grid: the grid of
    every predicted and ground-truth map, required. The center-bias weight for
    row i follows lambda_schedule(i), the fixation's time index.

    The cost matrices are assembled from shared per-prediction subterms
    (sum P log P and the center regularizer are independent of the ground
    truth), which is algebraically identical to calling pairwise_cost per pair.
    Scanpaths of equal length share one cost stack and one dynamic program.
    """
    pred_maps, truth = list(pred_maps), list(truth)
    preds = [_tensor(p) for p in pred_maps]
    if not preds:
        raise ParameterError("prediction sequence is empty")
    if not truth:
        raise ParameterError("ground-truth scanpath set is empty")
    arrays = [p.data for p in preds]
    shape = arrays[0].shape
    by_length: dict[int, list] = {}
    for s in truth:
        stack = isinstance(s, np.ndarray) and s.ndim == 3 and len(s) > 0
        if not (stack or isinstance(s, Scanpath)):
            raise ParameterError(f"unsupported ground-truth entry: {type(s)!r} (a Scanpath or an [N, H, W] map stack)")
        by_length.setdefault(len(s) if stack else s.n, []).append(s)
    if (any(a.shape != shape for a in arrays) or (grid.height, grid.width) != shape
            or any(s.shape[1:] != shape for s in truth if isinstance(s, np.ndarray))):
        raise ShapeError(f"kl_dtw_loss: every predicted and ground-truth map must have shape {shape}")
    if not all(np.all((s > 0) & (s < np.inf)) for s in truth if isinstance(s, np.ndarray)):
        raise ParameterError("ground-truth map stacks must be strictly positive and finite")
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
    log_qs = [_truth_stack(group, grid, cfg.sigma).reshape(len(group), n, -1)  # [S_m, M, pixels]
              for n, group in by_length.items()]
    weights, total = [], 0.0
    for log_q in log_qs:
        np.log(log_q, out=log_q)  # the truth maps' logs, taken per call: nothing keeps them between calls
        D = selfs[None, :, None] - np.einsum("ik,sjk->sij", P, log_q, optimize=True) + reg[None, :, None]
        R, W = _soft_dtw_dp(D, cfg.gamma)
        weights.append(W)
        total += R.sum()

    def vjp(g):
        scale = float(np.asarray(g).reshape(())) / len(truth)
        grad = np.zeros_like(P)
        row_weight = np.zeros(len(arrays))  # d loss / d (selfs[i] + reg[i])
        for log_q, W in zip(log_qs, weights):
            E = _soft_dtw_alignment(W) * scale
            row_weight += E.sum(axis=(0, 2))
            grad -= np.einsum("sij,sjk->ik", E, log_q, optimize=True)
        grad += row_weight[:, None] * (log_p + 1.0) + (row_weight * reg_slope)[:, None] * (log_p + 1.0 - log_gc)
        return tuple(row.reshape(shape) for row in grad)

    return _matching(ad.node(np.asarray(total / len(truth)), preds, vjp), pred_maps)
