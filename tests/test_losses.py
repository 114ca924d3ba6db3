import ast
import math
from pathlib import Path

import numpy as np
import pytest

from scanpath import autodiff as ad
from scanpath import losses
from scanpath.core import EPS, GazePoint, GridSpec, Scanpath, gaussian_map, smooth_and_normalize, spatialize
from scanpath.data_io import preprocess, synth_dataset
from scanpath.errors import ParameterError, ShapeError
from scanpath.losses import (
    CenterPrior,
    LossConfig,
    _soft_dtw_alignment,
    _soft_dtw_dp,
    kl_div,
    kl_dtw_loss,
    lambda_schedule,
    pairwise_cost,
    soft_dtw,
    soft_min,
)


def enumerate_path_costs(delta):
    """Total cost of every monotone alignment through the matrix (brute force)."""
    n, m = delta.shape
    costs = []

    def walk(i, j, acc):
        acc = acc + delta[i, j]
        if i == n - 1 and j == m - 1:
            costs.append(acc)
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return costs


def brute_soft_min(costs, gamma):
    a = np.asarray(costs)
    m = a.min()
    return float(m - gamma * np.log(np.exp(-(a - m) / gamma).sum()))


def cell_soft_min(values, gamma):
    """Soft-min of scalar tensors as one graph node with its own VJP."""
    a = np.array([v.item() for v in values])
    m = a.min()
    e = np.exp(-(a - m) / gamma)
    z = e.sum()
    w = e / z

    def vjp(g):
        gs = float(np.asarray(g).reshape(()))
        return tuple(np.asarray(gs * wi) for wi in w)

    return ad.node(np.asarray(m - gamma * math.log(z)), values, vjp)


def per_cell_kl_dtw_loss(preds, truth, cfg, grid):
    """Reference loss built as a graph of scalar tensors: one node per cost entry and DP cell.

    preds are map tensors; truth holds [N, H, W] map stacks of any lengths.
    """
    lambdas = [lambda_schedule(i, cfg) for i in range(len(preds))]
    use_reg = any(l > 0 for l in lambdas)
    log_gc = np.log(CenterPrior.for_grid(grid, cfg.sigma).g_c.values)
    selfs = [ad.tsum(ad.hadamard(p, ad.tlog(p))) for p in preds]
    reg_terms = []
    if use_reg:
        for i, p in enumerate(preds):
            kl_c = ad.sub(selfs[i], ad.tsum(ad.hadamard(p, ad.constant(log_gc))))
            reg_terms.append(ad.scalar_mul(ad.recip(ad.clamp_min(kl_c, 1e-6)), lambdas[i]))
    total = None
    for s in truth:
        log_qs = [ad.constant(np.log(g)) for g in s]
        rows = []
        for i, p in enumerate(preds):
            row = []
            for lq in log_qs:
                d = ad.sub(selfs[i], ad.tsum(ad.hadamard(p, lq)))
                row.append(ad.add(d, reg_terms[i]) if use_reg else d)
            rows.append(row)
        prev = None
        for i in range(len(rows)):
            cur = []
            for j, d in enumerate(rows[i]):
                if i == 0 and j == 0:
                    cur.append(d)
                elif i == 0:
                    cur.append(ad.add(d, cur[j - 1]))
                elif j == 0:
                    cur.append(ad.add(d, prev[0]))
                else:
                    cur.append(ad.add(d, cell_soft_min((prev[j], cur[j - 1], prev[j - 1]), cfg.gamma)))
            prev = cur
        total = prev[-1] if total is None else ad.add(total, prev[-1])
    return ad.scalar_mul(total, 1.0 / len(truth))


def per_cell_soft_dtw_dp(D, gamma):
    """Soft-DTW over a stack D[S, N, M] cell by cell, storing each cell's soft-min weights as it goes."""
    S, N, M = D.shape
    R = np.full((S, N + 1, M + 1), np.inf)
    R[:, 0, 0] = 0.0
    W = np.zeros((S, N + 1, M + 1, 3))
    for i in range(N):
        for j in range(M):
            prev = np.stack((R[:, i, j + 1], R[:, i + 1, j], R[:, i, j]), axis=-1)
            m = prev.min(axis=-1, keepdims=True)
            e = np.exp(-(prev - m) / gamma)
            z = e.sum(axis=-1, keepdims=True)
            W[:, i, j] = e / z
            R[:, i + 1, j + 1] = D[:, i, j] + (m - gamma * np.log(z))[..., 0]
    return R[:, N, M], W


def per_cell_soft_dtw_alignment(W):
    """Expected alignment from the far corner back, cell by cell: each cell sums its successors' weighted E."""
    S, N, M = W.shape[0], W.shape[1] - 1, W.shape[2] - 1
    E = np.zeros((S, N + 1, M + 1))
    E[:, N - 1, M - 1] = 1.0
    for i in reversed(range(N)):
        for j in reversed(range(M)):
            if i < N - 1 or j < M - 1:
                E[:, i, j] = (E[:, i + 1, j] * W[:, i + 1, j, 0] + E[:, i, j + 1] * W[:, i, j + 1, 1]
                              + E[:, i + 1, j + 1] * W[:, i + 1, j + 1, 2])
    return E[:, :N, :M]


def graph_ids(roots):
    """ids of every tensor reachable from roots through parent edges."""
    seen, stack = set(), list(roots)
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return seen


# ---------------------------------------------------------------------------
# kl_div


def test_kl_div_identity():
    m = gaussian_map(GazePoint(3, 4), GridSpec(8, 8), 1.5)
    assert abs(kl_div(m, m)) < 1e-9


def test_kl_div_hand_value():
    v = kl_div(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(v - expected) < 1e-12
    assert abs(v - 0.14384) < 1e-4


def test_kl_div_near_delta_exercises_smoothing():
    p = np.array([1.0 - EPS, EPS])
    q = np.array([0.5, 0.5])
    assert abs(kl_div(p, q) - math.log(2.0)) < 1e-9


def test_kl_div_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        p = smooth_and_normalize(rng.uniform(0, 1, (5, 5)))
        q = smooth_and_normalize(rng.uniform(0, 1, (5, 5)))
        assert kl_div(p, q) >= 0.0


def test_kl_div_tensor_path_matches_float_path():
    rng = np.random.default_rng(1)
    p = smooth_and_normalize(rng.uniform(0, 1, (4, 4)))
    q = smooth_and_normalize(rng.uniform(0, 1, (4, 4)))
    t = kl_div(ad.constant(p), ad.constant(q))
    assert abs(t.item() - kl_div(p, q)) < 1e-12


def test_kl_div_shape_mismatch():
    with pytest.raises(ShapeError):
        kl_div(np.ones(3) / 3, np.ones(4) / 4)


@pytest.mark.parametrize("p, q", [([0.0, 1.0], [0.5, 0.5]), ([0.5, 0.5], [0.0, 1.0])])
def test_kl_div_rejects_nonpositive_entries(p, q):
    p, q = np.array(p), np.array(q)
    for args in ((p, q), (ad.constant(p), ad.constant(q))):
        with pytest.raises(ParameterError):
            kl_div(*args)


# ---------------------------------------------------------------------------
# soft_min / soft_dtw


def test_soft_min_single_value():
    assert soft_min([2.75], gamma=1.0) == pytest.approx(2.75, abs=1e-12)


def test_soft_min_hand_value():
    got = soft_min([1.0, 2.0], gamma=1.0)
    expected = -math.log(math.exp(-1.0) + math.exp(-2.0))
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.6867) < 1e-3


def test_soft_min_gamma_to_zero():
    assert abs(soft_min([1.0, 2.0], gamma=1e-6) - 1.0) < 1e-5


def test_soft_min_below_true_min():
    rng = np.random.default_rng(2)
    for _ in range(20):
        vals = rng.uniform(-3, 3, size=rng.integers(1, 6)).tolist()
        assert soft_min(vals, gamma=0.5) <= min(vals) + 1e-12


def test_soft_min_errors():
    with pytest.raises(ParameterError):
        soft_min([], gamma=1.0)
    with pytest.raises(ParameterError):
        soft_min([1.0], gamma=0.0)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_soft_min_and_soft_dtw_reject_nonfinite_gamma(gamma):
    with pytest.raises(ParameterError):
        soft_min([1.0, 2.0], gamma)
    with pytest.raises(ParameterError):
        soft_min([ad.constant(1.0), ad.constant(2.0)], gamma)
    with pytest.raises(ParameterError):
        soft_dtw(np.ones((2, 2)), gamma)


def test_soft_min_tensor_path_matches_and_grad_checks():
    rng = np.random.default_rng(6)
    x = ad.parameter(rng.uniform(-1, 1, (4,)))

    def f(t):
        return soft_min([ad.tsum(ad.slice0(t, i, i + 1)) for i in range(4)], gamma=0.7)

    assert f(x).item() == pytest.approx(soft_min(x.data.tolist(), gamma=0.7), rel=1e-14)
    assert ad.grad_check(f, x) < 1e-6


def test_soft_dtw_single_cell():
    assert soft_dtw(np.array([[3.25]]), gamma=1.0) == pytest.approx(3.25)


def test_soft_dtw_small_matrix_hard_limit():
    delta = np.array([[1.0, 2.0], [3.0, 1.0]])
    assert sorted(enumerate_path_costs(delta)) == [2.0, 4.0, 5.0]
    assert abs(soft_dtw(delta, gamma=1e-6) - 2.0) < 1e-4


def test_soft_dtw_matches_path_enumeration():
    delta = np.array([[1.0, 2.0], [3.0, 1.0]])
    expected = brute_soft_min(enumerate_path_costs(delta), 1.0)
    assert abs(soft_dtw(delta, gamma=1.0) - expected) < 1e-9


def test_soft_dtw_random_matrices_vs_oracle():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n, m = rng.integers(1, 6, size=2)
        delta = rng.uniform(0, 2, (n, m))
        costs = enumerate_path_costs(delta)
        for gamma in (1.0, 0.1):
            assert abs(soft_dtw(delta, gamma) - brute_soft_min(costs, gamma)) < 1e-9
        assert abs(soft_dtw(delta, 1e-6) - min(costs)) < 1e-4


def test_soft_dtw_table_matches_per_cell_oracle():
    """The table filled by core.align and the weights recomputed from it equal the per-cell program's."""
    rng = np.random.default_rng(15)
    for _ in range(300):
        D = rng.uniform(0, 5, rng.integers(1, [6, 10, 10])) * rng.choice([1e-3, 1.0, 100.0])
        gamma = float(rng.choice([1e-3, 0.1, 1.0, 10.0]))
        R, W = _soft_dtw_dp(D, gamma)
        want_R, want_W = per_cell_soft_dtw_dp(D, gamma)
        assert np.array_equal(R, want_R)
        assert np.array_equal(W, want_W)


def test_soft_dtw_alignment_matches_per_cell_oracle():
    """The backward table filled by core.align over the flipped weights equals the per-cell loop exactly."""
    rng = np.random.default_rng(16)
    shapes = [(1, 1, 1), (4, 1, 1), (3, 1, 7), (5, 6, 1)] + [tuple(rng.integers(1, [16, 10, 10])) for _ in range(300)]
    for shape in shapes:
        D = rng.uniform(0, 5, shape) * rng.choice([1e-3, 1.0, 100.0])
        _, W = _soft_dtw_dp(D, float(rng.choice([1e-3, 0.1, 1.0])))
        assert np.array_equal(_soft_dtw_alignment(W), per_cell_soft_dtw_alignment(W)), shape


def test_soft_dtw_bound_and_monotone_convergence():
    rng = np.random.default_rng(4)
    for _ in range(10):
        delta = rng.uniform(0, 2, (5, 5))
        hard = min(enumerate_path_costs(delta))
        gaps = []
        for gamma in (1.0, 0.1, 0.01, 1e-4):
            soft = soft_dtw(delta, gamma)
            assert soft <= hard + 1e-12
            gaps.append(hard - soft)
        assert all(g >= -1e-12 for g in gaps)
        assert all(gaps[i] >= gaps[i + 1] - 1e-12 for i in range(len(gaps) - 1))
        assert gaps[-1] < 1e-2


def test_soft_dtw_monotone_in_entries():
    rng = np.random.default_rng(5)
    for _ in range(10):
        delta = rng.uniform(0, 2, (4, 4))
        base = soft_dtw(delta, gamma=0.3)
        bumped = delta.copy()
        i, j = rng.integers(0, 4, size=2)
        bumped[i, j] += rng.uniform(0.1, 1.0)
        assert soft_dtw(bumped, gamma=0.3) >= base - 1e-12


def test_soft_dtw_empty_matrix():
    with pytest.raises(ParameterError):
        soft_dtw(np.zeros((0, 0)), gamma=0.1)


def test_soft_dtw_gradient_vs_finite_differences():
    rng = np.random.default_rng(6)
    delta = rng.uniform(0.5, 2.0, (3, 4))
    x = ad.parameter(delta)

    def f(t):
        rows = [[ad.tsum(ad.slice0(ad.reshape(t, (12, 1)), i * 4 + j, i * 4 + j + 1)) for j in range(4)] for i in range(3)]
        return soft_dtw(rows, gamma=0.3)

    assert ad.grad_check(f, x, h=1e-4) < 1e-3
    # a matrix tensor goes through the same op without the per-entry stacking
    assert ad.grad_check(lambda t: soft_dtw(t, gamma=0.3), x, h=1e-4) < 1e-3
    assert soft_dtw(x, gamma=0.3).item() == f(x).item()


# ---------------------------------------------------------------------------
# schedule / pairwise cost / combined loss


def test_lambda_schedule_values():
    cfg = LossConfig(lambda_base=0.0, lambda_slope=1.0)
    assert lambda_schedule(0, cfg) == pytest.approx(0.0)
    assert lambda_schedule(math.e - 1.0, cfg) == pytest.approx(1.0, abs=1e-12)
    cfg2 = LossConfig(lambda_base=0.1, lambda_slope=0.05)
    assert lambda_schedule(7, cfg2) == pytest.approx(0.1 + 0.05 * math.log(8), abs=1e-12)
    assert abs(lambda_schedule(7, cfg2) - 0.2040) < 1e-3


def test_lambda_schedule_log_difference_identity():
    cfg = LossConfig(lambda_base=0.2, lambda_slope=0.07)
    for t1, t2 in [(0, 5), (3, 11), (10, 200)]:
        lhs = lambda_schedule(t2, cfg) - lambda_schedule(t1, cfg)
        rhs = cfg.lambda_slope * math.log((t2 + 1) / (t1 + 1))
        assert abs(lhs - rhs) < 1e-12
    with pytest.raises(ParameterError):
        lambda_schedule(-1, cfg)


def test_pairwise_cost_reduces_to_kl():
    grid = GridSpec(8, 8)
    prior = CenterPrior.for_grid(grid, 1.0)
    r = gaussian_map(GazePoint(1, 1), grid, 1.0)
    g = gaussian_map(GazePoint(5, 6), grid, 1.0)
    assert pairwise_cost(r, g, 0.0, prior) == kl_div(r, g)
    assert abs(pairwise_cost(r, r, 0.0, prior)) < 1e-12


def test_pairwise_cost_corner_regularizer():
    grid = GridSpec(8, 8)
    prior = CenterPrior.for_grid(grid, 1.0)
    corner = gaussian_map(GazePoint(0, 0), grid, 1.0)
    expected_reg = 0.1 / kl_div(corner, prior.g_c)
    got = pairwise_cost(corner, corner, 0.1, prior)
    assert abs(got - expected_reg) < 1e-12


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1e-3])
def test_pairwise_cost_rejects_a_lambda_that_is_not_finite_and_nonnegative(lam):
    grid = GridSpec(8, 8)
    prior = CenterPrior.for_grid(grid, 1.0)
    r = gaussian_map(GazePoint(1, 1), grid, 1.0)
    g = gaussian_map(GazePoint(5, 6), grid, 1.0)
    for args in ((r, g), (ad.constant(r.values), g)):
        with pytest.raises(ParameterError):
            pairwise_cost(*args, lam, prior)


def test_pairwise_cost_clamped_at_prior():
    grid = GridSpec(8, 8)
    prior = CenterPrior.for_grid(grid, 1.0)
    got = pairwise_cost(prior.g_c, prior.g_c, 0.5, prior)
    assert math.isfinite(got)
    assert got == pytest.approx(0.5 / 1e-6)


def test_kl_dtw_loss_zero_at_exact_match():
    grid = GridSpec(8, 8)
    cfg = LossConfig(gamma=1e-8, lambda_base=0.0, lambda_slope=0.0, sigma=1.0)
    s = Scanpath(tuple(GazePoint(i, i, i) for i in range(4)), "img", "o")
    pred = list(spatialize(s, grid, 1.0))
    assert abs(kl_dtw_loss(pred, [s], cfg, grid)) < 1e-6


def test_kl_dtw_loss_duplicate_truth_is_mean_invariant():
    grid = GridSpec(8, 8)
    cfg = LossConfig(gamma=0.1, sigma=1.0)
    rng = np.random.default_rng(7)
    pred = [smooth_and_normalize(rng.uniform(0, 1, (8, 8))) for _ in range(3)]
    s = Scanpath(tuple(GazePoint(*rng.uniform(0, 7.9, 2), i) for i in range(3)), "img", "o")
    single = kl_dtw_loss(pred, [s], cfg, grid)
    doubled = kl_dtw_loss(pred, [s, s], cfg, grid)
    assert abs(single - doubled) < 1e-12


def test_kl_dtw_loss_matches_hand_assembly():
    grid = GridSpec(4, 4)
    cfg = LossConfig(gamma=0.5, lambda_base=0.05, lambda_slope=0.05, sigma=1.0)
    rng = np.random.default_rng(8)
    pred = [smooth_and_normalize(rng.uniform(0, 1, (4, 4))) for _ in range(2)]
    paths = [
        Scanpath((GazePoint(0, 0, 0), GazePoint(3, 2, 1)), "img", "a"),
        Scanpath((GazePoint(1, 3, 0), GazePoint(2, 1, 1)), "img", "b"),
    ]
    prior = CenterPrior.for_grid(grid, cfg.sigma)
    expected_terms = []
    for s in paths:
        maps = spatialize(s, grid, cfg.sigma)
        delta = np.array(
            [
                [pairwise_cost(pred[i], maps[j], lambda_schedule(i, cfg), prior) for j in range(2)]
                for i in range(2)
            ]
        )
        expected_terms.append(brute_soft_min(enumerate_path_costs(delta), cfg.gamma))
    expected = float(np.mean(expected_terms))
    assert abs(kl_dtw_loss(pred, paths, cfg, grid) - expected) < 1e-9

    # tensor path agrees with the float path
    pred_t = [ad.constant(p) for p in pred]
    assert abs(kl_dtw_loss(pred_t, paths, cfg, grid).item() - expected) < 1e-9


def test_kl_dtw_loss_gradient_vs_finite_differences():
    grid = GridSpec(4, 4)
    cfg = LossConfig(gamma=0.3, lambda_base=0.05, lambda_slope=0.05, sigma=1.0)
    rng = np.random.default_rng(9)
    raw = [smooth_and_normalize(rng.uniform(0.2, 1.0, (4, 4))) for _ in range(3)]
    s = Scanpath(tuple(GazePoint(*rng.uniform(0, 3.9, 2), i) for i in range(3)), "img", "o")

    for which in range(3):
        x = ad.parameter(raw[which])

        def f(t):
            pred = [t if k == which else ad.constant(raw[k]) for k in range(3)]
            return kl_dtw_loss(pred, [s], cfg, grid)

        assert ad.grad_check(f, x, h=1e-4) < 1e-3


def test_cost_matrix_validation():
    with pytest.raises(ParameterError):
        soft_dtw((), gamma=0.1)
    with pytest.raises(ParameterError):
        soft_dtw([[]], gamma=0.1)
    with pytest.raises(ShapeError):
        soft_dtw([[1.0, 2.0], [3.0]], gamma=0.1)
    with pytest.raises(ShapeError):
        soft_dtw([[1.0], [2.0, 3.0]], gamma=0.1)
    with pytest.raises(ShapeError):
        soft_dtw([[ad.constant(1.0)], [ad.constant(2.0), ad.constant(3.0)]], gamma=0.1)
    with pytest.raises(ParameterError):
        soft_dtw([[1.0, math.inf]], gamma=0.1)
    with pytest.raises(ParameterError):
        soft_dtw(np.array([[1.0], [math.nan]]), gamma=0.1)
    delta = [[1.0, 2.0], [3.0, 4.0]]
    assert soft_dtw(delta, gamma=0.1) == soft_dtw(np.array(delta), gamma=0.1)


def test_kl_dtw_loss_empty_truth():
    with pytest.raises(ParameterError):
        kl_dtw_loss([np.ones((4, 4)) / 16], [], LossConfig(), GridSpec(4, 4))


@pytest.mark.parametrize("kwargs", [
    {"gamma": math.nan}, {"gamma": math.inf},
    {"lambda_base": math.nan}, {"lambda_base": math.inf},
    {"lambda_slope": math.nan}, {"lambda_slope": math.inf},
    {"sigma": math.nan}, {"sigma": math.inf},
])
def test_loss_config_rejects_nonfinite(kwargs):
    with pytest.raises(ParameterError):
        LossConfig(**kwargs)


# ---------------------------------------------------------------------------
# fused loss against the per-cell scalar-tensor oracle


def train_shaped_case(seed=11, lengths=None):
    """8 predicted maps on a 32x32 grid against 15 ground-truth scanpaths.

    lengths, when given, replaces the truth by random scanpaths of those lengths.
    """
    grid = GridSpec(32, 32)
    rng = np.random.default_rng(seed)
    if lengths is None:
        ds = synth_dataset(1, 15, 2, grid, np.random.default_rng(seed))
        truth = list(preprocess(ds, grid, n_fix=8, sigma=2.0)[0].spatialized)
    else:
        truth = [spatialize(Scanpath(tuple(GazePoint(*rng.uniform(0, 31.9, 2), i) for i in range(n)),
                                     "img", f"o{k}"), grid, 2.0)
                 for k, n in enumerate(lengths)]
    logits = rng.normal(size=(8, 32, 32))
    maps = [np.exp(l) / np.exp(l).sum() for l in logits]
    return grid, truth, maps


def loss_and_grads(loss_fn, maps, truth, cfg, grid):
    params = [ad.parameter(m) for m in maps]
    loss = loss_fn(params, truth, cfg, grid)
    ad.backward(loss)
    return loss.item(), np.stack([p.grad for p in params])


@pytest.mark.parametrize("lam, lengths", [(0.05, None), (0.0, None), (0.05, (8, 8, 6, 5))],
                         ids=["train_shape", "no_center_bias", "ragged_truth"])
def test_fused_loss_matches_per_cell_oracle(lam, lengths):
    grid, truth, maps = train_shaped_case(lengths=lengths)
    cfg = LossConfig(gamma=0.1, lambda_base=lam, lambda_slope=lam, sigma=2.0)
    want, want_grad = loss_and_grads(per_cell_kl_dtw_loss, maps, truth, cfg, grid)
    got, got_grad = loss_and_grads(kl_dtw_loss, maps, truth, cfg, grid)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert np.abs(got_grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()
    assert abs(kl_dtw_loss(maps, truth, cfg, grid) - want) <= 1e-12 * abs(want)


def per_scanpath_log_kl_dtw_loss(preds, truth, cfg, grid):
    """kl_dtw_loss's arithmetic with each scanpath's log maps taken on their own and kept, then stacked per length."""
    P = np.stack([p.data for p in preds]).reshape(len(preds), -1)
    log_p = np.log(P)
    selfs = (P * log_p).sum(axis=1)
    lambdas = np.array([lambda_schedule(i, cfg) for i in range(len(preds))])
    log_gc = np.log(CenterPrior.for_grid(grid, cfg.sigma).g_c.values).reshape(-1)
    kl_c = selfs - P @ log_gc
    floored = np.maximum(kl_c, 1e-6)
    reg = lambdas / floored
    reg_slope = np.where(kl_c >= 1e-6, -reg / floored, 0.0)
    by_length = {}
    for s in truth:
        by_length.setdefault(len(s), []).append(np.log(s.reshape(len(s), -1)))
    total, grad, row_weight = 0.0, np.zeros_like(P), np.zeros(len(preds))
    for log_q in (np.stack(group) for group in by_length.values()):
        R, W = _soft_dtw_dp(selfs[None, :, None] - np.einsum("ik,sjk->sij", P, log_q, optimize=True)
                            + reg[None, :, None], cfg.gamma)
        total += R.sum()
        E = _soft_dtw_alignment(W) * (1.0 / len(truth))
        row_weight += E.sum(axis=(0, 2))
        grad -= np.einsum("sij,sjk->ik", E, log_q, optimize=True)
    grad += row_weight[:, None] * (log_p + 1.0) + (row_weight * reg_slope)[:, None] * (log_p + 1.0 - log_gc)
    return ad.node(np.asarray(total / len(truth)), preds, lambda g: tuple(r.reshape(grid.height, -1) for r in grad))


@pytest.mark.parametrize("width, height", [(32, 32), (7, 5)])
def test_kl_dtw_loss_equals_per_scanpath_log_stacking_bit_for_bit(width, height):
    grid, rng = GridSpec(width, height), np.random.default_rng(width)
    truth = [spatialize(Scanpath(tuple(GazePoint(rng.uniform(0, width - 0.1), rng.uniform(0, height - 0.1), i)
                                       for i in range(n)), "img", f"o{k}"), grid, 1.5)
             for k, n in enumerate((5, 3, 5, 8, 3, 3))]
    maps = [np.exp(l) / np.exp(l).sum() for l in rng.normal(size=(6, height, width))]
    cfg = LossConfig(gamma=0.1, lambda_base=0.05, lambda_slope=0.05, sigma=1.5)
    want, want_grad = loss_and_grads(per_scanpath_log_kl_dtw_loss, maps, truth, cfg, grid)
    got, got_grad = loss_and_grads(kl_dtw_loss, maps, truth, cfg, grid)
    assert got == want and got_grad.tobytes() == want_grad.tobytes()
    assert kl_dtw_loss(maps, truth, cfg, grid) == want


def test_kl_dtw_loss_on_raw_scanpaths_equals_the_loss_on_their_spatialized_maps():
    grid, rng = GridSpec(7, 5), np.random.default_rng(5)
    raw = [Scanpath(tuple(GazePoint(rng.uniform(0, 7), rng.uniform(0, 5), i) for i in range(n)), "img", f"o{k}")
           for k, n in enumerate((5, 3, 6, 5, 3, 1))]
    edges = (GazePoint(7 - 1e-9, 5 - 1e-9, 0), GazePoint(0.0, 0.0, 1), GazePoint(3.5, 2.5, 2))
    raw.append(Scanpath(edges, "img", "edge"))
    spat = [spatialize(s, grid, 1.3) for s in raw]
    maps = [np.exp(l) / np.exp(l).sum() for l in rng.normal(size=(6, 5, 7))]
    cfg = LossConfig(gamma=0.1, lambda_base=0.05, lambda_slope=0.05, sigma=1.3)
    want, want_grad = loss_and_grads(kl_dtw_loss, maps, spat, cfg, grid)
    mixed = [s if k % 2 else sp for k, (s, sp) in enumerate(zip(raw, spat))]  # both kinds within one length group
    for truth in (raw, mixed):
        got, got_grad = loss_and_grads(kl_dtw_loss, maps, truth, cfg, grid)
        assert got == want and got_grad.tobytes() == want_grad.tobytes()
        assert kl_dtw_loss(maps, truth, cfg, grid) == want
    # a prepared example's spatialized stacks against its points
    ex = preprocess(synth_dataset(1, 5, 2, grid, np.random.default_rng(6)), grid, n_fix=4, sigma=1.3)[0]
    maps = maps[:4]
    want, want_grad = loss_and_grads(kl_dtw_loss, maps, ex.spatialized, cfg, grid)
    got, got_grad = loss_and_grads(kl_dtw_loss, maps, ex.scanpaths, cfg, grid)
    assert got == want and got_grad.tobytes() == want_grad.tobytes()
    assert kl_dtw_loss(maps, ex.spatialized, cfg, grid) == kl_dtw_loss(maps, ex.scanpaths, cfg, grid) == want


def test_kl_dtw_loss_rejects_truth_on_another_grid():
    grid, maps = GridSpec(7, 5), [np.full((5, 7), 1 / 35)] * 3
    path = Scanpath((GazePoint(1.0, 1.0, 0), GazePoint(2.0, 3.0, 1)))
    with pytest.raises(ShapeError):
        kl_dtw_loss(maps, [path, spatialize(path, GridSpec(5, 7), 1.0)], LossConfig(sigma=1.0), grid)
    with pytest.raises(ShapeError):
        kl_dtw_loss(maps, [path], LossConfig(sigma=1.0), GridSpec(5, 7))
    with pytest.raises(ParameterError, match="unsupported"):
        kl_dtw_loss(maps, [path, path.coords()], LossConfig(sigma=1.0), grid)


def test_kl_dtw_loss_takes_its_truth_from_any_iterable():
    grid, maps = GridSpec(7, 5), [np.full((5, 7), 1 / 35)] * 3
    paths = [Scanpath((GazePoint(1.0, 1.0, 0), GazePoint(2.0, 3.0, 1))), Scanpath((GazePoint(4.0, 2.0, 0),))]
    cfg = LossConfig(sigma=1.0)
    assert kl_dtw_loss(maps, (s for s in paths), cfg, grid) == kl_dtw_loss(maps, paths, cfg, grid)
    with pytest.raises(ShapeError):
        kl_dtw_loss(maps, (s for s in [spatialize(paths[0], GridSpec(5, 7), 1.0)]), cfg, grid)


@pytest.mark.parametrize("bad", [0.0, -1e-3])
def test_kl_dtw_loss_rejects_nonpositive_prediction(bad):
    grid, truth, maps = train_shaped_case()
    maps[3] = maps[3].copy()
    maps[3][5, 7] = bad
    cfg = LossConfig()
    with pytest.raises(ParameterError):
        kl_dtw_loss([ad.parameter(m) for m in maps], truth, cfg, grid)
    with pytest.raises(ParameterError):
        kl_dtw_loss(maps, truth, cfg, grid)


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
def test_kl_dtw_loss_rejects_a_truth_stack_with_a_nonpositive_or_nonfinite_entry(bad):
    grid, truth, maps = train_shaped_case()
    truth[4] = truth[4].copy()
    truth[4][2, 5, 7] = bad
    with pytest.raises(ParameterError, match="strictly positive and finite"):
        kl_dtw_loss(maps, truth, LossConfig(), grid)


def test_kl_dtw_loss_uses_tiny_entries_unclamped():
    grid, truth, maps = train_shaped_case()
    maps[3] = maps[3].copy()
    maps[3][5, 7] = 1e-300
    cfg = LossConfig()
    want, want_grad = loss_and_grads(per_cell_kl_dtw_loss, maps, truth, cfg, grid)
    got, got_grad = loss_and_grads(kl_dtw_loss, maps, truth, cfg, grid)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert np.abs(got_grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()
    # the entry's own term d(P log P)/dP = log P + 1 shows it was not floored
    assert got_grad[3, 5, 7] < math.log(1e-200)


def test_kl_dtw_loss_graph_size_independent_of_shape():
    """The loss adds the same number of graph nodes whatever S, N and M are."""
    added = set()
    for n_paths, n_maps, n_fix in [(3, 8, 8), (15, 8, 8), (15, 4, 8), (15, 8, 5)]:
        grid = GridSpec(32, 32)
        rng = np.random.default_rng(n_paths + n_maps + n_fix)
        ds = synth_dataset(1, n_paths, 2, grid, rng)
        truth = list(preprocess(ds, grid, n_fix=n_fix, sigma=2.0)[0].spatialized)
        frames = [ad.map_softmax(ad.parameter(rng.normal(size=(32, 32)))) for _ in range(n_maps)]
        loss = kl_dtw_loss(frames, truth, LossConfig(), grid)
        added.add(len(graph_ids([loss]) - graph_ids(frames)))
    assert len(added) == 1
    assert added.pop() <= 2


# ---------------------------------------------------------------------------
# one arithmetic per loss: a plain call runs the tensor code and returns its float


def test_plain_calls_equal_the_tensor_calls_bit_for_bit():
    """A call on arrays and floats returns a float equal to the .item() of the same call on ad.constant-wrapped
    arguments, which returns a tensor; a generator of maps works as kl_dtw_loss's predictions."""
    for case in range(200):
        rng = np.random.default_rng(case)
        grid = GridSpec(*(int(n) for n in rng.integers(2, 7, 2)))
        n_maps = int(rng.integers(1, 5))
        logits = rng.normal(size=(n_maps + 1, grid.height, grid.width)) * rng.choice([0.1, 1.0, 5.0])
        maps = [np.exp(l) / np.exp(l).sum() for l in logits]
        gamma = float(rng.choice([1e-3, 0.1, 0.7, 10.0]))
        lam = float(rng.choice([0.0, 1e-3, 0.05, 2.0]))
        prior = CenterPrior.for_grid(grid, float(rng.uniform(0.5, 3.0)))
        values = rng.uniform(-3, 3, int(rng.integers(1, 7))) * rng.choice([1e-3, 1.0, 100.0])
        delta = rng.uniform(0, 5, tuple(rng.integers(1, 6, 2)))
        truth = [Scanpath(tuple(GazePoint(rng.uniform(0, grid.width), rng.uniform(0, grid.height), i)
                                for i in range(int(rng.integers(1, 5)))), "img", f"o{k}")
                 for k in range(int(rng.integers(1, 4)))]
        cfg = LossConfig(gamma=gamma, lambda_base=lam, lambda_slope=float(rng.choice([0.0, 0.05])), sigma=1.0)
        p, q = maps[0], maps[-1]
        calls = {
            "kl_div": (kl_div, (p, q), (ad.constant(p), ad.constant(q))),
            "soft_min": (soft_min, (values.tolist(), gamma), ([ad.constant(v) for v in values], gamma)),
            "pairwise_cost": (pairwise_cost, (p, q, lam, prior), (ad.constant(p), ad.constant(q), lam, prior)),
            "soft_dtw": (soft_dtw, (delta, gamma), (ad.constant(delta), gamma)),
            "soft_dtw/rows": (soft_dtw, (delta.tolist(), gamma),
                              ([[ad.constant(v) for v in row] for row in delta], gamma)),
            "kl_dtw_loss": (kl_dtw_loss, (maps[:n_maps], truth, cfg, grid),
                            ([ad.constant(m) for m in maps[:n_maps]], truth, cfg, grid)),
            "kl_dtw_loss/generator": (kl_dtw_loss, ((m for m in maps[:n_maps]), truth, cfg, grid),
                                      ((ad.constant(m) for m in maps[:n_maps]), truth, cfg, grid)),
        }
        for name, (fn, plain_args, tensor_args) in calls.items():
            plain, tensor = fn(*plain_args), fn(*tensor_args)
            assert type(plain) is float and isinstance(tensor, ad.Tensor), (case, name)
            assert plain == tensor.item(), (case, name)


def own_returns(fn: ast.FunctionDef) -> int:
    """The return statements of fn itself, not of the functions defined inside it."""
    count, stack = 0, list(fn.body)
    while stack:
        node = stack.pop()
        count += isinstance(node, ast.Return)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))
    return count


def test_each_loss_has_one_return_so_no_plain_branch_beside_the_tensor_one():
    assert own_returns(ast.parse("def f(x):\n if x:\n  return 1\n def g():\n  return 2\n return g\n").body[0]) == 2
    tree = ast.parse(Path(losses.__file__).read_text(encoding="utf-8"))
    found = {fn.name: own_returns(fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    names = ("kl_div", "soft_min", "pairwise_cost", "soft_dtw", "kl_dtw_loss")
    assert {name: found[name] for name in names} == dict.fromkeys(names, 1)
