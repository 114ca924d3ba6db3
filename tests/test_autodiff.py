import math

import numpy as np
import pytest

from scanpath import autodiff as ad
from scanpath.autodiff import (
    AdamState,
    BayesConvParams,
    adam_step,
    backward,
    clamp_min,
    collect_grads,
    concat0,
    constant,
    conv2d,
    grad_check,
    hadamard,
    lstm_cell,
    map_softmax,
    parameter,
    recip,
    reshape,
    sample_bayes_kernel,
    scalar_mul,
    sigmoid,
    slice0,
    softplus,
    tanh,
    texp,
    tlog,
    tsum,
)
from scanpath.errors import ParameterError, ShapeError


def naive_conv2d(x, kernel, bias):
    """Quadruple-loop reference for same-padded cross-correlation."""
    c_out, c_in, k, _ = kernel.shape
    _, h, w = x.shape
    pad = k // 2
    xp = np.zeros((c_in, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    out = np.zeros((c_out, h, w))
    for co in range(c_out):
        for y in range(h):
            for xx in range(w):
                acc = 0.0
                for ci in range(c_in):
                    for di in range(k):
                        for dj in range(k):
                            acc += xp[ci, y + di, xx + dj] * kernel[co, ci, di, dj]
                out[co, y, xx] = acc + bias[co]
    return out


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = constant(rng.standard_normal((2, 5, 5)))
    k = np.zeros((2, 2, 1, 1))
    k[0, 0, 0, 0] = 1.0
    k[1, 1, 0, 0] = 1.0
    out = conv2d(x, constant(k), constant(np.zeros(2)))
    assert np.allclose(out.data, x.data)

    k3 = np.zeros((2, 2, 3, 3))
    k3[0, 0, 1, 1] = 1.0
    k3[1, 1, 1, 1] = 1.0
    out3 = conv2d(x, constant(k3), constant(np.zeros(2)))
    assert np.allclose(out3.data, x.data)


def test_conv2d_zero_kernel_bias_only():
    x = constant(np.ones((1, 4, 4)))
    k = constant(np.zeros((3, 1, 3, 3)))
    b = constant(np.array([0.5, -1.0, 2.0]))
    out = conv2d(x, k, b)
    for c, v in enumerate([0.5, -1.0, 2.0]):
        assert np.allclose(out.data[c], v)


def test_conv2d_matches_naive_loop():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 4, 4))
    k = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    out = conv2d(constant(x), constant(k), constant(b))
    assert np.abs(out.data - naive_conv2d(x, k, b)).max() < 1e-6


def test_conv2d_naive_oracle_shapes_sweep():
    rng = np.random.default_rng(2)
    cases = [(1, 1, 1, 3, 3), (3, 4, 3, 5, 4), (4, 4, 5, 8, 8), (2, 3, 3, 8, 8), (3, 2, 5, 6, 9), (2, 2, 5, 2, 3)]
    for c_in, c_out, k, h, w in cases:
        x = rng.standard_normal((c_in, h, w))
        kk = rng.standard_normal((c_out, c_in, k, k))
        b = rng.standard_normal(c_out)
        out = conv2d(constant(x), constant(kk), constant(b))
        assert np.abs(out.data - naive_conv2d(x, kk, b)).max() < 1e-6


def test_conv2d_shape_errors():
    x = constant(np.zeros((2, 4, 4)))
    with pytest.raises(ShapeError):
        conv2d(x, constant(np.zeros((1, 3, 3, 3))))  # channel mismatch
    with pytest.raises(ShapeError):
        conv2d(x, constant(np.zeros((1, 2, 2, 2))))  # even kernel
    with pytest.raises(ShapeError):
        conv2d(x, constant(np.zeros((1, 2, 3, 3))), constant(np.zeros(2)))  # bias size


def test_pointwise_values():
    assert sigmoid(constant(0.0)).item() == 0.5
    assert tanh(constant(0.0)).item() == 0.0
    a = constant(np.array([1.0, -2.0, 3.0]))
    assert np.allclose(hadamard(a, constant(np.ones(3))).data, a.data)
    assert np.allclose(scalar_mul(a, 2.0).data, 2 * a.data)
    assert abs(softplus(constant(0.0)).item() - math.log(2)) < 1e-12


def test_map_softmax_hand_value():
    out = map_softmax(constant(np.array([[0.0], [math.log(3.0)]])))
    assert np.allclose(out.data, [[0.25], [0.75]], atol=1e-12)


def test_map_softmax_contracts():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 7))
    out = map_softmax(constant(x))
    assert abs(out.data.sum() - 1.0) < 1e-9
    shifted = map_softmax(constant(x + 13.7))
    assert np.abs(out.data - shifted.data).max() < 1e-9


def test_backward_sum_is_ones():
    x = parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    loss = tsum(x)
    backward(loss)
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_backward_quadratic():
    x = parameter(np.array([1.0, -2.0, 0.5]))
    loss = tsum(hadamard(x, x))
    backward(loss)
    assert np.allclose(x.grad, 2 * x.data)


def test_backward_errors_and_disconnected():
    x = parameter(np.ones(3))
    loss = tsum(x)
    backward(loss)
    with pytest.raises(ParameterError):
        backward(loss)
    with pytest.raises(ShapeError):
        backward(x)

    unused = parameter(np.ones(2))
    grads = collect_grads([x, unused])
    assert np.array_equal(grads[0], np.ones(3))
    assert np.array_equal(grads[1], np.zeros(2))


def test_no_grad_blocks_recording():
    x = parameter(np.ones(3))
    with ad.no_grad():
        y = hadamard(x, x)
    assert y._parents == ()
    assert not y.requires_grad


@pytest.mark.parametrize(
    "name,f",
    [
        ("sigmoid", lambda x: tsum(sigmoid(x))),
        ("tanh", lambda x: tsum(tanh(x))),
        ("softplus", lambda x: tsum(softplus(x))),
        ("exp", lambda x: tsum(texp(x))),
        ("hadamard_self", lambda x: tsum(hadamard(x, x))),
        ("scalar_mul", lambda x: tsum(scalar_mul(x, -1.7))),
        ("softmax_weighted", lambda x: tsum(hadamard(map_softmax(x), constant(_W)))),
        ("reshape", lambda x: tsum(hadamard(reshape(x, (8,)), constant(_W.reshape(8))))),
    ],
)
def test_grad_check_pointwise(name, f):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = parameter(rng.uniform(-1, 1, size=(2, 4)))
    assert grad_check(f, x, h=1e-4) < 1e-6


_W = np.arange(8, dtype=float).reshape(2, 4) - 3.0


def test_grad_check_log_recip_clamp():
    rng = np.random.default_rng(11)
    x = parameter(rng.uniform(0.5, 2.0, size=(5,)))
    assert grad_check(lambda t: tsum(tlog(t)), x) < 1e-6
    assert grad_check(lambda t: tsum(recip(t)), x) < 1e-6
    # keep coordinates away from the clamp kink, where FD is invalid
    assert grad_check(lambda t: tsum(clamp_min(t, 0.4)), x) < 1e-6


def test_grad_check_conv2d_all_arguments():
    rng = np.random.default_rng(5)
    xv = rng.uniform(-1, 1, (2, 4, 4))
    kv = rng.uniform(-1, 1, (3, 2, 3, 3))
    bv = rng.uniform(-1, 1, 3)
    w = constant(rng.uniform(-1, 1, (3, 4, 4)))

    x = parameter(xv)
    assert grad_check(lambda t: tsum(hadamard(conv2d(t, constant(kv), constant(bv)), w)), x) < 1e-6
    k = parameter(kv)
    assert grad_check(lambda t: tsum(hadamard(conv2d(constant(xv), t, constant(bv)), w)), k) < 1e-6
    b = parameter(bv)
    assert grad_check(lambda t: tsum(hadamard(conv2d(constant(xv), constant(kv), t), w)), b) < 1e-6


def test_grad_check_conv2d_wide_kernel_non_square():
    rng = np.random.default_rng(15)
    kv = rng.uniform(-1, 1, (2, 2, 5, 5))
    w = constant(rng.uniform(-1, 1, (2, 3, 6)))
    x = parameter(rng.uniform(-1, 1, (2, 3, 6)))
    assert grad_check(lambda t: tsum(hadamard(conv2d(t, constant(kv)), w)), x) < 1e-6


def test_lstm_cell_values_and_grad_check():
    rng = np.random.default_rng(16)
    pre_v = rng.uniform(-2, 2, (8, 3, 4))
    c_v = rng.uniform(-1, 1, (2, 3, 4))
    h, c = lstm_cell(constant(pre_v), constant(c_v))

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    i, f, o, g = sig(pre_v[:2]), sig(pre_v[2:4]), sig(pre_v[4:6]), np.tanh(pre_v[6:])
    assert np.abs(c.data - (f * c_v + i * g)).max() < 1e-12
    assert np.abs(h.data - o * np.tanh(f * c_v + i * g)).max() < 1e-12

    r = constant(rng.standard_normal((4, 3, 4)))

    def loss(pre_t, c_t):
        h, c = lstm_cell(pre_t, c_t)
        return tsum(hadamard(concat0([h, c]), r))

    assert grad_check(lambda t: loss(t, constant(c_v)), parameter(pre_v.copy())) < 1e-6
    assert grad_check(lambda t: loss(constant(pre_v), t), parameter(c_v.copy())) < 1e-6
    with pytest.raises(ShapeError):
        lstm_cell(constant(pre_v[:6]), constant(c_v))


def test_grad_check_concat_slice():
    rng = np.random.default_rng(6)
    x = parameter(rng.uniform(-1, 1, (4,)))

    def f_slice(t):
        parts = [tsum(slice0(t, i, i + 1)) for i in range(4)]
        return tsum(hadamard(concat0([reshape(p, (1,)) for p in parts]), constant(np.arange(1.0, 5.0))))

    assert grad_check(f_slice, x) < 1e-6

    def f_concat(t):
        joined = concat0([t, hadamard(t, t)])
        return tsum(hadamard(joined, constant(np.arange(8.0))))

    assert grad_check(f_concat, x) < 1e-6

    m = parameter(rng.uniform(-1, 1, (2, 3)))

    def f_concat_axis1(t):
        joined = concat0([t, hadamard(t, t), t], axis=1)
        return tsum(hadamard(joined, constant(np.arange(18.0).reshape(2, 9))))

    assert grad_check(f_concat_axis1, m) < 1e-6
    assert concat0([constant(np.zeros((2, 1))), constant(np.ones((2, 3)))], axis=-1).shape == (2, 4)
    with pytest.raises(ShapeError):
        concat0([constant(np.zeros((2, 1))), constant(np.ones((3, 1)))], axis=1)


def test_sample_bayes_kernel_degenerate_and_deterministic():
    mu = np.array([[[[0.3, -0.2], [0.1, 0.5]]]]) * np.ones((2, 1, 2, 2))
    p = BayesConvParams(
        mu=parameter(mu),
        rho=parameter(np.full(mu.shape, -40.0)),
        bias_mu=parameter(np.zeros(2)),
        bias_rho=parameter(np.full(2, -40.0)),
    )
    k, b = sample_bayes_kernel(p, np.random.default_rng(0))
    assert np.abs(k.data - mu).max() < 1e-9
    assert np.abs(b.data).max() < 1e-9

    p2 = BayesConvParams(mu=parameter(mu), rho=parameter(np.zeros(mu.shape)))
    k1, _ = sample_bayes_kernel(p2, np.random.default_rng(42))
    k2, _ = sample_bayes_kernel(p2, np.random.default_rng(42))
    assert np.array_equal(k1.data, k2.data)


def test_sample_bayes_kernel_matches_softplus_graph_bit_for_bit():
    rng = np.random.default_rng(17)
    shapes = [(3, 2, 3, 3), (3, 2, 3, 3), (3,), (3,)]
    values = [rng.normal(-3.0 * (j % 2), 2.0, s) for j, s in enumerate(shapes)]
    weight = constant(rng.normal(size=shapes[0]))

    def run(draw):
        params = [parameter(v.copy()) for v in values]
        k, b = draw(*params)
        backward(ad.add(tsum(hadamard(k, weight)), tsum(b)))
        return k, b, [t.grad.tobytes() for t in params]

    def fused(mu, rho, bias_mu, bias_rho):
        return sample_bayes_kernel(BayesConvParams(mu, rho, bias_mu, bias_rho), np.random.default_rng(1))

    def unfused(mu, rho, bias_mu, bias_rho):
        draws = np.random.default_rng(1)
        k = ad.add(mu, hadamard(softplus(rho), constant(draws.standard_normal(mu.shape))))
        return k, ad.add(bias_mu, hadamard(softplus(bias_rho), constant(draws.standard_normal(bias_mu.shape))))

    k, b, grads = run(fused)
    ref_k, ref_b, ref_grads = run(unfused)
    assert k.data.tobytes() == ref_k.data.tobytes() and b.data.tobytes() == ref_b.data.tobytes()
    assert grads == ref_grads
    for draw in (k, b):  # one node per draw, straight on the posterior's leaves
        assert len(draw._parents) == 2 and not any(p._parents for p in draw._parents)


def test_sample_bayes_kernel_monte_carlo():
    target_std = 0.5
    rho0 = math.log(math.expm1(target_std))  # softplus inverse
    p = BayesConvParams(mu=parameter(np.array([[[[0.3]]]])), rho=parameter(np.array([[[[rho0]]]])))
    rng = np.random.default_rng(123)
    draws = np.array([sample_bayes_kernel(p, rng)[0].item() for _ in range(10_000)])
    assert abs(draws.mean() - 0.3) < 0.02
    assert abs(draws.std() - target_std) < 0.02


def test_sample_bayes_kernel_grad_flows_to_mu_and_rho():
    mu = parameter(np.array([[[[0.2, -0.4], [0.1, 0.0]]]]))
    rho = parameter(np.full((1, 1, 2, 2), -1.0))
    p = BayesConvParams(mu=mu, rho=rho)

    def f_mu(t):
        k, _ = sample_bayes_kernel(BayesConvParams(mu=t, rho=rho), np.random.default_rng(9))
        return tsum(hadamard(k, k))

    def f_rho(t):
        k, _ = sample_bayes_kernel(BayesConvParams(mu=mu, rho=t), np.random.default_rng(9))
        return tsum(hadamard(k, k))

    assert grad_check(f_mu, mu) < 1e-6
    assert grad_check(f_rho, rho) < 1e-6


def test_adam_zero_grad_is_noop():
    p = parameter(np.array([1.0, -2.0]))
    st = AdamState.init([p])
    adam_step([p], [np.zeros(2)], st, lr=0.1)
    assert np.array_equal(p.data, [1.0, -2.0])
    assert st.step == 1


def test_adam_single_step_hand_formula():
    g = 0.37
    p = parameter(np.array([2.0]))
    st = AdamState.init([p])
    adam_step([p], [np.array([g])], st, lr=1e-2)
    # fresh state: mhat = g, vhat = g^2  ->  delta = lr * g / (|g| + eps)
    expected = 2.0 - 1e-2 * g / (abs(g) + 1e-8)
    assert abs(p.data[0] - expected) < 1e-12


def test_adam_constant_gradient_accumulates_lr():
    p = parameter(np.array([5.0]))
    st = AdamState.init([p])
    for _ in range(100):
        adam_step([p], [np.ones(1)], st, lr=1e-2)
    moved = 5.0 - p.data[0]
    assert abs(moved - 1.0) < 0.05


def test_adam_shape_error():
    p = parameter(np.zeros(3))
    st = AdamState.init([p])
    with pytest.raises(ShapeError):
        adam_step([p], [np.zeros(2)], st, lr=0.1)


def test_grad_check_trivial_cases():
    x = parameter(np.linspace(-1, 1, 6))
    assert grad_check(lambda t: tsum(t), x) < 1e-12
    assert grad_check(lambda t: tsum(hadamard(t, t)), x) < 1e-6
