import ast
import contextlib
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from scanpath import autodiff as ad
from scanpath import model as model_module
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
    convlstm_cell,
    grad_check,
    hadamard,
    map_softmax,
    parameter,
    recip,
    reshape,
    sample_bayes_kernel,
    scalar_mul,
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


def per_tap_conv2d(x, kernel, bias, g):
    """Zero-filled im2col with one copy per tap, and per-tap col2im: (out, grad_x, grad_kernel, grad_bias).

    bias is [C_out], a per-pixel [C_out, H, W] or None."""
    c_out, c_in, k, _ = kernel.shape
    _, h, w = x.shape
    pad = k // 2

    def shifted(offset, n):
        lo = min(n, max(0, -offset))
        hi = max(lo, min(n, n - offset))
        return slice(lo, hi), slice(lo + offset, hi + offset)

    windows = [(di, dj, shifted(di - pad, h), shifted(dj - pad, w)) for di in range(k) for dj in range(k)]
    patches = np.zeros((c_in, k, k, h, w))
    for di, dj, (rows, src_rows), (cols, src_cols) in windows:
        patches[:, di, dj, rows, cols] = x[:, src_rows, src_cols]
    patches = patches.reshape(c_in * k * k, h * w)
    k2 = kernel.reshape(c_out, -1)
    out = (k2 @ patches).reshape(c_out, h, w)
    if bias is not None:
        out = out + (bias if bias.ndim == 3 else bias[:, None, None])
    gm = g.reshape(c_out, -1)
    grad_k = (gm @ patches.T).reshape(kernel.shape)
    cols_g = (k2.T @ gm).reshape(c_in, k, k, h, w)
    grad_x = np.zeros_like(x)
    for di, dj, (rows, src_rows), (cols, src_cols) in windows:
        grad_x[:, src_rows, src_cols] += cols_g[:, di, dj, rows, cols]
    return out, grad_x, grad_k, None if bias is None else g if bias.ndim == 3 else g.sum(axis=(1, 2))


def conv2d_with_grads(xv, kv, bv, g, x_grad=True):
    x, k = (parameter(xv) if x_grad else constant(xv)), parameter(kv)
    b = None if bv is None else parameter(bv)
    out = conv2d(x, k, b)
    backward(tsum(hadamard(out, constant(g))))
    return out.data, x.grad, k.grad, None if b is None else b.grad


def assert_same_bits(got, want):
    for a, e in zip(got, want):
        assert (a is None) == (e is None)
        if e is not None:
            assert a.shape == e.shape and np.array_equal(a, e)


@pytest.mark.parametrize("with_bias", [False, True])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_equals_per_tap_oracle(k, with_bias):
    rng = np.random.default_rng(40 + k)
    for h in (1, 2, 5, 9):
        for w in (1, 2, 5, 9):
            xv = rng.standard_normal((2, h, w))
            kv = rng.standard_normal((3, 2, k, k))
            bv = rng.standard_normal(3) if with_bias else None
            g = rng.standard_normal((3, h, w))
            assert_same_bits(conv2d_with_grads(xv, kv, bv, g), per_tap_conv2d(xv, kv, bv, g))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_per_pixel_bias_equals_per_tap_oracle(k):
    rng = np.random.default_rng(50 + k)
    for h in (1, 2, 5, 9):
        for w in (1, 2, 5, 9):
            xv = rng.standard_normal((2, h, w))
            kv = rng.standard_normal((3, 2, k, k))
            bv = rng.standard_normal((3, h, w))
            g = rng.standard_normal((3, h, w))
            got = conv2d_with_grads(xv, kv, bv, g)
            assert_same_bits(got, per_tap_conv2d(xv, kv, bv, g))
            assert np.array_equal(got[3], g)  # a per-pixel bias's gradient is the output's own


@pytest.mark.parametrize("bias", ["none", "channel", "pixel"])
def test_conv2d_input_without_grad_gets_none_and_the_oracles_other_grads(bias):
    rng = np.random.default_rng(55)
    for k in (1, 3):
        xv = rng.standard_normal((2, 5, 4))
        kv = rng.standard_normal((3, 2, k, k))
        bv = {"none": None, "channel": rng.standard_normal(3), "pixel": rng.standard_normal((3, 5, 4))}[bias]
        g = rng.standard_normal((3, 5, 4))
        out, grad_x, grad_k, grad_b = conv2d_with_grads(xv, kv, bv, g, x_grad=False)
        want_out, _, want_k, want_b = per_tap_conv2d(xv, kv, bv, g)
        assert grad_x is None
        assert_same_bits((out, grad_k, grad_b), (want_out, want_k, want_b))


@pytest.mark.parametrize("shape", [(1,), (2,), (4,), (3, 1, 1), (3, 5), (3, 4, 5), (1, 5, 4), (3, 5, 4, 1)])
def test_conv2d_rejects_any_other_bias_shape(shape):
    x, k = constant(np.zeros((2, 5, 4))), constant(np.zeros((3, 2, 3, 3)))
    with pytest.raises(ShapeError):
        conv2d(x, k, constant(np.zeros(shape)))


def test_conv2d_node_holds_only_its_output():
    rng = np.random.default_rng(41)
    xv, kv = rng.standard_normal((8, 32, 32)), rng.standard_normal((16, 8, 3, 3))
    x, k = parameter(xv), parameter(kv)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = conv2d(x, k)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < out.data.nbytes + 16 * 1024  # the im2col matrix alone is 589,824 B
    g = rng.standard_normal(out.shape)
    backward(tsum(hadamard(out, constant(g))))
    assert_same_bits((out.data, x.grad, k.grad), per_tap_conv2d(xv, kv, None, g)[:3])


def block_conv2d_with_grads(xvs, needs, kv, bv, g):
    """conv2d over the blocks xvs (a parameter where needs says so, else a constant) and its VJP's outputs."""
    xs = [parameter(v) if need else constant(v) for v, need in zip(xvs, needs)]
    out = conv2d(xs, parameter(kv), None if bv is None else parameter(bv))
    grads = out._vjp(g)
    return out.data, grads[:len(xs)], grads[len(xs)], None if bv is None else grads[-1]


@pytest.mark.parametrize("bias", ["none", "channel", "pixel"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_over_channel_blocks_equals_per_tap_oracle_on_their_concatenation(k, bias):
    rng = np.random.default_rng(70 + k)
    for h in (1, 2, 5, 9):
        for w in (1, 2, 5, 9):
            for sizes in ([1] * rng.integers(1, 4), list(rng.integers(1, 4, size=rng.integers(1, 4)))):
                needs = [bool(n) for n in rng.integers(0, 2, size=len(sizes))]
                xvs = [rng.standard_normal((c, h, w)) for c in sizes]
                kv = rng.standard_normal((3, sum(sizes), k, k))
                bv = {"none": None, "channel": rng.standard_normal(3), "pixel": rng.standard_normal((3, h, w))}[bias]
                g = rng.standard_normal((3, h, w))
                out, grads_x, grad_k, grad_b = block_conv2d_with_grads(xvs, needs, kv, bv, g)
                want_out, want_x, want_k, want_b = per_tap_conv2d(np.concatenate(xvs), kv, bv, g)
                bounds = np.cumsum([0] + sizes)
                want_blocks = [want_x[a:b] if need else None for a, b, need in zip(bounds, bounds[1:], needs)]
                assert_same_bits((out, *grads_x, grad_k, grad_b), (want_out, *want_blocks, want_k, want_b))


def test_conv2d_block_that_needs_no_gradient_gets_none():
    rng = np.random.default_rng(75)
    xvs = [rng.standard_normal((1, 4, 5)), rng.standard_normal((2, 4, 5))]
    kv, g = rng.standard_normal((3, 3, 3, 3)), rng.standard_normal((3, 4, 5))
    _, want_x, want_k, _ = per_tap_conv2d(np.concatenate(xvs), kv, None, g)
    _, (grad_map, grad_h), _, _ = block_conv2d_with_grads(xvs, [False, True], kv, None, g)
    assert grad_map is None and np.array_equal(grad_h, want_x[1:])
    _, grads_x, grad_k, _ = block_conv2d_with_grads(xvs, [False, False], kv, None, g)
    assert grads_x == (None, None) and np.array_equal(grad_k, want_k)


@pytest.mark.parametrize("blocks", [
    [],                                       # no block
    [(1, 4, 5), (1, 4, 4)],                   # H x W differ
    [(1, 4, 5), (1, 5, 5)],
    [(1, 4, 5), (2, 4, 5)],                   # channels add up to 3, not the kernel's 2
    [(1, 4, 5)],
    [(1, 4, 5), (4, 5)],                      # a block that is not [C, H, W]
])
def test_conv2d_rejects_bad_block_lists(blocks):
    with pytest.raises(ShapeError):
        conv2d([constant(np.zeros(shape)) for shape in blocks], constant(np.zeros((3, 2, 3, 3))))


def test_conv2d_over_two_blocks_holds_only_its_output():
    rng = np.random.default_rng(42)
    xv, hv, kv = rng.standard_normal((8, 32, 32)), rng.standard_normal((8, 32, 32)), rng.standard_normal((16, 16, 3, 3))
    x, hidden, k = parameter(xv), parameter(hv), parameter(kv)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = conv2d([x, hidden], k)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < out.data.nbytes + 16 * 1024  # a concatenated [x; h] alone is 131,072 B
    g = rng.standard_normal(out.shape)
    backward(tsum(hadamard(out, constant(g))))
    _, want_x, want_k, _ = per_tap_conv2d(np.concatenate([xv, hv]), kv, None, g)
    assert_same_bits((x.grad, hidden.grad, k.grad), (want_x[:8], want_x[8:], want_k))


@pytest.mark.parametrize("with_bias", [False, True])
@pytest.mark.parametrize("k", [1, 3])
def test_conv2d_with_one_output_channel_equals_per_tap_oracle(k, with_bias):
    rng = np.random.default_rng(60 + k)
    for h, w in ((1, 1), (2, 5), (9, 4)):
        xv = rng.standard_normal((5, h, w))
        kv = rng.standard_normal((1, 5, k, k))
        bv = rng.standard_normal(1) if with_bias else None
        g = rng.standard_normal((1, h, w))
        assert_same_bits(conv2d_with_grads(xv, kv, bv, g), per_tap_conv2d(xv, kv, bv, g))


def gate_sigmoid(a):
    """The fused cell's logistic, 0.5 + 0.5 * tanh(x / 2), as a node of its own."""
    y = ad._gate_sigmoid(a.data)
    return ad.node(y, (a,), lambda g: (g * y * (1.0 - y),))


def unfused_cell(pre, c_prev, hidden, gate):
    """(h, c) of one cell update as four slices, `gate` on the i, f and o rows, two tanh and four elementwise nodes."""
    i, f, o = (gate(ad.slice0(pre, j * hidden, (j + 1) * hidden)) for j in range(3))
    g = ad.tanh(ad.slice0(pre, 3 * hidden, 4 * hidden))
    c = ad.add(ad.hadamard(f, c_prev), ad.hadamard(i, g))
    return ad.hadamard(o, ad.tanh(c)), c


def layer_step_with_grads(fused, single, xvs, needs, kv, bv, cv, roots, rng_seed):
    """(h, c, then the gradients of each block, the kernel, the bias and c_prev) of one ConvLSTM layer step,
    as convlstm_cell or as unfused_cell(conv2d(...)), with backward() from the roots among "h" and "c".

    Each block of xvs is a parameter where needs says so; a single block is passed as a tensor, not a list."""
    xs = [parameter(v) if need else constant(v) for v, need in zip(xvs, needs)]
    x = xs[0] if single else xs
    k, b, c_prev = parameter(kv), parameter(bv), parameter(cv)
    h, c = convlstm_cell(x, k, b, c_prev) if fused else unfused_cell(conv2d(x, k, b), c_prev, len(cv), gate_sigmoid)
    weights = np.random.default_rng(rng_seed)
    terms = [tsum(hadamard(t, constant(weights.standard_normal(t.shape)))) for t in (h, c)]
    backward(terms[0] if roots == "h" else terms[1] if roots == "c" else ad.add(*terms))
    return h.data, c.data, *(t.grad for t in xs), k.grad, b.grad, c_prev.grad


@pytest.mark.parametrize("roots", ["h", "c", "both"])
@pytest.mark.parametrize("bias", ["channel", "pixel"])
@pytest.mark.parametrize("k", [1, 3])
def test_convlstm_cell_equals_lstm_cell_of_conv2d(k, bias, roots):
    rng = np.random.default_rng(80 + k)
    for h, w in ((1, 1), (2, 5), (6, 4)):
        for n in (1, 3):
            for sizes in ([4], [2, n], list(rng.integers(1, 4, size=rng.integers(1, 4)))):
                single = len(sizes) == 1 and rng.integers(2) == 1  # one tensor, as at the t = 0 step
                needs = [bool(v) for v in rng.integers(0, 2, size=len(sizes))]
                xvs = [rng.standard_normal((s, h, w)) for s in sizes]
                kv = rng.standard_normal((4 * n, sum(sizes), k, k))
                bv = rng.standard_normal(4 * n) if bias == "channel" else rng.standard_normal((4 * n, h, w))
                cv = rng.standard_normal((n, h, w))
                args = (single, xvs, needs, kv, bv, cv, roots, int(rng.integers(1 << 30)))
                got, want = layer_step_with_grads(True, *args), layer_step_with_grads(False, *args)
                assert_same_bits(got, want)


def test_convlstm_cell_grad_check_and_shape_errors():
    rng = np.random.default_rng(90)
    xv, hv = rng.uniform(-1, 1, (2, 3, 4)), rng.uniform(-1, 1, (2, 3, 4))
    kv, bv, cv = rng.uniform(-1, 1, (8, 4, 3, 3)), rng.uniform(-1, 1, 8), rng.uniform(-1, 1, (2, 3, 4))
    wh, wc = constant(rng.standard_normal((2, 3, 4))), constant(rng.standard_normal((2, 3, 4)))

    def loss(x, hidden, kernel, bias, c_prev):
        h, c = convlstm_cell([x, hidden], kernel, bias, c_prev)
        return ad.add(tsum(hadamard(h, wh)), tsum(hadamard(c, wc)))

    values = [xv, hv, kv, bv, cv]
    for j in range(len(values)):
        def f(t, j=j):
            return loss(*[t if i == j else constant(v) for i, v in enumerate(values)])
        assert grad_check(f, parameter(values[j].copy()), h=1e-5) < 1e-6
    with pytest.raises(ShapeError):
        convlstm_cell([constant(xv), constant(hv)], constant(kv[:7]), constant(bv[:7]), constant(cv))
    with pytest.raises(ShapeError):
        convlstm_cell(constant(xv), constant(kv), constant(bv), constant(cv))  # 2 channels, kernel expects 4


def test_convlstm_cell_holds_gates_c_and_h_and_under_no_grad_only_c_and_h():
    rng = np.random.default_rng(91)
    n, hw = 8, 32 * 32
    x, hidden = parameter(rng.standard_normal((5, 32, 32))), parameter(rng.standard_normal((n, 32, 32)))
    k, b = parameter(0.1 * rng.standard_normal((4 * n, 5 + n, 3, 3))), parameter(rng.standard_normal(4 * n))
    c_prev = parameter(rng.standard_normal((n, 32, 32)))
    for grad, bound in ((True, 6 * n * hw * 8), (False, 2 * n * hw * 8)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with contextlib.nullcontext() if grad else ad.no_grad():
                out = convlstm_cell([x, hidden], k, b, c_prev)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # an unfused cell on conv2d(...) would hold 10n maps: conv2d's output, the activated gates, c and h
        assert held < bound + 16 * 1024
        del out


def test_pointwise_values():
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


def test_backward_frees_a_layer_steps_h_and_c_while_the_loss_is_still_held():
    rng = np.random.default_rng(8)
    x, c_prev = parameter(rng.normal(size=(2, 5, 4))), parameter(rng.normal(size=(3, 5, 4)))
    kernel, bias = parameter(rng.normal(size=(12, 2, 3, 3))), parameter(rng.normal(size=12))
    h, c = convlstm_cell(x, kernel, bias, c_prev)
    loss = ad.add(tsum(hadamard(h, constant(rng.normal(size=h.shape)))), tsum(c))
    refs = [weakref.ref(h.data), weakref.ref(c.data)]
    del h, c
    assert all(r() is not None for r in refs)  # the graph holds them until backward() has walked it
    backward(loss)
    assert all(r() is None for r in refs)
    assert math.isfinite(loss.item()) and all(p.grad is not None for p in (x, c_prev, kernel, bias))


def test_second_backward_through_a_shared_node_raises_before_writing_any_grad():
    x, w = parameter(np.array([1.0, -2.0, 0.5])), parameter(np.array([0.3, 0.2, -1.0]))
    shared = hadamard(x, w)
    first, second = tsum(shared), tsum(ad.add(tanh(shared), x))
    backward(first)
    want = [x.grad.tobytes(), w.grad.tobytes()]
    for root in (second, first):
        with pytest.raises(ParameterError):
            backward(root)
        assert [x.grad.tobytes(), w.grad.tobytes()] == want


def test_no_grad_blocks_recording():
    x = parameter(np.ones(3))
    with ad.no_grad():
        y = hadamard(x, x)
    assert y._parents == ()
    assert not y.requires_grad


@pytest.mark.parametrize(
    "name,f",
    [
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


def exact_logistic(x):
    """The logistic in extended precision, evaluated from the side that cannot overflow."""
    x = np.asarray(x, dtype=np.longdouble)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1 / (1 + e), e / (1 + e))


def test_gate_sigmoid_is_within_two_ulps_of_the_logistic():
    x = np.linspace(-750.0, 750.0, 300_001)
    with np.errstate(all="raise"):
        assert np.abs(ad._gate_sigmoid(x) - exact_logistic(x)).max() <= 2.3e-16
        assert abs(ad._gate_sigmoid(np.array(0.7)) - exact_logistic(0.7)) <= 2.3e-16
        assert ad._gate_sigmoid(np.array(0.0)) == 0.5
        # the cell's forget gate reads it: through a 1x1 identity kernel with c_prev = 1 and g = 0, c = f
        pre = np.zeros((4, 1, x.size))
        pre[1] = x
        kernel = np.eye(4).reshape(4, 4, 1, 1)
        _, c = convlstm_cell(constant(pre), constant(kernel), None, constant(np.ones((1, 1, x.size))))
    assert np.abs(c.data[0, 0] - exact_logistic(x)).max() <= 2.3e-16


def test_softplus_derivative_keeps_relative_precision():
    # posterior scales far below 1 multiply d softplus / d rho, so its relative error matters
    rho_v = np.linspace(-40.0, 40.0, 801)
    exact = exact_logistic(rho_v)
    mu, rho = parameter(np.zeros_like(rho_v)), parameter(rho_v.copy())
    with np.errstate(all="raise"):
        backward(tsum(ad.bayes_draw(mu, rho, np.ones_like(rho_v))))
        x = parameter(rho_v.copy())
        backward(tsum(softplus(x)))
    assert np.array_equal(mu.grad, np.ones_like(rho_v))
    for grad in (rho.grad, x.grad):
        assert (np.abs(grad - exact) / exact).max() <= 1e-12
    # the gate form would not do: it reads 0 for the logistic of -40
    assert ad._gate_sigmoid(np.array(-40.0)) == 0.0


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


@pytest.mark.parametrize("tensors, axis", [([], 0), ([np.zeros(2)], 1), ([np.zeros((2, 3))], -3), ([np.zeros(())], 0)])
def test_concat0_of_nothing_or_along_a_missing_axis_raises_shape_error(tensors, axis):
    with pytest.raises(ShapeError):
        concat0([constant(t) for t in tensors], axis=axis)


@pytest.mark.parametrize("shape", [(5,), (2, 4), (3, 3), (7, -1)])
def test_reshape_to_another_size_raises_shape_error(shape):
    with pytest.raises(ShapeError):
        reshape(constant(np.zeros((2, 3))), shape)


@pytest.mark.parametrize("axis", [1, -1, -2])
def test_slice0_along_an_axis_equals_numpy_slicing(axis):
    rng = np.random.default_rng(60)
    av = rng.standard_normal((4, 5, 6))
    index = [slice(None)] * 3
    index[axis] = slice(1, 4)
    a = parameter(av)
    out = slice0(a, 1, 4, axis=axis)
    g = rng.standard_normal(out.shape)
    backward(tsum(hadamard(out, constant(g))))
    want_grad = np.zeros_like(av)
    want_grad[tuple(index)] = g  # the VJP fills every entry outside the slice with zeros
    assert out.shape == av[tuple(index)].shape and np.array_equal(out.data, av[tuple(index)])
    assert np.array_equal(a.grad, want_grad)


@pytest.mark.parametrize("start, stop, axis", [(0, 6, 1), (-1, 2, 1), (3, 3, 2), (4, 2, -1), (0, 5, 2), (0, 7, -2),
                                               (0, 1, 3), (0, 1, -4)])
def test_slice0_rejects_out_of_range_bounds_and_axes(start, stop, axis):
    with pytest.raises(ShapeError):
        slice0(constant(np.zeros((4, 5, 4))), start, stop, axis=axis)


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
        edges = [(len(d._parents), any(p._parents for p in d._parents)) for d in (k, b)]  # backward() frees them
        backward(ad.add(tsum(hadamard(k, weight)), tsum(b)))
        return k, b, [t.grad.tobytes() for t in params], edges

    def fused(mu, rho, bias_mu, bias_rho):
        return sample_bayes_kernel(BayesConvParams(mu, rho, bias_mu, bias_rho), np.random.default_rng(1))

    def unfused(mu, rho, bias_mu, bias_rho):
        draws = np.random.default_rng(1)
        k = ad.add(mu, hadamard(softplus(rho), constant(draws.standard_normal(mu.shape))))
        return k, ad.add(bias_mu, hadamard(softplus(bias_rho), constant(draws.standard_normal(bias_mu.shape))))

    k, b, grads, edges = run(fused)
    ref_k, ref_b, ref_grads, _ = run(unfused)
    assert k.data.tobytes() == ref_k.data.tobytes() and b.data.tobytes() == ref_b.data.tobytes()
    assert grads == ref_grads
    assert edges == [(2, False), (2, False)]  # one node per draw, straight on the posterior's leaves


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


def test_the_cell_activates_its_one_gate_buffer():
    """One cell: autodiff's convlstm_cell takes no activation buffer, and model.convlstm_step returns its result."""
    tree = ast.parse(Path(ad.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_cell" not in defs and "lstm_cell" not in defs
    cell = defs["convlstm_cell"]
    assert [a.arg for a in cell.args.args] == ["x", "kernel", "bias", "c_prev"]
    assert "act" not in {node.id for node in ast.walk(cell) if isinstance(node, ast.Name)}
    tree = ast.parse(Path(model_module.__file__).read_text(encoding="utf-8"))
    step = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "convlstm_step")
    called = {node.func.attr for node in ast.walk(step) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)}
    assert "conv2d" not in called
    returned = step.body[-1]
    assert isinstance(returned, ast.Return) and returned.value.func.attr == "convlstm_cell"
