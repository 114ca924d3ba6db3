"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

Only the primitives the recurrent model and the KL/soft-DTW loss need are
implemented: elementwise arithmetic, gate nonlinearities, same-padded 2-D
cross-correlation, the ConvLSTM cell (alone, or fused with its gate
convolution into one layer step of two nodes), a full-map softmax and the
Bayesian weight draw. `node` also records ops whose forward pass and VJP are written elsewhere,
such as the fused soft-DTW loss in `losses`. Everything runs in double
precision; graphs are built per forward pass, and backward() frees each
node's part of its graph as it walks past it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """Dense float64 array plus the graph edge that produced it."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_done")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self.grad = None
        self._parents = _parents if self.requires_grad else ()
        self._vjp = _vjp if self._parents else None
        self._done = False

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def node(data, parents, vjp) -> Tensor:
    """One graph node; vjp maps the output gradient to one gradient (or None) per parent.

    Under no_grad the result is a bare constant: no parents and no VJP are kept.
    """
    if not _grad_enabled:
        return Tensor(data)
    return Tensor(data, _parents=tuple(parents), _vjp=vjp)


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return node(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return node(a.data - b.data, (a, b), lambda g: (g, -g))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "hadamard")
    ad, bd = a.data, b.data
    return node(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scalar_mul(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return node(a.data * s, (a,), lambda g: (g * s,))


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # evaluate from the side that cannot overflow; keeps full relative precision
    # for very negative x, which the softplus derivative sigmoid(rho) needs
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))  # exp(-|x|)
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def _gate_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic as 0.5 + 0.5 * tanh(x / 2): one transcendental and nothing to overflow.

    Within 2.3e-16 of the exact logistic everywhere, but only absolutely: for
    very negative x it reads 0 where the logistic is a tiny positive number.
    Written into `out` when given (which may be x itself).
    """
    y = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    y *= 0.5
    y += 0.5
    return y


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return node(y, (a,), lambda g: (g * (1.0 - y * y),))


def softplus(a: Tensor) -> Tensor:
    x = a.data
    y = np.logaddexp(0.0, x)
    sig = _sigmoid_values(x)
    return node(y, (a,), lambda g: (g * sig,))


def texp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    return node(y, (a,), lambda g: (g * y,))


def tlog(a: Tensor) -> Tensor:
    x = a.data
    if np.any(x <= 0):
        raise ParameterError("log of non-positive tensor entry")
    return node(np.log(x), (a,), lambda g: (g / x,))


def recip(a: Tensor) -> Tensor:
    x = a.data
    y = 1.0 / x
    return node(y, (a,), lambda g: (-g * y * y,))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    x = a.data
    mask = (x >= floor).astype(np.float64)
    return node(np.maximum(x, floor), (a,), lambda g: (g * mask,))


def tsum(a: Tensor) -> Tensor:
    """Sum of all entries, as a 0-d tensor."""
    shape = a.data.shape
    return node(np.asarray(a.data.sum()), (a,), lambda g: (np.full(shape, float(np.asarray(g).reshape(()))),))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot reshape {old} to {shape}") from None
    return node(out, (a,), lambda g: (g.reshape(old),))


def concat0(tensors, axis: int = 0) -> Tensor:
    """Concatenate along `axis` (default 0); every other dimension must match."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat0: nothing to concatenate")
    ndim = tensors[0].data.ndim
    if not -ndim <= axis < ndim:
        raise ShapeError(f"concat0: axis {axis} out of range for {ndim} dimensions")
    axis %= ndim  # a negative axis counts from the end
    shapes = [t.data.shape[:axis] + t.data.shape[axis + 1:] for t in tensors]
    if any(s != shapes[0] for s in shapes):
        raise ShapeError(f"concat0: dimensions other than axis {axis} differ")
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def vjp(g):
        return np.split(g, splits, axis=axis)

    return node(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def slice0(a: Tensor, start: int, stop: int, axis: int = 0) -> Tensor:
    """Copy of entries [start, stop) along `axis` (default 0; a negative axis counts from the end).

    The VJP scatters the gradient into zeros of a's shape."""
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"slice0: axis {axis} out of range for {a.data.ndim} dimensions")
    n = a.data.shape[axis]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"slice0 [{start}:{stop}] out of range for axis of size {n}")
    index = (slice(None),) * (axis % a.data.ndim) + (slice(start, stop),)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return node(a.data[index].copy(), (a,), vjp)


def map_softmax(a: Tensor) -> Tensor:
    """Softmax over every entry of the tensor; output sums to 1."""
    x = a.data
    shifted = x - x.max()
    e = np.exp(shifted)
    y = e / e.sum()
    return node(y, (a,), lambda g: (y * (g - float((g * y).sum())),))


# ---------------------------------------------------------------------------
# convolution


def _zero_wrapped(taps: np.ndarray) -> None:
    """Zero tap (di, dj) of each pixel whose column c + dj - k // 2 is outside [0, W) in a [C, k, k, H, W] tap array.

    Nothing is written where no column wraps, as in a (read-only) 1x1 unfold."""
    k, w = taps.shape[2], taps.shape[4]
    for dj in range(k):
        lo, hi = min(w, max(0, k // 2 - dj)), max(0, min(w, w + k // 2 - dj))
        if lo > 0:
            taps[:, :, dj, :, :lo] = 0.0
        if hi < w:
            taps[:, :, dj, :, hi:] = 0.0


def _patches(blocks, k: int) -> np.ndarray:
    """[C*k*k, H*W] im2col matrix of a same-padded k x k window over the blocks' C channels, rows (channel, di, dj).

    The blocks are written, flattened, into the interior of a [C, m + H*W + m] buffer with zeroed margins,
    m = (k // 2) * (W + 1), where tap (di, dj) of every pixel is the constant flat offset (di - k // 2) * W +
    (dj - k // 2): rows above or below the image land in the zero margins, and columns left or right of it wrap
    into a neighbouring row. The matrix is one C-order copy of a strided view of that buffer, with the wrapped
    taps then zeroed."""
    c, (h, w) = sum(len(b) for b in blocks), blocks[0].shape[1:]
    m = k // 2 * (w + 1)
    buf = np.empty((c, 2 * m + h * w))
    buf[:, :m] = buf[:, m + h * w:] = 0.0
    c0 = 0
    for b in blocks:
        buf[c0:c0 + len(b), m:m + h * w] = b.reshape(len(b), -1)
        c0 += len(b)
    s0, s1 = buf.strides
    view = np.lib.stride_tricks.as_strided(buf, (c, k, k, h * w), (s0, w * s1, s1, s1), writeable=False)
    cols = np.ascontiguousarray(view)
    _zero_wrapped(cols.reshape(c, k, k, h, w))
    return cols.reshape(c * k * k, h * w)


def _conv(x, kernel: Tensor, bias: Tensor | None, op: str):
    """conv2d's forward pass over checked arguments: (output, parents, VJP), the VJP mapping the output's gradient
    to one gradient (or None) per parent."""
    blocks = [x] if isinstance(x, Tensor) else list(x)
    datas, kd = [b.data for b in blocks], kernel.data
    if not datas:
        raise ShapeError(f"{op}: no input blocks")
    if kd.ndim != 4 or any(d.ndim != 3 for d in datas):
        raise ShapeError(f"{op}: input ndims {[d.ndim for d in datas]}, kernel ndim {kd.ndim}")
    c_out, c_in, k, kw = kd.shape
    if k != kw or k % 2 == 0:
        raise ShapeError(f"{op}: kernel must be square with odd size, got {k}x{kw}")
    _, h, w = datas[0].shape
    if any(d.shape[1:] != (h, w) for d in datas):
        raise ShapeError(f"{op}: input blocks differ in H x W: {[d.shape[1:] for d in datas]}")
    if sum(len(d) for d in datas) != c_in:
        raise ShapeError(f"{op}: input has {sum(len(d) for d in datas)} channels, kernel expects {c_in}")
    if bias is not None and bias.data.shape not in ((c_out,), (c_out, h, w)):
        raise ShapeError(f"{op}: bias shape {bias.data.shape} is neither ({c_out},) nor {(c_out, h, w)}")

    k2 = kd.reshape(c_out, -1)
    out = (k2 @ _patches(datas, k)).reshape(c_out, h, w)
    if bias is not None:
        out += bias.data if bias.data.ndim == 3 else bias.data[:, None, None]

    def vjp(g):
        gm = g.reshape(c_out, -1)
        grad_k = (_patches(datas, k) @ gm.T).T.reshape(kd.shape)  # this order sums alike at any BLAS thread count
        grads_x = [None] * len(blocks)
        if any(b.requires_grad for b in blocks):
            p, hw = k // 2, h * w
            m = p * (w + 1)
            taps = np.empty((c_in * k * k, 2 * m + hw))
            taps[:, :m] = taps[:, m + hw:] = 0.0
            # with one output channel Kᵀ·g is an outer product: no sums, so the broadcast product has its bits
            (np.multiply if c_out == 1 else np.matmul)(k2.T, gm, out=taps[:, m:m + hw])
            taps = taps.reshape(c_in, k, k, -1)
            _zero_wrapped(taps[..., m:m + hw].reshape(c_in, k, k, h, w))
            c0 = 0
            for j, (b, d) in enumerate(zip(blocks, datas)):
                c1 = c0 + len(d)
                if b.requires_grad:
                    acc = np.zeros((c1 - c0, hw))
                    for di in range(k):
                        for dj in range(k):
                            # tap (di, dj) of output pixel q reads input pixel q + (di - p) * W + (dj - p)
                            start = m - (di - p) * w - (dj - p)
                            acc += taps[c0:c1, di, dj, start:start + hw]
                    grads_x[j] = acc.reshape(d.shape)
                c0 = c1
        if bias is None:
            return (*grads_x, grad_k)
        return (*grads_x, grad_k, g if bias.data.ndim == 3 else g.sum(axis=(1, 2)))

    return out, ((*blocks, kernel) if bias is None else (*blocks, kernel, bias)), vjp


def conv2d(x, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Same-padded 2-D cross-correlation.

    x: [C_in, H, W], or a list of [C_j, H, W] blocks read as their channel
    concatenation (no concatenated copy is made); kernel: [C_out, C_in, k, k]
    with k odd; bias: [C_out], a per-pixel [C_out, H, W] (whose gradient is
    the output's own) or None. Spatial size is preserved with zero padding.

    Both directions run on `_patches`' zero-margined flat layout: the forward
    unfolds it; the VJP writes Kᵀ·g into the interior of one such buffer by
    one GEMM over all channels, then folds each block that needs a gradient
    by adding its k² shifted windows in (di, dj) order, the order of a per-tap
    col2im. A block that needs none gets None.

    The node keeps no im2col matrix: the VJP rebuilds it from the blocks' data
    and reads kernel.data when backward() runs, so neither may be changed in
    place between this call and backward().
    """
    return node(*_conv(x, kernel, bias, "conv2d"))


def convlstm_cell(x, kernel: Tensor, bias: Tensor | None, c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """One ConvLSTM layer step (Shi et al. 2015): the gate convolution fused with the cell update, as two nodes.

    x, kernel and bias are as in conv2d; the 4 * hidden output rows are gates i, f, o and g in that order, and
    c_prev is [hidden, H, W]. On pre = conv2d(x, kernel, bias), returns (h, c) with c = f * c_prev + i * g and
    h = o * tanh(c): g is a tanh of its rows, i, f and o sigmoids of theirs, each 0.5 + 0.5 * tanh(x / 2).

    pre is activated in place and never becomes a node: c is one node on (x's blocks, kernel, bias, c_prev), h one
    on c alone. The graph keeps the activated gates, c and h; under no_grad only c and h. h's VJP recomputes
    tanh(c) and writes the o rows of the gates' gradient over the o gates; c's, which runs after it, writes the
    i, f and g rows (and zeros over the o rows when h got no gradient) and runs conv2d's VJP on them. As with
    conv2d, neither the blocks' data nor kernel.data may be changed in place before backward().
    """
    pre, parents, conv_vjp = _conv(x, kernel, bias, "convlstm_cell")
    n = c_prev.data.shape[0]
    if pre.shape != (4 * n, *c_prev.data.shape[1:]):
        raise ShapeError(f"convlstm_cell: pre-activations {pre.shape} vs cell state {c_prev.data.shape}")
    _gate_sigmoid(pre[:3 * n], out=pre[:3 * n])
    np.tanh(pre[3 * n:], out=pre[3 * n:])
    i, f, o, g = pre[:n], pre[n:2 * n], pre[2 * n:3 * n], pre[3 * n:]
    c_val = f * c_prev.data
    c_val += i * g
    h_val = np.tanh(c_val)
    h_val *= o
    h_ran = False

    def c_vjp(gc):
        g_prev = gc * f
        gi = gc * g * i  # i and g each read the other's activation, so one product is taken before either is written
        np.multiply(gc * i, 1.0 - g * g, out=g)
        np.multiply(gi, 1.0 - i, out=i)
        np.multiply(gc * c_prev.data * f, 1.0 - f, out=f)
        if not h_ran:
            o[...] = 0.0
        return (*conv_vjp(pre), g_prev)

    def h_vjp(gh):
        nonlocal h_ran
        tc = np.tanh(c_val)
        gc = gh * o * (1.0 - tc * tc)
        np.multiply(gh * tc * o, 1.0 - o, out=o)
        h_ran = True
        return (gc,)

    c = node(c_val, (*parents, c_prev), c_vjp)
    return node(h_val, (c,), h_vjp), c


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Populate .grad on every reachable requires_grad tensor.

    The loss must be scalar. A graph is walked once and freed as it is walked:
    each node is marked done, and its VJP and parent edges (with the arrays the
    VJP keeps) are dropped as soon as the VJP has run. A later backward() that
    reaches a done node, through the same loss or another root sharing it,
    raises ParameterError before any .grad is written.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._done:
            raise ParameterError("backward already ran through this graph; rebuild it first")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    # topo keeps each node's output until return: popping it too measured ~1000 more page faults per train step
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        parents, vjp = node._parents, node._vjp
        if parents:
            node._parents, node._vjp, node._done = (), None, True
        elif g is not None and node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if g is None or vjp is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            pg = np.asarray(pg, dtype=np.float64).reshape(parent.data.shape)
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


def collect_grads(params) -> list[np.ndarray]:
    """Gradients for an ordered parameter list; disconnected ones are zero."""
    return [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]


# ---------------------------------------------------------------------------
# Bayesian convolution parameters


@dataclass
class BayesConvParams:
    """Gaussian posterior over one convolution: kernel mean and pre-softplus scale.

    bias_mu/bias_rho hold the bias posterior, or None for a convolution
    without bias. A ConvLSTM layer is one such posterior, its kernel spanning
    all four gates and both the input and the hidden channels.
    """

    mu: Tensor
    rho: Tensor
    bias_mu: Tensor | None = None
    bias_rho: Tensor | None = None

    def tensors(self):
        out = [("mu", self.mu), ("rho", self.rho)]
        if self.bias_mu is not None:
            out += [("bias_mu", self.bias_mu), ("bias_rho", self.bias_rho)]
        return out


def bayes_draw(mu: Tensor, rho: Tensor, eps: np.ndarray) -> Tensor:
    """mu + softplus(rho) * eps as one node; its VJP alone computes d softplus / d rho = sigmoid(rho)."""
    return node(mu.data + np.logaddexp(0.0, rho.data) * eps, (mu, rho),
                lambda g: (g, g * eps * _sigmoid_values(rho.data)))


def sample_bayes_kernel(p: BayesConvParams, rng: np.random.Generator):
    """Reparameterized draw: w = mu + softplus(rho) * eps, eps ~ N(0, 1).

    Differentiable w.r.t. mu and rho; the same generator state yields the
    same sample. Returns (kernel, bias) with bias None when the params carry
    no bias posterior.
    """
    kernel = bayes_draw(p.mu, p.rho, rng.standard_normal(p.mu.data.shape))
    bias = None
    if p.bias_mu is not None:
        bias = bayes_draw(p.bias_mu, p.bias_rho, rng.standard_normal(p.bias_mu.data.shape))
    return kernel, bias


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    step: int = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)

    @classmethod
    def init(cls, params) -> "AdamState":
        return cls(
            step=0,
            first_moment=[np.zeros_like(p.data) for p in params],
            second_moment=[np.zeros_like(p.data) for p in params],
        )


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """One in-place Adam update with bias correction."""
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeError("adam_step: params, grads and state lengths differ")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if g.shape != p.data.shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} != param shape {p.data.shape}")
        m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        p.data[...] = p.data - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# finite-difference harness


def grad_check(f, x: Tensor, h: float = 1e-4) -> float:
    """Max relative error between backward() grads and central differences.

    f maps a tensor to a scalar Tensor and must be pure; x is perturbed
    in place coordinate by coordinate.
    """
    x.grad = None
    out = f(x)
    backward(out)
    analytic = x.grad if x.grad is not None else np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x).item()
        flat[i] = orig - h
        down = f(x).item()
        flat[i] = orig
        numeric = (up - down) / (2.0 * h)
        a = float(analytic.reshape(-1)[i])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        worst = max(worst, err)
    return worst
