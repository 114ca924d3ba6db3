"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

Only the primitives the recurrent model and the KL/soft-DTW loss need are
implemented: elementwise arithmetic, gate nonlinearities, the ConvLSTM cell,
same-padded 2-D cross-correlation, a full-map softmax and the Bayesian weight
draw. `node` also records ops whose forward pass and VJP are written elsewhere,
such as the fused soft-DTW loss in `losses`. Everything runs in double
precision; graphs are built per forward pass and freed with it.
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
        inherited = _grad_enabled and any(p.requires_grad for p in _parents)
        self.requires_grad = bool(requires_grad) or inherited
        self.grad = None
        self._parents = _parents if (self.requires_grad and _grad_enabled) else ()
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
    """One graph node; vjp maps the output gradient to one gradient (or None) per parent."""
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
    # evaluate from the side that cannot overflow
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))  # exp(-|x|)
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid_values(a.data)
    return node(y, (a,), lambda g: (g * y * (1.0 - y),))


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
    return node(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat0(tensors, axis: int = 0) -> Tensor:
    """Concatenate along `axis` (default 0); every other dimension must match."""
    tensors = list(tensors)
    axis = range(tensors[0].data.ndim)[axis]  # a negative axis counts from the end
    shapes = [t.data.shape[:axis] + t.data.shape[axis + 1:] for t in tensors]
    if any(s != shapes[0] for s in shapes):
        raise ShapeError(f"concat0: dimensions other than axis {axis} differ")
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def vjp(g):
        return np.split(g, splits, axis=axis)

    return node(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def slice0(a: Tensor, start: int, stop: int) -> Tensor:
    """View of rows [start, stop) along axis 0."""
    n = a.data.shape[0]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"slice0 [{start}:{stop}] out of range for axis of size {n}")

    def vjp(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return node(a.data[start:stop].copy(), (a,), vjp)


def map_softmax(a: Tensor) -> Tensor:
    """Softmax over every entry of the tensor; output sums to 1."""
    x = a.data
    shifted = x - x.max()
    e = np.exp(shifted)
    y = e / e.sum()
    return node(y, (a,), lambda g: (y * (g - float((g * y).sum())),))


def lstm_cell(pre: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """ConvLSTM cell update (Shi et al. 2015) from stacked gate pre-activations.

    pre: [4 * hidden, ...], the rows of gates i, f, o and g in that order;
    c_prev: [hidden, ...]. Returns (h, c) with c = f * c_prev + i * g and
    h = o * tanh(c), where i, f and o are sigmoids and g a tanh of their rows.
    c is one node on (pre, c_prev) and h one node on (pre, c).
    """
    n = c_prev.data.shape[0]
    if pre.data.shape != (4 * n, *c_prev.data.shape[1:]):
        raise ShapeError(f"lstm_cell: pre-activations {pre.data.shape} vs cell state {c_prev.data.shape}")
    ifo = _sigmoid_values(pre.data[:3 * n])
    i, f, o = ifo[:n], ifo[n:2 * n], ifo[2 * n:]
    g = np.tanh(pre.data[3 * n:])
    c_val = f * c_prev.data + i * g
    tc = np.tanh(c_val)

    def c_vjp(gc):
        gpre = np.zeros_like(pre.data)
        gpre[:n] = gc * g * i * (1.0 - i)
        gpre[n:2 * n] = gc * c_prev.data * f * (1.0 - f)
        gpre[3 * n:] = gc * i * (1.0 - g * g)
        return (gpre, gc * f)

    def h_vjp(gh):
        gpre = np.zeros_like(pre.data)
        gpre[2 * n:3 * n] = gh * tc * o * (1.0 - o)
        return (gpre, gh * o * (1.0 - tc * tc))

    c = node(c_val, (pre, c_prev), c_vjp)
    return node(o * tc, (pre, c), h_vjp), c


# ---------------------------------------------------------------------------
# convolution


def _shifted(offset: int, n: int) -> tuple[slice, slice]:
    """Output and input ranges of one axis of length n read at `offset` from each output index."""
    lo = min(n, max(0, -offset))
    hi = max(lo, min(n, n - offset))
    return slice(lo, hi), slice(lo + offset, hi + offset)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Same-padded 2-D cross-correlation.

    x: [C_in, H, W]; kernel: [C_out, C_in, k, k] with k odd; bias: [C_out] or
    None. Spatial size is preserved with zero padding.
    """
    xd, kd = x.data, kernel.data
    if xd.ndim != 3 or kd.ndim != 4:
        raise ShapeError(f"conv2d: input ndim {xd.ndim}, kernel ndim {kd.ndim}")
    c_out, c_in, kh, kw = kd.shape
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d: kernel must be square with odd size, got {kh}x{kw}")
    if xd.shape[0] != c_in:
        raise ShapeError(f"conv2d: input has {xd.shape[0]} channels, kernel expects {c_in}")
    if bias is not None and bias.data.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.data.shape} != ({c_out},)")
    _, h, w = xd.shape
    pad = kh // 2

    # patches[:, di, dj, r, c] = x[:, r + di - pad, c + dj - pad], zero outside x;
    # rows ordered (channel, di, dj) to match kernel.reshape(c_out, -1)
    windows = [(di, dj, _shifted(di - pad, h), _shifted(dj - pad, w)) for di in range(kh) for dj in range(kw)]
    patches = np.zeros((c_in, kh, kw, h, w))
    for di, dj, (rows, src_rows), (cols, src_cols) in windows:
        patches[:, di, dj, rows, cols] = xd[:, src_rows, src_cols]
    patches = patches.reshape(c_in * kh * kw, h * w)
    k2 = kd.reshape(c_out, -1)
    out = (k2 @ patches).reshape(c_out, h, w)
    if bias is not None:
        out = out + bias.data[:, None, None]

    def vjp(g):
        gm = g.reshape(c_out, -1)
        grad_k = (gm @ patches.T).reshape(kd.shape)
        cols_g = (k2.T @ gm).reshape(c_in, kh, kw, h, w)
        grad_x = np.zeros_like(xd)
        for di, dj, (rows, src_rows), (cols, src_cols) in windows:
            grad_x[:, src_rows, src_cols] += cols_g[:, di, dj, rows, cols]
        if bias is None:
            return (grad_x, grad_k)
        return (grad_x, grad_k, g.sum(axis=(1, 2)))

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return node(out, parents, vjp)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Populate .grad on every reachable requires_grad tensor.

    The loss must be scalar. Calling backward twice on the same loss without
    rebuilding the graph raises, because intermediate buffers are not retained
    for reuse semantics.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss._done:
        raise ParameterError("backward already ran on this graph; rebuild it or reset grads first")
    loss._done = True

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
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and not node._parents:
            node.grad = g if node.grad is None else node.grad + g
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
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
