"""Generative scanpath network.

Per step the network sees image features, the previous fixation rendered as a
Gaussian map and two normalized coordinate planes, pushes them through a stack
of ConvLSTM layers whose kernels are drawn from learned Gaussian posteriors,
and emits a probability map over the next fixation's pixel. A thresholded
weighted sampler turns maps into points; feeding each sampled point back in
produces a whole scanpath. Kernels are drawn once per rollout, so one rollout
behaves like one virtual observer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import BayesConvParams, Tensor, bayes_draw
from .core import EPS, GazePoint, GridSpec, ProbMap, Scanpath, gaussian_map, parse_value
from .errors import ConfigMismatchError, DataError, FormatError, ParameterError, ShapeError
from .losses import CenterPrior

GATE_ORDER = ("i", "f", "o", "g")
FEATURE_STACK_HIDDEN = 8


@dataclass(frozen=True)
class ModelConfig:
    grid: GridSpec
    layers: int = 2
    hidden_channels: int = 16
    kernel_size: int = 3
    th: float = 0.7
    n_fixations: int = 8
    sigma: float = 2.0
    feature_channels: int = 4
    threshold_mode: str = "relative"
    feature_source: str = "trainable"

    def __post_init__(self):
        if self.layers < 1 or self.hidden_channels < 1:
            raise ParameterError("layers and hidden_channels must be >= 1")
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise ParameterError("kernel_size must be odd")
        if not (0 < self.th <= 1):
            raise ParameterError(f"threshold must be in (0, 1], got {self.th}")
        if self.n_fixations < 1:
            raise ParameterError("n_fixations must be >= 1")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ParameterError(f"sigma must be positive and finite, got {self.sigma}")
        if self.feature_channels < 1:
            raise ParameterError("feature_channels must be >= 1")
        if self.threshold_mode not in ("relative", "absolute"):
            raise ParameterError(f"unknown threshold mode '{self.threshold_mode}'")
        if self.feature_source not in ("trainable", "precomputed"):
            raise ParameterError(f"unknown feature source '{self.feature_source}'")

    @property
    def input_channels(self) -> int:
        # image features + previous fixation map + two coordinate planes
        return self.feature_channels + 1 + 2


# The checkpoint trailer stores every field but the grid under its own name;
# the grid is stored as grid_width and grid_height.
HYPER_FIELDS = tuple(f for f in fields(ModelConfig) if f.name != "grid")
# Sampling-time knobs, free to differ from the values a checkpoint was trained with.
SAMPLING_FIELDS = ("th", "threshold_mode")


@dataclass
class LstmState:
    """Per-layer hidden and cell tensors."""

    layers: list  # list of (h, c) Tensor pairs

    @classmethod
    def zeros(cls, cfg: ModelConfig) -> "LstmState":
        shape = (cfg.hidden_channels, cfg.grid.height, cfg.grid.width)
        return cls([(ad.constant(np.zeros(shape)), ad.constant(np.zeros(shape))) for _ in range(cfg.layers)])


def coord_planes(grid: GridSpec) -> np.ndarray:
    """Two planes: column index and row index, each normalized to [-1, 1]."""
    xs = np.linspace(-1.0, 1.0, grid.width) if grid.width > 1 else np.zeros(1)
    ys = np.linspace(-1.0, 1.0, grid.height) if grid.height > 1 else np.zeros(1)
    col = np.tile(xs, (grid.height, 1))
    row = np.tile(ys[:, None], (1, grid.width))
    return np.stack([col, row])


def _gate_blocks(cfg: ModelConfig, layer: int):
    """(gate, bias rows, x-side kernel block, h-side kernel block) per gate of a layer's posterior.

    Kernel rows hold the gates in GATE_ORDER; its columns the layer input's channels, then the hidden ones.
    """
    n = cfg.hidden_channels
    c_x = cfg.input_channels if layer == 0 else n
    for j, gate in enumerate(GATE_ORDER):
        rows = slice(j * n, (j + 1) * n)
        yield gate, rows, (rows, slice(0, c_x)), (rows, slice(c_x, c_x + n))


class ScanpathModel:
    """Configuration plus parameters, with rollout entry points."""

    def __init__(self, cfg: ModelConfig, conv_layers, head_kernel, head_bias, feature_layers):
        self.cfg = cfg
        self.conv_layers = conv_layers  # list[BayesConvParams]: per layer, one posterior over all 4 gates
        self.head_kernel = head_kernel
        self.head_bias = head_bias
        self.feature_layers = feature_layers  # list[(kernel, bias)] or None
        self.prior = CenterPrior.for_grid(cfg.grid, cfg.sigma)
        self._coord = ad.constant(coord_planes(cfg.grid))

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, cfg: ModelConfig, rng: np.random.Generator) -> "ScanpathModel":
        k, n = cfg.kernel_size, cfg.hidden_channels
        layers = []
        for layer_idx in range(cfg.layers):
            c_in = cfg.input_channels if layer_idx == 0 else n
            mu, bias_mu = np.empty((4 * n, c_in + n, k, k)), np.zeros(4 * n)
            # gate by gate, x side then h side: the draw order of per-gate posteriors
            for gate, rows, x, h in _gate_blocks(cfg, layer_idx):
                mu[x] = rng.normal(0.0, 1.0 / np.sqrt(c_in * k * k), size=mu[x].shape)
                mu[h] = rng.normal(0.0, 1.0 / np.sqrt(n * k * k), size=mu[h].shape)
                bias_mu[rows] = 1.0 if gate == "f" else 0.0  # forget gate remembers by default
            rho, bias_rho = np.full(mu.shape, -5.0), np.full(4 * n, -5.0)
            layers.append(BayesConvParams(*(ad.parameter(a) for a in (mu, rho, bias_mu, bias_rho))))
        # small random head so gradients reach the recurrent stack from step one
        head_kernel = ad.parameter(rng.normal(0.0, 1.0 / np.sqrt(cfg.hidden_channels),
                                              size=(1, cfg.hidden_channels, 1, 1)))
        head_bias = ad.parameter(np.zeros(1))
        feature_layers = None
        if cfg.feature_source == "trainable":
            widths = [1, FEATURE_STACK_HIDDEN, FEATURE_STACK_HIDDEN, cfg.feature_channels]
            feature_layers = []
            for j in range(3):
                std = 1.0 / np.sqrt(widths[j] * 9)
                kern = ad.parameter(rng.normal(0.0, std, size=(widths[j + 1], widths[j], 3, 3)))
                bias = ad.parameter(np.zeros(widths[j + 1]))
                feature_layers.append((kern, bias))
        return cls(cfg, layers, head_kernel, head_bias, feature_layers)

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for l, posterior in enumerate(self.conv_layers):
            out += [(f"convlstm.l{l}.{field}", t) for field, t in posterior.tensors()]
        out.append(("head.kernel", self.head_kernel))
        out.append(("head.bias", self.head_bias))
        if self.feature_layers is not None:
            for j, (kern, bias) in enumerate(self.feature_layers):
                out.append((f"features.l{j}.kernel", kern))
                out.append((f"features.l{j}.bias", bias))
        return out

    # -- features -----------------------------------------------------------

    def feature_stack(self, image: np.ndarray | None = None,
                      precomputed: np.ndarray | Tensor | None = None) -> Tensor:
        """The [F, H, W] feature tensor of one image, from the input cfg.feature_source names.

        The trainable source runs three 3x3 convolutions with tanh between them
        over a grid-resolution image; the precomputed source takes the tensor
        as given. The other input is ignored; a missing one raises DataError.
        """
        cfg = self.cfg
        if cfg.feature_source == "precomputed":
            if precomputed is None:
                raise DataError("feature_source=precomputed needs a precomputed feature tensor")
            feats = precomputed if isinstance(precomputed, Tensor) else ad.constant(precomputed)
            expected = (cfg.feature_channels, cfg.grid.height, cfg.grid.width)
            if feats.data.shape != expected:
                raise ConfigMismatchError(f"feature tensor shape {feats.data.shape} != expected {expected}")
            return feats
        if image is None:
            raise DataError("feature_source=trainable needs image pixels")
        if image.shape != (cfg.grid.height, cfg.grid.width):
            raise ShapeError(f"image shape {image.shape} does not match the grid")
        x = ad.constant(image[None, :, :])
        for j, (kern, bias) in enumerate(self.feature_layers):
            x = ad.conv2d(x, kern, bias)
            if j < len(self.feature_layers) - 1:
                x = ad.tanh(x)
        return x

    # -- stepping -----------------------------------------------------------

    def _sample_layer_weights(self, rng: np.random.Generator):
        """Per layer, (kernel over [x; h], bias) drawn once.

        eps is drawn per gate as x kernel, bias, h kernel: the order of separate per-gate posteriors.
        """
        sampled = []
        for l, p in enumerate(self.conv_layers):
            eps, eps_bias = np.empty(p.mu.data.shape), np.empty(p.bias_mu.data.shape)
            for _, rows, x, h in _gate_blocks(self.cfg, l):
                eps[x] = rng.standard_normal(eps[x].shape)
                eps_bias[rows] = rng.standard_normal(eps_bias[rows].shape)
                eps[h] = rng.standard_normal(eps[h].shape)
            sampled.append((bayes_draw(p.mu, p.rho, eps), bayes_draw(p.bias_mu, p.bias_rho, eps_bias)))
        return sampled

    def _run_stack(self, x: Tensor, state: LstmState, sampled) -> Tensor:
        for l, (kernel, bias) in enumerate(sampled):
            h_prev, c_prev = state.layers[l]
            x, c = ad.lstm_cell(ad.conv2d(ad.concat0([x, h_prev]), kernel, bias), c_prev)
            state.layers[l] = (x, c)
        return x

    def _head(self, h: Tensor) -> Tensor:
        return tspm_head(h, self.head_kernel, self.head_bias)

    # -- rollouts -----------------------------------------------------------

    def rollout(self, feat: Tensor, rng: np.random.Generator,
                prefix: Scanpath | None = None, image_id: str = "",
                observer_id: str = "model", th: float | None = None):
        """Sample one scanpath; returns it with the per-step probability maps.

        Bayesian kernels are drawn once at the start. The first step sees the
        center-prior map; a prefix, when given, is teacher-forced: its points
        are taken verbatim and fed back instead of samples.
        """
        cfg = self.cfg
        n_prefix = prefix.n if prefix is not None else 0
        if n_prefix >= cfg.n_fixations:
            raise ParameterError(f"prefix of length {n_prefix} leaves nothing to predict (N={cfg.n_fixations})")
        if prefix is not None and not image_id:
            image_id = prefix.image_id
        threshold = cfg.th if th is None else th
        if not (0 < threshold <= 1):
            raise ParameterError(f"threshold must be in (0, 1], got {threshold}")

        with ad.no_grad():
            sampled = self._sample_layer_weights(rng)
            state = LstmState.zeros(cfg)
            current = self.prior.g_c.values
            points, frames = [], []
            for t in range(cfg.n_fixations):
                x = ad.concat0([feat, ad.constant(current[None]), self._coord])
                top = self._run_stack(x, state, sampled)
                pm = tensor_to_probmap(self._head(top), cfg.grid)
                frames.append(pm)
                if t < n_prefix:
                    src = prefix.points[t]
                    pt = GazePoint(src.x, src.y, t)
                else:
                    drawn = sample_next_point(pm, threshold, rng, cfg.threshold_mode)
                    pt = GazePoint(drawn.x, drawn.y, t)
                points.append(pt)
                current = gaussian_map(pt, cfg.grid, cfg.sigma).values
        return Scanpath(tuple(points), image_id, observer_id), frames

    def rollout_training(self, feat: Tensor, rng: np.random.Generator,
                         input_maps=None) -> list[Tensor]:
        """Differentiable rollout collecting the per-step map tensors.

        input_maps[t] is the fixation map fed at step t+1 (teacher forcing);
        with input_maps=None the model feeds back its own sampled fixations.
        """
        cfg = self.cfg
        if input_maps is not None and len(input_maps) < cfg.n_fixations - 1:
            raise ParameterError("need n_fixations - 1 teacher-forcing maps")
        sampled = self._sample_layer_weights(rng)
        state = LstmState.zeros(cfg)
        current = self.prior.g_c.values
        frames = []
        for t in range(cfg.n_fixations):
            x = ad.concat0([feat, ad.constant(current[None]), self._coord])
            top = self._run_stack(x, state, sampled)
            tspm = self._head(top)
            frames.append(tspm)
            if t < cfg.n_fixations - 1:
                if input_maps is not None:
                    nxt = input_maps[t]
                    current = nxt.values if isinstance(nxt, ProbMap) else np.asarray(nxt)
                else:
                    pm = tensor_to_probmap(tspm, cfg.grid)
                    pt = sample_next_point(pm, cfg.th, rng, cfg.threshold_mode)
                    current = gaussian_map(pt, cfg.grid, cfg.sigma).values
        return frames

    def complete_scanpath(self, feat: Tensor, prefix: Scanpath,
                          rng: np.random.Generator, th: float | None = None) -> Scanpath:
        """Continue a partial scanpath to full length, keeping the prefix verbatim."""
        if prefix is None or prefix.n < 1:
            raise ParameterError("complete_scanpath needs a nonempty prefix")
        if prefix.n > self.cfg.n_fixations - 1:
            raise ParameterError(f"prefix of length {prefix.n} cannot be completed to N={self.cfg.n_fixations}")
        path, _ = self.rollout(feat, rng, prefix=prefix, image_id=prefix.image_id,
                               observer_id=prefix.observer_id, th=th)
        return path


def convlstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, gate_weights: dict):
    """One ConvLSTM cell update from explicit per-gate weights.

    gate_weights maps each of "i", "f", "o", "g" to (x_kernel, h_kernel, bias).
    Returns (h, c).
    """
    pre = []
    for gate in GATE_ORDER:
        kx, kh, b = gate_weights[gate]
        pre.append(ad.add(ad.conv2d(x, kx, b), ad.conv2d(h_prev, kh, None)))
    return ad.lstm_cell(ad.concat0(pre), c_prev)


def tspm_head(h: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """1x1 convolution to a single channel, then softmax over all pixels."""
    out = ad.conv2d(h, kernel, bias)
    flat = ad.reshape(out, out.data.shape[1:])
    return ad.map_softmax(flat)


def tensor_to_probmap(t: Tensor, grid: GridSpec) -> ProbMap:
    return ProbMap(np.maximum(t.data, EPS), grid)


def sample_next_point(tspm: ProbMap, th: float, rng: np.random.Generator,
                      mode: str = "relative") -> GazePoint:
    """Threshold, renormalize and draw one pixel by its probability.

    Pixels below th * max (relative mode) or below th (absolute mode) are
    masked out; the maximum pixel always survives.
    """
    if not (0 < th <= 1):
        raise ParameterError(f"threshold must be in (0, 1], got {th}")
    if mode not in ("relative", "absolute"):
        raise ParameterError(f"unknown threshold mode '{mode}'")
    v = tspm.values
    cut = th * float(v.max()) if mode == "relative" else th
    w = np.where(v >= cut, v, 0.0)
    total = w.sum()
    if total <= 0:  # absolute threshold above the map maximum: fall back to argmax
        flat = int(np.argmax(v))
    else:
        cdf = np.cumsum(w.reshape(-1) / total)
        flat = int(np.searchsorted(cdf, rng.random(), side="right"))
        flat = min(flat, v.size - 1)
    row, col = divmod(flat, tspm.grid.width)
    return GazePoint(float(col), float(row))


# ---------------------------------------------------------------------------
# checkpoint glue


def _checkpoint_views(model: ScanpathModel, arrays) -> list[tuple[str, np.ndarray]]:
    """Checkpoint tensor names, each with its view into arrays given in parameters() order.

    A layer's ConvLSTM posterior is stored per gate, as x.mu, x.rho,
    x.bias_mu, x.bias_rho, h.mu and h.rho slices of the joined arrays; every
    other parameter is stored whole under its own name.
    """
    n_conv = 4 * model.cfg.layers
    views = []
    for l in range(model.cfg.layers):
        mu, rho, bias_mu, bias_rho = arrays[4 * l:4 * l + 4]
        for gate, rows, x, h in _gate_blocks(model.cfg, l):
            views += [(f"convlstm.l{l}.{gate}.{name}", view) for name, view in (
                ("x.mu", mu[x]), ("x.rho", rho[x]), ("x.bias_mu", bias_mu[rows]),
                ("x.bias_rho", bias_rho[rows]), ("h.mu", mu[h]), ("h.rho", rho[h]))]
    views += [(name, a) for (name, _), a in zip(model.parameters()[n_conv:], arrays[n_conv:])]
    return views


def model_to_checkpoint(model: ScanpathModel, adam=None, step: int = 0,
                        rng_state: dict | None = None):
    """Pack parameters, optimizer moments and hyperparameters into a Checkpoint."""
    from .data_io import Checkpoint

    cfg = model.cfg
    params = [t.data for _, t in model.parameters()]
    tensors = {name: a.copy() for name, a in _checkpoint_views(model, params)}
    if adam is not None:
        for (name, m), (_, v) in zip(_checkpoint_views(model, adam.first_moment),
                                     _checkpoint_views(model, adam.second_moment)):
            tensors[f"adam.m.{name}"] = m.copy()
            tensors[f"adam.v.{name}"] = v.copy()
    hyper = {"grid_width": str(cfg.grid.width), "grid_height": str(cfg.grid.height)}
    hyper.update((f.name, str(getattr(cfg, f.name))) for f in HYPER_FIELDS)
    hyper["step"] = str(step)
    hyper["adam_step"] = str(adam.step if adam is not None else 0)
    if rng_state is not None:
        hyper["rng_state"] = str(rng_state["state"]["state"])
        hyper["rng_inc"] = str(rng_state["state"]["inc"])
        hyper["rng_has_uint32"] = str(rng_state["has_uint32"])
        hyper["rng_uinteger"] = str(rng_state["uinteger"])
    return Checkpoint(tensors=tensors, hyper=hyper)


def config_from_hyper(hyper: dict) -> ModelConfig:
    """The model configuration stored in a checkpoint trailer."""
    try:
        grid = GridSpec(int(hyper["grid_width"]), int(hyper["grid_height"]))
        return ModelConfig(grid=grid, **{f.name: parse_value(hyper[f.name], f.type) for f in HYPER_FIELDS})
    except (KeyError, ValueError) as exc:
        raise FormatError(f"checkpoint hyperparameters: {exc!r}") from None


def model_from_checkpoint(ckpt, expected: ModelConfig | None = None):
    """Rebuild a model (and Adam moments, rng state) from a checkpoint.

    Raises ConfigMismatchError when the stored hyperparameters disagree with
    the expected configuration.
    """
    from .autodiff import AdamState

    cfg = config_from_hyper(ckpt.hyper)
    if expected is not None:
        diffs = [
            f"{f.name}: checkpoint {getattr(cfg, f.name)} != config {getattr(expected, f.name)}"
            for f in fields(ModelConfig)
            if f.name not in SAMPLING_FIELDS and getattr(cfg, f.name) != getattr(expected, f.name)
        ]
        if diffs:
            raise ConfigMismatchError("checkpoint does not match configuration: " + "; ".join(diffs))

    model = ScanpathModel.create(cfg, np.random.default_rng(0))
    params = [t for _, t in model.parameters()]
    targets = [("", [t.data for t in params])]
    adam = None
    if any(name.startswith("adam.") for name in ckpt.tensors):
        adam = AdamState.init(params)
        adam.step = int(ckpt.hyper.get("adam_step", "0"))
        targets += [("adam.m.", adam.first_moment), ("adam.v.", adam.second_moment)]
    for prefix, arrays in targets:
        for name, view in _checkpoint_views(model, arrays):
            name = prefix + name
            if name not in ckpt.tensors:
                raise ConfigMismatchError(f"checkpoint is missing tensor '{name}'")
            if ckpt.tensors[name].shape != view.shape:
                raise ConfigMismatchError(
                    f"tensor '{name}' has shape {ckpt.tensors[name].shape}, expected {view.shape}")
            view[...] = ckpt.tensors[name]

    rng = None
    if "rng_state" in ckpt.hyper:
        bg = np.random.PCG64()
        bg.state = {
            "bit_generator": "PCG64",
            "state": {"state": int(ckpt.hyper["rng_state"]), "inc": int(ckpt.hyper["rng_inc"])},
            "has_uint32": int(ckpt.hyper["rng_has_uint32"]),
            "uinteger": int(ckpt.hyper["rng_uinteger"]),
        }
        rng = np.random.Generator(bg)
    return model, adam, int(ckpt.hyper.get("step", "0")), rng
