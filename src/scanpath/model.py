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
from dataclasses import dataclass, fields, replace

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
# Sampling-time knobs: a model read against a config samples with the config's values, not the checkpoint's.
SAMPLING_FIELDS = ("th", "threshold_mode")


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
        as given. The other input is ignored; a missing one, or a precomputed
        tensor that holds NaN or inf, raises DataError.
        """
        cfg = self.cfg
        if cfg.feature_source == "precomputed":
            if precomputed is None:
                raise DataError("feature_source=precomputed needs a precomputed feature tensor")
            feats = precomputed if isinstance(precomputed, Tensor) else ad.constant(precomputed)
            expected = (cfg.feature_channels, cfg.grid.height, cfg.grid.width)
            if feats.data.shape != expected:
                raise ConfigMismatchError(f"feature tensor shape {feats.data.shape} != expected {expected}")
            if not np.isfinite(feats.data).all():
                raise DataError("precomputed feature tensor holds NaN or inf")
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

    def _run_stack(self, x: Tensor, state: list, sampled) -> Tensor:
        """One step up the layers; state holds each layer's (h, c) and is updated in place.

        Each layer is one `ad.convlstm_cell`: the gate convolution of the channel blocks [x, h_prev], read as one
        input without concatenating them, fused with the cell update into two graph nodes. A layer whose h is
        None (the zero state) convolves its input alone, so its kernel holds the input-side columns.
        """
        for l, (kernel, bias) in enumerate(sampled):
            h_prev, c_prev = state[l]
            x, c = ad.convlstm_cell(x if h_prev is None else [x, h_prev], kernel, bias, c_prev)
            state[l] = (x, c)
        return x

    # -- rollouts -----------------------------------------------------------

    def _unroll(self, feat: Tensor, rng: np.random.Generator, feed) -> list[Tensor]:
        """Per-step map tensors over n_fixations steps, from kernels drawn once, zero state and the center prior.

        Layer 0's input is [features; map; coords]. The feature and coordinate channels are the same at every
        step, so their share of the gate pre-activations, with the drawn bias, is convolved once from the blocks
        [feat, coords]; each step then convolves only [map; h] and adds that share as a per-pixel bias. At t = 0
        the state is zero and every layer convolves its input with the input-side kernel columns only. Only the
        kernel columns are concatenated, once per rollout; no activation is.
        feed(t, tspm) returns the map fed at step t + 1; it is not called after the last step.
        """
        cfg = self.cfg
        f, n = cfg.feature_channels, cfg.hidden_channels
        (k0, b0), *upper = self._sample_layer_weights(rng)
        cols = lambda k, start, stop: ad.slice0(k, start, stop, axis=1)
        share = ad.conv2d([feat, self._coord], ad.concat0([cols(k0, 0, f), cols(k0, f + 1, f + 3)], 1), b0)
        map_cols = cols(k0, f, f + 1)
        first = [(map_cols, share)] + [(cols(k, 0, n), b) for k, b in upper]
        steps = [(ad.concat0([map_cols, cols(k0, f + 3, f + 3 + n)], 1), share)] + upper
        zero = ad.constant(np.zeros((n, cfg.grid.height, cfg.grid.width)))
        state = [(None, zero)] * cfg.layers
        current = self.prior.g_c.values
        frames = []
        for t in range(cfg.n_fixations):
            h = self._run_stack(ad.constant(current[None]), state, steps if t else first)
            frames.append(tspm_head(h, self.head_kernel, self.head_bias))
            if t < cfg.n_fixations - 1:
                current = feed(t, frames[-1])
        return frames

    def _point_feed(self, rng: np.random.Generator, th: float, points: list, maps: list, prefix=()):
        """Feed of _unroll and rollout's last step: prefix[t], else a point drawn from step t's map; fills the lists."""
        cfg = self.cfg

        def feed(t, tspm):
            maps.append(tensor_to_probmap(tspm, cfg.grid))
            src = prefix[t] if t < len(prefix) else sample_next_point(maps[-1], th, rng, cfg.threshold_mode)
            points.append(GazePoint(src.x, src.y, t))
            return gaussian_map(points[-1], cfg.grid, cfg.sigma).values

        return feed

    def rollout(self, feat: Tensor, rng: np.random.Generator,
                prefix: Scanpath | None = None, image_id: str = "",
                observer_id: str = "model", th: float | None = None):
        """Sample one scanpath; returns it with the per-step probability maps.

        Bayesian kernels are drawn once at the start. The first step sees the center-prior map; a prefix, when
        given, is teacher-forced: its points are taken verbatim and fed back instead of samples. The last point
        comes from one more call of the feed, whose map goes unused; image_id defaults to the prefix's.
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

        points, frames = [], []
        with ad.no_grad():
            feed = self._point_feed(rng, threshold, points, frames, prefix.points if prefix is not None else ())
            feed(cfg.n_fixations - 1, self._unroll(feat, rng, feed)[-1])
        return Scanpath(tuple(points), image_id, observer_id), frames

    def rollout_training(self, feat: Tensor, rng: np.random.Generator,
                         input_maps=None) -> list[Tensor]:
        """Differentiable rollout collecting the per-step map tensors.

        input_maps[t] is the fixation map fed at step t+1 (teacher forcing);
        with input_maps=None the model feeds back its own sampled fixations.
        """
        if input_maps is None:
            return self._unroll(feat, rng, self._point_feed(rng, self.cfg.th, [], []))
        if len(input_maps) < self.cfg.n_fixations - 1:
            raise ParameterError("need n_fixations - 1 teacher-forcing maps")
        maps = [m.values if isinstance(m, ProbMap) else np.asarray(m) for m in input_maps]
        return self._unroll(feat, rng, lambda t, _: maps[t])

    def complete_scanpath(self, feat: Tensor, prefix: Scanpath, rng: np.random.Generator) -> Scanpath:
        """Continue a partial scanpath to full length, keeping the prefix verbatim."""
        if prefix is None:
            raise ParameterError("complete_scanpath needs a prefix")
        path, _ = self.rollout(feat, rng, prefix=prefix, observer_id=prefix.observer_id)
        return path


def convlstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, gate_weights: dict):
    """One ConvLSTM cell update from explicit per-gate weights, through the model's `ad.convlstm_cell`.

    gate_weights maps each of "i", "f", "o", "g" to (x_kernel, h_kernel, bias). They are joined as
    `_gate_blocks` lays out a layer: kernel rows by gate in GATE_ORDER, x columns then h columns. Returns (h, c)
    with c = f * c_prev + i * g and h = o * tanh(c), where each gate is its nonlinearity (sigmoid for i, f and
    o, tanh for g) of conv2d(x, x_kernel, bias) + conv2d(h_prev, h_kernel).
    """
    w = [gate_weights[gate] for gate in GATE_ORDER]
    kernel = ad.concat0([ad.concat0([kx, kh], axis=1) for kx, kh, _ in w])
    return ad.convlstm_cell([x, h_prev], kernel, ad.concat0([b for _, _, b in w]), c_prev)


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
        if flat == v.size:  # rounding can leave cdf[-1] below the draw: take the last surviving pixel
            flat = int(np.flatnonzero(w)[-1])
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
    except (KeyError, ValueError, ParameterError) as exc:
        raise FormatError(f"checkpoint hyperparameters: {exc!r}") from None


def model_from_checkpoint(ckpt, expected: ModelConfig | None = None):
    """Rebuild a model (and Adam moments, rng state) from a checkpoint.

    Raises ConfigMismatchError when the stored hyperparameters disagree with
    the expected configuration, and FormatError when a parameter or Adam tensor
    holds NaN or inf; the model samples with expected's SAMPLING_FIELDS.
    """
    from .autodiff import AdamState

    cfg = config_from_hyper(ckpt.hyper)
    hyper, rng = ckpt.hyper, None
    try:
        step, adam_step = int(hyper.get("step", "0")), int(hyper.get("adam_step", "0"))
        if min(step, adam_step) < 0:
            raise ValueError(f"negative step count {min(step, adam_step)}")
        if "rng_state" in hyper:
            has_uint32 = int(hyper["rng_has_uint32"])
            if has_uint32 not in (0, 1):
                raise ValueError(f"rng_has_uint32 is {has_uint32}, not 0 or 1")
            bg = np.random.PCG64()
            bg.state = {"bit_generator": "PCG64",
                        "state": {"state": int(hyper["rng_state"]), "inc": int(hyper["rng_inc"])},
                        "has_uint32": has_uint32, "uinteger": int(hyper["rng_uinteger"])}
            rng = np.random.Generator(bg)
    except (KeyError, ValueError, OverflowError) as exc:
        raise FormatError(f"checkpoint trailer: {exc!r}") from None
    if expected is not None:
        cfg = replace(cfg, **{name: getattr(expected, name) for name in SAMPLING_FIELDS})
        diffs = [
            f"{f.name}: checkpoint {getattr(cfg, f.name)} != config {getattr(expected, f.name)}"
            for f in fields(ModelConfig)
            if getattr(cfg, f.name) != getattr(expected, f.name)
        ]
        if diffs:
            raise ConfigMismatchError("checkpoint does not match configuration: " + "; ".join(diffs))

    model = ScanpathModel.create(cfg, np.random.default_rng(0))
    params = [t for _, t in model.parameters()]
    targets = [("", [t.data for t in params])]
    adam = None
    if any(name.startswith("adam.") for name in ckpt.tensors):
        adam = AdamState.init(params)
        adam.step = adam_step
        targets += [("adam.m.", adam.first_moment), ("adam.v.", adam.second_moment)]
    for prefix, arrays in targets:
        for name, view in _checkpoint_views(model, arrays):
            name = prefix + name
            if name not in ckpt.tensors:
                raise ConfigMismatchError(f"checkpoint is missing tensor '{name}'")
            if ckpt.tensors[name].shape != view.shape:
                raise ConfigMismatchError(
                    f"tensor '{name}' has shape {ckpt.tensors[name].shape}, expected {view.shape}")
            if not np.isfinite(ckpt.tensors[name]).all():
                raise FormatError(f"checkpoint tensor '{name}' holds NaN or inf")
            view[...] = ckpt.tensors[name]

    return model, adam, step, rng
