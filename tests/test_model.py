import ast
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scanpath import autodiff as ad
from scanpath import model as model_module
from scanpath.autodiff import BayesConvParams, sample_bayes_kernel
from scanpath.core import EPS, GazePoint, GridSpec, ProbMap, Scanpath, gaussian_map
from scanpath.data_io import (load_scanpath_dataset, preprocess, read_checkpoint, save_scanpath_csv, synth_dataset,
                              write_checkpoint, write_feature_tensor)
from scanpath.errors import ConfigMismatchError, DataError, FormatError, ParameterError
from scanpath.losses import LossConfig
from scanpath.model import (
    GATE_ORDER,
    ModelConfig,
    ScanpathModel,
    config_from_hyper,
    convlstm_step,
    coord_planes,
    model_from_checkpoint,
    model_to_checkpoint,
    sample_next_point,
    tensor_to_probmap,
    tspm_head,
)
from scanpath.training import TrainConfig, init_state, train_step
from test_autodiff import gate_sigmoid, naive_conv2d, unfused_cell
from test_core import peak, validate_probmap

# chi-square critical value at p = 0.01 for 63 degrees of freedom
CHI2_CRIT_63_P01 = 92.010


def tiny_cfg(**over):
    base = dict(
        grid=GridSpec(8, 8), layers=1, hidden_channels=2, kernel_size=3,
        th=0.7, n_fixations=3, sigma=1.0, feature_channels=1, feature_source="precomputed",
    )
    base.update(over)
    return ModelConfig(**base)


def zero_features(model):
    g = model.cfg.grid
    return model.feature_stack(precomputed=np.zeros((model.cfg.feature_channels, g.height, g.width)))


def test_coord_planes_3x3():
    planes = coord_planes(GridSpec(3, 3))
    assert planes.shape == (2, 3, 3)
    for row in planes[0]:
        assert np.allclose(row, [-1.0, 0.0, 1.0])
    for col in planes[1].T:
        assert np.allclose(col, [-1.0, 0.0, 1.0])


def load_features(directory, image_id):
    """The feature tensor the dataset loader attaches to image_id from directory."""
    csv = directory / f"{image_id}.csv"
    save_scanpath_csv([Scanpath((GazePoint(1.0, 1.0, 0),), image_id, "o")], csv)
    return load_scanpath_dataset(csv, features_dir=directory).images[0].features


def test_precomputed_feature_round_trip(tmp_path):
    model = ScanpathModel.create(tiny_cfg(), np.random.default_rng(0))
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((1, 8, 8))
    write_feature_tensor(tmp_path / "imgA.ftns", arr)
    assert np.array_equal(model.feature_stack(precomputed=load_features(tmp_path, "imgA")).data, arr)
    with pytest.raises(DataError):
        load_features(tmp_path, "missing")
    with pytest.raises(DataError):  # the precomputed source ignores pixels
        model.feature_stack(image=np.zeros((8, 8)))

    write_feature_tensor(tmp_path / "imgB.ftns", rng.standard_normal((3, 8, 8)))
    with pytest.raises(ConfigMismatchError):
        model.feature_stack(precomputed=load_features(tmp_path, "imgB"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_precomputed_features_holding_nan_or_inf_are_a_data_error(bad):
    model = ScanpathModel.create(tiny_cfg(), np.random.default_rng(0))
    arr = np.zeros((1, 8, 8))
    arr[0, 3, 5] = bad
    for precomputed in (arr, ad.constant(arr)):
        with pytest.raises(DataError, match="NaN or inf"):
            model.feature_stack(precomputed=precomputed)


def test_trainable_stack_zero_image_gives_zero_features():
    cfg = tiny_cfg(feature_source="trainable", feature_channels=2)
    model = ScanpathModel.create(cfg, np.random.default_rng(1))
    feats = model.feature_stack(image=np.zeros((8, 8)))
    assert np.allclose(feats.data, 0.0)
    assert feats.data.shape == (2, 8, 8)
    with pytest.raises(DataError):  # the trainable source ignores a precomputed tensor
        model.feature_stack(precomputed=np.zeros((2, 8, 8)))


def test_convlstm_step_all_zero_weights():
    rng = np.random.default_rng(2)
    c_prev = rng.standard_normal((2, 4, 4))
    x = ad.constant(rng.standard_normal((3, 4, 4)))
    h_prev = ad.constant(rng.standard_normal((2, 4, 4)))
    zero = lambda *s: ad.constant(np.zeros(s))
    weights = {g: (zero(2, 3, 3, 3), zero(2, 2, 3, 3), zero(2)) for g in GATE_ORDER}
    h, c = convlstm_step(x, h_prev, ad.constant(c_prev), weights)
    assert np.allclose(c.data, 0.5 * c_prev)
    assert np.allclose(h.data, 0.5 * np.tanh(0.5 * c_prev))


def test_convlstm_step_gate_saturation_perfect_memory():
    rng = np.random.default_rng(3)
    c0 = rng.standard_normal((2, 4, 4))
    zero_k = lambda ci: ad.constant(np.zeros((2, ci, 3, 3)))
    bias = {"i": -40.0, "f": 40.0, "o": 0.0, "g": 0.0}
    weights = {g: (zero_k(3), zero_k(2), ad.constant(np.full(2, bias[g]))) for g in GATE_ORDER}
    x = ad.constant(rng.standard_normal((3, 4, 4)))
    h, c = ad.constant(np.zeros((2, 4, 4))), ad.constant(c0)
    for _ in range(8):
        h, c = convlstm_step(x, h, c, weights)
    assert np.abs(c.data - c0).max() < 1e-6


def test_convlstm_step_matches_direct_transcription():
    rng = np.random.default_rng(4)
    c_in, hidden, k, H, W = 3, 2, 3, 4, 5
    x = rng.standard_normal((c_in, H, W))
    h_prev = rng.standard_normal((hidden, H, W))
    c_prev = rng.standard_normal((hidden, H, W))
    raw = {
        g: (
            rng.standard_normal((hidden, c_in, k, k)),
            rng.standard_normal((hidden, hidden, k, k)),
            rng.standard_normal(hidden),
        )
        for g in GATE_ORDER
    }
    weights = {g: tuple(ad.constant(w) for w in raw[g]) for g in GATE_ORDER}
    h, c = convlstm_step(ad.constant(x), ad.constant(h_prev), ad.constant(c_prev), weights)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    pre = {
        g: naive_conv2d(x, raw[g][0], raw[g][2]) + naive_conv2d(h_prev, raw[g][1], np.zeros(hidden))
        for g in GATE_ORDER
    }
    i, f, o = sig(pre["i"]), sig(pre["f"]), sig(pre["o"])
    g_ = np.tanh(pre["g"])
    c_ref = f * c_prev + i * g_
    h_ref = o * np.tanh(c_ref)
    assert np.abs(c.data - c_ref).max() < 1e-9
    assert np.abs(h.data - h_ref).max() < 1e-9


def gate_views(model, l, arrays=None):
    """{gate: {name: view}} over layer l's joined (mu, rho, bias_mu, bias_rho) posterior.

    The views are into the layer's parameters, or into arrays of their shapes.
    Names follow the checkpoint: x.mu, x.rho, x.bias_mu and x.bias_rho cover the
    layer input's channels, h.mu and h.rho the hidden channels.
    """
    mu, rho, bias_mu, bias_rho = arrays or [t.data for _, t in model.conv_layers[l].tensors()]
    hidden = bias_mu.shape[0] // 4
    c_x = mu.shape[1] - hidden
    views = {}
    for j, gate in enumerate(GATE_ORDER):
        rows = slice(j * hidden, (j + 1) * hidden)
        views[gate] = {"x.mu": mu[rows, :c_x], "x.rho": rho[rows, :c_x], "x.bias_mu": bias_mu[rows],
                       "x.bias_rho": bias_rho[rows], "h.mu": mu[rows, c_x:], "h.rho": rho[rows, c_x:]}
    return views


def test_model_rollout_matches_per_gate_stepping():
    # the model's fused gate computation must equal explicit convlstm_step calls
    cfg = tiny_cfg(layers=2, hidden_channels=3, n_fixations=3)
    model = ScanpathModel.create(cfg, np.random.default_rng(5))
    rng_img = np.random.default_rng(6)
    feat = model.feature_stack(precomputed=rng_img.standard_normal((1, 8, 8)))
    anchor = [gaussian_map(GazePoint(2, 3), cfg.grid, 1.0), gaussian_map(GazePoint(6, 5), cfg.grid, 1.0)]

    frames = model.rollout_training(feat, np.random.default_rng(7), input_maps=anchor)

    rng2 = np.random.default_rng(7)
    sampled = []
    for l in range(cfg.layers):
        per_gate = {}
        for gate, views in gate_views(model, l).items():
            v = {name: ad.constant(view) for name, view in views.items()}
            x_side = BayesConvParams(v["x.mu"], v["x.rho"], v["x.bias_mu"], v["x.bias_rho"])
            kx, b = sample_bayes_kernel(x_side, rng2)
            kh, _ = sample_bayes_kernel(BayesConvParams(v["h.mu"], v["h.rho"]), rng2)
            per_gate[gate] = (kx, kh, b)
        sampled.append(per_gate)
    state = [(ad.constant(np.zeros((3, 8, 8))), ad.constant(np.zeros((3, 8, 8)))) for _ in range(2)]
    current = model.prior.g_c.values
    for t in range(3):
        x = ad.concat0([feat, ad.constant(current[None]), ad.constant(coord_planes(cfg.grid))])
        for l in range(2):
            h, c = convlstm_step(x, state[l][0], state[l][1], sampled[l])
            state[l] = (h, c)
            x = h
        ref = tspm_head(x, model.head_kernel, model.head_bias)
        assert np.abs(ref.data - frames[t].data).max() < 1e-12
        if t < 2:
            current = anchor[t].values


# the unfused cell graph: the oracle of the model's fused layer step


def sigmoid(a):
    """The logistic as a node of its own, exact for very negative inputs."""
    y = ad._sigmoid_values(a.data)
    return ad.node(y, (a,), lambda g: (g * y * (1.0 - y),))


def unfused_draw(mu, rho, rng):
    return ad.add(mu, ad.hadamard(ad.softplus(rho), ad.constant(rng.standard_normal(mu.shape))))


def unfused_sample_layer_weights(model, rng, leaves):
    """Per layer, gate-stacked x kernels, h kernels and biases, drawn per gate in the model's order.

    Each gate's posterior is drawn from its own leaf parameters, copied from its
    views into the layer's joined posterior; leaves[l][gate] holds them.
    """
    sampled = []
    for l in range(model.cfg.layers):
        kx, kh, biases = [], [], []
        leaves.append({})
        for gate, views in gate_views(model, l).items():
            v = leaves[l][gate] = {name: ad.parameter(view) for name, view in views.items()}
            kx.append(unfused_draw(v["x.mu"], v["x.rho"], rng))
            biases.append(unfused_draw(v["x.bias_mu"], v["x.bias_rho"], rng))
            kh.append(unfused_draw(v["h.mu"], v["h.rho"], rng))
        sampled.append((ad.concat0(kx), ad.concat0(kh), ad.concat0(biases)))
    return sampled


def unfused_run_stack(model, x, state, sampled):
    """Two convolutions, four slices, five nonlinearities and four elementwise nodes per layer step."""
    hidden = model.cfg.hidden_channels
    for l, (kx, kh, bias) in enumerate(sampled):
        h_prev, c_prev = state[l]
        pre = ad.add(ad.conv2d(x, kx, bias), ad.conv2d(h_prev, kh, None))
        x, c = unfused_cell(pre, c_prev, hidden, sigmoid)
        state[l] = (x, c)
    return x


def unfused_unroll(model, feat, rng, feed, leaves):
    """The oracle's time loop: every step convolves all of [features; map; coords] and h, from a zero state."""
    cfg = model.cfg
    sampled = unfused_sample_layer_weights(model, rng, leaves)
    shape = (cfg.hidden_channels, cfg.grid.height, cfg.grid.width)
    state = [(ad.constant(np.zeros(shape)), ad.constant(np.zeros(shape))) for _ in range(cfg.layers)]
    current = model.prior.g_c.values
    frames = []
    for t in range(cfg.n_fixations):
        x = ad.concat0([feat, ad.constant(current[None]), ad.constant(coord_planes(cfg.grid))])
        frames.append(tspm_head(unfused_run_stack(model, x, state, sampled), model.head_kernel, model.head_bias))
        if t < cfg.n_fixations - 1:
            current = feed(t, frames[-1])
    return frames


def test_train_step_matches_unfused_cell_oracle():
    grid = GridSpec(10, 7)
    prepared = preprocess(synth_dataset(1, 4, 1, grid, np.random.default_rng(42)), grid, n_fix=4, sigma=1.0)
    mcfg = ModelConfig(grid=grid, layers=2, hidden_channels=3, n_fixations=4, sigma=1.0, feature_channels=2)
    cfg = TrainConfig(model=mcfg, loss=LossConfig(gamma=0.3, sigma=1.0), seed=3)
    fused, oracle = init_state(cfg), init_state(cfg)
    ref_model = oracle.model
    leaves = []
    ref_model._unroll = lambda feat, rng, feed: unfused_unroll(ref_model, feat, rng, feed, leaves)

    loss, ref_loss = train_step(prepared[0], fused, cfg), train_step(prepared[0], oracle, cfg)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    grads = {name: t.grad for name, t in fused.model.parameters()}
    ref_grads = {name: t.grad for name, t in ref_model.parameters()}
    for l, layer_leaves in enumerate(leaves):  # the oracle's gradients reach the per-gate leaves
        joined = [np.zeros_like(t.data) for _, t in ref_model.conv_layers[l].tensors()]
        for gate, views in gate_views(ref_model, l, joined).items():
            for name, view in views.items():
                view[...] = layer_leaves[gate][name].grad
        ref_grads.update((f"convlstm.l{l}.{field}", g) for (field, _), g in
                         zip(ref_model.conv_layers[l].tensors(), joined))
    scale = max(np.abs(r).max() for r in ref_grads.values())
    for name, r in ref_grads.items():
        if name == "head.bias":  # exactly 0: the map softmax ignores a shift
            assert max(abs(grads[name]).max(), abs(r).max()) <= 1e-12 * scale
        else:
            assert np.abs(grads[name] - r).max() <= 1e-12 * np.abs(r).max(), name


@pytest.mark.parametrize("roots", ["c", "h", "both"])
def test_layer_step_equals_unfused_cell_bit_for_bit(roots):
    """convlstm_cell against the unfused cell on the same gate convolution and logistic, with backward() from c
    alone (h's VJP never runs), from h alone or from both."""
    rng = np.random.default_rng(95)
    for height, width in ((1, 1), (5, 4), (8, 8)):
        for n in (1, 3):
            values = [rng.standard_normal(shape) for shape in ((2, height, width), (n, height, width),
                                                               (4 * n, 2 + n, 3, 3), (4 * n,), (n, height, width))]
            weights = [ad.constant(rng.standard_normal((n, height, width))) for _ in range(2)]

            def run(fused):
                x, hidden, kernel, bias, c_prev = (ad.parameter(v) for v in values)
                if fused:
                    h, c = ad.convlstm_cell([x, hidden], kernel, bias, c_prev)
                else:
                    h, c = unfused_cell(ad.conv2d([x, hidden], kernel, bias), c_prev, n, gate_sigmoid)
                terms = [ad.tsum(ad.hadamard(t, w)) for t, w in zip((h, c), weights)]
                ad.backward({"h": terms[0], "c": terms[1], "both": ad.add(*terms)}[roots])
                return h.data, c.data, x.grad, hidden.grad, kernel.grad, bias.grad, c_prev.grad

            got, want = run(True), run(False)
            assert all(np.array_equal(a, e) for a, e in zip(got, want, strict=True))


def layer_step_nodes(grid: GridSpec, hidden: int) -> int:
    """Graph nodes one layer step adds on top of its input, state and weights."""
    cfg = tiny_cfg(grid=grid, layers=1, hidden_channels=hidden)
    model = ScanpathModel.create(cfg, np.random.default_rng(0))
    sampled = model._sample_layer_weights(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    x = ad.parameter(rng.standard_normal((cfg.input_channels, grid.height, grid.width)))
    state = [tuple(ad.parameter(rng.standard_normal((hidden, grid.height, grid.width))) for _ in range(2))]
    given = {id(t) for t in (x, *state[0], *sampled[0])}
    h = model._run_stack(x, state, sampled)
    seen, stack = set(), [h, state[0][1]]
    while stack:
        t = stack.pop()
        if id(t) not in seen and id(t) not in given:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def test_layer_step_node_count_independent_of_shape():
    counts = {layer_step_nodes(grid, hidden) for grid in (GridSpec(8, 8), GridSpec(13, 5)) for hidden in (2, 5)}
    assert counts == {2}  # c, fused with the gate convolution over the blocks [x, h], and h


@pytest.mark.parametrize("entry", ["rollout", "train_step"])
def test_only_kernels_are_concatenated_whatever_the_length(monkeypatch, entry):
    concat0, calls = ad.concat0, []
    monkeypatch.setattr(ad, "concat0", lambda *args, **kw: calls.append(args) or concat0(*args, **kw))
    counts = set()
    for n_fix in (4, 8):
        grid = GridSpec(8, 6)
        mcfg = ModelConfig(grid=grid, layers=2, hidden_channels=3, n_fixations=n_fix, sigma=1.0, feature_channels=2)
        if entry == "rollout":
            model = ScanpathModel.create(mcfg, np.random.default_rng(0))
            feat = model.feature_stack(image=np.random.default_rng(1).random((6, 8)))
            calls.clear()
            model.rollout(feat, np.random.default_rng(2))
        else:
            prepared = preprocess(synth_dataset(1, 3, 1, grid, np.random.default_rng(3)), grid, n_fix=n_fix, sigma=1.0)
            cfg = TrainConfig(model=mcfg, loss=LossConfig(sigma=1.0), seed=4)
            state = init_state(cfg)
            calls.clear()
            train_step(prepared[0], state, cfg)
        counts.add(len(calls))
    assert counts == {2}  # layer 0's kernel columns for [features; coords] and for [map; h], once per rollout


def test_tspm_head_contracts():
    rng = np.random.default_rng(8)
    h = ad.constant(rng.standard_normal((4, 6, 6)))
    zero_k = ad.constant(np.zeros((1, 4, 1, 1)))
    zero_b = ad.constant(np.zeros(1))
    out = tspm_head(h, zero_k, zero_b)
    assert np.allclose(out.data, 1.0 / 36)

    k = ad.constant(rng.standard_normal((1, 4, 1, 1)))
    b = ad.constant(rng.standard_normal(1))
    out1 = tspm_head(h, k, b)
    assert abs(out1.data.sum() - 1.0) < 1e-9
    out2 = tspm_head(h, k, ad.constant(b.data + 5.0))
    assert np.abs(out1.data - out2.data).max() < 1e-9


def make_map(values):
    v = np.asarray(values, dtype=np.float64)
    v = v / v.sum()
    v = np.maximum(v, EPS)
    return ProbMap(v, GridSpec(v.shape[1], v.shape[0]))


def test_sample_next_point_delta_map():
    v = np.full((4, 4), EPS)
    v[1, 2] = 1.0
    m = make_map(v)
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = sample_next_point(m, 0.7, rng)
        assert (p.x, p.y) == (2, 1)


def test_sample_next_point_mask_rule():
    # values 1.0 and 0.5 before normalization: 0.5 < 0.7 * max is never drawn
    v = np.array([[1.0, 0.5], [1e-9, 1e-9]])
    m = make_map(v)
    rng = np.random.default_rng(10)
    draws = [sample_next_point(m, 0.7, rng) for _ in range(10_000)]
    assert {(p.x, p.y) for p in draws} == {(0.0, 0.0)}


def test_sample_next_point_equal_survivors():
    v = np.array([[1.0, 1.0], [1e-9, 1e-9]])
    m = make_map(v)
    rng = np.random.default_rng(11)
    hits = sum(sample_next_point(m, 0.7, rng).x == 0.0 for _ in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


class FixedDraw:
    """A generator stub whose every uniform draw is `value`."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_a_draw_above_the_rounded_cdf_takes_the_last_surviving_pixel():
    # the cumulative sum can round to 1 - 2**-52 at its end, below the largest draw Generator.random() returns
    rng, top, above = np.random.default_rng(21), FixedDraw(1.0 - 2.0 ** -53), 0
    for _ in range(400):
        v = rng.uniform(0.0, 1.0, (8, 8))
        v[-1, -1] = 0.1 * v.max()  # the bottom-right pixel is below the cut
        m = make_map(v)
        w = np.where(m.values >= 0.7 * m.values.max(), m.values, 0.0).reshape(-1)
        above += np.cumsum(w / w.sum())[-1] <= top.value
        p = sample_next_point(m, 0.7, top)
        assert (p.y, p.x) == divmod(int(np.flatnonzero(w)[-1]), 8)
    assert above > 10


def test_sample_next_point_threshold_semantics():
    rng = np.random.default_rng(12)
    v = rng.uniform(0.1, 1.0, (5, 5))
    m = ProbMap(np.maximum(v / v.sum(), EPS), GridSpec(5, 5))
    x, y = peak(m.values)
    # the argmax pixel survives every threshold; th = 1 keeps only max-tied pixels
    for th in (0.3, 0.7, 1.0):
        mask = m.values >= th * m.values.max()
        assert mask[y, x]
    for _ in range(50):
        p = sample_next_point(m, 1.0, rng)
        assert (p.x, p.y) == (x, y)
    # absolute mode above the maximum falls back to the argmax pixel
    p = sample_next_point(m, 0.9, rng, mode="absolute")
    assert (p.x, p.y) == (x, y)


def test_rollout_prefix_and_determinism():
    cfg = tiny_cfg(n_fixations=4)
    model = ScanpathModel.create(cfg, np.random.default_rng(13))
    feat = zero_features(model)
    prefix = Scanpath((GazePoint(1, 1, 0), GazePoint(5, 2, 1), GazePoint(3, 6, 2)), "img", "o")

    path, frames = model.rollout(feat, np.random.default_rng(0), prefix=prefix)
    assert path.n == 4
    assert len(frames) == 4
    for src, got in zip(prefix.points, path.points):
        assert (got.x, got.y) == (src.x, src.y)

    a, _ = model.rollout(feat, np.random.default_rng(21))
    b, _ = model.rollout(feat, np.random.default_rng(21))
    assert np.array_equal(a.coords(), b.coords())

    with pytest.raises(ParameterError):
        model.rollout(feat, np.random.default_rng(0), prefix=Scanpath(tuple(GazePoint(1, 1, i) for i in range(4)), "img", "o"))


def test_rollout_frames_equal_teacher_forced_training_frames():
    # rollout runs under no_grad on bare tensors; fed the same points, the graph-building path
    # must draw the same kernels and compute the same maps
    cfg = tiny_cfg(grid=GridSpec(10, 9), layers=2, hidden_channels=3, n_fixations=5, feature_channels=2)
    model = ScanpathModel.create(cfg, np.random.default_rng(4))
    feat = model.feature_stack(precomputed=np.random.default_rng(5).standard_normal((2, 9, 10)))
    path, frames = model.rollout(feat, np.random.default_rng(6))
    maps = [gaussian_map(p, cfg.grid, cfg.sigma) for p in path.points[:-1]]
    tspms = model.rollout_training(feat, np.random.default_rng(6), input_maps=maps)
    assert all(t.requires_grad and t._parents for t in tspms)
    assert len(frames) == len(tspms) == 5
    for pm, t in zip(frames, tspms):
        assert np.abs(pm.values - tensor_to_probmap(t, cfg.grid).values).max() <= 1e-12


def test_rollout_frames_are_valid_probmaps():
    cfg = tiny_cfg(n_fixations=4, layers=2)
    model = ScanpathModel.create(cfg, np.random.default_rng(14))
    feat = zero_features(model)
    _, frames = model.rollout(feat, np.random.default_rng(1))
    for pm in frames:
        validate_probmap(pm)
        assert abs(pm.values.sum() - 1.0) < 1e-9


def test_rollouts_with_different_seeds_differ():
    cfg = tiny_cfg(grid=GridSpec(16, 16), n_fixations=8, hidden_channels=4)
    model = ScanpathModel.create(cfg, np.random.default_rng(15))
    feat = zero_features(model)
    identical = 0
    for trial in range(20):
        a, _ = model.rollout(feat, np.random.default_rng(1000 + trial))
        b, _ = model.rollout(feat, np.random.default_rng(2000 + trial))
        if np.array_equal(a.coords(), b.coords()):
            identical += 1
    assert identical == 0


def test_untrained_rollout_step0_uniform_chi_square():
    # zero head -> uniform maps; the threshold mask keeps every pixel, so the
    # first sampled fixation must be uniform over the 64 grid cells
    cfg = tiny_cfg(n_fixations=1)
    model = ScanpathModel.create(cfg, np.random.default_rng(16))
    model.head_kernel.data[...] = 0.0
    model.head_bias.data[...] = 0.0
    feat = zero_features(model)
    rng = np.random.default_rng(17)
    counts = np.zeros(64)
    n = 1000
    for _ in range(n):
        path, frames = model.rollout(feat, rng)
        assert np.allclose(frames[0].values, 1.0 / 64)
        p = path.points[0]
        counts[int(p.y) * 8 + int(p.x)] += 1
    expected = n / 64
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_CRIT_63_P01


def test_complete_scanpath_contract():
    cfg = tiny_cfg(n_fixations=4)
    model = ScanpathModel.create(cfg, np.random.default_rng(18))
    feat = zero_features(model)
    prefix = Scanpath((GazePoint(2, 2, 0), GazePoint(4, 4, 1)), "img", "obsZ")
    out = model.complete_scanpath(feat, prefix, np.random.default_rng(2))
    assert out.n == 4
    assert out.observer_id == "obsZ"
    assert [(p.x, p.y) for p in out.points[:2]] == [(2, 2), (4, 4)]

    full = Scanpath(tuple(GazePoint(1, 1, i) for i in range(4)), "img", "o")
    with pytest.raises(ParameterError):
        model.complete_scanpath(feat, full, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        model.complete_scanpath(feat, None, np.random.default_rng(0))


def test_state_constant_under_forced_memory():
    # saturate gates through the bias posteriors of a real model
    cfg = tiny_cfg(layers=1, hidden_channels=2, n_fixations=8)
    model = ScanpathModel.create(cfg, np.random.default_rng(19))
    for gate, v in gate_views(model, 0).items():
        v["x.mu"][...] = 0.0
        v["x.rho"][...] = -40.0
        v["h.mu"][...] = 0.0
        v["h.rho"][...] = -40.0
        v["x.bias_rho"][...] = -40.0
        v["x.bias_mu"][...] = {"i": -40.0, "f": 40.0, "o": 0.0, "g": 0.0}[gate]
    feat = zero_features(model)
    frames = model.rollout_training(feat, np.random.default_rng(3),
                                    input_maps=[model.prior.g_c] * 7)
    # with c frozen at 0 the head sees a constant hidden state: identical maps
    for f in frames[1:]:
        assert np.abs(f.data - frames[0].data).max() < 1e-6


def test_checkpoint_round_trip_and_mismatch(tmp_path):
    cfg = tiny_cfg(layers=2, hidden_channels=3, feature_source="trainable", feature_channels=2)
    model = ScanpathModel.create(cfg, np.random.default_rng(20))
    ckpt = model_to_checkpoint(model, step=5)
    path = tmp_path / "m.spck"
    write_checkpoint(path, ckpt)
    loaded, adam, step, rng = model_from_checkpoint(read_checkpoint(path), expected=cfg)
    assert step == 5
    assert adam is None and rng is None
    for (na, ta), (nb, tb) in zip(model.parameters(), loaded.parameters()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)

    # one joined posterior per ConvLSTM layer; the .spck layout still stores it per gate
    names = [name for name, _ in model.parameters()]
    assert len(names) == 16 and names[:8] == [f"convlstm.l{l}.{field}" for l in range(2)
                                              for field in ("mu", "rho", "bias_mu", "bias_rho")]
    rng = np.random.default_rng(21)
    params = [t for _, t in model.parameters()]
    adam = ad.AdamState(step=3, first_moment=[rng.standard_normal(t.shape) for t in params],
                        second_moment=[rng.random(t.shape) for t in params])
    ckpt = model_to_checkpoint(model, adam=adam, step=5)
    hidden, k = 3, (3, 3)
    layout = []
    for l, c_x in enumerate((cfg.input_channels, hidden)):
        for gate in ("i", "f", "o", "g"):
            x, h = (hidden, c_x, *k), (hidden, hidden, *k)
            layout += [(f"convlstm.l{l}.{gate}.{name}", shape) for name, shape in (
                ("x.mu", x), ("x.rho", x), ("x.bias_mu", (hidden,)), ("x.bias_rho", (hidden,)),
                ("h.mu", h), ("h.rho", h))]
    layout += [("head.kernel", (1, hidden, 1, 1)), ("head.bias", (1,))]
    for j, (c_out, c_in) in enumerate(((8, 1), (8, 8), (2, 8))):
        layout += [(f"features.l{j}.kernel", (c_out, c_in, *k)), (f"features.l{j}.bias", (c_out,))]
    layout += [(f"adam.{moment}.{name}", shape) for name, shape in layout for moment in ("m", "v")]
    assert [(name, a.shape) for name, a in ckpt.tensors.items()] == layout
    for l in range(2):
        for gate, views in gate_views(model, l).items():
            for name, view in views.items():
                assert np.array_equal(ckpt.tensors[f"convlstm.l{l}.{gate}.{name}"], view)
    write_checkpoint(path, ckpt)
    loaded, loaded_adam, _, _ = model_from_checkpoint(read_checkpoint(path), expected=cfg)
    for (na, ta), (nb, tb) in zip(model.parameters(), loaded.parameters()):
        assert na == nb and np.array_equal(ta.data, tb.data)
    assert loaded_adam.step == 3
    for ours, theirs in ((adam.first_moment, loaded_adam.first_moment),
                         (adam.second_moment, loaded_adam.second_moment)):
        assert len(ours) == len(theirs) and all(np.array_equal(a, b) for a, b in zip(ours, theirs))

    other = tiny_cfg(layers=2, hidden_channels=5, feature_source="trainable", feature_channels=2)
    with pytest.raises(ConfigMismatchError, match="hidden_channels"):
        model_from_checkpoint(read_checkpoint(path), expected=other)
    with pytest.raises(ConfigMismatchError, match="sigma"):
        model_from_checkpoint(read_checkpoint(path), expected=replace(cfg, sigma=2.0))
    # sampling-time knobs may differ from the checkpoint
    model_from_checkpoint(read_checkpoint(path), expected=replace(cfg, th=0.3, threshold_mode="absolute"))


@pytest.mark.parametrize("name", ["head.kernel", "convlstm.l0.g.h.rho", "adam.m.head.bias", "adam.v.features.l1.kernel"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_tensor_holding_nan_or_inf_is_a_format_error(name, bad):
    cfg = tiny_cfg(feature_source="trainable", feature_channels=2)
    model = ScanpathModel.create(cfg, np.random.default_rng(0))
    params = [t for _, t in model.parameters()]
    adam = ad.AdamState(step=1, first_moment=[np.zeros(t.shape) for t in params],
                        second_moment=[np.ones(t.shape) for t in params])
    ckpt = model_to_checkpoint(model, adam=adam, step=1)
    model_from_checkpoint(ckpt, expected=cfg)
    ckpt.tensors[name] = ckpt.tensors[name].copy()
    ckpt.tensors[name].flat[-1] = bad
    with pytest.raises(FormatError, match=f"'{re.escape(name)}' holds NaN or inf"):
        model_from_checkpoint(ckpt, expected=cfg)


def test_checkpoint_read_against_a_config_samples_with_its_sampling_fields(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "m.spck"
    write_checkpoint(path, model_to_checkpoint(ScanpathModel.create(cfg, np.random.default_rng(0))))
    loaded, _, _, _ = model_from_checkpoint(read_checkpoint(path), expected=replace(cfg, th=0.3,
                                                                                    threshold_mode="absolute"))
    assert (loaded.cfg.th, loaded.cfg.threshold_mode) == (0.3, "absolute")
    assert loaded.cfg == replace(cfg, th=0.3, threshold_mode="absolute")
    assert model_from_checkpoint(read_checkpoint(path))[0].cfg == cfg  # read alone, the checkpoint's own values


def test_checkpoint_trailer_pins_every_model_key():
    cfg = ModelConfig(grid=GridSpec(6, 5), layers=3, hidden_channels=2, kernel_size=5, th=0.25,
                      n_fixations=4, sigma=1.25, feature_channels=3, threshold_mode="absolute",
                      feature_source="precomputed")
    hyper = model_to_checkpoint(ScanpathModel.create(cfg, np.random.default_rng(0)), step=7).hyper
    assert list(hyper.items()) == [
        ("grid_width", "6"), ("grid_height", "5"), ("layers", "3"), ("hidden_channels", "2"),
        ("kernel_size", "5"), ("th", "0.25"), ("n_fixations", "4"), ("sigma", "1.25"),
        ("feature_channels", "3"), ("threshold_mode", "absolute"), ("feature_source", "precomputed"),
        ("step", "7"), ("adam_step", "0"),
    ]
    assert config_from_hyper(hyper) == cfg
    for bad in ({**hyper, "layers": "three"}, {k: v for k, v in hyper.items() if k != "sigma"}):
        with pytest.raises(FormatError):
            config_from_hyper(bad)

    ckpt = model_to_checkpoint(ScanpathModel.create(cfg, np.random.default_rng(0)), step=7,
                               rng_state=np.random.default_rng(1).bit_generator.state)
    _, _, step, rng = model_from_checkpoint(ckpt)
    assert step == 7 and rng.bit_generator.state == np.random.default_rng(1).bit_generator.state
    no_inc = {k: v for k, v in ckpt.hyper.items() if k != "rng_inc"}
    for bad in [{**ckpt.hyper, key: value} for key, value in (
            ("step", "x"), ("step", "-1"), ("adam_step", "x"), ("rng_inc", "zz"), ("rng_inc", "4"),
            ("rng_has_uint32", "q"), ("rng_has_uint32", "2"), ("rng_has_uint32", "-1"), ("rng_has_uint32", "7"),
            ("rng_state", "-1"), ("layers", "0"), ("grid_width", "0"))] + [no_inc]:
        with pytest.raises(FormatError):
            model_from_checkpoint(replace(ckpt, hyper=bad))


def test_tensor_to_probmap_floors_at_eps():
    t = ad.constant(np.array([[0.5, 0.5], [0.0, 0.0]]))
    pm = tensor_to_probmap(t, GridSpec(2, 2))
    assert pm.values.min() >= EPS


@pytest.mark.parametrize("n_prefix", [0, 2])
def test_rollout_converts_each_map_once(monkeypatch, n_prefix):
    cfg = tiny_cfg(n_fixations=4)
    model = ScanpathModel.create(cfg, np.random.default_rng(15))
    feat = zero_features(model)
    prefix = Scanpath(tuple(GazePoint(1, 2, i) for i in range(n_prefix)), "img", "o") if n_prefix else None
    expected, expected_frames = model.rollout(feat, np.random.default_rng(3), prefix=prefix)
    converted = []
    monkeypatch.setattr(model_module, "tensor_to_probmap",
                        lambda t, grid: converted.append(t) or tensor_to_probmap(t, grid))
    path, frames = model.rollout(feat, np.random.default_rng(3), prefix=prefix)
    assert len(converted) == len(frames) == cfg.n_fixations
    assert np.array_equal(path.coords(), expected.coords())
    assert all(np.array_equal(a.values, b.values) for a, b in zip(frames, expected_frames))


def test_rollout_samples_every_point_through_its_feed():
    tree = ast.parse(Path(model_module.__file__).read_text(encoding="utf-8"))
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ScanpathModel")
    rollout = next(node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "rollout")
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(rollout) if isinstance(node, ast.Call)}
    assert "_point_feed" in called
    assert not called & {"sample_next_point", "GazePoint"}
