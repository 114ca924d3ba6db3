"""Per-layer metrics: read off a span trace, plus isolated cases at model shapes.

Each metric names the module (layer) it belongs to. A metric whose wrap point
no longer exists in the package is absent from the output instead of failing.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from scanpath import autodiff as ad
from scanpath import cli, data_io, losses
from scanpath import model as sp_model

from .trace import MODULES, SpanTable
from .workloads import ROIS

STEP = "training.train_step"
ROLLOUT = "model.ScanpathModel.rollout"
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

# Per-call timings: (span, metric, unit, self or inclusive time).
PER_CALL = [
    ("model.ScanpathModel.feature_stack", "model.feature_stack.ms", "ms", "incl"),
    ("model.ScanpathModel.rollout", "model.rollout.self_ms", "ms", "self"),
    ("model.tspm_head", "model.tspm_head.us", "us", "incl"),
    ("model.sample_next_point", "model.sample_next_point.us", "us", "incl"),
    ("model.model_from_checkpoint", "model.model_from_checkpoint.ms", "ms", "incl"),
    ("core.gaussian_map", "core.gaussian_map.us", "us", "incl"),
    ("core.spatialize", "core.spatialize.ms", "ms", "incl"),
    *[(f"metrics.{fam}_metrics", f"metrics.{fam}_metrics.us", "us", "incl")
      for fam in ("string", "curve", "series", "recurrence")],
    ("metrics.all_metrics", "metrics.all_metrics.self_us", "us", "self"),
    *[(f"data_io.{fn}", f"data_io.{fn}.ms", "ms", "incl") for fn in (
        "synth_dataset", "preprocess", "write_checkpoint", "read_checkpoint", "save_scanpath_csv",
        "load_scanpath_dataset", "write_feature_tensor", "write_pgm", "read_pgm")],
    *[(f"cli.cmd_{cmd}", f"cli.{cmd}.s", "s", "incl") for cmd in (
        "synth", "train", "predict", "evaluate", "complete", "saliency")],
]

# Spans summed inside every train step or every rollout, divided by their number:
# (span, within, metric, unit, calls or self or inclusive time).
PER_PARENT = [
    (STEP, None, "training.train_step.self_ms", "ms", "self"),
    ("autodiff.backward", STEP, "autodiff.backward.ms", "ms", "incl"),
    ("autodiff.adam_step", STEP, "autodiff.adam_step.ms", "ms", "incl"),
    ("autodiff.conv2d", STEP, "autodiff.conv2d.calls_per_step", "count", "calls"),
    ("autodiff.conv2d", STEP, "autodiff.conv2d.self_ms_per_step", "ms", "self"),
    ("losses.kl_dtw_loss", STEP, "losses.kl_dtw_loss.ms", "ms", "incl"),
    ("losses.soft_dtw", STEP, "losses.soft_dtw.calls_per_step", "count", "calls"),
    ("model.ScanpathModel.rollout_training", STEP, "model.rollout_training.ms", "ms", "incl"),
    ("autodiff.conv2d", ROLLOUT, "autodiff.conv2d.calls_per_rollout", "count", "calls"),
    ("autodiff.conv2d", ROLLOUT, "autodiff.conv2d.self_ms_per_rollout", "ms", "self"),
    ("autodiff.sample_bayes_kernel", ROLLOUT, "autodiff.sample_bayes_kernel.us_per_rollout", "us",
     "incl"),
]

CONV_CASES = ("feat", "gate_x", "gate_h", "head")

# Metrics not read off the trace: filled in by the run, the workload or the isolated cases.
EXTRA = [
    ("training.alloc_peak_mb_per_step", "MB"),
    ("autodiff.nodes_per_step", "count"),
    ("losses.kl_dtw_loss.nodes", "count"),
    ("losses.kl_dtw_loss.fwd_ms", "ms"),
    ("losses.kl_dtw_loss.bwd_ms", "ms"),
    ("data_io.checkpoint.bytes", "B"),
    ("cli.startup.s", "s"),
    ("metrics.pairs", "count"),
    ("trace.overhead_pct", "%"),
    *[(f"autodiff.conv2d.{case}.{q}", unit) for case in CONV_CASES
      for q, unit in (("fwd_us", "us"), ("vjp_us", "us"),
                      ("flops", "flop_computed"), ("bytes", "B_computed"))],
]


def catalogue() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = [(m, unit) for _, _, m, unit, _ in PER_PARENT]
    out += [(m, unit) for _, m, unit, _ in PER_CALL]
    out += EXTRA
    out += [(f"{mod}.self_ms_per_cycle", "ms") for mod in MODULES]
    return [(name, unit, "higher" if name == "metrics.pairs" else "lower") for name, unit in out]


def from_trace(table: SpanTable, since: int, cycles: int) -> dict:
    """Per-layer values of a traced phase; `since` is the first span of its cycles."""
    values: dict[str, float | None] = {}

    def total(mask, kind):
        if kind == "calls":
            return float(mask.sum())
        series = table.self_time if kind == "self" else table.duration
        return float(series[mask].sum())

    for span, within, metric, unit, kind in PER_PARENT:
        parent = within or span
        if not (table.has(span) and table.has(parent)):
            values[metric] = None
            continue
        count = int(table.select(parent).sum())
        scale = SCALE.get(unit, 1.0)
        values[metric] = total(table.select(span, within), kind) / count * scale if count else 0.0

    for span, metric, unit, kind in PER_CALL:
        if not table.has(span):
            values[metric] = None
            continue
        mask = table.select(span)
        count = int(mask.sum())
        values[metric] = total(mask, kind) / count * SCALE[unit] if count else 0.0

    values["metrics.pairs"] = (float(table.select("metrics.all_metrics", since=since).sum()) / cycles
                               if table.has("metrics.all_metrics") else None)
    in_cycles = np.arange(len(table.name_id)) >= since
    module_of = np.array([name.split(".", 1)[0] for name in table.names])
    span_module = module_of[table.name_id] if len(table.name_id) else np.array([], dtype=str)
    for mod in MODULES:
        mask = in_cycles & (span_module == mod)
        values[f"{mod}.self_ms_per_cycle"] = float(table.self_time[mask].sum()) * 1e3 / cycles
    return values


# ---------------------------------------------------------------------------
# isolated cases


def _median_us(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _has(module, *names: str) -> bool:
    return all(hasattr(module, name) for name in names)


def conv_cases(rc) -> dict[str, tuple[tuple[int, ...], tuple[int, ...], bool]]:
    """conv2d shapes of the model: (input, kernel, has bias) per case."""
    mcfg = cli.model_config(rc)
    h, w = mcfg.grid.height, mcfg.grid.width
    hid, k = mcfg.hidden_channels, mcfg.kernel_size
    c_in = mcfg.input_channels
    cases = {
        "gate_x": ((c_in, h, w), (4 * hid, c_in, k, k), True),
        "gate_h": ((hid, h, w), (4 * hid, hid, k, k), False),
        "head": ((hid, h, w), (1, hid, 1, 1), True),
    }
    # channels of the trainable feature stack's hidden layers; absent if renamed
    feat = getattr(sp_model, "FEATURE_STACK_HIDDEN", None)
    if feat is not None:
        cases = {"feat": ((feat, h, w), (feat, feat, 3, 3), True), **cases}
    return cases


def isolated(rc, seed: int, observers: int, reps: int = 20) -> dict:
    """conv2d forward/VJP per model shape and the loss forward/backward at train shape
    (n_fixations maps against `observers` scanpaths of one synthetic image).

    flops and bytes are computed from the shapes (im2col forward: input, padded
    copy, patch matrix written and read, kernel, bias and output), not measured.
    A case whose functions are no longer in the package is left out (absent).
    """
    rng = np.random.default_rng(0)
    out = {}
    conv_api = _has(ad, "parameter", "conv2d", "tsum", "zero_grads", "backward")
    for case, (xs, ks, has_bias) in conv_cases(rc).items() if conv_api else ():
        x, kern = ad.parameter(rng.normal(size=xs)), ad.parameter(rng.normal(size=ks))
        bias = ad.parameter(rng.normal(size=ks[0])) if has_bias else None
        params = [t for t in (x, kern, bias) if t is not None]

        def vjp():
            loss = ad.tsum(ad.conv2d(x, kern, bias))
            ad.zero_grads(params)
            t0 = time.perf_counter()
            ad.backward(loss)
            return time.perf_counter() - t0

        c_out, c_in, k, _ = ks
        _, h, w = xs
        pad = k // 2
        patch = c_in * k * k * h * w
        elems = (c_in * h * w + c_in * (h + 2 * pad) * (w + 2 * pad) + 2 * patch
                 + c_out * c_in * k * k + c_out * h * w)
        if has_bias:
            elems += c_out + 2 * c_out * h * w
        out[f"autodiff.conv2d.{case}.fwd_us"] = _median_us(lambda: ad.conv2d(x, kern, bias), reps)
        out[f"autodiff.conv2d.{case}.vjp_us"] = statistics.median(vjp() for _ in range(reps)) * 1e6
        out[f"autodiff.conv2d.{case}.flops"] = float(2 * c_out * patch + (c_out * h * w if has_bias else 0))
        out[f"autodiff.conv2d.{case}.bytes"] = float(8 * elems)

    if not (_has(ad, "parameter", "map_softmax", "backward") and _has(losses, "kl_dtw_loss")):
        return out
    grid = cli.model_config(rc).grid
    dataset = data_io.synth_dataset(1, observers, ROIS, grid, np.random.default_rng(seed))
    truth = list(data_io.preprocess(dataset, grid, rc.n_fixations, rc.sigma)[0].spatialized)
    fwd, bwd = [], []
    for _ in range(max(3, reps // 4)):
        frames = [ad.map_softmax(ad.parameter(rng.normal(size=(grid.height, grid.width))))
                  for _ in range(rc.n_fixations)]
        t0 = time.perf_counter()
        loss = losses.kl_dtw_loss(frames, truth, cli.loss_config(rc), grid)
        t1 = time.perf_counter()
        ad.backward(loss)
        fwd.append(t1 - t0)
        bwd.append(time.perf_counter() - t1)
    out["losses.kl_dtw_loss.fwd_ms"] = statistics.median(fwd) * 1e3
    out["losses.kl_dtw_loss.bwd_ms"] = statistics.median(bwd) * 1e3
    return out
