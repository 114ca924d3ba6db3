"""Command-line surface: train, predict, complete, evaluate, saliency, synth.

`main` loads each command's flat key=value run config, applies the --seed and
--th overrides, runs the command and maps its errors to exit codes. Every
command writes a manifest and a full config echo into its output directory,
and is deterministic given --seed.
The keys come from the configs they feed: the grid size, ModelConfig's
hyperparameters, LossConfig, TrainConfig's scalars and MetricConfig (image
sizes and the recurrence radius are floats, and 0, their default, means
inferred from the data, as in MetricConfig), then min_scanpath_len and the
input paths; config.txt lists them in that order.
Exit codes: 0 success, 1 usage error, 2 data/format or file-system error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import field, fields, make_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import GridSpec, gaussian_maps, group_by_image, parse_value
from .data_io import (
    load_scanpath_dataset,
    preprocess,
    read_checkpoint,
    resample_to_grid,
    save_scanpath_csv,
    synth_dataset,
    to_grid,
    to_native,
    write_atomic,
    write_feature_tensor,
    write_pgm,
)
from .errors import (
    ConfigMismatchError,
    DataError,
    FormatError,
    NumericalError,
    ParameterError,
    ScanpathError,
)
from .losses import LossConfig
from .metrics import MetricConfig, evaluate_set, human_baseline, random_baseline, write_report_csv
from .model import HYPER_FIELDS, ModelConfig, model_from_checkpoint
from .training import TrainConfig, check_inputs, init_state, resume_state, train


def _check_seed(rc) -> None:
    if rc.seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {rc.seed}")


# The keys of the configs they feed, in their order; one sigma feeds ModelConfig and LossConfig.
_FED_KEYS = {f.name: (f.name, f.type, field(default=f.default))
             for f in (*HYPER_FIELDS, *fields(LossConfig), *fields(TrainConfig), *fields(MetricConfig))
             if f.name not in ("model", "loss")}
# Only the keys no config class holds are declared by hand: the grid (ModelConfig.grid has no default),
# preprocess's length filter and the input paths.
RunConfig = make_dataclass(
    "RunConfig",
    [("grid_width", "int", field(default=32)), ("grid_height", "int", field(default=32)), *_FED_KEYS.values(),
     ("min_scanpath_len", "int", field(default=4)),
     *((name, "str", field(default="")) for name in ("dataset_csv", "images_dir", "features_dir"))],
    namespace={"__module__": __name__, "__doc__": "Flat run configuration; every key can appear in the config file.",
               "__post_init__": _check_seed}, frozen=True)


def load_run_config(path) -> RunConfig:
    known = {f.name: f.type for f in fields(RunConfig)}
    values, where = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got '{line}'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise DataError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in where:
            raise DataError(f"{path}:{lineno}: config key '{key}' already set on line {where[key]}")
        where[key] = lineno
        try:
            values[key] = parse_value(raw, known[key])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return RunConfig(**values)


def write_run_config(rc: RunConfig, path) -> None:
    write_atomic(path, ["".join(f"{f.name}={getattr(rc, f.name)}\n" for f in fields(RunConfig)).encode("utf-8")])


def model_config(rc: RunConfig) -> ModelConfig:
    return ModelConfig(grid=GridSpec(rc.grid_width, rc.grid_height),
                       **{f.name: getattr(rc, f.name) for f in HYPER_FIELDS})


def loss_config(rc: RunConfig) -> LossConfig:
    return LossConfig(**{f.name: getattr(rc, f.name) for f in fields(LossConfig)})


def metric_config(rc: RunConfig) -> MetricConfig:
    return MetricConfig(**{f.name: getattr(rc, f.name) for f in fields(MetricConfig)})


def train_config(rc: RunConfig) -> TrainConfig:
    scalars = {f.name: getattr(rc, f.name) for f in fields(TrainConfig) if f.name not in ("model", "loss")}
    return TrainConfig(model=model_config(rc), loss=loss_config(rc), **scalars)


# The environment variables that set the BLAS thread count, as the manifest lists them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_build() -> str:
    """`<name> <version>` of the BLAS numpy was built against; `unknown` where numpy does not record it."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _prepare_out(args, rc: RunConfig, inputs: dict) -> Path:
    """Create --out and write config.txt and manifest.txt; an input path that is None was not given and gets no line."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_run_config(rc, out / "config.txt")
    lines = [
        f"command={args.command}",
        f"package_version={__version__}",
        f"numpy_version={np.__version__}",
        f"blas={_blas_build()}",
        "blas_threads=" + " ".join(f"{var}={os.environ.get(var, '')}" for var in _BLAS_THREAD_VARS),
        f"argv={' '.join(args.raw_argv)}",
        f"input_config={args.config}",
    ]
    lines += [f"input_{key}={value}" for key, value in inputs.items() if value is not None]
    write_atomic(out / "manifest.txt", [("\n".join(lines) + "\n").encode("utf-8")])
    return out


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ParameterError(f"{flag} must be at least 1, got {value}")


def _load_dataset(rc: RunConfig, override_csv=None, model_inputs=True):
    """The dataset; model_inputs adds each image's feature file under feature_source=precomputed."""
    csv = override_csv or rc.dataset_csv
    if not csv:
        raise DataError("no dataset: set dataset_csv in the config or pass --dataset")
    precomputed = model_inputs and rc.feature_source == "precomputed"
    if precomputed and not rc.features_dir:
        raise DataError("feature_source=precomputed needs features_dir")
    return load_scanpath_dataset(csv, images_dir=rc.images_dir or None,
                                 features_dir=rc.features_dir if precomputed else None)


# ---------------------------------------------------------------------------
# commands


def cmd_train(args, rc: RunConfig) -> None:
    dataset = _load_dataset(rc)
    cfg = train_config(rc)
    prepared = preprocess(dataset, cfg.model.grid, n_fix=rc.n_fixations, sigma=rc.sigma,
                          min_len=rc.min_scanpath_len)
    # the config, the checkpoint to resume from and every image's grid, sigma and feature input are checked before
    # anything is written
    check_inputs((init_state(cfg) if args.resume is None else resume_state(args.resume, cfg)).model, prepared)
    out = _prepare_out(args, rc, {"dataset": rc.dataset_csv, "resume": args.resume})
    final, log = train(prepared, cfg, out, resume_from=args.resume)
    print(f"trained {len(log)} steps; final checkpoint: {final}")


def _sampling_setup(args, rc: RunConfig):
    """Model, dataset, output directory and feature stacks; the stacks are built first, so bad input writes nothing."""
    model, _, _, _ = model_from_checkpoint(read_checkpoint(args.checkpoint), expected=model_config(rc))
    dataset = _load_dataset(rc, args.dataset)
    grid = model.cfg.grid
    feats = [model.feature_stack(image=None if rec.pixels is None else resample_to_grid(rec.pixels, grid),
                                 precomputed=rec.features) for rec in dataset.images]
    out = _prepare_out(args, rc, {"checkpoint": args.checkpoint, "dataset": args.dataset or rc.dataset_csv})
    return model, dataset, out, feats


def cmd_predict(args, rc: RunConfig) -> None:
    _require_positive("--count", args.count)
    model, dataset, out, feats = _sampling_setup(args, rc)
    rng = np.random.default_rng(rc.seed)
    generated = []
    for rec, feat in zip(dataset.images, feats):
        for c in range(args.count):
            path, frames = model.rollout(feat, rng, image_id=rec.image_id,
                                         observer_id=f"model{c:03d}")
            generated.append(to_native(path, rec.width, rec.height, model.cfg.grid))
            if args.dump_tspm:
                stack = np.stack([f.values for f in frames])
                tdir = out / "tspm"
                tdir.mkdir(exist_ok=True)
                write_feature_tensor(tdir / f"{rec.image_id}_{c:03d}.ftns", stack)
    save_scanpath_csv(generated, out / "predicted.csv")
    print(f"wrote {len(generated)} scanpaths to {out / 'predicted.csv'}")


def cmd_complete(args, rc: RunConfig) -> None:
    _require_positive("--repeats", args.repeats)
    if not (1 <= args.prefix_len <= rc.n_fixations - 1):
        raise ParameterError(
            f"--prefix-len must be in [1, {rc.n_fixations - 1}] for N={rc.n_fixations}, got {args.prefix_len}")
    model, dataset, out, feats = _sampling_setup(args, rc)
    rng = np.random.default_rng(rc.seed)
    grid = model.cfg.grid
    by_image = group_by_image(dataset.scanpaths)
    completions = []
    for rec, feat in zip(dataset.images, feats):
        for s in by_image[rec.image_id]:
            if s.n < args.prefix_len:
                continue
            given = s.points[: args.prefix_len]
            prefix = to_grid(replace(s, points=given), rec.width, rec.height, grid)
            for r in range(args.repeats):  # the given points verbatim, then the generated ones mapped back
                done = to_native(model.complete_scanpath(feat, prefix, rng), rec.width, rec.height, grid)
                completions.append(replace(done, points=given + done.points[len(given):],
                                           observer_id=f"{s.observer_id}_c{r:02d}"))
    save_scanpath_csv(completions, out / "completions.csv")
    print(f"wrote {len(completions)} completions to {out / 'completions.csv'}")


def cmd_evaluate(args, rc: RunConfig) -> None:
    predicted = load_scanpath_dataset(args.predicted).scanpaths
    truth = load_scanpath_dataset(args.truth).scanpaths
    for path, paths in ((args.predicted, predicted), (args.truth, truth)):
        if not paths:
            raise DataError(f"{path}: no scanpaths")
    cfg = metric_config(rc).resolved(predicted, truth)
    reports = {"report.csv": evaluate_set(predicted, truth, cfg)}  # every report is made before anything is written
    if args.baselines:
        try:
            grid = GridSpec(int(np.ceil(cfg.image_width)), int(np.ceil(cfg.image_height)))
        except ParameterError as exc:
            if rc.image_width and rc.image_height:
                raise
            raise DataError(f"random baseline on the image size inferred from the data: {exc}") from None
        reports["human_baseline.csv"] = human_baseline(truth, cfg)
        by_image = group_by_image(predicted)
        # the virtual observers' spread: the human baseline's pairwise report over the predicted paths
        spread = [s for paths in by_image.values() if len(paths) >= 2 for s in paths]
        if spread:
            reports["model_spread.csv"] = human_baseline(spread, cfg)
        else:
            print("model_spread.csv not written: no image has two or more predicted scanpaths", file=sys.stderr)
        rng = np.random.default_rng(rc.seed)
        rand = []
        for image_id, paths in by_image.items():
            rand.extend(random_baseline(grid, rc.n_fixations, len(paths), rng, image_id=image_id))
        reports["random_baseline.csv"] = evaluate_set(rand, truth, cfg)
    out = _prepare_out(args, rc, {"predicted": args.predicted, "truth": args.truth})
    for name, report in reports.items():
        write_report_csv(report, out / name)
    print(f"wrote {out / 'report.csv'}")


def aggregate_heatmap(paths, grid: GridSpec, sigma: float, native_w, native_h) -> np.ndarray:
    """Sum of per-fixation Gaussians over all scanpaths, on the model grid, rendered in one pass."""
    xy = np.concatenate([to_grid(s, native_w, native_h, grid).coords() for s in paths])
    return gaussian_maps(xy, grid, sigma).sum(axis=0)


def cmd_saliency(args, rc: RunConfig) -> None:
    dataset = _load_dataset(rc, args.scanpaths, model_inputs=False)
    grid = GridSpec(rc.grid_width, rc.grid_height)
    by_image = group_by_image(dataset.scanpaths)
    # every heatmap is rendered before anything is written
    heats = [aggregate_heatmap(by_image[rec.image_id], grid, rc.sigma, rec.width, rec.height) for rec in dataset.images]
    out = _prepare_out(args, rc, {"scanpaths": args.scanpaths or rc.dataset_csv})
    for rec, heat in zip(dataset.images, heats):
        img = np.round(heat / heat.max() * 255.0).astype(np.uint8)
        write_pgm(out / f"{rec.image_id}.pgm", img)
    print(f"wrote {len(dataset.images)} heatmaps to {out}")


def cmd_synth(args, rc: RunConfig) -> None:
    for flag, count in (("--images", args.images), ("--observers", args.observers), ("--rois", args.rois)):
        _require_positive(flag, count)
    grid = GridSpec(rc.grid_width, rc.grid_height)
    rng = np.random.default_rng(rc.seed)
    ds = synth_dataset(args.images, args.observers, args.rois, grid, rng)
    out = _prepare_out(args, rc, {})
    save_scanpath_csv(ds.scanpaths, out / "dataset.csv")
    for rec in ds.images:
        write_pgm(out / f"{rec.image_id}.pgm", rec.pixels)
    print(f"wrote {len(ds.scanpaths)} scanpaths over {len(ds.images)} images to {out}")


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scanpath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run config file (key=value lines)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    def sampling(p):
        p.add_argument("--checkpoint", required=True, help="checkpoint to sample from")
        p.add_argument("--dataset", default=None, help="scanpath CSV (defaults to config dataset_csv)")
        p.add_argument("--th", type=float, default=None, help="override the config sampling threshold")

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="sample scanpaths from a checkpoint")
    common(p)
    sampling(p)
    p.add_argument("--count", type=int, default=10, help="rollouts per image")
    p.add_argument("--dump-tspm", action="store_true", help="write per-rollout map tensors")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("complete", help="complete ground-truth prefixes")
    common(p)
    sampling(p)
    p.add_argument("--prefix-len", type=int, required=True, dest="prefix_len")
    p.add_argument("--repeats", type=int, default=10)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    common(p)
    p.add_argument("--predicted", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--baselines", action="store_true", help="also write human/random baseline reports")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("saliency", help="aggregate scanpaths into heatmaps")
    common(p)
    p.add_argument("--scanpaths", default=None, help="scanpath CSV (defaults to config dataset_csv)")
    p.set_defaults(func=cmd_saliency)

    p = sub.add_parser("synth", help="generate the synthetic benchmark")
    common(p)
    p.add_argument("--images", type=int, default=10)
    p.add_argument("--observers", type=int, default=15)
    p.add_argument("--rois", type=int, default=2)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    args.raw_argv = argv
    try:
        rc = load_run_config(args.config)
        args.func(args, replace(rc, **{k: v for k in ("seed", "th") if (v := getattr(args, k, None)) is not None}))
        return 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FormatError, DataError, ConfigMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, ScanpathError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
