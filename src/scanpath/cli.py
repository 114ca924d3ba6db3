"""Command-line surface: train, predict, complete, evaluate, saliency, synth.

Every command reads a flat key=value run config, writes a manifest and a full
config echo into its output directory, and is deterministic given --seed.
Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import GazePoint, GridSpec, Scanpath, gaussian_map, group_by_image, parse_value
from .data_io import (
    load_scanpath_dataset,
    preprocess,
    read_checkpoint,
    read_feature_tensor,
    resample_to_grid,
    rescale_point,
    grid_to_native,
    save_scanpath_csv,
    synth_dataset,
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
from .training import TrainConfig, train


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; every key can appear in the config file."""

    grid_width: int = 32
    grid_height: int = 32
    sigma: float = 2.0
    layers: int = 2
    hidden_channels: int = 16
    kernel_size: int = 3
    feature_channels: int = 4
    feature_source: str = "trainable"
    th: float = 0.7
    threshold_mode: str = "relative"
    n_fixations: int = 8
    gamma: float = 0.1
    lambda_base: float = 0.05
    lambda_slope: float = 0.05
    lr: float = 1e-4
    max_steps: int = 2000
    checkpoint_every: int = 500
    seed: int = 0
    teacher_forcing: bool = True
    min_scanpath_len: int = 4
    bin_cols: int = 8
    bin_rows: int = 5
    recurrence_radius: float = 0.0  # 0 = one tenth of the image diagonal
    min_line: int = 2
    tde_k: int = 3
    image_width: int = 0  # 0 = infer from data
    image_height: int = 0
    dataset_csv: str = ""
    images_dir: str = ""
    features_dir: str = ""


def load_run_config(path) -> RunConfig:
    known = {f.name: f.type for f in fields(RunConfig)}
    values = {}
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
        try:
            values[key] = parse_value(raw, known[key])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return RunConfig(**values)


def write_run_config(rc: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields(RunConfig):
            fh.write(f"{f.name}={getattr(rc, f.name)}\n")


def model_config(rc: RunConfig) -> ModelConfig:
    return ModelConfig(grid=GridSpec(rc.grid_width, rc.grid_height),
                       **{f.name: getattr(rc, f.name) for f in HYPER_FIELDS})


def loss_config(rc: RunConfig) -> LossConfig:
    return LossConfig(**{f.name: getattr(rc, f.name) for f in fields(LossConfig)})


def metric_config(rc: RunConfig) -> MetricConfig:
    """0 leaves a field whose MetricConfig default is None (the radius and image size) to be inferred
    from the data; MetricConfig rejects any other nonpositive or non-finite value."""
    values = {}
    for f in fields(MetricConfig):
        value = getattr(rc, f.name)
        values[f.name] = None if f.default is None and value == 0 else value
    return MetricConfig(**values)


def _prepare_out(args, rc: RunConfig, inputs: dict) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_run_config(rc, out / "config.txt")
    lines = [
        f"command={args.command}",
        f"package_version={__version__}",
        f"numpy_version={np.__version__}",
        f"argv={' '.join(args.raw_argv)}",
    ]
    for key, value in inputs.items():
        lines.append(f"input_{key}={value}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def _apply_overrides(rc: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        rc = replace(rc, seed=args.seed)
    if getattr(args, "th", None) is not None:
        rc = replace(rc, th=args.th)
    return rc


def _load_dataset(rc: RunConfig, override_csv=None):
    csv = override_csv or rc.dataset_csv
    if not csv:
        raise DataError("no dataset: set dataset_csv in the config or pass --dataset")
    images_dir = rc.images_dir or None
    return load_scanpath_dataset(csv, images_dir=images_dir)


def load_features(rc: RunConfig, image_id: str) -> np.ndarray | None:
    """<features_dir>/<image_id>.ftns under feature_source=precomputed; None for the trainable stack."""
    if rc.feature_source != "precomputed":
        return None
    if not rc.features_dir:
        raise DataError("feature_source=precomputed needs features_dir")
    path = Path(rc.features_dir) / f"{image_id}.ftns"
    if not path.is_file():
        raise DataError(f"missing feature file {path}")
    return read_feature_tensor(path)


def _native_path(s: Scanpath, grid: GridSpec, rec) -> Scanpath:
    pts = []
    for p in s.points:
        nx, ny = grid_to_native(p.x, p.y, grid, rec.width, rec.height)
        pts.append(GazePoint(nx, ny, p.index))
    return Scanpath(tuple(pts), s.image_id, s.observer_id)


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    rc = _apply_overrides(load_run_config(args.config), args)
    dataset = _load_dataset(rc)
    out = _prepare_out(args, rc, {"config": args.config, "dataset": rc.dataset_csv})
    mcfg = model_config(rc)
    prepared = preprocess(dataset, mcfg.grid, n_fix=rc.n_fixations, sigma=rc.sigma,
                          min_len=rc.min_scanpath_len)
    features = {ex.image_id: load_features(rc, ex.image_id) for ex in prepared}
    cfg = TrainConfig(model=mcfg, loss=loss_config(rc), lr=rc.lr, max_steps=rc.max_steps,
                      checkpoint_every=rc.checkpoint_every, seed=rc.seed,
                      teacher_forcing=rc.teacher_forcing)
    final, log = train(prepared, cfg, out, features=features, resume_from=args.resume)
    print(f"trained {len(log)} steps; final checkpoint: {final}")
    return 0


def _load_model(rc: RunConfig, checkpoint_path):
    ckpt = read_checkpoint(checkpoint_path)
    model, _, step, _ = model_from_checkpoint(ckpt, expected=model_config(rc))
    return model, step


def cmd_predict(args) -> int:
    rc = _apply_overrides(load_run_config(args.config), args)
    model, _ = _load_model(rc, args.checkpoint)
    dataset = _load_dataset(rc, args.dataset)
    out = _prepare_out(args, rc, {"config": args.config, "checkpoint": args.checkpoint,
                                  "dataset": args.dataset or rc.dataset_csv})
    rng = np.random.default_rng(rc.seed)
    grid = model.cfg.grid
    feats = [model.feature_stack(image=None if rec.pixels is None else resample_to_grid(rec.pixels, grid),
                                 precomputed=load_features(rc, rec.image_id)) for rec in dataset.images]
    generated = []
    for rec, feat in zip(dataset.images, feats):
        for c in range(args.count):
            path, frames = model.rollout(feat, rng, image_id=rec.image_id,
                                         observer_id=f"model{c:03d}", th=rc.th)
            generated.append(_native_path(path, grid, rec))
            if args.dump_tspm:
                stack = np.stack([f.values for f in frames])
                tdir = out / "tspm"
                tdir.mkdir(exist_ok=True)
                write_feature_tensor(tdir / f"{rec.image_id}_{c:03d}.ftns", stack)
    save_scanpath_csv(generated, out / "predicted.csv")
    print(f"wrote {len(generated)} scanpaths to {out / 'predicted.csv'}")
    return 0


def cmd_complete(args) -> int:
    rc = _apply_overrides(load_run_config(args.config), args)
    if not (1 <= args.prefix_len <= rc.n_fixations - 1):
        raise ParameterError(
            f"--prefix-len must be in [1, {rc.n_fixations - 1}] for N={rc.n_fixations}, got {args.prefix_len}")
    model, _ = _load_model(rc, args.checkpoint)
    dataset = _load_dataset(rc, args.dataset)
    out = _prepare_out(args, rc, {"config": args.config, "checkpoint": args.checkpoint,
                                  "dataset": args.dataset or rc.dataset_csv})
    rng = np.random.default_rng(rc.seed)
    grid = model.cfg.grid
    feats = [model.feature_stack(image=None if rec.pixels is None else resample_to_grid(rec.pixels, grid),
                                 precomputed=load_features(rc, rec.image_id)) for rec in dataset.images]
    by_image = group_by_image(dataset.scanpaths)
    completions = []
    for rec, feat in zip(dataset.images, feats):
        for s in by_image[rec.image_id]:
            if s.n < args.prefix_len:
                continue
            prefix_pts = []
            for i, p in enumerate(s.points[: args.prefix_len]):
                gx, gy = rescale_point(p.x, p.y, rec.width, rec.height, grid.width, grid.height)
                prefix_pts.append(GazePoint(gx, gy, i))
            prefix = Scanpath(tuple(prefix_pts), s.image_id, s.observer_id)
            for r in range(args.repeats):
                done = model.complete_scanpath(feat, prefix, rng, th=rc.th)
                done = Scanpath(done.points, done.image_id, f"{s.observer_id}_c{r:02d}")
                completions.append(_native_path(done, grid, rec))
    save_scanpath_csv(completions, out / "completions.csv")
    print(f"wrote {len(completions)} completions to {out / 'completions.csv'}")
    return 0


def cmd_evaluate(args) -> int:
    rc = _apply_overrides(load_run_config(args.config), args)
    out = _prepare_out(args, rc, {"config": args.config, "predicted": args.predicted,
                                  "truth": args.truth})
    predicted = load_scanpath_dataset(args.predicted).scanpaths
    truth_ds = load_scanpath_dataset(args.truth)
    truth = truth_ds.scanpaths
    cfg = metric_config(rc).resolved(predicted, truth)
    report = evaluate_set(predicted, truth, cfg)
    write_report_csv(report, out / "report.csv")
    if args.baselines:
        write_report_csv(human_baseline(truth, cfg), out / "human_baseline.csv")
        rng = np.random.default_rng(rc.seed)
        grid = GridSpec(int(np.ceil(cfg.image_width)), int(np.ceil(cfg.image_height)))
        rand = []
        for image_id, paths in group_by_image(predicted).items():
            rand.extend(random_baseline(grid, rc.n_fixations, len(paths), rng, image_id=image_id))
        write_report_csv(evaluate_set(rand, truth, cfg), out / "random_baseline.csv")
    print(f"wrote {out / 'report.csv'}")
    return 0


def aggregate_heatmap(paths, grid: GridSpec, sigma: float, native_w, native_h) -> np.ndarray:
    """Sum of per-fixation Gaussians over all scanpaths, on the model grid."""
    heat = np.zeros((grid.height, grid.width))
    for s in paths:
        for p in s.points:
            gx, gy = rescale_point(p.x, p.y, native_w, native_h, grid.width, grid.height)
            heat += gaussian_map(GazePoint(gx, gy), grid, sigma).values
    return heat


def cmd_saliency(args) -> int:
    rc = _apply_overrides(load_run_config(args.config), args)
    dataset = _load_dataset(rc, args.scanpaths)
    out = _prepare_out(args, rc, {"config": args.config, "scanpaths": args.scanpaths or rc.dataset_csv})
    grid = GridSpec(rc.grid_width, rc.grid_height)
    by_image = group_by_image(dataset.scanpaths)
    for rec in dataset.images:
        heat = aggregate_heatmap(by_image[rec.image_id], grid, rc.sigma, rec.width, rec.height)
        img = np.round(heat / heat.max() * 255.0).astype(np.uint8)
        write_pgm(out / f"{rec.image_id}.pgm", img)
    print(f"wrote {len(dataset.images)} heatmaps to {out}")
    return 0


def cmd_synth(args) -> int:
    rc = _apply_overrides(load_run_config(args.config), args)
    out = _prepare_out(args, rc, {"config": args.config})
    grid = GridSpec(rc.grid_width, rc.grid_height)
    rng = np.random.default_rng(rc.seed)
    ds = synth_dataset(args.images, args.observers, args.rois, grid, rng)
    save_scanpath_csv(ds.scanpaths, out / "dataset.csv")
    for rec in ds.images:
        write_pgm(out / f"{rec.image_id}.pgm", rec.pixels)
    print(f"wrote {len(ds.scanpaths)} scanpaths over {len(ds.images)} images to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scanpath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True, help="run config file (key=value lines)")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="sample scanpaths from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", default=None, help="test scanpath CSV (defaults to config dataset_csv)")
    p.add_argument("--count", type=int, default=10, help="rollouts per image")
    p.add_argument("--th", type=float, default=None, help="override sampling threshold")
    p.add_argument("--dump-tspm", action="store_true", help="write per-rollout map tensors")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("complete", help="complete ground-truth prefixes")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", default=None)
    p.add_argument("--prefix-len", type=int, required=True, dest="prefix_len")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--th", type=float, default=None)
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
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FormatError, DataError, ConfigMismatchError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, ScanpathError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
