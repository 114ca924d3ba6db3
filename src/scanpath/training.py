"""Training loop: batch size 1, Adam, teacher forcing, seeded determinism.

Per step one image is drawn in seeded shuffled order, the network is rolled
out with the fixation inputs of one randomly chosen anchor scanpath, and the
KL/soft-DTW loss against all of the image's scanpaths is backpropagated.
A prepared example holds its scanpaths as points: the anchor's input maps
(under teacher forcing) and the loss's truth maps are rendered from them in
each step, and nothing keeps them between steps.
The loss log and checkpoints are byte-reproducible functions of
(dataset, config, seed), at any BLAS thread count on the build this was
checked on (see README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState
from .core import gaussian_maps
from .data_io import Checkpoint, PreparedExample, read_checkpoint, write_atomic, write_checkpoint
from .errors import ConfigMismatchError, DataError, NumericalError, ParameterError
from .losses import LossConfig, kl_dtw_loss
from .model import ModelConfig, ScanpathModel, model_from_checkpoint, model_to_checkpoint


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    loss: LossConfig = field(default_factory=LossConfig)
    lr: float = 1e-4
    max_steps: int = 2000
    checkpoint_every: int = 500
    seed: int = 0
    teacher_forcing: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ParameterError(f"learning rate must be positive and finite, got {self.lr}")
        if self.max_steps < 0 or self.checkpoint_every < 0:
            raise ParameterError("step counts must be nonnegative")
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")
        if self.loss.sigma != self.model.sigma:
            raise ParameterError(f"loss sigma {self.loss.sigma} != model sigma {self.model.sigma}")


@dataclass
class TrainState:
    model: ScanpathModel
    adam: AdamState
    rng: np.random.Generator
    step: int = 0


def init_state(cfg: TrainConfig) -> TrainState:
    rng = np.random.default_rng(cfg.seed)
    model = ScanpathModel.create(cfg.model, rng)
    params = [t for _, t in model.parameters()]
    return TrainState(model=model, adam=AdamState.init(params), rng=rng)


def resume_state(path, cfg: TrainConfig) -> TrainState:
    """The state a checkpoint holds, checked against cfg.model; it must carry the optimizer and generator state."""
    model, adam, step, rng = model_from_checkpoint(read_checkpoint(path), expected=cfg.model)
    if adam is None or rng is None:
        raise DataError(f"{path}: checkpoint carries no optimizer/rng state, cannot resume")
    return TrainState(model=model, adam=adam, rng=rng, step=step)


def train_step(example: PreparedExample, state: TrainState, cfg: TrainConfig) -> float:
    """One optimizer update on one image; returns the scalar loss.

    The model reads the example's precomputed features, or with the
    trainable stack the example's pixels.
    """
    if not example.scanpaths:
        raise DataError(f"image '{example.image_id}' has no scanpaths")
    model = state.model
    n_fix = model.cfg.n_fixations

    anchor = example.scanpaths[int(state.rng.integers(len(example.scanpaths)))]  # drawn in both modes
    anchor_maps = (gaussian_maps(anchor.coords()[: n_fix - 1], model.cfg.grid, model.cfg.sigma)
                   if cfg.teacher_forcing else None)
    feat = model.feature_stack(image=example.image, precomputed=example.features)
    frames = model.rollout_training(feat, state.rng, input_maps=anchor_maps)
    loss = kl_dtw_loss(frames, example.scanpaths, cfg.loss, model.cfg.grid)
    value = loss.item()
    if not math.isfinite(value):
        raise NumericalError(f"non-finite loss {value} at step {state.step + 1}")

    params = [t for _, t in model.parameters()]
    ad.zero_grads(params)
    ad.backward(loss)
    grads = ad.collect_grads(params)
    ad.adam_step(params, grads, state.adam, cfg.lr)
    state.step += 1
    return value


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    return np.random.default_rng((seed, epoch)).permutation(n)


def _checkpoint(state: TrainState) -> Checkpoint:
    return model_to_checkpoint(
        state.model, adam=state.adam, step=state.step, rng_state=state.rng.bit_generator.state
    )


def _log_rows_through(path: Path, step: int) -> list[str]:
    """The complete rows of an existing loss log with step <= `step`; none when there is no log."""
    if not path.is_file():
        return []
    rows = []
    for line in path.read_text(encoding="utf-8", errors="replace").splitlines(keepends=True)[1:]:
        row_step = line.partition(",")[0]
        if line.endswith("\n") and row_step.isdigit() and int(row_step) <= step:
            rows.append(line)
    return rows


def check_inputs(model: ScanpathModel, prepared: list[PreparedExample]) -> None:
    """Check that there is an example, then each example's scanpaths, grid and sigma against the model's, and
    build its feature stack, so an empty set, an example without scanpaths or with another length, grid or sigma,
    or a missing or misshapen feature input, fails before anything is written."""
    if not prepared:
        raise DataError("training needs at least one prepared image")
    cfg = model.cfg
    with ad.no_grad():
        for ex in prepared:
            if not ex.scanpaths:
                raise DataError(f"image '{ex.image_id}' has no scanpaths")
            lengths = {s.n for s in ex.scanpaths} - {cfg.n_fixations}
            if lengths:
                raise ConfigMismatchError(f"image '{ex.image_id}' has a scanpath of {min(lengths)} fixations, "
                                          f"the model needs {cfg.n_fixations}")
            if ex.grid != cfg.grid or ex.sigma != cfg.sigma:
                raise ConfigMismatchError(
                    f"image '{ex.image_id}' was prepared for a {ex.grid.width}x{ex.grid.height} grid at sigma "
                    f"{ex.sigma}, the model needs {cfg.grid.width}x{cfg.grid.height} at sigma {cfg.sigma}")
            model.feature_stack(image=ex.image, precomputed=ex.features)


def train(prepared: list[PreparedExample], cfg: TrainConfig, out_dir, resume_from=None):
    """Run the loop; writes loss_log.csv and checkpoints, returns (path, log).

    resume_from restores parameters, optimizer moments, the step counter and
    the generator state, reproducing the uninterrupted trajectory exactly.
    Each loss_log.csv row is flushed as its step finishes, so a crashed run
    keeps its log; a resumed run keeps the rows up to the checkpoint's step
    and appends after them. The returned log holds this call's steps only.
    """
    state = init_state(cfg) if resume_from is None else resume_state(resume_from, cfg)
    check_inputs(state.model, prepared)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if resume_from is None:
        write_checkpoint(out / "checkpoint_000000.spck", _checkpoint(state))

    log_path = out / "loss_log.csv"
    kept = _log_rows_through(log_path, state.step) if resume_from is not None else []
    write_atomic(log_path, [("step,loss\n" + "".join(kept)).encode("utf-8")])

    n = len(prepared)
    log: list[tuple[int, float]] = []
    order, order_epoch = None, -1
    with open(log_path, "a", encoding="utf-8") as fh:
        while state.step < cfg.max_steps:
            epoch, offset = divmod(state.step, n)
            if epoch != order_epoch:
                order, order_epoch = _epoch_order(cfg.seed, epoch, n), epoch
            example = prepared[int(order[offset])]
            value = train_step(example, state, cfg)
            log.append((state.step, value))
            fh.write(f"{state.step},{value!r}\n")
            fh.flush()
            if cfg.checkpoint_every and state.step % cfg.checkpoint_every == 0:
                write_checkpoint(out / f"checkpoint_{state.step:06d}.spck", _checkpoint(state))

    if log or resume_from is not None:
        final_path = out / "checkpoint_final.spck"
        write_checkpoint(final_path, _checkpoint(state))
    else:
        final_path = out / "checkpoint_000000.spck"
    return final_path, log
