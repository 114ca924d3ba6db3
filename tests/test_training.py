import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scanpath import training
from scanpath.core import GridSpec
from scanpath.data_io import preprocess, read_checkpoint, synth_dataset
from scanpath.errors import ConfigMismatchError, DataError, NumericalError, ParameterError
from scanpath.losses import CenterPrior, LossConfig, kl_dtw_loss, lambda_schedule, pairwise_cost
from scanpath.model import ModelConfig
from scanpath.training import TrainConfig, init_state, train, train_step
from test_losses import brute_soft_min, enumerate_path_costs


def toy_setup(seed=0, n_images=2, lam=0.0, lr=1e-3, **model_over):
    grid = GridSpec(8, 8)
    ds = synth_dataset(n_images, 3, 1, grid, np.random.default_rng(42))
    prepared = preprocess(ds, grid, n_fix=3, sigma=1.0)
    mdefaults = dict(grid=grid, layers=2, hidden_channels=3, kernel_size=3,
                     n_fixations=3, sigma=1.0, feature_channels=2, feature_source="trainable")
    mdefaults.update(model_over)
    cfg = TrainConfig(
        model=ModelConfig(**mdefaults),
        loss=LossConfig(gamma=0.3, lambda_base=lam, lambda_slope=lam, sigma=1.0),
        lr=lr,
        max_steps=5,
        checkpoint_every=2,
        seed=seed,
    )
    return prepared, cfg


def test_train_step_depends_on_adam_state():
    prepared, cfg = toy_setup()
    state = init_state(cfg)
    rng_snapshot = state.rng.bit_generator.state
    loss1 = train_step(prepared[0], state, cfg)
    state.rng.bit_generator.state = rng_snapshot
    loss2 = train_step(prepared[0], state, cfg)
    # same rng stream, same example: only the parameter update can differ
    assert loss1 != loss2


def test_train_step_loss_matches_independent_assembly():
    prepared, cfg = toy_setup(lam=0.0)
    state = init_state(cfg)
    rng_snapshot = state.rng.bit_generator.state
    loss = train_step(prepared[0], state, cfg)

    # replay the step: anchor choice, then the rollout's weight draws
    replay = np.random.default_rng()
    replay.bit_generator.state = rng_snapshot
    ex = prepared[0]
    anchor = int(replay.integers(len(ex.scanpaths)))
    # the parameters were updated in place; rebuild the pre-update model
    state2 = init_state(cfg)
    feat = state2.model.feature_stack(image=ex.image)
    frames = state2.model.rollout_training(
        feat, replay, input_maps=ex.spatialized[anchor][:2]
    )
    pred = [f.data for f in frames]
    prior = CenterPrior.for_grid(cfg.model.grid, cfg.loss.sigma)
    terms = []
    for spat in ex.spatialized:
        delta = np.array(
            [
                [pairwise_cost(pred[i], spat[j], lambda_schedule(i, cfg.loss), prior)
                 for j in range(len(spat))]
                for i in range(len(pred))
            ]
        )
        terms.append(brute_soft_min(enumerate_path_costs(delta), cfg.loss.gamma))
    assert abs(loss - float(np.mean(terms))) < 1e-9


def test_train_step_with_schedule_matches_oracle():
    prepared, cfg = toy_setup(lam=0.05)
    state = init_state(cfg)
    rng_snapshot = state.rng.bit_generator.state
    loss = train_step(prepared[0], state, cfg)

    replay = np.random.default_rng()
    replay.bit_generator.state = rng_snapshot
    ex = prepared[0]
    anchor = int(replay.integers(len(ex.scanpaths)))
    state2 = init_state(cfg)
    feat = state2.model.feature_stack(image=ex.image)
    frames = state2.model.rollout_training(feat, replay, input_maps=ex.spatialized[anchor][:2])
    pred = [f.data for f in frames]
    prior = CenterPrior.for_grid(cfg.model.grid, cfg.loss.sigma)
    terms = []
    for spat in ex.spatialized:
        delta = np.array(
            [
                [pairwise_cost(pred[i], spat[j], lambda_schedule(i, cfg.loss), prior)
                 for j in range(len(spat))]
                for i in range(len(pred))
            ]
        )
        terms.append(brute_soft_min(enumerate_path_costs(delta), cfg.loss.gamma))
    assert abs(loss - float(np.mean(terms))) < 1e-9


def test_gradient_reaches_every_layer():
    prepared, cfg = toy_setup()
    state = init_state(cfg)
    before = {name: t.data.copy() for name, t in state.model.parameters()}
    train_step(prepared[0], state, cfg)
    groups = {}
    for name, t in state.model.parameters():
        group = ".".join(name.split(".")[:2]) if name.startswith("convlstm") else name.split(".")[0]
        groups.setdefault(group, []).append(not np.array_equal(before[name], t.data))
    assert set(groups) == {"convlstm.l0", "convlstm.l1", "head", "features"}
    for group, changed in groups.items():
        assert any(changed), f"no parameter changed in {group}"


def test_spatialized_truth_holds_only_its_maps_after_train_steps():
    prepared, cfg = toy_setup(lam=0.05)
    state = init_state(cfg)
    for ex in prepared * 2:
        train_step(ex, state, cfg)
    grid = cfg.model.grid
    uniform = [np.full((grid.height, grid.width), 1.0 / (grid.width * grid.height))] * cfg.model.n_fixations
    for ex in prepared:
        truth = ex.spatialized
        kept = [spat.copy() for spat in truth]
        kl_dtw_loss(uniform, truth, cfg.loss, grid)
        for spat, want in zip(truth, kept, strict=True):
            # a plain map stack, which the loss reads and does not log in place
            assert type(spat) is np.ndarray and spat.tobytes() == want.tobytes()


def test_a_train_step_at_the_benchmark_shape_allocates_under_19_1_mib():
    # 32 x 32 grid, N = 8, 15 observers, the default model: a step's allocations peaked at 20.15 MiB when each
    # layer step kept tanh(c) beside its gates, c and h, and at 18.02 MiB without it
    grid = GridSpec(32, 32)
    prepared = preprocess(synth_dataset(1, 15, 2, grid, np.random.default_rng(1)), grid, n_fix=8, sigma=2.0)
    cfg = TrainConfig(model=ModelConfig(grid=grid, n_fixations=8, sigma=2.0), loss=LossConfig(sigma=2.0), seed=1)
    state = init_state(cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train_step(prepared[0], state, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 19.1 * 2**20


def test_train_zero_steps_writes_initial_checkpoint_only(tmp_path):
    prepared, cfg = toy_setup()
    cfg = TrainConfig(model=cfg.model, loss=cfg.loss, lr=cfg.lr, max_steps=0,
                      checkpoint_every=2, seed=cfg.seed)
    final, log = train(prepared, cfg, tmp_path / "run")
    assert log == []
    files = sorted(p.name for p in (tmp_path / "run").glob("*.spck"))
    assert files == ["checkpoint_000000.spck"]
    assert final.name == "checkpoint_000000.spck"
    assert (tmp_path / "run" / "loss_log.csv").read_text() == "step,loss\n"


def test_train_deterministic_loss_log(tmp_path):
    prepared, cfg = toy_setup()
    train(prepared, cfg, tmp_path / "a")
    train(prepared, cfg, tmp_path / "b")
    assert (tmp_path / "a" / "loss_log.csv").read_bytes() == (tmp_path / "b" / "loss_log.csv").read_bytes()
    assert (tmp_path / "a" / "checkpoint_final.spck").read_bytes() == (tmp_path / "b" / "checkpoint_final.spck").read_bytes()


def test_train_losses_finite_and_checkpoints_on_cadence(tmp_path):
    prepared, cfg = toy_setup()
    final, log = train(prepared, cfg, tmp_path / "run")
    assert len(log) == 5
    assert all(np.isfinite(v) for _, v in log)
    names = sorted(p.name for p in (tmp_path / "run").glob("*.spck"))
    assert names == [
        "checkpoint_000000.spck",
        "checkpoint_000002.spck",
        "checkpoint_000004.spck",
        "checkpoint_final.spck",
    ]
    ckpt = read_checkpoint(final)
    assert ckpt.hyper["step"] == "5"
    assert "rng_state" in ckpt.hyper


def test_resume_reproduces_uninterrupted_run(tmp_path):
    prepared, cfg = toy_setup()
    _, full_log = train(prepared, cfg, tmp_path / "full")

    cfg2 = TrainConfig(model=cfg.model, loss=cfg.loss, lr=cfg.lr, max_steps=2,
                       checkpoint_every=0, seed=cfg.seed)
    mid, _ = train(prepared, cfg2, tmp_path / "part1")
    _, tail_log = train(prepared, cfg, tmp_path / "part2", resume_from=mid)

    assert [s for s, _ in tail_log] == [3, 4, 5]
    for (sa, va), (sb, vb) in zip(full_log[2:], tail_log):
        assert sa == sb
        assert abs(va - vb) < 1e-9


def test_resume_from_an_unusable_checkpoint_creates_no_output_directory(tmp_path):
    prepared, cfg = toy_setup()
    mid, _ = train(prepared, replace(cfg, max_steps=1), tmp_path / "part1")
    with pytest.raises(FileNotFoundError):
        train(prepared, cfg, tmp_path / "missing", resume_from=tmp_path / "nope.spck")
    with pytest.raises(ConfigMismatchError):
        train(prepared, replace(cfg, model=replace(cfg.model, hidden_channels=4)), tmp_path / "mismatched",
              resume_from=mid)
    assert not (tmp_path / "missing").exists() and not (tmp_path / "mismatched").exists()


@pytest.mark.parametrize("grid, sigma", [(GridSpec(8, 8), 1.5), (GridSpec(8, 7), 1.0)], ids=["sigma", "grid"])
def test_an_example_prepared_for_another_grid_or_sigma_creates_no_output_directory(tmp_path, grid, sigma):
    prepared, cfg = toy_setup()
    other = preprocess(synth_dataset(1, 3, 1, grid, np.random.default_rng(1)), grid, n_fix=3, sigma=sigma)
    with pytest.raises(ConfigMismatchError, match=f"prepared for a {grid.width}x{grid.height} grid at sigma {sigma}"):
        train(prepared + other, cfg, tmp_path / "run")
    assert not (tmp_path / "run").exists()


def _other_examples(cfg, n_fix):
    return preprocess(synth_dataset(1, 3, 1, cfg.model.grid, np.random.default_rng(1)), cfg.model.grid,
                      n_fix=n_fix, sigma=cfg.model.sigma, min_len=1)


@pytest.mark.parametrize("make, error, match", [
    (lambda cfg: _other_examples(cfg, 1), ConfigMismatchError, "scanpath of 1 fixations, the model needs 3"),
    (lambda cfg: _other_examples(cfg, 4), ConfigMismatchError, "scanpath of 4 fixations, the model needs 3"),
    (lambda cfg: [replace(ex, scanpaths=()) for ex in _other_examples(cfg, 3)], DataError, "has no scanpaths"),
], ids=["shorter", "longer", "empty"])
def test_an_example_of_another_length_or_without_scanpaths_writes_nothing(tmp_path, make, error, match):
    prepared, cfg = toy_setup()
    with pytest.raises(error, match=match):
        train(prepared + make(cfg), cfg, tmp_path / "run")
    assert not (tmp_path / "run" / "checkpoint_000000.spck").exists()
    assert not (tmp_path / "run" / "loss_log.csv").exists()


TRAIN_SCRIPT = """
import sys
import numpy as np
from scanpath.core import GridSpec
from scanpath.data_io import preprocess, synth_dataset
from scanpath.model import ModelConfig
from scanpath.training import TrainConfig, train
grid = GridSpec(32, 32)
prepared = preprocess(synth_dataset(2, 4, 2, grid, np.random.default_rng(5)), grid, n_fix=8, sigma=2.0)
train(prepared, TrainConfig(model=ModelConfig(grid=grid), lr=1e-3, max_steps=4, checkpoint_every=2, seed=2),
      sys.argv[1])
"""


def test_training_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # layer 0's kernel gradient at these sizes (64 x 153 from an inner dimension of 1024) is where one GEMM order
    # summed differently under two OpenBLAS threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = {}
    for threads in sorted({1, min(2, os.cpu_count() or 1)}):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(threads)))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-c", TRAIN_SCRIPT, str(out)], env=env, check=True, timeout=600)
        runs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    first, *others = runs.values()
    assert sorted(first) == ["checkpoint_000000.spck", "checkpoint_000002.spck", "checkpoint_000004.spck",
                             "checkpoint_final.spck", "loss_log.csv"]
    assert all(run == first for run in others)


def test_crashed_run_keeps_its_log_and_resume_appends_to_it(tmp_path, monkeypatch):
    prepared, cfg = toy_setup()  # 5 steps, a checkpoint every 2
    train(prepared, cfg, tmp_path / "full")
    full_log = (tmp_path / "full" / "loss_log.csv").read_text()

    real_step = training.train_step

    def crash_in_step_4(example, state, cfg):
        if state.step == 3:
            raise RuntimeError("crash in step 4")
        return real_step(example, state, cfg)

    run = tmp_path / "run"
    monkeypatch.setattr(training, "train_step", crash_in_step_4)
    with pytest.raises(RuntimeError, match="step 4"):
        train(prepared, cfg, run)
    monkeypatch.undo()
    # header and steps 1-3 were flushed before the crash
    assert (run / "loss_log.csv").read_text() == "".join(full_log.splitlines(keepends=True)[:4])

    # a kill while writing step 12's row would leave a torn "1", which must not pass for step 1
    with open(run / "loss_log.csv", "a", encoding="utf-8") as fh:
        fh.write("1")
    # the checkpoint is at step 2: step 3's row is dropped and rewritten by the resumed run
    _, tail_log = train(prepared, cfg, run, resume_from=run / "checkpoint_000002.spck")
    assert [s for s, _ in tail_log] == [3, 4, 5]
    assert (run / "loss_log.csv").read_text() == full_log


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0])
def test_train_config_rejects_bad_learning_rate(lr):
    _, cfg = toy_setup()
    with pytest.raises(ParameterError):
        TrainConfig(model=cfg.model, loss=cfg.loss, lr=lr)


def test_train_config_rejects_negative_seed():
    _, cfg = toy_setup()
    with pytest.raises(ParameterError, match="seed"):
        TrainConfig(model=cfg.model, loss=cfg.loss, seed=-1)


def test_train_config_rejects_sigma_disagreement():
    # the loss's center prior and the model's fixation maps must use one width
    _, cfg = toy_setup()
    with pytest.raises(ParameterError, match="sigma"):
        TrainConfig(model=cfg.model, loss=replace(cfg.loss, sigma=3.0))


@pytest.mark.filterwarnings("ignore:invalid value")
def test_nan_loss_raises_numerical_error():
    prepared, cfg = toy_setup()
    state = init_state(cfg)
    state.model.head_kernel.data[...] = np.inf
    with pytest.raises(NumericalError):
        train_step(prepared[0], state, cfg)


def test_free_running_mode_runs():
    prepared, cfg = toy_setup()
    cfg = TrainConfig(model=cfg.model, loss=cfg.loss, lr=cfg.lr, max_steps=2,
                      checkpoint_every=0, seed=3, teacher_forcing=False)
    state = init_state(cfg)
    v1 = train_step(prepared[0], state, cfg)
    v2 = train_step(prepared[0], state, cfg)
    assert np.isfinite(v1) and np.isfinite(v2)
