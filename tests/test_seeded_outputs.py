"""Seeded outputs pinned as literals.

A change to how the model computes its steps (fused, hoisted or skipped
convolutions) may move maps and losses by rounding, but must give the same
scanpaths from the same seeds and the same losses to 1e-12. The values below
were produced by the code before layer 0's constant channels were hoisted out
of the time loop; the first step's gradient norms, by the code before conv2d
read its input as channel blocks. The loss is computed before backward(), so
only the gradient norm sees a change to a VJP.
"""

import math

import numpy as np
import pytest

from scanpath.core import GazePoint, GridSpec, Scanpath
from scanpath.data_io import preprocess, synth_dataset
from scanpath.losses import LossConfig
from scanpath.model import ModelConfig, ScanpathModel
from scanpath.training import TrainConfig, init_state, train_step

PREFIX = Scanpath((GazePoint(2.0, 7.0, 0), GazePoint(8.0, 1.0, 1)), "img", "obs")

# per feature source: the points of rollouts from rng seeds 0, 1 and 2, then of completions of PREFIX from them
EXPECTED_PATHS = {
    "trainable": (
        [[[6, 4], [3, 5], [4, 3], [1, 4], [5, 1], [3, 7]],
         [[8, 0], [7, 6], [0, 8], [8, 1], [5, 2], [0, 4]],
         [[9, 1], [4, 6], [4, 8], [4, 8], [8, 7], [1, 1]]],
        [[[2, 7], [8, 1], [5, 4], [3, 5], [4, 3], [1, 4]],
         [[2, 7], [8, 1], [8, 0], [7, 6], [0, 8], [8, 1]],
         [[2, 7], [8, 1], [9, 1], [4, 6], [4, 8], [4, 8]]],
    ),
    "precomputed": (
        [[[6, 4], [4, 5], [4, 3], [3, 4], [3, 1], [3, 7]],
         [[8, 0], [7, 6], [0, 8], [7, 1], [3, 2], [0, 4]],
         [[9, 1], [4, 6], [4, 8], [4, 8], [8, 7], [9, 0]]],
        [[[2, 7], [8, 1], [6, 4], [4, 5], [2, 3], [0, 4]],
         [[2, 7], [8, 1], [7, 0], [7, 6], [9, 7], [4, 1]],
         [[2, 7], [8, 1], [9, 1], [5, 6], [4, 8], [4, 8]]],
    ),
}

# first train_step loss, teacher-forced and self-fed
EXPECTED_LOSS = {True: 23.85362740071605, False: 23.857613971171126}
# global gradient norm over every parameter after that step's backward()
EXPECTED_GRAD_NORM = {True: 7.95248781098739, False: 7.924850309081578}


@pytest.mark.parametrize("source", list(EXPECTED_PATHS))
def test_seeded_rollouts_and_completions_give_the_pinned_scanpaths(source):
    grid = GridSpec(10, 9)
    cfg = ModelConfig(grid=grid, layers=2, hidden_channels=4, n_fixations=6, sigma=1.0,
                      feature_channels=3, feature_source=source)
    model = ScanpathModel.create(cfg, np.random.default_rng(11))
    inputs = np.random.default_rng(12)
    feat = model.feature_stack(image=inputs.random((9, 10)), precomputed=inputs.standard_normal((3, 9, 10)))
    rollouts = [model.rollout(feat, np.random.default_rng(seed))[0].coords().tolist() for seed in range(3)]
    completions = [model.complete_scanpath(feat, PREFIX, np.random.default_rng(seed)).coords().tolist()
                   for seed in range(3)]
    assert (rollouts, completions) == EXPECTED_PATHS[source]


@pytest.mark.parametrize("teacher_forcing", [True, False])
def test_seeded_train_step_gives_the_pinned_loss(teacher_forcing):
    grid = GridSpec(10, 7)
    prepared = preprocess(synth_dataset(1, 4, 1, grid, np.random.default_rng(42)), grid, n_fix=4, sigma=1.0)
    mcfg = ModelConfig(grid=grid, layers=2, hidden_channels=3, n_fixations=4, sigma=1.0, feature_channels=2)
    cfg = TrainConfig(model=mcfg, loss=LossConfig(gamma=0.3, sigma=1.0), seed=3, teacher_forcing=teacher_forcing)
    loss = train_step(prepared[0], init_state(cfg), cfg)
    assert abs(loss - EXPECTED_LOSS[teacher_forcing]) <= 1e-12 * EXPECTED_LOSS[teacher_forcing]


@pytest.mark.parametrize("teacher_forcing", [True, False])
def test_seeded_train_step_gives_the_pinned_gradient_norm(teacher_forcing):
    grid = GridSpec(10, 7)
    prepared = preprocess(synth_dataset(1, 4, 1, grid, np.random.default_rng(42)), grid, n_fix=4, sigma=1.0)
    mcfg = ModelConfig(grid=grid, layers=2, hidden_channels=3, n_fixations=4, sigma=1.0, feature_channels=2)
    cfg = TrainConfig(model=mcfg, loss=LossConfig(gamma=0.3, sigma=1.0), seed=3, teacher_forcing=teacher_forcing)
    state = init_state(cfg)
    train_step(prepared[0], state, cfg)
    norm = math.sqrt(sum(float(np.sum(t.grad ** 2)) for _, t in state.model.parameters()))
    assert abs(norm - EXPECTED_GRAD_NORM[teacher_forcing]) <= 1e-12 * EXPECTED_GRAD_NORM[teacher_forcing]
