"""The benchmark workloads: seeded inputs, set-up, closed-loop cycles, output checks.

Every workload is a closed loop with one client: each operation starts after
the previous one has finished. The seed only shapes the generated inputs (the
synthetic dataset and the model initialisation); configs are built from a flat
key=value file through the package's own config loader.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from scanpath import cli, data_io, metrics, training
from scanpath import model as sp_model
from scanpath.core import Scanpath

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"

# Seed of the fixed inputs that the output checks compare against reference.json.
REFERENCE_SEED = 2024
REFERENCE_TRAIN_STEPS = 5
REFERENCE_BASELINE_IMAGES = 3
ROIS = 2  # regions of interest per synthetic image
CLI_PREFIX = 2  # prefix length of the walkthrough's `complete`
CLI_REPEATS = 1  # completions per prefix in the walkthrough
# Tolerances of the output checks (relative). The first train step is held to the
# 1e-12 equivalence rule; later values may drift in their last bits when the
# summation order changes. A baseline statistic is compared relative to the
# larger of its own size and its metric's spread, so that a mean which cancels
# to rounding noise (CORM is antisymmetric, so its human mean is 0) is not
# pinned to its last bits.
FIRST_STEP_RTOL = 1e-12
LAST_LOSS_RTOL = 1e-9
BASELINE_RTOL = 1e-9

REPORT_ROWS = ("LEV", "SCAM", "HAU", "FRE", "fDTW", "TDE", "REC", "DET", "LAM", "CORM")

# Keys every workload writes into its run config; the rest keep their defaults.
BASE_CONFIG = {
    "grid_width": 32,
    "grid_height": 32,
    "sigma": 2.0,
    "n_fixations": 8,
    "lr": 1e-4,
    "checkpoint_every": 0,
    "teacher_forcing": True,
    "image_width": 32,
    "image_height": 32,
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of all workloads; `full` is the benchmark, `tiny` the smoke test."""

    images: int = 10
    observers: int = 15
    rollouts: int = 10  # virtual observers per image in sample_eval
    prefixes: tuple[int, ...] = (1, 2, 3, 4)
    completion_repeats: int = 2
    cli_images: int = 4
    cli_observers: int = 4
    cli_steps: int = 4
    cli_checkpoint_every: int = 2
    cli_count: int = 2
    trace_cycles: int = 3  # most cycles the traced phase runs
    alloc_steps: int = 3


FULL = Sizes()
TINY = Sizes(images=2, observers=3, rollouts=2, prefixes=(1, 2), completion_repeats=1,
             cli_images=2, cli_observers=3, cli_steps=2, cli_checkpoint_every=1, cli_count=1,
             trace_cycles=1, alloc_steps=1)


def write_run_config(path: Path, seed: int, **overrides):
    """Write a key=value run config and load it back through the package."""
    values = {**BASE_CONFIG, "seed": seed, **overrides}
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
    return cli.load_run_config(path)


def train_config(rc):
    return training.TrainConfig(model=cli.model_config(rc), loss=cli.loss_config(rc), lr=rc.lr,
                                max_steps=rc.max_steps, checkpoint_every=rc.checkpoint_every,
                                seed=rc.seed, teacher_forcing=rc.teacher_forcing)


def synth_prepared(rc, images: int, observers: int, seed: int):
    grid = cli.model_config(rc).grid
    ds = data_io.synth_dataset(images, observers, ROIS, grid, np.random.default_rng(seed))
    return data_io.preprocess(ds, grid, n_fix=rc.n_fixations, sigma=rc.sigma,
                              min_len=rc.min_scanpath_len)


def epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    return np.random.default_rng((seed, epoch)).permutation(n)


def grad_norm(model) -> float:
    return math.sqrt(sum(float(np.sum(t.grad ** 2)) for _, t in model.parameters()
                         if t.grad is not None))


def close(a: float, b: float, rtol: float, scale: float = 0.0) -> bool:
    """a and b agree to rtol relative to the larger of |a|, |b| and scale."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale, 1e-300)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def report_values(report) -> dict:
    return {m: [report.means[m], report.stds[m]] for m in REPORT_ROWS}


class Workload:
    """Set-up, closed-loop cycles and checks; subclasses fill in the three."""

    name = ""

    def __init__(self, seed: int, work: Path, sizes: Sizes = FULL, in_process: bool = False):
        self.seed = seed
        self.work = work
        self.sizes = sizes
        self.in_process = in_process
        self.op_seconds: list[float] = []  # latency of every op counted by ops_per_s
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Compare fixed reference inputs against reference.json; adds to problems."""

    def warmup(self) -> None:
        """One untimed operation so that lazy set-up finishes before timing."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_extras(self) -> dict:
        """Per-layer values measured outside the traced phase, keyed by metric name."""
        return {}

    def timed(self, fn, *args, op: bool = True, **kwargs):
        """Run one operation; failures are counted and reported, not raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is a measured outcome
            self.failed += 1
            self.problems.append(f"{self.name}: {fn.__name__} raised {exc!r}")
            return None
        if op:
            self.op_seconds.append(time.perf_counter() - t0)
        return result

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(f"{self.name}: {message}")


# ---------------------------------------------------------------------------
# train


class TrainWorkload(Workload):
    """train_step at batch size 1 on the synthetic set; one cycle is one epoch."""

    name = "train"

    def setup(self) -> None:
        s = self.sizes
        rc = write_run_config(self.work / "run.cfg", self.seed)
        self.cfg = train_config(rc)
        self.prepared = synth_prepared(rc, s.images, s.observers, self.seed)
        self.state = training.init_state(self.cfg)

    def warmup(self) -> None:
        training.train_step(self.prepared[0], self.state, self.cfg)

    def cycle(self, index: int) -> None:
        for i in epoch_order(self.seed, index, len(self.prepared)):
            loss = self.timed(training.train_step, self.prepared[int(i)], self.state, self.cfg)
            if loss is not None:
                self.expect(math.isfinite(loss), f"non-finite loss {loss}")

    def check(self) -> None:
        got = train_reference(self.work)
        want = load_reference()["train"]
        for key, rtol in (("first_loss", FIRST_STEP_RTOL), ("first_grad_norm", FIRST_STEP_RTOL),
                          ("last_loss", LAST_LOSS_RTOL)):
            self.expect(close(got[key], want[key], rtol),
                        f"{key} {got[key]!r} differs from reference {want[key]!r} (rtol {rtol})")

    def layer_extras(self) -> dict:
        nodes, loss_nodes = self._count_nodes()
        return {
            "training.alloc_peak_mb_per_step": self._alloc_peak_mb(),
            "autodiff.nodes_per_step": nodes,
            "losses.kl_dtw_loss.nodes": loss_nodes,
        }

    def _count_nodes(self) -> tuple[float | None, float | None]:
        """Autodiff nodes per step, walking each step's loss graph from its root.

        Both counts are None (absent) when training no longer looks the loss up
        as `kl_dtw_loss` or its tensors no longer keep their parent edges.
        """
        original = getattr(training, "kl_dtw_loss", None)
        if original is None:
            return None, None
        counts: list[tuple[int, int] | None] = []

        def counting(pred_maps, *args, **kwargs):
            loss = original(pred_maps, *args, **kwargs)
            graph, maps = reachable([loss]), reachable(pred_maps)
            counts.append(None if graph is None or maps is None
                          else (len(graph), len(graph - maps)))
            return loss

        training.kl_dtw_loss = counting
        try:
            self.setup()
            for i in epoch_order(self.seed, 0, len(self.prepared)):
                training.train_step(self.prepared[int(i)], self.state, self.cfg)
        finally:
            training.kl_dtw_loss = original
        if not counts or None in counts:
            return None, None
        return (statistics.fmean(c[0] for c in counts), statistics.fmean(c[1] for c in counts))

    def _alloc_peak_mb(self) -> float:
        self.setup()
        peaks = []
        tracemalloc.start()
        try:
            for k in range(self.sizes.alloc_steps):
                current = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                training.train_step(self.prepared[k % len(self.prepared)], self.state, self.cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - current)
        finally:
            tracemalloc.stop()
        return statistics.median(peaks) / 2**20


def reachable(roots) -> set[int] | None:
    """Ids of every tensor reachable from roots through the graph's parent edges;
    None when a tensor has no `_parents` edge list to walk."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        if not hasattr(t, "_parents"):
            return None
        seen.add(id(t))
        stack.extend(t._parents)
    return seen


def train_reference(work: Path) -> dict:
    """First-step loss and gradient norm, and the loss after a few steps, on fixed inputs."""
    rc = write_run_config(work / "reference.cfg", REFERENCE_SEED)
    cfg = train_config(rc)
    prepared = synth_prepared(rc, FULL.images, FULL.observers, REFERENCE_SEED)
    state = training.init_state(cfg)
    order = epoch_order(REFERENCE_SEED, 0, len(prepared))
    losses, first_norm = [], None
    for k in range(REFERENCE_TRAIN_STEPS):
        losses.append(training.train_step(prepared[int(order[k])], state, cfg))
        if first_norm is None:
            first_norm = grad_norm(state.model)
    return {"first_loss": losses[0], "first_grad_norm": first_norm, "last_loss": losses[-1],
            "steps": REFERENCE_TRAIN_STEPS}


# ---------------------------------------------------------------------------
# sample_eval


class SampleEvalWorkload(Workload):
    """The acceptance protocol on an untrained model; one cycle is one image.

    Per image: rollouts, completions of ground-truth prefixes, then the model,
    human and random reports. Ops counted by ops_per_s are sampled scanpaths.
    """

    name = "sample_eval"

    def setup(self) -> None:
        s = self.sizes
        rc = write_run_config(self.work / "run.cfg", self.seed)
        mcfg = cli.model_config(rc)
        self.metric_cfg = cli.metric_config(rc)
        self.prepared = synth_prepared(rc, s.images, s.observers, self.seed)
        fresh = sp_model.ScanpathModel.create(mcfg, np.random.default_rng(self.seed))
        path = self.work / "model.spck"
        data_io.write_checkpoint(path, sp_model.model_to_checkpoint(fresh))
        self.checkpoint_bytes = path.stat().st_size
        self.model, _, _, _ = sp_model.model_from_checkpoint(data_io.read_checkpoint(path),
                                                             expected=mcfg)
        self.grid = mcfg.grid
        self.n = mcfg.n_fixations

    def warmup(self) -> None:
        ex = self.prepared[0]
        self.model.rollout(self.model.feature_stack(image=ex.image), np.random.default_rng(0))

    def _valid(self, path: Scanpath) -> bool:
        return path.n == self.n and all(self.grid.contains(p.x, p.y) for p in path.points)

    def cycle(self, index: int) -> None:
        s, model = self.sizes, self.model
        # a stream per cycle, so a set-up between cycles does not repeat the draws
        rng = np.random.default_rng((self.seed, index))
        ex = self.prepared[index % len(self.prepared)]
        truth = list(ex.scanpaths)
        feat = self.timed(model.feature_stack, image=ex.image, op=False)
        if feat is None:
            return
        generated = []
        for c in range(s.rollouts):
            out = self.timed(model.rollout, feat, rng, image_id=ex.image_id,
                             observer_id=f"model{c:03d}")
            if out is not None:
                self.expect(self._valid(out[0]), f"rollout {out[0]} is not {self.n} in-grid points")
                generated.append(out[0])
        for length in s.prefixes:
            source = truth[length % len(truth)]
            prefix = Scanpath(source.points[:length], source.image_id, source.observer_id)
            for _ in range(s.completion_repeats):
                done = self.timed(model.complete_scanpath, feat, prefix, rng)
                if done is not None:
                    kept = [(p.x, p.y) for p in done.points[:length]]
                    self.expect(kept == [(p.x, p.y) for p in prefix.points],
                                f"completion changed its prefix of length {length}")
                    self.expect(self._valid(done), "completion is not N in-grid points")
        report = self.timed(metrics.evaluate_set, generated, truth, self.metric_cfg, op=False)
        if report is not None:
            self.expect(all(math.isfinite(report.means[m]) for m in REPORT_ROWS),
                        "model-vs-truth report is not finite")
        self.timed(metrics.human_baseline, truth, self.metric_cfg, op=False)
        rand = self.timed(metrics.random_baseline, self.grid, self.n, s.rollouts, rng,
                          image_id=ex.image_id, op=False)
        if rand is not None:
            self.timed(metrics.evaluate_set, rand, truth, self.metric_cfg, op=False)

    def check(self) -> None:
        got = baseline_reference(self.work)
        want = load_reference()["baselines"]
        for report in ("human", "random"):
            for metric in REPORT_ROWS:
                scale = max(abs(v) for v in want[report][metric])
                for k, stat in enumerate(("mean", "std")):
                    a, b = got[report][metric][k], want[report][metric][k]
                    self.expect(close(a, b, BASELINE_RTOL, scale),
                                f"{report} baseline {metric} {stat} {a!r} != reference {b!r}")

    def layer_extras(self) -> dict:
        return {"data_io.checkpoint.bytes": float(self.checkpoint_bytes)}


def baseline_reference(work: Path) -> dict:
    """Human and random baseline reports on the first images of the fixed inputs."""
    rc = write_run_config(work / "reference.cfg", REFERENCE_SEED)
    grid = cli.model_config(rc).grid
    prepared = synth_prepared(rc, FULL.images, FULL.observers, REFERENCE_SEED)
    truth = [s for ex in prepared[:REFERENCE_BASELINE_IMAGES] for s in ex.scanpaths]
    mcfg = cli.metric_config(rc)
    rng = np.random.default_rng(REFERENCE_SEED)
    rand = [p for ex in prepared[:REFERENCE_BASELINE_IMAGES]
            for p in metrics.random_baseline(grid, rc.n_fixations, FULL.rollouts, rng,
                                             image_id=ex.image_id)]
    return {"human": report_values(metrics.human_baseline(truth, mcfg)),
            "random": report_values(metrics.evaluate_set(rand, truth, mcfg))}


# ---------------------------------------------------------------------------
# cli_walkthrough


class CliWalkthroughWorkload(Workload):
    """The README walkthrough; one cycle and one op are one whole walkthrough.

    Commands run as fresh interpreters; the traced run calls cli.main in-process.
    """

    name = "cli_walkthrough"

    def _env(self) -> dict:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def setup(self) -> None:
        s = self.sizes
        self.config = self.work / "run.cfg"
        data = self.work / "data"
        write_run_config(self.config, self.seed, max_steps=s.cli_steps,
                         checkpoint_every=s.cli_checkpoint_every,
                         dataset_csv=data / "dataset.csv", images_dir=data)
        self._startup()

    def _startup(self) -> float:
        """Wall time of a fresh interpreter importing the command-line module."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import scanpath.cli"], env=self._env(),
                       check=True, timeout=120)
        return time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        if self.in_process:
            return super().peak_rss_mb()
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def commands(self) -> list[list[str]]:
        s, w, cfg = self.sizes, self.work, str(self.config)
        data, runs = w / "data", w / "runs"
        ckpt = str(runs / "t1" / "checkpoint_final.spck")
        predicted = str(runs / "pred" / "predicted.csv")
        return [
            ["synth", "--config", cfg, "--out", str(data), "--images", str(s.cli_images),
             "--observers", str(s.cli_observers), "--rois", str(ROIS)],
            ["train", "--config", cfg, "--out", str(runs / "t1")],
            ["predict", "--config", cfg, "--out", str(runs / "pred"), "--checkpoint", ckpt,
             "--count", str(s.cli_count), "--seed", "1", "--dump-tspm"],
            ["evaluate", "--config", cfg, "--out", str(runs / "eval"), "--predicted", predicted,
             "--truth", str(data / "dataset.csv"), "--baselines"],
            ["complete", "--config", cfg, "--out", str(runs / "comp"), "--checkpoint", ckpt,
             "--prefix-len", str(CLI_PREFIX), "--repeats", str(CLI_REPEATS)],
            ["saliency", "--config", cfg, "--out", str(runs / "sal"), "--scanpaths", predicted],
        ]

    def _run(self, argv: list[str]) -> tuple[int, str]:
        """Run one command; returns its exit code and standard error."""
        err = io.StringIO()
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                return cli.main(argv), err.getvalue()
        done = subprocess.run([sys.executable, "-m", "scanpath.cli", *argv], env=self._env(),
                              cwd=self.work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=150)
        return done.returncode, done.stderr.decode(errors="replace")

    def cycle(self, index: int) -> None:
        for sub in ("data", "runs"):
            shutil.rmtree(self.work / sub, ignore_errors=True)
        start = time.perf_counter()
        for argv in self.commands():
            code, err = self.timed(self._run, argv, op=False) or (None, "")
            if code:
                self.failed += 1
                self.problems.append(f"{self.name}: `{argv[0]}` exited with {code}: {err.strip()}")
        self.op_seconds.append(time.perf_counter() - start)
        report = self.work / "runs" / "eval" / "report.csv"
        if report.is_file():
            with open(report, newline="", encoding="utf-8") as fh:
                rows = tuple(row[0] for row in list(csv.reader(fh))[1:])
            self.expect(rows == REPORT_ROWS, f"report.csv rows {rows} are not {REPORT_ROWS}")
        else:
            self.expect(False, "evaluate wrote no report.csv")

    def layer_extras(self) -> dict:
        ckpt = self.work / "runs" / "t1" / "checkpoint_final.spck"
        return {
            "cli.startup.s": statistics.median(self._startup() for _ in range(3)),
            "data_io.checkpoint.bytes": float(ckpt.stat().st_size) if ckpt.is_file() else 0.0,
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, SampleEvalWorkload, CliWalkthroughWorkload)}
