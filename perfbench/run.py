"""Scanpath benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: train, sample_eval,
cli_walkthrough (see perfbench/README.md). With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it re-runs the same cycles with every public
scanpath function wrapped in a span and reports the per-layer metrics. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every output check
passed and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / "perfbench" / ".work"
TRACE_DIR = ROOT / "perfbench" / ".out"
SETUP_REPEATS = 7
# BLAS/OpenMP threads for the benchmark and every subprocess it starts. One
# thread is never more than nproc, and it is the faster setting for these
# small matrices (see README.md).
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train", "sample_eval", "cli_walkthrough")


def pin_threads() -> None:
    """Must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile; the value itself when there is only one sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def measure(wl, seconds: float) -> dict:
    """End-to-end run: closed-loop cycles for `seconds` of cycle time.

    Set-up runs SETUP_REPEATS times, spread evenly over the run so that its
    median does not hinge on one moment of the machine's speed; set-up time
    is not part of the measured cycle time.
    """
    setups = [_timed(wl.setup)]
    wl.warmup()
    cycles: list[float] = []
    while not cycles or sum(cycles) < seconds:
        cycles.append(_timed(lambda: wl.cycle(len(cycles))))
        if len(setups) < SETUP_REPEATS and sum(cycles) >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(_timed(wl.setup))
    while len(setups) < SETUP_REPEATS:
        setups.append(_timed(wl.setup))
    elapsed = sum(cycles)
    rss = wl.peak_rss_mb()
    ops = wl.op_seconds or [elapsed]
    wl.check()
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(wl.op_seconds) / elapsed, "1/s"),
        "op_ms_p50": (statistics.median(ops) * 1e3, "ms"),
        "op_ms_p90": (_quantile(ops, 90) * 1e3, "ms"),
        "cycle_s": (statistics.median(cycles), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def trace(wl, seconds: float, work: Path) -> dict:
    """Per-layer run: the same cycles untraced, then traced, then the extra cases."""
    from perfbench import layers
    from perfbench.trace import SpanTable, Tracer
    from perfbench.workloads import write_run_config

    wl.setup()
    wl.warmup()
    wl.setup()
    cycles, untraced = 0, 0.0
    start = time.perf_counter()
    while cycles == 0 or (cycles < wl.sizes.trace_cycles and time.perf_counter() - start < seconds / 2):
        t0 = time.perf_counter()
        wl.cycle(cycles)
        untraced += time.perf_counter() - t0
        cycles += 1

    tracer = Tracer()
    tracer.install()
    try:
        wl.setup()
        since = len(tracer)
        t0 = time.perf_counter()
        for i in range(cycles):
            wl.cycle(i)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    tracer.save(TRACE_DIR / f"trace-{wl.name}.npz")

    values = {name: 0.0 for name in ("training.alloc_peak_mb_per_step", "autodiff.nodes_per_step",
                                     "losses.kl_dtw_loss.nodes", "data_io.checkpoint.bytes",
                                     "cli.startup.s")}
    values.update(layers.from_trace(SpanTable(tracer), since, cycles))
    values["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0
    values.update(wl.layer_extras())
    rc = write_run_config(work / "isolated.cfg", wl.seed)
    values.update(layers.isolated(rc, wl.seed, wl.sizes.observers))
    wl.check()

    units = {name: unit for name, unit, _ in layers.catalogue()}
    absent = sorted(name for name in units if values.get(name) is None)
    if absent:
        print(f"absent (wrap point no longer in the package): {', '.join(absent)}")
    return {name: (values[name], unit) for name, unit in units.items() if values.get(name) is not None}


def run_workload(name: str, seed: int, seconds: float, traced: bool, sizes=None) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    from perfbench.workloads import FULL, WORKLOADS

    work = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, work, sizes or FULL, in_process=traced)
        metrics = trace(wl, seconds, work) if traced else measure(wl, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in wl.problems:
        print(f"check failed: {problem}")
    return {
        "correct": not wl.problems and wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "scanpath" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'scanpath'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    env = environment()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"environment: {json.dumps(env)}")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
