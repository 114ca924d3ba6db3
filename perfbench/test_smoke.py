"""Smoke test of the benchmark: every workload once at tiny sizes, checks on, no timing gates.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import sys

import pytest

from perfbench import run

run.pin_threads()
sys.path.insert(0, str(run.ROOT / "src"))

from perfbench.workloads import TINY  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_the_workloads():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_runs_with_checks(name, traced):
    result = run.run_workload(name, seed=3, seconds=0.01, traced=traced, sizes=TINY)
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if traced else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_self_time_excludes_children_and_missing_wrap_points_are_absent():
    from perfbench import layers
    from perfbench.trace import SpanTable, Tracer

    tracer = Tracer()
    conv = tracer._wrap("autodiff.conv2d", lambda: sum(range(10_000)))
    step = tracer._wrap("training.train_step", lambda: [conv() for _ in range(3)])
    step()
    table = SpanTable(tracer)
    assert table.self_time[0] == pytest.approx(table.duration[0] - table.duration[1:].sum())
    values = layers.from_trace(table, since=0, cycles=1)
    assert values["autodiff.conv2d.calls_per_step"] == 3.0
    assert values["model.tspm_head.us"] is None
    assert values["autodiff.conv2d.calls_per_rollout"] is None


def test_layer_metrics_are_absent_without_their_wrap_points(monkeypatch, tmp_path):
    from perfbench import layers
    from perfbench.workloads import TrainWorkload, reachable, write_run_config
    from scanpath import model, training

    monkeypatch.delattr(training, "kl_dtw_loss")
    monkeypatch.delattr(model, "FEATURE_STACK_HIDDEN")
    assert TrainWorkload(3, tmp_path, TINY)._count_nodes() == (None, None)
    assert reachable([object()]) is None
    rc = write_run_config(tmp_path / "run.cfg", 3)
    assert set(layers.conv_cases(rc)) == {"gate_x", "gate_h", "head"}
    monkeypatch.delattr(layers.losses, "kl_dtw_loss")
    assert not any(k.startswith("losses.") for k in layers.isolated(rc, 3, 3, reps=1))
