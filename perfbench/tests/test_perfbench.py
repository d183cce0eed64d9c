"""Tests of the benchmark itself, on tiny configs.

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, worker  # noqa: E402
from perfbench.workloads import Workload, prepare  # noqa: E402

TINY_MODEL = {
    "input_dim": 4, "dim": 8, "gcn_layers": 1, "heads": 2, "transformer_depth": 1,
    "branches": [
        {"task": "typing", "pooling": "drop", "tokens": 3, "pool_size": 6},
        {"task": "staging", "pooling": "gcmincut", "tokens": 3, "pool_size": 2},
    ],
}
TINY_DATA = {"samples": 10, "rows": 10, "cols": 10, "dim": 4, "folds": 2,
             "region_radius": (1.0, 2.5)}
TINY_TRAIN = {"batch_size": 4, "lr": 1e-3, "seed": 0, "runs": 1, "eval_drop_seeds": 2,
              "epochs": 1, "workers": 1}
TINY_CV = Workload(name="tiny-cv", kind="cv", data=TINY_DATA, train=TINY_TRAIN,
                   model=TINY_MODEL)
TINY_EVAL = replace(TINY_CV, name="tiny-eval", kind="eval")
COUNTS = ("tensor.ops_per_sample", "tensor.ops_per_eval_forward",
          "train.eval_forwards_per_slide", "train.graph_builds_per_slide",
          "graph.dense_adj_mb", "graph.array_mb")


def _measure(workload, workdir, traced, seed=3, edit=None):
    workdir.mkdir()
    spec = json.loads(json.dumps(prepare(workload, seed, workdir)))
    if edit is not None:
        edit(spec)
    return worker.measure(spec, workdir, seconds=0.0, traced=traced)


@pytest.mark.parametrize("workload", [TINY_CV, TINY_EVAL], ids=lambda w: w.kind)
@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
def test_every_metric_is_printed_with_its_unit(workload, traced, tmp_path):
    result = _measure(workload, tmp_path / "w", traced)
    spec = run.metric_spec(traced)
    line = json.loads(json.dumps(run.result_line(result, spec)))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == spec
    if not traced:
        values = {k: v["value"] for k, v in line["metrics"].items()}
        assert all(v > 0 for v in values.values())
        if workload.kind == "eval":  # model forwards, not slides, per second
            forwards = 1 + TINY_TRAIN["eval_drop_seeds"]
            assert values["samples_per_s"] == pytest.approx(
                forwards * values["eval_slides_per_s"])


def test_self_times_are_nonnegative_and_sum_to_traced_wall(tmp_path):
    metrics = _measure(TINY_CV, tmp_path / "w", traced=True)["metrics"]
    self_ms = [v for k, v in metrics.items() if k.endswith(".self_ms")]
    assert min(self_ms) >= 0.0
    # every span of the serial run is reported, so self times cover the wall
    assert sum(self_ms) == pytest.approx(metrics["trace.wall_ms"], rel=1e-9)
    assert metrics["trace.wall_ms"] > 0


def test_counts_repeat_exactly(tmp_path):
    for workload, builds_per_slide in ((TINY_CV, 1.0), (TINY_EVAL, 2.0)):
        runs = [_measure(workload, tmp_path / f"{workload.kind}{i}", traced=True)["metrics"]
                for i in range(2)]
        for name in COUNTS + tuple(k for k in runs[0] if k.endswith(".calls")):
            assert runs[0][name] == runs[1][name], name
        first = runs[0]
        assert first["train.eval_forwards_per_slide"] == 1 + TINY_TRAIN["eval_drop_seeds"]
        assert first["train.graph_builds_per_slide"] == builds_per_slide
        assert first["graph.dense_adj_mb"] > 0 and first["tensor.ops_per_eval_forward"] > 0
        assert (first["tensor.ops_per_sample"] > 0) == (workload.kind == "cv")


def test_pool_workers_write_their_spans(tmp_path):
    pooled = replace(TINY_CV, train=dict(TINY_TRAIN, workers=2))
    metrics = _measure(pooled, tmp_path / "w", traced=True)["metrics"]
    folds = TINY_DATA["folds"]
    assert metrics["train.pool.wait.calls"] == folds
    assert metrics["train.evaluate.calls"] == folds
    assert metrics["model.forward.calls"] > 0 and metrics["tensor.backward.calls"] > 0
    assert metrics["train.graph_builds_per_slide"] == folds  # each cell rebuilds all


def test_gate_counts_every_failure(tmp_path):
    def corrupt(spec):
        spec["inputs"]["reference"]["typing"]["acc"] += 1.0

    result = _measure(TINY_EVAL, tmp_path / "eval", traced=False, edit=corrupt)
    assert result["failed"] == result["attempted"] > 0
    assert any("differ" in msg for msg in result["failures"])

    def lose_checkpoint(spec):
        spec["inputs"]["checkpoint"] += ".missing"

    result = _measure(TINY_EVAL, tmp_path / "lost", traced=False, edit=lose_checkpoint)
    assert result["failed"] == result["attempted"] > 0 and result["metrics"] == {}
    assert "FileNotFoundError" in result["failures"][0]

    strict = replace(TINY_CV, auc_floors=(1.01, 1.01))
    result = _measure(strict, tmp_path / "cv", traced=False)
    assert result["failed"] == result["attempted"] > 0
    assert not run.result_line(result, run.metric_spec(False))["correct"]


def test_gate_catches_artifacts_that_change_between_units(tmp_path, monkeypatch):
    from slidegt import train

    calls = itertools.count()
    summarize = train.summarize
    monkeypatch.setattr(train, "summarize",
                        lambda records: dict(summarize(records), call=next(calls)))
    result = _measure(TINY_CV, tmp_path / "w", traced=False)
    cells = TINY_DATA["folds"]
    assert result["attempted"] == worker.MIN_UNITS * cells
    assert result["failed"] == (worker.MIN_UNITS - 1) * cells  # all but the first unit


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
