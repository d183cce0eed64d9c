"""Golden-output guard: a fixed set of small training runs must reproduce
the committed output files bit for bit.

For every case the guard hashes (sha256) ``metrics.jsonl``, ``summary.json``,
every checkpoint and, for the ablation case, ``ablation.jsonl``, and compares
them with ``golden.json`` next to this file.  Hashes depend on the BLAS
kernel, so ``golden.json`` also stores the machine it was written on (numpy
version, BLAS name and version, CPU architecture).  On any other machine the
guard compares the stored metric values to 1e-9 instead, and says so in a
warning: the bitwise check did not run there.

A change that is meant to move output bits regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says so in its change log.
"""

import hashlib
import json
import math
import platform
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from slidegt import train
from slidegt.data import SyntheticSpec, generate
from slidegt.model import ModelConfig, SlideGraphTransformer
from slidegt.train import TrainConfig, run_ablation, run_training

GOLDEN_PATH = Path(__file__).with_name("golden.json")
HASHED_NAMES = ("metrics.jsonl", "summary.json", "ablation.jsonl")
METRIC_ATOL = 1e-9

# the acceptance criterion-5 model: drop(32) for typing, gcmincut(16) for staging
MODEL = ModelConfig.from_dict({
    "input_dim": 32, "dim": 32, "gcn_layers": 2, "heads": 2, "transformer_depth": 1,
    "branches": [
        {"task": "typing", "pooling": "drop", "tokens": 16, "pool_size": 32},
        {"task": "staging", "pooling": "gcmincut", "tokens": 16, "pool_size": 16},
    ],
})
TRAIN = TrainConfig(model=MODEL, epochs=2, batch_size=8, lr=1e-3, seed=0, folds=2,
                    runs=1, eval_drop_seeds=4)
SLIDES16 = SyntheticSpec(samples=12, rows=16, cols=16, dim=32, seed=5, folds=2)
SLIDES64 = SyntheticSpec(samples=2, rows=64, cols=64, dim=32, seed=5, folds=2)


def _case_multi(out):
    run_training(TRAIN, generate(SLIDES16), out)


def _case_ablate_pooling(out):
    cfg = replace(TRAIN, epochs=1, model=replace(MODEL, assign_softmax=False))
    run_ablation(cfg, generate(SLIDES16), "pooling", out)


def _case_slides64(out):
    run_training(replace(TRAIN, epochs=1), generate(SLIDES64), out)


def _case_single_type(out):
    run_training(replace(TRAIN, epochs=1, paradigm="single:type"), generate(SLIDES16), out)


def _case_shared_tokens(out):
    cfg = replace(TRAIN, epochs=1, model=replace(MODEL, token_scheme="shared"))
    run_training(cfg, generate(SLIDES16), out)


CASES = {
    "multi": _case_multi,
    "ablate_pooling": _case_ablate_pooling,
    "slides64": _case_slides64,
    "single_type": _case_single_type,
    "shared_tokens": _case_shared_tokens,
}


def machine_key():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def run_case(name, out):
    """Run one case into ``out``; return its file hashes and metric records."""
    CASES[name](out)
    entry = {"sha256": {}, "records": {}}
    for path in sorted(out.rglob("*")):
        if path.name not in HASHED_NAMES and path.suffix != ".mgtc":
            continue
        rel = path.relative_to(out).as_posix()
        entry["sha256"][rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.name == "metrics.jsonl":
            entry["records"][rel] = [json.loads(line) for line in
                                     path.read_text().splitlines()]
    return entry


def check_bitwise(name, got, want):
    assert got["sha256"].keys() == want["sha256"].keys(), f"{name}: file set differs"
    changed = [rel for rel, digest in want["sha256"].items()
               if got["sha256"][rel] != digest]
    assert not changed, f"{name}: sha256 differs for {changed}"


def _values_close(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=0.0, abs_tol=METRIC_ATOL)
    return a == b


def check_metrics(name, got, want):
    assert got["sha256"].keys() == want["sha256"].keys(), f"{name}: file set differs"
    for rel, records in want["records"].items():
        assert len(got["records"][rel]) == len(records), f"{name}: {rel} record count"
        for have, ref in zip(got["records"][rel], records):
            assert have.keys() == ref.keys(), f"{name}: {rel} keys differ"
            bad = [k for k in ref if not _values_close(have[k], ref[k])]
            assert not bad, f"{name}: {rel} differs beyond {METRIC_ATOL} in {bad}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_golden(name, golden, tmp_path):
    got = run_case(name, tmp_path)
    want = golden["cases"][name]
    key = machine_key()
    if key == golden["machine"]:
        check_bitwise(name, got, want)
    else:
        msg = (f"golden case {name}: bitwise check did not run, machine {key} differs "
               f"from {golden['machine']}; compared metric values to {METRIC_ATOL}")
        print(msg)
        warnings.warn(msg)
        check_metrics(name, got, want)


def test_one_ulp_in_one_initial_weight_fails_the_guard(golden, tmp_path, monkeypatch):
    if machine_key() == golden["machine"]:
        want = golden["cases"]["single_type"]
    else:  # the stored hashes are not this machine's; take a fresh reference
        want = run_case("single_type", tmp_path / "reference")

    class Nudged(SlideGraphTransformer):
        def __init__(self, config, seed=0):
            super().__init__(config, seed)
            w = self.parameters()[0][1].data
            w.flat[0] = np.nextafter(w.flat[0], np.inf)

    monkeypatch.setattr(train, "SlideGraphTransformer", Nudged)
    got = run_case("single_type", tmp_path / "nudged")
    with pytest.raises(AssertionError, match="sha256 differs"):
        check_bitwise("single_type", got, want)


def write_golden(scratch):
    cases = {name: run_case(name, Path(scratch) / name) for name in CASES}
    doc = {"machine": machine_key(), "cases": cases}
    GOLDEN_PATH.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        write_golden(scratch)
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
