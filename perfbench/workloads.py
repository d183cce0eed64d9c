"""The benchmark's workloads and the inputs the harness makes for them.

Each workload fixes a data shape and a training config; only the data seed
comes from the command line.  The harness generates the dataset with
``data.generate`` and writes it with ``fileio.save_dataset``; the measuring
process gets nothing but the files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

# The acceptance criterion-5 model: 2 GCN layers, 2 heads, one transformer
# layer, 16 latent tokens, drop pooling (32 kept) for typing and gcmincut
# (16 clusters) for staging.
DESK_MODEL = {
    "input_dim": 32, "dim": 32, "gcn_layers": 2, "heads": 2, "transformer_depth": 1,
    "branches": [
        {"task": "typing", "pooling": "drop", "tokens": 16, "pool_size": 32},
        {"task": "staging", "pooling": "gcmincut", "tokens": 16, "pool_size": 16},
    ],
}
DESK_TRAIN = {"batch_size": 8, "lr": 1e-3, "seed": 0, "runs": 1, "eval_drop_seeds": 4}
# An eval workload scores this fold, as ``slidegt eval --fold 0`` does.
EVAL_FOLD = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind "cv" times ``train.run_training`` as ``slidegt train`` calls it;
    kind "eval" times ``slidegt eval --fold``: load a checkpoint and the
    dataset, build every slide's graph, and score one fold.
    """

    name: str
    kind: str
    data: dict                       # SyntheticSpec fields except seed
    train: dict                      # TrainConfig fields except model and folds
    model: dict = field(default_factory=lambda: DESK_MODEL)
    # floors on the held-out AUC means (typing, staging); None skips the check
    auc_floors: tuple | None = None


def _desk_data(samples, folds):
    return {"samples": samples, "rows": 16, "cols": 16, "dim": 32, "folds": folds}


WORKLOADS = {w.name: w for w in (
    # Floors sit well below the lowest AUCs seen on seeds 1-14 (typing 0.88,
    # staging 0.73); an untrained model scores about 0.5.
    Workload(
        name="cv-desk", kind="cv", data=_desk_data(40, 5),
        train=dict(DESK_TRAIN, epochs=2, workers=1), auc_floors=(0.8, 0.65)),
    Workload(
        name="cv-wsi64", kind="cv",
        data={"samples": 4, "rows": 64, "cols": 64, "dim": 32, "folds": 2},
        train=dict(DESK_TRAIN, epochs=1, workers=1)),
    Workload(
        name="eval-ckpt32", kind="eval",
        data={"samples": 16, "rows": 32, "cols": 32, "dim": 32, "folds": 2},
        train=dict(DESK_TRAIN, epochs=1, workers=1)),
    # A smaller cut than cv-desk, so a run holds about ten units: the pool's
    # time per unit varies by about 30% between units of one run.
    Workload(
        name="cv-desk-pool2", kind="cv", data=_desk_data(20, 2),
        train=dict(DESK_TRAIN, epochs=2, workers=2)),
)}


def train_config(workload):
    from slidegt.model import ModelConfig
    from slidegt.train import TrainConfig

    return TrainConfig(model=ModelConfig.from_dict(workload.model),
                       folds=workload.data["folds"], **workload.train)


def prepare(workload, seed, workdir):
    """Write the workload's input files into workdir and return their paths.

    For an eval workload this trains the checkpoint first, the way
    ``slidegt train --out`` does, and keeps the training run's record for the
    evaluated cell so the measured eval can be checked against it.
    """
    from slidegt.data import SyntheticSpec, generate
    from slidegt.fileio import save_dataset
    from slidegt.train import run_training

    workdir = Path(workdir)
    dataset = generate(SyntheticSpec(seed=seed, **workload.data))
    inputs = {"dataset": str(workdir / "data.mgts")}
    save_dataset(dataset, inputs["dataset"])
    if workload.kind == "eval":
        out = workdir / "checkpoint_run"
        report = run_training(train_config(workload), dataset, out)
        inputs["checkpoint"] = str(out / "checkpoints" / f"run0_fold{EVAL_FOLD}.mgtc")
        inputs["reference"] = {
            r["task"]: {k: v for k, v in r.items() if k not in ("run", "fold", "task")}
            for r in report["records"] if r["run"] == 0 and r["fold"] == EVAL_FOLD}
    spec = {"workload": asdict(workload), "seed": seed, "inputs": inputs}
    (workdir / "spec.json").write_text(json.dumps(spec, indent=1))
    return spec
