"""Cross-validated multi-task training.

Every random draw flows from named seed streams keyed by (purpose tag, run
seed, fold, epoch, sample id), so a rerun with the same config and dataset
reproduces parameters, metrics, and report files bit for bit.  A "batch" is a
gradient accumulation group: per-sample gradients are summed, divided by the
group size, and applied in one Adam step.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import tensor as T
from .data import stratified_folds
from .errors import ConfigError, ContractError, NonFiniteError, TrainingDiverged
from .fileio import write_atomic, write_json
from .graph import build_graph
from .losses import LossWeights, cross_entropy, mincut_loss, total_loss
from .metrics import compute_metrics, mean_std
from .model import ModelConfig, SlideGraphTransformer, softmax_1d
from .optim import Adam
from .tensor import backward, no_grad

# purpose tags for independent seed streams
_TAG_INIT = 101
_TAG_SHUFFLE = 102
_TAG_TRAIN_DROP = 103
_TAG_EVAL_DROP = 104
_TAG_FOLDS = 105

PARADIGMS = ("multi", "single:type", "single:stage")
_PARADIGM_TASKS = {"single:type": "typing", "single:stage": "staging"}

METRIC_KEYS = ("auc", "acc", "f1")


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


@dataclass
class TrainConfig:
    model: ModelConfig
    epochs: int = 40
    batch_size: int = 8
    lr: float = 1e-4
    seed: int = 0
    folds: int = 5
    runs: int = 3
    paradigm: str = "multi"
    weights: LossWeights = field(default_factory=LossWeights)
    eval_drop_seeds: int = 8
    workers: int = 1

    def validate(self):
        self.model.validate()
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        # NaN fails every comparison, so each check asks for the good case
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr!r}")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.paradigm not in PARADIGMS:
            raise ConfigError(f"unknown paradigm {self.paradigm!r}; expected {PARADIGMS}")
        if self.eval_drop_seeds < 1:
            raise ConfigError("eval_drop_seeds must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        for name in ("typing", "staging", "mincut"):
            w = getattr(self.weights, name)
            if not (math.isfinite(w) and w >= 0.0):
                raise ConfigError(f"weights.{name} must be finite and >= 0, got {w!r}")

    def to_dict(self):
        return dict(asdict(self), model=self.model.to_dict())


def paradigm_model_config(model_cfg, paradigm):
    """Restrict the branch list for single-task paradigms."""
    if paradigm == "multi":
        return model_cfg
    task = _PARADIGM_TASKS[paradigm]
    branches = tuple(b for b in model_cfg.branches if b.task == task)
    if not branches:
        raise ConfigError(f"paradigm {paradigm!r} needs a branch for task {task!r}")
    return replace(model_cfg, branches=branches)


def assemble_loss(out, graph, labels_by_task, weights):
    """Per-sample joint objective from one forward pass."""
    task_losses = {
        task: cross_entropy(logits, [labels_by_task[task]])
        for task, logits in out.logits.items()
    }
    mincut_total = None
    for aux in out.aux.values():
        if "assignment" in aux:
            term = mincut_loss(aux["assignment"], graph.norm_adj, graph.deg_tilde).total
            mincut_total = term if mincut_total is None else T.add(mincut_total, term)
    return total_loss(task_losses, mincut_total, weights)


def _train_model(cfg, model, graphs, samples, train_idx, run_seed, fold):
    opt = Adam(model.parameters(), lr=cfg.lr)
    for epoch in range(cfg.epochs):
        order = _rng(_TAG_SHUFFLE, run_seed, fold, epoch).permutation(train_idx)
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            opt.zero_grad()
            try:
                for si in batch:
                    # the forward output and the loss hold the whole tape, so
                    # no name binds them: backward frees the tape as it goes
                    sample = samples[si]
                    rng = _rng(_TAG_TRAIN_DROP, run_seed, fold, epoch, sample.sample_id)
                    labels = {task: sample.label(task) for task in model.branches}
                    backward(assemble_loss(model.forward(graphs[si], rng), graphs[si],
                                           labels, cfg.weights))
                inv = 1.0 / len(batch)
                for _, p in model.parameters():
                    p.grad *= inv
                opt.step()
            except NonFiniteError as exc:
                raise TrainingDiverged(
                    f"training diverged at fold {fold}, epoch {epoch} "
                    f"(run seed {run_seed}): {exc}") from exc
    return model


def _model_has_random_pool(model):
    return any(branch.pool.draws for branch in model.branches.values())


def _append_scores(scores, out):
    for task, logits in out.logits.items():
        scores[task].append(float(softmax_1d(logits.data[0])[1]))


def evaluate(model, graphs, samples, indices, eval_drop_seeds=8):
    """Metrics per task on the given sample indices.

    Drop pooling is deterministic at eval time: the kept subset is seeded by
    the sample id alone.  Models with random pooling additionally report, for
    every task, each metric averaged over ``eval_drop_seeds`` independent drop
    seeds (``*_seed_avg``): the mean of the per-seed metrics, not of logits.
    Nothing is recorded on the tape, so each drop branch draws its kept rows
    first and injects only those (bitwise the scores of injecting every row
    and then dropping).  Each slide's seeded draws reuse its first forward's
    trunk and its non-drop branches' outputs, so only the drop branches
    inject their kept rows and read out again.
    """
    if eval_drop_seeds < 1:
        raise ConfigError(f"eval_drop_seeds must be >= 1, got {eval_drop_seeds}")
    indices = np.asarray(indices)
    if indices.size == 0:
        raise ContractError("evaluation needs at least one sample")
    labels = {
        task: np.array([samples[si].label(task) for si in indices])
        for task in model.branches
    }
    random_pool = _model_has_random_pool(model) and eval_drop_seeds > 1
    draws = eval_drop_seeds if random_pool else 0
    scores = {task: [] for task in model.branches}
    seed_scores = [{task: [] for task in model.branches} for _ in range(draws)]
    with no_grad():
        for si in indices:
            sid = samples[si].sample_id
            first = model.forward(graphs[si], _rng(_TAG_EVAL_DROP, sid))
            _append_scores(scores, first)
            for j in range(draws):
                out = model.forward(graphs[si], _rng(_TAG_EVAL_DROP, sid, j), reuse=first)
                _append_scores(seed_scores[j], out)
    results = {}
    for task in model.branches:
        m = compute_metrics(np.array(scores[task]), labels[task])
        results[task] = {"auc": m.auc, "acc": m.acc, "f1": m.f1, "n": m.n}
    if draws:
        per_seed = {task: {k: [] for k in METRIC_KEYS} for task in model.branches}
        for draw in seed_scores:
            for task in model.branches:
                m = compute_metrics(np.array(draw[task]), labels[task])
                for k in METRIC_KEYS:
                    per_seed[task][k].append(getattr(m, k))
        for task in model.branches:
            for k in METRIC_KEYS:
                vals = [v for v in per_seed[task][k] if v is not None]
                results[task][f"{k}_seed_avg"] = (
                    float(np.mean(vals)) if vals else None)
    return results


def _dataset_folds(cfg, dataset):
    stored = int(dataset.folds.max()) + 1
    if cfg.folds == stored:
        return dataset.folds
    joint = np.array([2 * s.label_type + s.label_stage for s in dataset.samples])
    return stratified_folds(joint, cfg.folds, _rng(_TAG_FOLDS, cfg.seed))


def _checkpoint_path(out_dir, run, fold):
    return Path(out_dir) / "checkpoints" / f"run{run}_fold{fold}.mgtc"


def _run_fold(cfg, dataset, graphs, folds, run, fold, out_dir):
    from .fileio import save_checkpoint

    run_seed = cfg.seed + run
    model_cfg = paradigm_model_config(cfg.model, cfg.paradigm)
    model = SlideGraphTransformer(
        model_cfg, np.random.SeedSequence([_TAG_INIT, run_seed, fold]))
    train_idx = np.nonzero(folds != fold)[0]
    test_idx = np.nonzero(folds == fold)[0]
    if cfg.epochs > 0 and train_idx.size:
        _train_model(cfg, model, graphs, dataset.samples, train_idx, run_seed, fold)
    results = evaluate(model, graphs, dataset.samples, test_idx, cfg.eval_drop_seeds)
    records = []
    for task, metrics in results.items():
        record = {"run": run, "fold": fold, "task": task}
        record.update(metrics)
        records.append(record)
    if out_dir is not None:
        path = _checkpoint_path(out_dir, run, fold)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(model, path)
    return records


def _fold_worker(cfg, dataset, folds, run, fold, out_dir):
    graphs = [build_graph(s.grid) for s in dataset.samples]
    return _run_fold(cfg, dataset, graphs, folds, run, fold, out_dir)


def summarize(records):
    """Mean and sample std of each metric per task over all (run, fold) cells."""
    tasks = []
    for r in records:
        if r["task"] not in tasks:
            tasks.append(r["task"])
    summary = {}
    for task in tasks:
        rows = [r for r in records if r["task"] == task]
        entry = {"cells": len(rows)}
        keys = set()
        for row in rows:
            keys.update(k for k in row if k not in ("run", "fold", "task", "n"))
        for key in sorted(keys):
            mean, std = mean_std([row.get(key) for row in rows])
            entry[f"{key}_mean"] = mean
            entry[f"{key}_std"] = std
        summary[task] = entry
    return summary


def run_training(cfg, dataset, out_dir=None):
    """Train runs x folds models, evaluate each held-out fold, write artifacts.

    Returns {"records": [...], "summary": {...}, "config": {...}}.
    """
    cfg.validate()
    dim = dataset.samples[0].grid.features.shape[1]
    if dim != cfg.model.input_dim:
        raise ConfigError(
            f"dataset feature width {dim} does not match model input_dim "
            f"{cfg.model.input_dim}")
    folds = _dataset_folds(cfg, dataset)
    sizes = np.bincount(folds, minlength=cfg.folds)
    if not sizes.all():  # a cell with no held-out sample has nothing to score
        raise ConfigError(
            f"fold {int(np.argmin(sizes))} is empty: {cfg.folds} folds over "
            f"{len(dataset.samples)} samples")
    if out_dir is not None:  # fail on a bad path before any fold trains
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    jobs = [(run, fold) for run in range(cfg.runs) for fold in range(cfg.folds)]
    workers = cfg.workers
    cap = os.environ.get("SLIDEGT_WORKERS")
    if cap is not None:
        try:
            workers = max(1, min(workers, int(cap)))
        except ValueError:
            raise ConfigError(f"SLIDEGT_WORKERS must be an integer, got {cap!r}") from None
    records = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_fold_worker, cfg, dataset, folds, run, fold, out_dir)
                       for run, fold in jobs]
            for future in futures:  # submission order keeps records deterministic
                records.extend(future.result())
    else:
        graphs = [build_graph(s.grid) for s in dataset.samples]
        for run, fold in jobs:
            records.extend(_run_fold(cfg, dataset, graphs, folds, run, fold, out_dir))
    report = {"records": records, "summary": summarize(records),
              "config": cfg.to_dict()}
    if out_dir is not None:
        _write_report(report, dataset, out_dir)
    return report


def _jsonl_bytes(records):
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()


def _write_report(report, dataset, out_dir):
    out = Path(out_dir)
    write_atomic(out / "metrics.jsonl", _jsonl_bytes(report["records"]))
    write_json(out / "summary.json", report["summary"])
    manifest = {
        "package_version": __version__,
        "config": report["config"],
        "dataset_spec": dataset.spec.to_dict(),
        "n_samples": len(dataset.samples),
    }
    write_json(out / "manifest.json", manifest)


def format_summary(summary, title="results"):
    """Fixed-width text table of the per-task metric summary."""
    lines = [title, "-" * len(title)]
    header = f"{'task':<10} {'auc':>16} {'acc':>16} {'f1':>16} {'cells':>6}"
    lines.append(header)
    for task, entry in summary.items():
        cols = [f"{task:<10}"]
        for key in METRIC_KEYS:
            mean = entry.get(f"{key}_mean")
            std = entry.get(f"{key}_std")
            cols.append("             n/a" if mean is None
                        else f"{mean:8.4f}±{std:7.4f}")
        cols.append(f"{entry['cells']:>6}")
        lines.append(" ".join(cols))
    return "\n".join(lines)


# ------------------------------------------------------------------ ablation

ABLATION_AXES = ("pooling", "paradigm", "tokens")
_SWAP_KINDS = ("sort", "topk", "sag", "diff", "mincut", "gm")


def ablation_variants(cfg, axis):
    """Named config variants along one published comparison axis."""
    if axis == "paradigm":
        return [(p.replace(":", "_"), replace(cfg, paradigm=p)) for p in PARADIGMS]
    if axis == "tokens":
        return [(scheme, replace(cfg, model=replace(cfg.model, token_scheme=scheme)))
                for scheme in ("specific", "shared")]
    if axis == "pooling":
        variants = [("domain", cfg)]
        for kind in _SWAP_KINDS:
            branches = tuple(replace(b, pooling=kind) for b in cfg.model.branches)
            variants.append(
                (f"both_{kind}", replace(cfg, model=replace(cfg.model, branches=branches))))
        return variants
    raise ConfigError(f"unknown ablation axis {axis!r}; expected one of {ABLATION_AXES}")


def run_ablation(cfg, dataset, axis, out_dir=None):
    """Run every variant along an axis; returns [(name, report), ...]."""
    results = []
    for name, variant_cfg in ablation_variants(cfg, axis):
        sub_dir = None if out_dir is None else Path(out_dir) / name
        results.append((name, run_training(variant_cfg, dataset, sub_dir)))
    if out_dir is not None:
        combined = [
            dict(record, variant=name)
            for name, report in results for record in report["records"]
        ]
        write_atomic(Path(out_dir) / "ablation.jsonl", _jsonl_bytes(combined))
    return results
