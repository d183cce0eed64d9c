import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from slidegt import tensor as T, train as tr
from slidegt.data import SyntheticSpec, generate
from slidegt.errors import ConfigError, ContractError, NonFiniteError, TrainingDiverged
from slidegt.graph import build_graph
from slidegt.losses import LossWeights, cross_entropy, mincut_loss
from slidegt.metrics import compute_metrics
from slidegt.model import BranchConfig, ModelConfig, SlideGraphTransformer, softmax_1d
from slidegt.optim import Adam
from slidegt.tensor import backward
from slidegt.train import (TrainConfig, ablation_variants, evaluate,
                           format_summary, paradigm_model_config, run_ablation,
                           run_training, summarize)

SPEC = SyntheticSpec(samples=10, rows=10, cols=10, dim=4, seed=6,
                     region_radius=(1.0, 2.5), folds=2)


def tiny_model_config(**kw):
    defaults = dict(
        input_dim=4, dim=8, gcn_layers=1, heads=2, transformer_depth=1,
        branches=(
            BranchConfig(task="typing", pooling="drop", tokens=3, pool_size=6),
            BranchConfig(task="staging", pooling="gcmincut", tokens=3, pool_size=2),
        ),
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def tiny_train_config(**kw):
    defaults = dict(model=tiny_model_config(), epochs=1, batch_size=4, lr=1e-3,
                    seed=0, folds=2, runs=1, eval_drop_seeds=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def ds():
    return generate(SPEC)


def record_map(report):
    return {(r["run"], r["fold"], r["task"]): r for r in report["records"]}


# ------------------------------------------------------------ evaluation path


def test_untrained_models_score_exactly_half(ds):
    report = run_training(tiny_train_config(epochs=0), ds)
    assert len(report["records"]) == 2 * 2  # folds x tasks
    for r in report["records"]:
        # zero-init heads emit identical scores for every sample: all ties
        assert r["auc"] == 0.5
        assert r["auc_seed_avg"] == 0.5


def test_seed_averaged_metrics_only_for_random_pooling(ds):
    report = run_training(tiny_train_config(epochs=0), ds)
    rec = record_map(report)
    assert "auc_seed_avg" in rec[(0, 0, "typing")]
    solo = tiny_train_config(epochs=0, paradigm="single:stage")
    rec = record_map(run_training(solo, ds))
    assert set(k for _, _, k in rec) == {"staging"}
    assert "auc_seed_avg" not in rec[(0, 0, "staging")]


def _oracle_scores(model, graphs, samples, indices, rng_for_sample):
    scores = {task: [] for task in model.branches}
    for si in indices:
        sample = samples[si]
        out = model.forward(graphs[si], rng_for_sample(sample.sample_id))
        for task, logits in out.logits.items():
            scores[task].append(float(softmax_1d(logits.data[0])[1]))
    return {task: np.array(vals) for task, vals in scores.items()}


def oracle_evaluate(model, graphs, samples, indices, eval_drop_seeds):
    """The per-draw loop evaluate used before draws shared one encoder pass:
    1 + eval_drop_seeds full, taped forwards per slide."""
    labels = {task: np.array([samples[si].label(task) for si in indices])
              for task in model.branches}
    scores = _oracle_scores(model, graphs, samples, indices,
                            lambda sid: tr._rng(tr._TAG_EVAL_DROP, sid))
    results = {}
    for task in model.branches:
        m = compute_metrics(scores[task], labels[task])
        results[task] = {"auc": m.auc, "acc": m.acc, "f1": m.f1, "n": m.n}
    if tr._model_has_random_pool(model) and eval_drop_seeds > 1:
        per_seed = {task: {k: [] for k in tr.METRIC_KEYS} for task in model.branches}
        for j in range(eval_drop_seeds):
            seed_scores = _oracle_scores(
                model, graphs, samples, indices,
                lambda sid: tr._rng(tr._TAG_EVAL_DROP, sid, j))
            for task in model.branches:
                m = compute_metrics(seed_scores[task], labels[task])
                for k in tr.METRIC_KEYS:
                    per_seed[task][k].append(getattr(m, k))
        for task in model.branches:
            for k in tr.METRIC_KEYS:
                vals = [v for v in per_seed[task][k] if v is not None]
                results[task][f"{k}_seed_avg"] = (
                    float(np.mean(vals)) if vals else None)
    return results


@pytest.mark.parametrize("pools,paradigm,draws", [
    (("drop", "gcmincut"), "multi", 3),
    (("drop", "gcmincut"), "multi", 1),
    (("drop", "drop"), "multi", 3),  # two drop branches share one rng
    (("sag", "drop"), "multi", 3),
    (("drop", "gcmincut"), "single:type", 3),
    (("drop", "gcmincut"), "single:stage", 3),
])
def test_evaluate_equals_the_per_draw_forward_oracle(ds, pools, paradigm, draws):
    branches = (BranchConfig(task="typing", pooling=pools[0], tokens=3, pool_size=6),
                BranchConfig(task="staging", pooling=pools[1], tokens=3, pool_size=2))
    cfg = paradigm_model_config(
        tiny_model_config(branches=branches, head_init="random"), paradigm)
    model = SlideGraphTransformer(cfg, seed=3)
    graphs = [build_graph(s.grid) for s in ds.samples]
    indices = np.arange(len(ds.samples))
    expected = oracle_evaluate(model, graphs, ds.samples, indices, draws)
    assert evaluate(model, graphs, ds.samples, indices, draws) == expected


def test_trained_evaluate_equals_the_oracle(ds):
    cfg = tiny_train_config(epochs=1, eval_drop_seeds=3)
    graphs = [build_graph(s.grid) for s in ds.samples]
    model = SlideGraphTransformer(cfg.model, seed=0)
    train_idx = np.nonzero(ds.folds == 1)[0]
    test_idx = np.nonzero(ds.folds == 0)[0]
    tr._train_model(cfg, model, graphs, ds.samples, train_idx, 0, 0)
    expected = oracle_evaluate(model, graphs, ds.samples, test_idx, 3)
    assert evaluate(model, graphs, ds.samples, test_idx, 3) == expected


@pytest.mark.parametrize("draws", [0, -3])
def test_evaluate_rejects_fewer_than_one_drop_seed(ds, draws):
    model = SlideGraphTransformer(tiny_model_config(), seed=0)
    graphs = [build_graph(s.grid) for s in ds.samples]
    with pytest.raises(ConfigError, match="eval_drop_seeds"):
        evaluate(model, graphs, ds.samples, np.arange(2), draws)


def test_evaluate_rejects_empty_index_set(ds):
    model = SlideGraphTransformer(tiny_model_config(), seed=0)
    graphs = [build_graph(s.grid) for s in ds.samples]
    with pytest.raises(ContractError, match="at least one"):
        evaluate(model, graphs, ds.samples, np.array([], dtype=int))


# --------------------------------------------------------------- determinism


def test_rerun_reproduces_records_and_report_files(tmp_path, ds):
    cfg = tiny_train_config(epochs=1)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rep_a = run_training(cfg, ds, out_a)
    rep_b = run_training(cfg, ds, out_b)
    assert rep_a["records"] == rep_b["records"]  # float-exact
    for name in ("metrics.jsonl", "summary.json", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    ck = "checkpoints/run0_fold0.mgtc"
    assert (out_a / ck).read_bytes() == (out_b / ck).read_bytes()


def test_worker_pool_matches_serial_records(ds):
    cfg_serial = tiny_train_config(epochs=1)
    cfg_pool = tiny_train_config(epochs=1, workers=2)
    rep_a = run_training(cfg_serial, ds)
    rep_b = run_training(cfg_pool, ds)
    assert rep_a["records"] == rep_b["records"]


def test_worker_env_cap_limits_pool(ds, monkeypatch):
    monkeypatch.setenv("SLIDEGT_WORKERS", "1")
    # capped to the serial path; must still produce identical records
    rep = run_training(tiny_train_config(epochs=0, workers=8), ds)
    ref = run_training(tiny_train_config(epochs=0, workers=1), ds)
    assert rep["records"] == ref["records"]


# ------------------------------------------------- accumulation-group purity


def test_batch_step_equals_manual_gradient_average(ds):
    """One accumulation group must apply exactly the mean of the per-sample
    gradients, reproduced here sample by sample with a twin optimizer."""
    cfg = tiny_train_config(epochs=1, batch_size=10, lr=1e-3)
    graphs = [build_graph(s.grid) for s in ds.samples]
    train_idx = np.arange(len(ds.samples))
    run_seed, fold = cfg.seed + 0, 0

    def fresh_model():
        return SlideGraphTransformer(
            cfg.model, np.random.SeedSequence([101, run_seed, fold]))

    trained = tr._train_model(cfg, fresh_model(), graphs, ds.samples,
                              train_idx, run_seed, fold)

    twin = fresh_model()
    opt = Adam(twin.parameters(), lr=cfg.lr)
    order = tr._rng(102, run_seed, fold, 0).permutation(train_idx)
    sums = {n: np.zeros_like(p.data) for n, p in twin.parameters()}
    for si in order:
        sample = ds.samples[si]
        twin.zero_grad()
        rng = tr._rng(103, run_seed, fold, 0, sample.sample_id)
        out = twin.forward(graphs[si], rng)
        labels = {task: sample.label(task) for task in out.logits}
        backward(tr.assemble_loss(out, graphs[si], labels, cfg.weights))
        for n, p in twin.parameters():
            sums[n] += p.grad
    for n, p in twin.parameters():
        p.grad[...] = sums[n] * (1.0 / len(order))  # reciprocal scaling
    opt.step()

    for (na, pa), (nb, pb) in zip(trained.parameters(), twin.parameters()):
        assert na == nb
        assert (pa.data == pb.data).all(), na


def test_two_gcmincut_branches_add_both_cluster_terms(ds):
    branches = tuple(replace(b, pooling="gcmincut", pool_size=2)
                     for b in tiny_model_config().branches)
    model = SlideGraphTransformer(
        tiny_model_config(branches=branches, head_init="random"), seed=3)
    graph = build_graph(ds.samples[0].grid)
    labels = {"typing": 1, "staging": 0}
    weights = LossWeights(typing=0.7, staging=1.3, mincut=0.4)
    out = model.forward(graph, np.random.default_rng(0))
    loss = tr.assemble_loss(out, graph, labels, weights)

    ce = {task: cross_entropy(out.logits[task], [labels[task]]) for task in labels}
    cut = {task: mincut_loss(out.aux[task]["assignment"], graph.norm_adj,
                             graph.deg_tilde).total for task in labels}
    expected = T.add(T.add(T.scale(ce["typing"], 0.7), T.scale(ce["staging"], 1.3)),
                     T.scale(T.add(cut["typing"], cut["staging"]), 0.4))
    assert loss.item() == expected.item()


# ------------------------------------------------------------- tape lifetime


# the acceptance criterion-5 model, on 32-wide features
CRITERION5 = ModelConfig(
    input_dim=32, dim=32, gcn_layers=2, heads=2, transformer_depth=1,
    branches=(
        BranchConfig(task="typing", pooling="drop", tokens=16, pool_size=32),
        BranchConfig(task="staging", pooling="gcmincut", tokens=16, pool_size=16),
    ))


def test_training_holds_one_tape_at_a_time():
    # one 32x32 slide trained as a batch of one and as a batch of three copies;
    # a step that kept a sample's tape alive into the next forward would peak
    # at about two tapes
    sample = generate(SyntheticSpec(samples=2, rows=32, cols=32, dim=32, seed=4,
                                    folds=2)).samples[0]
    graph = build_graph(sample.grid)

    def peak_bytes(copies):
        cfg = TrainConfig(model=CRITERION5, epochs=1, batch_size=copies, lr=1e-3)
        model = SlideGraphTransformer(CRITERION5, np.random.SeedSequence([101, 0, 0]))
        tracemalloc.start()
        try:
            tr._train_model(cfg, model, [graph] * copies, [sample] * copies,
                            np.arange(copies), 0, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak_bytes(1)
    assert peak_bytes(3) <= 1.1 * one


def test_forward_tape_of_a_64x64_sample_stays_small():
    # the tape keeps only the arrays its closures read: about 20 MB at
    # n=3,483, against 48 MB if it kept every op output
    sample = generate(SyntheticSpec(samples=2, rows=64, cols=64, dim=32, seed=4,
                                    folds=2)).samples[0]
    graph = build_graph(sample.grid)
    model = SlideGraphTransformer(CRITERION5, np.random.SeedSequence([101, 0, 0]))
    labels = {task: sample.label(task) for task in model.branches}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = tr.assemble_loss(model.forward(graph, np.random.default_rng(0)), graph,
                                labels, LossWeights())
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert graph.n_nodes > 3000
    assert held <= 24e6, f"forward tape holds {held / 1e6:.1f} MB"
    backward(loss)


# ------------------------------------------------------------------ paradigms


def test_single_task_paradigms_restrict_branches():
    cfg = tiny_model_config()
    typing_only = paradigm_model_config(cfg, "single:type")
    assert [b.task for b in typing_only.branches] == ["typing"]
    staging_only = paradigm_model_config(cfg, "single:stage")
    assert [b.task for b in staging_only.branches] == ["staging"]
    assert paradigm_model_config(cfg, "multi") is cfg
    with pytest.raises(ConfigError, match="needs a branch"):
        paradigm_model_config(typing_only, "single:stage")


def test_single_task_training_reports_one_task(ds):
    rep = run_training(tiny_train_config(epochs=0, paradigm="single:type"), ds)
    assert {r["task"] for r in rep["records"]} == {"typing"}


# ------------------------------------------------------------------ fold plan


def test_fold_override_restratifies(ds):
    assert int(ds.folds.max()) + 1 == 2
    cfg = tiny_train_config(epochs=0, folds=5)
    folds = tr._dataset_folds(cfg, ds)
    assert set(folds.tolist()) <= set(range(5))
    joint = np.array([2 * s.label_type + s.label_stage for s in ds.samples])
    for value in np.unique(joint):
        counts = np.bincount(folds[joint == value], minlength=5)
        assert counts.max() - counts.min() <= 1
    # matching fold count reuses the stored assignment untouched
    assert_array_equal(tr._dataset_folds(tiny_train_config(), ds), ds.folds)


def test_an_empty_fold_is_rejected_before_any_cell_trains(ds, tmp_path, monkeypatch):
    def no_fold(*args, **kwargs):
        raise AssertionError("a fold ran before the fold plan was checked")

    monkeypatch.setattr(tr, "_run_fold", no_fold)
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="fold 10 is empty: 12 folds over 10 samples"):
        run_training(tiny_train_config(folds=12), ds, out)
    assert not out.exists()


def test_dataset_width_mismatch_is_rejected(ds):
    cfg = tiny_train_config(model=tiny_model_config(input_dim=7))
    with pytest.raises(ConfigError, match="feature width"):
        run_training(cfg, ds)


# ------------------------------------------------------------------ reporting


def test_summarize_means_and_stds():
    records = [
        {"run": 0, "fold": 0, "task": "typing", "auc": 0.8, "acc": 0.7, "n": 5},
        {"run": 0, "fold": 1, "task": "typing", "auc": 0.6, "acc": 0.9, "n": 5},
        {"run": 0, "fold": 0, "task": "staging", "auc": None, "acc": 0.5, "n": 5},
    ]
    s = summarize(records)
    assert s["typing"]["cells"] == 2
    assert abs(s["typing"]["auc_mean"] - 0.7) < 1e-15
    assert abs(s["typing"]["auc_std"] - np.std([0.8, 0.6], ddof=1)) < 1e-15
    assert s["staging"]["auc_mean"] is None
    text = format_summary(s)
    assert "typing" in text and "staging" in text and "n/a" in text


def test_metrics_jsonl_is_one_record_per_line(tmp_path, ds):
    out = tmp_path / "r"
    rep = run_training(tiny_train_config(epochs=0), ds, out)
    lines = (out / "metrics.jsonl").read_text().strip().split("\n")
    assert len(lines) == len(rep["records"])
    parsed = [json.loads(line) for line in lines]
    assert parsed == [json.loads(json.dumps(r)) for r in rep["records"]]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_samples"] == SPEC.samples
    assert manifest["config"]["epochs"] == 0


# ----------------------------------------------------------------- divergence


def test_divergence_reports_fold_and_epoch(ds, monkeypatch):
    def explode(out, graph, labels, weights):
        raise NonFiniteError("non-finite gradient for parameter 'gcn.layer0.w'")

    monkeypatch.setattr(tr, "assemble_loss", explode)
    with pytest.raises(TrainingDiverged, match=r"fold 0, epoch 0"):
        run_training(tiny_train_config(epochs=1), ds)


# ------------------------------------------------------------------- ablation


def test_ablation_variant_tables():
    cfg = tiny_train_config(epochs=0)
    names = [n for n, _ in ablation_variants(cfg, "pooling")]
    assert names[0] == "domain"
    assert len(names) == 7 and len(set(names)) == 7
    assert [n for n, _ in ablation_variants(cfg, "paradigm")] == \
           ["multi", "single_type", "single_stage"]
    assert [n for n, _ in ablation_variants(cfg, "tokens")] == \
           ["specific", "shared"]
    with pytest.raises(ConfigError, match="ablation axis"):
        ablation_variants(cfg, "depth")


def test_run_ablation_writes_combined_records(tmp_path, ds):
    cfg = tiny_train_config(epochs=0)
    results = run_ablation(cfg, ds, "tokens", tmp_path)
    assert [name for name, _ in results] == ["specific", "shared"]
    lines = (tmp_path / "ablation.jsonl").read_text().strip().split("\n")
    variants = {json.loads(line)["variant"] for line in lines}
    assert variants == {"specific", "shared"}
    assert (tmp_path / "specific" / "summary.json").exists()


def test_train_config_to_dict_holds_every_field():
    cfg = tiny_train_config()
    d = cfg.to_dict()
    assert d == {
        "model": cfg.model.to_dict(), "epochs": 1, "batch_size": 4, "lr": 1e-3,
        "seed": 0, "folds": 2, "runs": 1, "paradigm": "multi",
        "weights": {"typing": 1.0, "staging": 1.0, "mincut": 1.0},
        "eval_drop_seeds": 2, "workers": 1,
    }
    assert isinstance(d["model"]["branches"], list)  # as ModelConfig writes it


def test_train_config_round_trips_and_validates():
    with pytest.raises(ConfigError, match="paradigm"):
        tiny_train_config(paradigm="dual").validate()
    with pytest.raises(ConfigError, match="folds"):
        tiny_train_config(folds=1).validate()
    with pytest.raises(ConfigError, match="weights"):
        tiny_train_config(weights=LossWeights(typing=-1.0)).validate()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("lr", NAN), ("lr", INF), ("weights.typing", NAN),
    ("weights.staging", INF), ("weights.mincut", -INF),
])
def test_train_config_rejects_non_finite_numbers(field, value):
    if field.startswith("weights."):
        cfg = tiny_train_config(weights=LossWeights(**{field[len("weights."):]: value}))
    else:
        cfg = tiny_train_config(**{field: value})
    with pytest.raises(ConfigError, match=rf"^{field} must be"):
        cfg.validate()
