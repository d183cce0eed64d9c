"""End-to-end acceptance gate.

One test per shipped guarantee, each emitting a single pass/fail line:

1. full-model gradient audit against central finite differences
2. equivariance and invariance of every structural component
3. clustering-loss bounds, an exact closed-form instance, and recoverability
4. drop-pool subset uniformity and marked-node retention statistics
5. planted-signal learning at desk scale inside a wall-clock budget
6. multi-task training does not substantially hurt the hard task
7. metric implementations agree with independent formulations
8. bitwise reproducibility of files, checkpoints, and training reruns

Criteria 5 and 6 share one benchmark: 200 synthetic slides on 16x16 grids
with 32-wide features, 5-fold CV, 3 runs, 10 epochs at lr 1e-3.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.stats import chi2

from slidegt import tensor as T
from slidegt.data import SyntheticSpec, generate
from slidegt.fileio import (grid_from_bytes, grid_to_bytes, load_checkpoint,
                            save_checkpoint)
from slidegt.gcn import GcnStack
from slidegt.gradcheck import build_check_model, check_gradients
from slidegt.graph import FeatureGrid, build_graph
from slidegt.injection import InjectionBlock, TokenBank
from slidegt.losses import cross_entropy, mincut_loss
from slidegt.model import (BranchConfig, ModelConfig, SlideGraphTransformer,
                           TransformerHead)
from slidegt.metrics import auc_score
from slidegt.optim import Adam
from slidegt.pooling import ClusterPool, SelectPool
from slidegt.tensor import Tensor, backward, constant
from slidegt.train import TrainConfig, run_training
from test_losses import normalized, two_triangles
from test_metrics import trapezoid_auc

pytestmark = [
    pytest.mark.acceptance,
    pytest.mark.filterwarnings("ignore::DeprecationWarning"),
]


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# --------------------------------------------------------- shared benchmark

BENCH_SPEC = SyntheticSpec(samples=200, rows=16, cols=16, dim=32, seed=7,
                           folds=5)


def bench_model_config():
    return ModelConfig(
        input_dim=32, dim=32, gcn_layers=2, heads=2, transformer_depth=1,
        branches=(
            BranchConfig(task="typing", pooling="drop", tokens=16, pool_size=32),
            BranchConfig(task="staging", pooling="gcmincut", tokens=16,
                         pool_size=16),
        ))


def bench_train_config(**kw):
    defaults = dict(model=bench_model_config(), epochs=10, batch_size=8,
                    lr=1e-3, seed=0, folds=5, runs=3, eval_drop_seeds=4)
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def bench_ds():
    return generate(BENCH_SPEC)


@pytest.fixture(scope="module")
def multi_report(bench_ds):
    start = time.monotonic()
    rep = run_training(bench_train_config(), bench_ds)
    return rep, time.monotonic() - start


# ------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_audit():
    start = time.monotonic()
    model, graph, labels = build_check_model(
        nodes=12, dim=8, gcn_layers=2, heads=2, tokens=3, keep=3, clusters=2,
        depth=1)
    result = check_gradients(model, graph, labels, step=1e-5)
    elapsed = time.monotonic() - start
    ok = result.worst < 1e-4 and elapsed < 60.0
    report(1, ok,
           f"worst relative error {result.worst:.2e} at {result.worst_param} "
           f"(< 1e-4), {elapsed:.1f}s (< 60s)")


# ------------------------------------------------------------- criterion 2


def _random_graph(seed, n_min=6):
    rng = np.random.default_rng(seed)
    while True:
        mask = rng.random((4, 5)) < 0.75
        if mask.sum() >= n_min:
            break
    feats = rng.normal(0, 1, (int(mask.sum()), 6))
    return build_graph(FeatureGrid(4, 5, mask, feats)), rng


def test_criterion_2_equivariance_and_invariance():
    worst_gcn = 0.0
    for seed in range(20):  # (a) GCN permutation equivariance, 20 draws
        g, rng = _random_graph(seed)
        gcn = GcnStack(np.random.default_rng(seed + 100), dim=6, depth=2)
        n = g.n_nodes
        perm = rng.permutation(n)
        base = gcn(constant(g.node_features), g.norm_adj).data
        adj_p = (g.norm_adj @ np.eye(n))[np.ix_(perm, perm)]
        out_p = gcn(constant(g.node_features[perm]), adj_p).data
        worst_gcn = max(worst_gcn, np.abs(out_p - base[perm]).max())
    ok_a = worst_gcn < 1e-10

    # (b) injection row locality, bitwise
    ok_b = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        block = InjectionBlock(np.random.default_rng(seed + 1), 8, heads=2)
        bank = TokenBank(np.random.default_rng(seed + 2), 5, 8)
        h = rng.normal(0, 1, (7, 8))
        base = block(constant(h), bank).data
        h2 = h.copy()
        h2[0] += 1.0
        ok_b = ok_b and (block(constant(h2), bank).data[1:] == base[1:]).all()

    # (c) clustering pool and staging logits under node relabeling
    worst_c = 0.0
    for seed in range(10):
        g, rng = _random_graph(seed + 40)
        pool = ClusterPool("gcmincut", np.random.default_rng(seed + 200), dim=6,
                           clusters=3)
        h = constant(g.node_features)
        perm = rng.permutation(g.n_nodes)
        base = pool(h, g.norm_adj, None)[0].data
        adj_p = (g.norm_adj @ np.eye(g.n_nodes))[np.ix_(perm, perm)]
        out_p = pool(constant(g.node_features[perm]), adj_p, None)[0].data
        worst_c = max(worst_c, np.abs(out_p - base).max())

    cfg = ModelConfig(
        input_dim=6, dim=8, gcn_layers=1, heads=2, transformer_depth=1,
        branches=(BranchConfig(task="staging", pooling="gcmincut", tokens=3,
                               pool_size=2),))
    model = SlideGraphTransformer(cfg, seed=7)
    rng = np.random.default_rng(3)
    mask = rng.random((3, 4)) < 0.8
    n = int(mask.sum())
    feats = rng.normal(0, 1, (n, 6))
    g = build_graph(FeatureGrid(3, 4, mask, feats))
    cells = np.argwhere(mask)
    perm = np.lexsort((cells[:, 0], cells[:, 1]))  # transposed traversal
    gt = build_graph(FeatureGrid(4, 3, mask.T, feats[perm]))
    la = model.forward(g, None).logits["staging"].data
    lb = model.forward(gt, None).logits["staging"].data
    worst_c = max(worst_c, np.abs(la - lb).max())
    ok_c = worst_c < 1e-10

    # (d) readout invariant to pooled-token order
    worst_d = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        head = TransformerHead(np.random.default_rng(seed + 300), dim=8,
                               heads=2, depth=2, classes=2, scale_scores=True,
                               zero_head=False)
        pooled = rng.normal(0, 1, (6, 8))
        base = head(constant(pooled)).data
        out_p = head(constant(pooled[rng.permutation(6)])).data
        worst_d = max(worst_d, np.abs(out_p - base).max())
    ok_d = worst_d < 1e-10

    report(2, ok_a and ok_b and ok_c and ok_d,
           f"gcn equivariance {worst_gcn:.1e}, injection locality "
           f"{'bitwise' if ok_b else 'BROKEN'}, relabel invariance "
           f"{worst_c:.1e}, readout invariance {worst_d:.1e} (all < 1e-10)")


# ------------------------------------------------------------- criterion 3


def test_criterion_3_clustering_loss_properties():
    rng = np.random.default_rng(2024)
    lo_cut, hi_cut, lo_o, hi_o = 0.0, -1.0, 2.0, 0.0
    in_bounds = True
    for _ in range(1000):
        n, p = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        adj = (rng.random((n, n)) < rng.uniform(0.1, 0.9)).astype(float)
        adj = np.triu(adj, 1)
        adj = adj + adj.T + np.eye(n)
        raw = rng.random((n, p)) + 1e-9
        s = raw / raw.sum(axis=1, keepdims=True)
        terms = mincut_loss(constant(s), *normalized(adj))
        cut, ortho = terms.cut, terms.ortho
        in_bounds &= -1.0 - 1e-9 <= cut <= 1e-9 and -1e-12 <= ortho <= 2.0 + 1e-9
        lo_cut, hi_cut = min(lo_cut, cut), max(hi_cut, cut)
        lo_o, hi_o = min(lo_o, ortho), max(hi_o, ortho)

    adj, deg = two_triangles()
    hard = np.zeros((6, 2))
    hard[:3, 0] = 1.0
    hard[3:, 1] = 1.0
    terms = mincut_loss(constant(hard), adj, deg)
    exact = abs(terms.cut + 1.0) < 1e-12 and abs(terms.ortho) < 1e-12

    x = Tensor(np.random.default_rng(4).normal(0, 0.1, (6, 2)),
               requires_grad=True)
    opt = Adam([("x", x)], lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        backward(mincut_loss(T.softmax_rows(x), adj, deg).total)
        opt.step()
    final_cut = mincut_loss(T.softmax_rows(x), adj, deg).cut

    ok = in_bounds and exact and final_cut <= -0.9
    report(3, ok,
           f"1000-sweep cut [{lo_cut:.3f}, {hi_cut:.3f}] in [-1,0], ortho "
           f"[{lo_o:.3f}, {hi_o:.3f}] in [0,2]; clique instance exact to "
           f"1e-12: {exact}; optimized cut {final_cut:.3f} <= -0.9")


# ------------------------------------------------------------- criterion 4


def test_criterion_4_drop_pool_statistics():
    pool = SelectPool("drop", keep=2)
    h = constant(np.random.default_rng(0).normal(0, 1, (4, 3)))
    adj = constant(np.eye(4))
    draws = 10_000
    rng = np.random.default_rng(777)
    counts = {frozenset(c): 0 for c in itertools.combinations(range(4), 2)}
    marked_total = 0
    for _ in range(draws):
        kept = pool(h, adj, rng)[1]["kept"]
        counts[frozenset(kept.tolist())] += 1
        marked_total += len({0, 1} & set(kept.tolist()))
    expected = draws / len(counts)
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    p_value = float(1.0 - chi2.cdf(stat, df=len(counts) - 1))

    mean_marked = marked_total / draws
    # hypergeometric N=4, K=2, n=2: mean 1, variance 1/3
    sigma = np.sqrt((1.0 / 3.0) / draws)
    dev = abs(mean_marked - 1.0)

    ok = p_value > 0.01 and dev < 3.0 * sigma
    report(4, ok,
           f"subset uniformity chi2 p={p_value:.3f} (> 0.01) over {draws} "
           f"draws; marked retention {mean_marked:.4f} vs 1.0 "
           f"({dev / sigma:.2f} sigma, < 3)")


# ------------------------------------------------------------- criterion 5


def test_criterion_5_planted_signal_learning(bench_ds, multi_report):
    rep, elapsed = multi_report
    typing_auc = rep["summary"]["typing"]["auc_mean"]
    staging_auc = rep["summary"]["staging"]["auc_mean"]

    untrained = run_training(bench_train_config(epochs=0, runs=1,
                                                eval_drop_seeds=1), bench_ds)
    base_t = untrained["summary"]["typing"]["auc_mean"]
    base_s = untrained["summary"]["staging"]["auc_mean"]

    ok = (typing_auc >= 0.95 and staging_auc >= 0.85
          and 0.4 <= base_t <= 0.6 and 0.4 <= base_s <= 0.6
          and elapsed <= 600.0)
    report(5, ok,
           f"typing auc {typing_auc:.4f} >= 0.95, staging auc "
           f"{staging_auc:.4f} >= 0.85, untrained {base_t:.2f}/{base_s:.2f} "
           f"in [0.4, 0.6], {elapsed:.0f}s <= 600s")


# ------------------------------------------------------------- criterion 6


def test_criterion_6_multi_task_does_not_hurt_staging(bench_ds, multi_report):
    rep, _ = multi_report
    multi_acc = rep["summary"]["staging"]["acc_mean"]
    solo = run_training(bench_train_config(paradigm="single:stage"), bench_ds)
    solo_acc = solo["summary"]["staging"]["acc_mean"]
    ok = multi_acc >= solo_acc - 0.01
    report(6, ok,
           f"multi-task staging acc {multi_acc:.4f} vs single-task "
           f"{solo_acc:.4f} (floor: single - 1pp), mean over 3 runs x 5 folds")


# ------------------------------------------------------------- criterion 7


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 60))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = rng.random(n)
        if rng.random() < 0.5:
            scores = np.round(scores * 5) / 5.0  # tie-heavy sets
        worst = max(worst, abs(auc_score(scores, labels)
                               - trapezoid_auc(scores, labels)))
    ce_worst = max(
        abs(float(cross_entropy(constant(np.zeros((2, c))), [0, c - 1]).data)
            - np.log(c))
        for c in range(2, 9))
    ok = worst < 1e-12 and ce_worst < 1e-12
    report(7, ok,
           f"pairwise vs trapezoid auc max gap {worst:.1e} over 100 sets, "
           f"zero-logit ce vs ln(C) max gap {ce_worst:.1e} (both < 1e-12)")


# ------------------------------------------------------------- criterion 8


def test_criterion_8_bitwise_reproducibility(tmp_path):
    ds = generate(SyntheticSpec(samples=10, rows=10, cols=10, dim=4, seed=6,
                                region_radius=(1.0, 2.5), folds=2))
    grids_ok = all(
        grid_to_bytes(grid_from_bytes(grid_to_bytes(s.grid))) ==
        grid_to_bytes(s.grid)
        for s in ds.samples)

    cfg = TrainConfig(
        model=ModelConfig(
            input_dim=4, dim=8, gcn_layers=1, heads=2, transformer_depth=1,
            head_init="random",
            branches=(
                BranchConfig(task="typing", pooling="drop", tokens=3, pool_size=6),
                BranchConfig(task="staging", pooling="gcmincut", tokens=3,
                             pool_size=2),
            )),
        epochs=2, batch_size=4, lr=1e-3, seed=0, folds=2, runs=1,
        eval_drop_seeds=2)

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_training(cfg, ds, out_a)
    run_training(cfg, ds, out_b)
    reports_ok = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("metrics.jsonl", "summary.json", "manifest.json"))

    ck = out_a / "checkpoints" / "run0_fold0.mgtc"
    model = load_checkpoint(ck)
    save_checkpoint(model, tmp_path / "again.mgtc")
    checkpoint_ok = ck.read_bytes() == (tmp_path / "again.mgtc").read_bytes()

    graph = build_graph(ds.samples[0].grid)
    la = model.forward(graph, np.random.default_rng(1)).logits
    lb = load_checkpoint(ck).forward(graph, np.random.default_rng(1)).logits
    logits_ok = all((la[t].data == lb[t].data).all() for t in la)

    ok = grids_ok and reports_ok and checkpoint_ok and logits_ok
    report(8, ok,
           f"grid bytes stable: {grids_ok}; rerun reports identical: "
           f"{reports_ok}; checkpoint bytes stable: {checkpoint_ok}; "
           f"reloaded logits bitwise: {logits_ok}")
