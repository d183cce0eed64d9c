from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from slidegt import fileio
from slidegt import tensor as T
from slidegt.errors import ConfigError, ContractError
from slidegt.graph import FeatureGrid, build_graph
from slidegt.losses import LossWeights, cross_entropy
from slidegt.model import (BranchConfig, ModelConfig, SlideGraphTransformer,
                           default_branches, softmax_1d)
from slidegt.pooling import POOL_KINDS
from slidegt.tensor import backward
from slidegt.train import PARADIGMS, assemble_loss, paradigm_model_config


def small_config(**kw):
    defaults = dict(
        input_dim=5, dim=8, gcn_layers=1, heads=2, transformer_depth=1,
        branches=(
            BranchConfig(task="typing", pooling="drop", tokens=3, pool_size=4),
            BranchConfig(task="staging", pooling="gcmincut", tokens=3, pool_size=2),
        ),
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def small_graph(seed=0, rows=3, cols=4, dim=5, fill=0.8):
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, cols)) < fill
    if not mask.any():
        mask[0, 0] = True
    feats = rng.normal(0, 1, (int(mask.sum()), dim))
    return build_graph(FeatureGrid(rows=rows, cols=cols, occupancy=mask,
                                   features=feats))


def test_untrained_binary_heads_sit_exactly_at_half():
    # zero-init output layer -> logits are exactly zero before training
    model = SlideGraphTransformer(small_config(), seed=1)
    out = model.forward(small_graph(2), np.random.default_rng(0))
    for task in ("typing", "staging"):
        assert_array_equal(softmax_1d(out.logits[task].data[0]), [0.5, 0.5])


def test_forward_shapes_and_aux():
    model = SlideGraphTransformer(small_config(), seed=3)
    g = small_graph(4)
    out = model.forward(g, np.random.default_rng(0))
    assert set(out.logits) == {"typing", "staging"}
    for task in out.logits:
        assert out.logits[task].shape == (1, 2)
    assert set(out.aux) == {"typing", "staging"}
    assert set(out.aux["staging"]) == {"assignment"}
    assert out.aux["staging"]["assignment"].shape == (g.n_nodes, 2)
    assert set(out.aux["typing"]) == {"kept"}
    assert len(out.aux["typing"]["kept"]) == min(4, g.n_nodes)


def test_capture_embeddings_returns_refined_node_matrices():
    model = SlideGraphTransformer(small_config(), seed=5)
    g = small_graph(6)
    trunk = model.trunk(g)
    assert trunk.shape == (g.n_nodes, 8)
    refined = {task: branch.inject(trunk, branch.bank).data
               for task, branch in model.branches.items()}
    for task in ("typing", "staging"):
        emb = refined[task]
        assert emb.shape == (g.n_nodes, 8)
        assert np.isfinite(emb).all()
    assert not np.array_equal(refined["typing"], refined["staging"])


def test_logits_are_invariant_to_node_relabeling():
    """Permuting grid traversal order must not change either head.

    The clustering branch is deterministic; the drop branch keeps rows * cols
    rows, so both labelings pool every physical node.
    """
    rng = np.random.default_rng(7)
    rows, cols = 3, 4
    mask = rng.random((rows, cols)) < 0.8
    n = int(mask.sum())
    feats = rng.normal(0, 1, (n, 5))
    g = build_graph(FeatureGrid(rows, cols, mask, feats))

    # same physical grid, transposed traversal: node i of g sits at row
    # perm[i] of the transposed build
    gt = build_graph(FeatureGrid(cols, rows, mask.T, np.zeros((n, 5))))
    cells = np.argwhere(mask)
    perm = np.lexsort((cells[:, 0], cells[:, 1]))  # col-major visit order
    gt = build_graph(FeatureGrid(cols, rows, mask.T, feats[perm]))

    model = SlideGraphTransformer(small_config(branches=(
        BranchConfig(task="typing", pooling="drop", tokens=3, pool_size=rows * cols),
        BranchConfig(task="staging", pooling="gcmincut", tokens=3, pool_size=2),
    )), seed=8)
    out_a = model.forward(g, np.random.default_rng(0))
    out_b = model.forward(gt, np.random.default_rng(0))
    for task in ("typing", "staging"):
        assert_allclose(out_a.logits[task].data, out_b.logits[task].data,
                        atol=1e-10)


def test_task_gradients_stay_inside_their_branch():
    cfg = small_config(head_init="random")
    model = SlideGraphTransformer(cfg, seed=9)
    g = small_graph(10)
    model.zero_grad()
    out = model.forward(g, np.random.default_rng(1))
    backward(cross_entropy(out.logits["typing"], [1]))

    by_name = dict(model.parameters())
    typing_norm = sum(np.abs(p.grad).sum() for n, p in by_name.items()
                      if n.startswith("typing."))
    staging_norm = sum(np.abs(p.grad).sum() for n, p in by_name.items()
                       if n.startswith("staging."))
    gcn_norm = sum(np.abs(p.grad).sum() for n, p in by_name.items()
                   if n.startswith("gcn."))
    assert typing_norm > 0.0
    assert staging_norm == 0.0  # the other branch never sees this loss
    assert gcn_norm > 0.0       # but the shared encoder does


def test_shared_token_scheme_registers_one_bank():
    shared = SlideGraphTransformer(small_config(token_scheme="shared"), seed=11)
    names = [n for n, _ in shared.parameters()]
    assert any(n.startswith("shared.") for n in names)
    assert not any(".bank." in n for n in names)
    spec = SlideGraphTransformer(small_config(), seed=11)
    spec_names = [n for n, _ in spec.parameters()]
    assert any(n.startswith("typing.bank.") for n in spec_names)
    assert any(n.startswith("staging.bank.") for n in spec_names)
    # both branches route through the same object
    banks = {id(b.bank) for b in shared.branches.values()}
    assert len(banks) == 1


def test_single_task_model_has_no_other_branch():
    cfg = small_config(branches=(
        BranchConfig(task="staging", pooling="gcmincut", tokens=3, pool_size=2),))
    model = SlideGraphTransformer(cfg, seed=12)
    out = model.forward(small_graph(13), np.random.default_rng(0))
    assert set(out.logits) == {"staging"}
    assert not any(n.startswith("typing.") for n, _ in model.parameters())


def tape_leaves(loss):
    """Every leaf tensor reached by walking the tape back from loss."""
    leaves, seen, stack = [], set(), [loss._node]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        if node.leaf is not None:
            leaves.append(node.leaf)
        stack.extend(node.parents)
    return leaves


@pytest.mark.parametrize("paradigm", PARADIGMS)
@pytest.mark.parametrize("scheme", ["specific", "shared"])
@pytest.mark.parametrize("kind", POOL_KINDS)
@pytest.mark.parametrize("task", ["typing", "staging"])
def test_every_trained_parameter_is_on_the_tape(tmp_path, task, kind, scheme, paradigm):
    # reachability, not a nonzero gradient: a dead ReLU can zero a whole head
    branches = tuple(replace(b, pooling=kind) if b.task == task else b
                     for b in small_config().branches)
    cfg = small_config(branches=branches, token_scheme=scheme, head_init="random")
    model = SlideGraphTransformer(paradigm_model_config(cfg, paradigm), seed=35)
    g = small_graph(36, rows=4, cols=5)
    labels = {name: 1 for name in model.branches}
    loss = assemble_loss(model.forward(g, np.random.default_rng(0)), g, labels,
                         LossWeights())
    reached = {id(leaf) for leaf in tape_leaves(loss)}
    assert [name for name, p in model.parameters() if id(p) not in reached] == []
    path = tmp_path / "m.mgtc"
    fileio.save_checkpoint(model, path)
    _, blobs = fileio._read_container(path, fileio.CHECKPOINT_MAGIC)
    assert list(blobs) == [name for name, _ in model.state()]


def test_selection_scorers_are_saved_but_not_trained():
    cfg = small_config(branches=(
        BranchConfig(task="typing", pooling="topk", tokens=3, pool_size=4),
        BranchConfig(task="staging", pooling="sag", tokens=3, pool_size=2)))
    model = SlideGraphTransformer(cfg, seed=37)
    state = [name for name, _ in model.state()]
    trained = [name for name, _ in model.parameters()]
    assert [n for n in state if n.endswith(".pool.w")] == ["typing.pool.w", "staging.pool.w"]
    assert trained == [n for n in state if not n.endswith(".pool.w")]
    # each scorer sits between its branch's injection and head, as registered
    for task in ("typing", "staging"):
        at = state.index(f"{task}.pool.w")
        assert state[at - 1].startswith(f"{task}.inject.")
        assert state[at + 1] == f"{task}.head.cls"


def test_same_seed_builds_identical_models():
    a = SlideGraphTransformer(small_config(), seed=21)
    b = SlideGraphTransformer(small_config(), seed=21)
    for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters()):
        assert na == nb
        assert_array_equal(pa.data, pb.data)


def test_forward_rejects_wrong_feature_width():
    model = SlideGraphTransformer(small_config(), seed=16)
    with pytest.raises(ContractError, match="width"):
        model.forward(small_graph(17, dim=7), np.random.default_rng(0))


def test_config_validation():
    with pytest.raises(ConfigError, match="divide"):
        small_config(dim=9).validate()
    with pytest.raises(ConfigError, match="token scheme"):
        small_config(token_scheme="global").validate()
    with pytest.raises(ConfigError, match="duplicate task"):
        small_config(branches=(BranchConfig(task="typing"),
                               BranchConfig(task="typing"))).validate()
    with pytest.raises(ConfigError, match="equal token counts"):
        small_config(token_scheme="shared", branches=(
            BranchConfig(task="typing", tokens=3),
            BranchConfig(task="staging", tokens=4))).validate()
    with pytest.raises(ConfigError, match="at least one task"):
        small_config(branches=()).validate()
    with pytest.raises(ConfigError, match="classes"):
        BranchConfig(task="typing", classes=1).validate()


@pytest.mark.parametrize("field", ["input_dim", "dim", "gcn_layers", "heads",
                                   "transformer_depth", "classes", "tokens",
                                   "pool_size"])
def test_config_validation_rejects_whole_number_floats(field):
    d = small_config().to_dict()
    (d if field in d else d["branches"][0])[field] = 4.0
    with pytest.raises(ConfigError, match=f"'{field}' must be an integer, got 4.0"):
        ModelConfig.from_dict(d).validate()


def test_config_round_trips_through_dict():
    cfg = small_config(token_scheme="shared", scale_attention=False)
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert default_branches()[0].task == "typing"


@pytest.mark.parametrize("scale", [True, False])
def test_attention_scale_flag_reaches_every_attention_site(scale):
    branches = (BranchConfig(task="typing", pooling="gm", tokens=3, pool_size=4),
                BranchConfig(task="staging", pooling="gcmincut", tokens=3, pool_size=2))
    model = SlideGraphTransformer(small_config(branches=branches, scale_attention=scale))
    typing, staging = model.branches["typing"], model.branches["staging"]
    sites = [typing.pool.attn] + [
        site for branch in (typing, staging)
        for site in [branch.inject.attn] + [layer["attn"] for layer in branch.head.layers]]
    assert [site.scale_scores for site in sites] == [scale] * 5


@pytest.mark.parametrize("pools", [("drop", "gcmincut"), ("drop", "drop"),
                                   ("sag", "drop"), ("gcmincut", "gm")])
def test_forward_reusing_an_output_equals_a_fresh_forward(pools):
    branches = (BranchConfig(task="typing", pooling=pools[0], tokens=3, pool_size=4),
                BranchConfig(task="staging", pooling=pools[1], tokens=3, pool_size=2))
    model = SlideGraphTransformer(small_config(branches=branches, head_init="random"),
                                  seed=7)
    g = small_graph(8, rows=4, cols=5)
    first = model.forward(g, np.random.default_rng(0))
    for seed in (1, 2):
        fresh = model.forward(g, np.random.default_rng(seed))
        with T.no_grad():
            reused = model.forward(g, np.random.default_rng(seed), reuse=first)
        for task in ("typing", "staging"):
            assert_array_equal(reused.logits[task].data, fresh.logits[task].data)
        assert reused.trunk is first.trunk
        assert reused.aux.keys() == fresh.aux.keys()
        for task in fresh.aux:
            assert reused.aux[task].keys() == fresh.aux[task].keys()
            if "kept" in fresh.aux[task]:
                assert_array_equal(reused.aux[task]["kept"], fresh.aux[task]["kept"])
        for task, pool in zip(("typing", "staging"), pools):
            if pool != "drop":  # copied from the reused output, not recomputed
                assert reused.logits[task] is first.logits[task]


def _drop_configs():
    def two(first, second, **kw):
        return small_config(branches=(
            BranchConfig(task="typing", pooling=first[0], tokens=3, pool_size=first[1]),
            BranchConfig(task="staging", pooling=second[0], tokens=3, pool_size=second[1])),
            head_init="random", **kw)

    return {
        "drop+gcmincut": two(("drop", 4), ("gcmincut", 2)),
        "drop+drop": two(("drop", 4), ("drop", 3)),
        "keep>=n": two(("drop", 40), ("gcmincut", 2)),
        "shared-bank": two(("drop", 4), ("gcmincut", 2), token_scheme="shared"),
        "sag+drop": two(("sag", 4), ("drop", 4)),
    }


@pytest.mark.parametrize("name", list(_drop_configs()))
def test_untaped_forward_injects_kept_rows_to_the_taped_logits(name):
    """Without a tape a drop branch injects only its kept rows; the logits,
    aux and the rng draws match a taped forward's bit for bit."""
    model = SlideGraphTransformer(_drop_configs()[name], seed=31)
    g = small_graph(32, rows=4, cols=5)
    with T.no_grad():
        first = model.forward(g, np.random.default_rng(99))
    for seed in range(4):
        taped = model.forward(g, np.random.default_rng(seed))
        with T.no_grad():
            plain = model.forward(g, np.random.default_rng(seed))
            reused = model.forward(g, np.random.default_rng(seed), reuse=first)
        for out in (plain, reused):
            for task in model.branches:
                assert np.array_equal(out.logits[task].data, taped.logits[task].data)
                if "kept" in taped.aux[task]:
                    assert_array_equal(out.aux[task]["kept"], taped.aux[task]["kept"])


class _RowCounter:
    """Stands in for an InjectionBlock and records the row count of each call."""

    def __init__(self, block):
        self.block = block
        self.rows = []

    def __call__(self, h, bank):
        self.rows.append(h.shape[0])
        return self.block(h, bank)


def test_untaped_typing_injection_sees_only_the_kept_rows():
    model = SlideGraphTransformer(small_config(), seed=33)
    g = small_graph(34, rows=5, cols=6)
    keep = model.branches["typing"].pool.keep
    assert g.n_nodes > keep
    counter = model.branches["typing"].inject = _RowCounter(model.branches["typing"].inject)
    with T.no_grad():
        first = model.forward(g, np.random.default_rng(0))
        model.forward(g, np.random.default_rng(1), reuse=first)
    assert counter.rows == [keep, keep]
    model.forward(g, np.random.default_rng(0))  # the tape injects every row
    assert counter.rows[-1] == g.n_nodes
