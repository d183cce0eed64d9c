"""The full slide classifier: shared encoder, task branches, readouts.

A forward pass runs one shared GCN over the tile graph, then per task:
latent-token injection, task-specific pooling, and a small pre-norm
transformer read out through a CLS row into an MLP over the class logits.
``SlideGraphTransformer.forward(graph, rng, reuse=None)`` is the one way
through the model; it returns each task's logits, its pool's aux dict and the
shared trunk rows (``SlideGraphTransformer.trunk``, the GCN output).  A task's
node embeddings are ``branch.inject(trunk, branch.bank)``.  Without a tape, a
drop branch injects only the rows it keeps.  Branches are independent except
for the shared encoder (and, optionally, a shared token bank), so single-task
models are just one-branch configs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .attention import MultiHeadWeights, attend
from .errors import ConfigError, ContractError
from .gcn import GcnStack
from .injection import InjectionBlock, TokenBank
from .nn import FeedForward, LayerNorm, Linear, normal_param
from .pooling import POOL_KINDS, make_pool


def _check_types(config, kind, names, owner):
    """Reject fields not exactly of type kind (a JSON 4.0 or 0 included)."""
    what = {int: "an integer", bool: "a bool"}[kind]
    for name in names:
        value = getattr(config, name)
        if type(value) is not kind:
            raise ConfigError(f"{owner} field {name!r} must be {what}, got {value!r}")


@dataclass(frozen=True)
class BranchConfig:
    """One classification task: its pooling style and head size."""

    task: str
    classes: int = 2
    pooling: str = "drop"
    tokens: int = 150
    pool_size: int = 100

    def validate(self):
        _check_types(self, int, ("classes", "tokens", "pool_size"), f"task {self.task!r}")
        if self.classes < 2:
            raise ConfigError(f"task {self.task!r} needs >= 2 classes")
        if self.pooling not in POOL_KINDS:
            raise ConfigError(
                f"unknown pooling kind {self.pooling!r}; expected one of {POOL_KINDS}")
        if self.tokens < 1 or self.pool_size < 1:
            raise ConfigError(f"task {self.task!r} needs positive tokens and pool size")


def default_branches(tokens=150, drop_keep=100, clusters=100):
    """The standard two-task layout: drop pooling for typing, clustering for staging."""
    return (
        BranchConfig(task="typing", pooling="drop", tokens=tokens, pool_size=drop_keep),
        BranchConfig(task="staging", pooling="gcmincut", tokens=tokens, pool_size=clusters),
    )


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    dim: int
    gcn_layers: int = 2
    heads: int = 4
    transformer_depth: int = 2
    token_scheme: str = "specific"
    scale_attention: bool = True
    assign_softmax: bool = True
    head_init: str = "zero"
    branches: tuple = field(default_factory=default_branches)

    def validate(self):
        _check_types(self, int, ("input_dim", "dim", "gcn_layers", "heads",
                                 "transformer_depth"), "model")
        _check_types(self, bool, ("scale_attention", "assign_softmax"), "model")
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.dim < 2:
            raise ConfigError(f"model width must be >= 2, got {self.dim}")
        if self.heads < 1 or self.dim % self.heads != 0:
            raise ConfigError(
                f"heads ({self.heads}) must divide model width ({self.dim})")
        if self.gcn_layers < 1:
            raise ConfigError("gcn_layers must be >= 1")
        if self.transformer_depth < 1:
            raise ConfigError("transformer_depth must be >= 1")
        if self.token_scheme not in ("specific", "shared"):
            raise ConfigError(f"unknown token scheme {self.token_scheme!r}")
        if self.head_init not in ("zero", "random"):
            raise ConfigError(f"unknown head init {self.head_init!r}")
        if not self.branches:
            raise ConfigError("model needs at least one task branch")
        names = [b.task for b in self.branches]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate task names in branches: {names}")
        for branch in self.branches:
            branch.validate()
        if self.token_scheme == "shared":
            counts = {b.tokens for b in self.branches}
            if len(counts) != 1:
                raise ConfigError("shared token scheme requires equal token counts")

    def to_dict(self):
        d = asdict(self)
        d["branches"] = [asdict(b) for b in self.branches]
        return d

    @staticmethod
    def from_dict(d):
        branches = tuple(BranchConfig(**b) for b in d["branches"])
        rest = {k: v for k, v in d.items() if k != "branches"}
        return ModelConfig(branches=branches, **rest)


class TransformerHead:
    """Pre-norm transformer over [CLS; pooled rows], then an MLP on CLS."""

    def __init__(self, rng, dim, heads, depth, classes, scale_scores, zero_head):
        self.cls = normal_param(rng, (1, dim))
        self.layers = []
        for _ in range(depth):
            self.layers.append({
                "ln_attn": LayerNorm(dim),
                "attn": MultiHeadWeights(rng, dim, heads, scale_scores),
                "ln_ff": LayerNorm(dim),
                "ff": FeedForward(rng, dim, 2 * dim),
            })
        self.ln_final = LayerNorm(dim)
        self.mlp_hidden = Linear(rng, dim, dim // 2)
        self.mlp_out = Linear(rng, dim // 2, classes, zero_init=zero_head)

    def __call__(self, pooled):
        x = T.concat_rows(self.cls, pooled)
        for layer in self.layers:
            a_in = layer["ln_attn"](x)
            x = T.add(x, attend(layer["attn"], a_in, a_in))
            f_in = layer["ln_ff"](x)
            x = T.add(x, layer["ff"](f_in))
        cls_row = T.take_rows(self.ln_final(x), np.array([0]))
        return self.mlp_out(T.relu(self.mlp_hidden(cls_row)))

    def parameters(self, prefix):
        params = [(f"{prefix}.cls", self.cls)]
        for i, layer in enumerate(self.layers):
            params += layer["ln_attn"].parameters(f"{prefix}.layer{i}.ln_attn")
            params += layer["attn"].parameters(f"{prefix}.layer{i}.attn")
            params += layer["ln_ff"].parameters(f"{prefix}.layer{i}.ln_ff")
            params += layer["ff"].parameters(f"{prefix}.layer{i}.ff")
        params += self.ln_final.parameters(f"{prefix}.ln_final")
        params += self.mlp_hidden.parameters(f"{prefix}.mlp_hidden")
        params += self.mlp_out.parameters(f"{prefix}.mlp_out")
        return params


class Branch:
    """Everything owned by one task after the shared encoder."""

    def __init__(self, rng, config, branch_cfg, bank):
        self.config = branch_cfg
        self.bank = bank
        self.inject = InjectionBlock(rng, config.dim, config.heads, config.scale_attention)
        self.pool = make_pool(branch_cfg.pooling, rng, config.dim, branch_cfg.pool_size,
                              heads=config.heads, assign_softmax=config.assign_softmax)
        self.head = TransformerHead(rng, config.dim, config.heads,
                                    config.transformer_depth, branch_cfg.classes,
                                    config.scale_attention, config.head_init == "zero")

    def parameters(self, prefix, own_bank):
        params = []
        if own_bank:
            params += self.bank.parameters(f"{prefix}.bank")
        params += self.inject.parameters(f"{prefix}.inject")
        params += self.pool.parameters(f"{prefix}.pool")
        params += self.head.parameters(f"{prefix}.head")
        return params


@dataclass
class ForwardOut:
    logits: dict          # task -> (1, classes) tensor
    aux: dict             # task -> the pool's aux dict ("kept" or "assignment")
    trunk: T.Tensor       # (n, dim) shared node rows after the GCN


class SlideGraphTransformer:
    """Multi-task tile-graph classifier; construction order fixes the seed layout."""

    def __init__(self, config, seed=0):
        config.validate()
        self.config = config
        rng = np.random.default_rng(seed)
        self.input_proj = (Linear(rng, config.input_dim, config.dim)
                           if config.input_dim != config.dim else None)
        self.gcn = GcnStack(rng, config.dim, config.gcn_layers)
        self.shared_bank = (TokenBank(rng, config.branches[0].tokens, config.dim)
                            if config.token_scheme == "shared" else None)
        self.branches = {}
        for branch_cfg in config.branches:
            bank = self.shared_bank or TokenBank(rng, branch_cfg.tokens, config.dim)
            self.branches[branch_cfg.task] = Branch(rng, config, branch_cfg, bank)
        self._params = self._collect_parameters()

    def _collect_parameters(self):
        params = []
        if self.input_proj is not None:
            params += self.input_proj.parameters("proj")
        params += self.gcn.parameters("gcn")
        if self.shared_bank is not None:
            params += self.shared_bank.parameters("shared")
        for task, branch in self.branches.items():
            params += branch.parameters(task, own_bank=self.shared_bank is None)
        names = [n for n, _ in params]
        if len(set(names)) != len(names):
            raise ContractError("duplicate parameter names in model")
        return params

    def parameters(self):
        return list(self._params)

    def zero_grad(self):
        for _, p in self._params:
            p.grad[...] = 0.0

    def trunk(self, graph):
        """The shared node rows of one tile graph: input projection, then GCN."""
        if graph.node_features.shape[1] != self.config.input_dim:
            raise ContractError(
                f"graph features have width {graph.node_features.shape[1]}, "
                f"model expects {self.config.input_dim}")
        h = T.constant(graph.node_features)
        if self.input_proj is not None:
            h = self.input_proj(h)
        return self.gcn(h, graph.norm_adj)

    def forward(self, graph, rng, reuse=None):
        """Run all branches on one tile graph; rng drives random pooling.

        Branches run in order, so drop branches draw from rng in turn.  A
        drop branch picks its kept rows from the row count alone, and
        injection is row-local, so when no tape is recording it injects only
        the rows it keeps; the logits are bitwise those of injecting every
        row and then dropping, which it does while the tape records.

        reuse is an earlier output of this model on this graph.  Its trunk
        stands in for the input projection and the GCN; branches whose pool
        draws no random numbers copy their logits and aux from it, and the
        others (drop) draw, inject and read out again.
        """
        h = self.trunk(graph) if reuse is None else reuse.trunk
        out = ForwardOut(logits={}, aux={}, trunk=h)
        for task, branch in self.branches.items():
            pool = branch.pool
            if reuse is not None and not pool.draws:
                out.logits[task], out.aux[task] = reuse.logits[task], reuse.aux[task]
            elif pool.draws and not T.is_recording():
                kept = pool.select(h.shape[0], rng)
                rows = branch.inject(T.take_rows(h, kept), branch.bank)
                out.logits[task], out.aux[task] = branch.head(rows), {"kept": kept}
            else:
                pooled, out.aux[task] = pool(branch.inject(h, branch.bank),
                                             graph.norm_adj, rng)
                out.logits[task] = branch.head(pooled)
        return out


def softmax_1d(x):
    e = np.exp(x - x.max())
    return e / e.sum()
