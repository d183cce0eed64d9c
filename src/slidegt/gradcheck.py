"""Finite-difference audit of the full backward pass.

Builds a small two-branch model on a random tile graph with fixed labels,
and compares the analytic gradient of the joint loss (both cross-entropies
plus the clustering terms) against a central finite difference for every
parameter element.  Every loss evaluation hands the model a fresh rng seeded
with the check's seed, so the drop pool runs its own selection code and keeps
the same rows each time, and another seed keeps another subset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import make_archetypes
from .errors import ConfigError
from .graph import FeatureGrid, build_graph
from .losses import LossWeights
from .model import BranchConfig, ModelConfig, SlideGraphTransformer
from .tensor import backward, no_grad
from .train import assemble_loss


@dataclass
class GradCheckResult:
    per_param: list          # [(name, max relative error)]
    worst: float
    worst_param: str


def relative_error(analytic, numeric, floor=1e-6):
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


def build_check_model(nodes=12, dim=8, gcn_layers=2, heads=2, tokens=3,
                      keep=3, clusters=2, depth=1, seed=0):
    """A small random graph plus a model sized for exhaustive checking."""
    if nodes < 1:
        raise ConfigError(f"gradcheck needs at least one node, got {nodes}")
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(nodes)))
    cells = np.zeros(side * side, dtype=bool)
    cells[rng.choice(side * side, size=nodes, replace=False)] = True
    features = (make_archetypes(rng, dim, 1.0)[rng.integers(0, 3, nodes)]
                + 0.3 * rng.normal(0.0, 1.0, (nodes, dim)))
    grid = FeatureGrid(rows=side, cols=side, occupancy=cells.reshape(side, side),
                       features=features)
    graph = build_graph(grid)
    config = ModelConfig(
        input_dim=dim, dim=dim, gcn_layers=gcn_layers, heads=heads,
        transformer_depth=depth, head_init="random",
        branches=(
            BranchConfig(task="typing", pooling="drop", tokens=tokens, pool_size=keep),
            BranchConfig(task="staging", pooling="gcmincut", tokens=tokens,
                         pool_size=clusters),
        ))
    model = SlideGraphTransformer(config, seed=seed + 1)
    labels = {"typing": int(rng.integers(2)), "staging": int(rng.integers(2))}
    return model, graph, labels


def check_gradients(model, graph, labels, step=1e-5, weights=None, seed=0):
    """Max relative error per parameter between backward and central FD.

    Each loss evaluation seeds the drop pool's rng with ``seed``; the
    finite-difference evaluations run under ``no_grad()`` and record no tape."""
    if not (np.isfinite(step) and step > 0.0):
        raise ConfigError(f"finite-difference step must be finite and > 0, got {step}")
    weights = weights or LossWeights()

    def loss_value():
        out = model.forward(graph, np.random.default_rng(seed))
        return assemble_loss(out, graph, labels, weights)

    model.zero_grad()
    backward(loss_value())
    analytic = {name: p.grad.copy() for name, p in model.parameters()}

    per_param = []
    with no_grad():
        for name, p in model.parameters():
            flat = p.data.reshape(-1)
            grads = analytic[name].reshape(-1)
            worst = 0.0
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + step
                up = loss_value().item()
                flat[i] = original - step
                down = loss_value().item()
                flat[i] = original
                fd = (up - down) / (2.0 * step)
                worst = max(worst, relative_error(grads[i], fd))
            per_param.append((name, worst))
    worst_name, worst = max(per_param, key=lambda kv: kv[1])
    return GradCheckResult(per_param=per_param, worst=worst, worst_param=worst_name)
