"""Tile graphs over occupancy grids.

Occupied grid cells become nodes (row-major order); edges connect occupied
cells that touch in any of the 8 surrounding directions.  The symmetric
degree-normalized adjacency with self-loops is built once, with padded-grid
shifts, as a fixed-width neighbor table: at most 9 entries per node, so it
stays O(n) however large the slide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError

# the 8-neighborhood plus the cell itself, in the slot order of NeighborTable
_SLOTS = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1))


@dataclass(frozen=True)
class FeatureGrid:
    """An occupancy grid plus one feature row per occupied cell."""

    rows: int
    cols: int
    occupancy: np.ndarray  # (rows, cols) bool
    features: np.ndarray   # (n_occupied, d) float, row-major occupied order

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ContractError("grid must have at least one row and column")
        if self.occupancy.shape != (self.rows, self.cols):
            raise DimensionError(
                f"occupancy shape {self.occupancy.shape} does not match "
                f"({self.rows}, {self.cols})")
        n = int(self.occupancy.sum())
        if n < 1:
            raise ContractError("grid has no occupied cells")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise DimensionError(
                f"features shape {self.features.shape} does not match "
                f"{n} occupied cells")
        if not np.isfinite(self.features).all():
            raise ContractError("grid features contain non-finite values")


class NeighborTable:
    """D^-1/2 (A + I) D^-1/2 as 9 (neighbor, weight) slots per node, in
    ``_SLOTS`` order.  An absent neighbor points at row n, a zero row appended
    to the operand, with weight 0; a product is one gather plus one fixed-order
    contraction over the slots, so it is deterministic."""

    def __init__(self, index, weight):
        n = index.shape[0]
        self.index = index    # (n, 9) intp in [0, n]
        self.weight = weight  # (n, 9) f64
        self.shape = (n, n)

    def __matmul__(self, x):
        padded = np.concatenate([x, np.zeros((1, x.shape[1]))])
        return np.einsum("ns,nsd->nd", self.weight, padded[self.index])


@dataclass
class TileGraph:
    """Graph view of a FeatureGrid with its normalized adjacency operator."""

    node_features: np.ndarray          # (n, d) f64
    deg_tilde: np.ndarray              # degrees with self-loops, (n,)
    norm_adj: NeighborTable            # D^-1/2 (A + I) D^-1/2
    n_nodes: int = field(init=False)

    def __post_init__(self):
        self.n_nodes = self.node_features.shape[0]


def build_graph(grid):
    """Connect occupied cells under 8-adjacency and normalize the adjacency."""
    occ = grid.occupancy
    rows, cols = occ.shape
    n = int(occ.sum())
    # node ids on a grid padded by one cell; empty and outside cells hold n
    ids = np.full((rows + 2, cols + 2), n, dtype=np.intp)
    ids[1:-1, 1:-1][occ] = np.arange(n)
    index = np.stack([ids[1 + dr:rows + 1 + dr, 1 + dc:cols + 1 + dc][occ]
                      for dr, dc in _SLOTS], axis=1)
    deg = (index < n).sum(axis=1).astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(deg)  # deg >= 1 always (self-loop)
    # the padding id n gets factor 0, so absent slots weigh 0
    weight = inv_sqrt[:, None] * np.append(inv_sqrt, 0.0)[index]
    return TileGraph(
        node_features=np.ascontiguousarray(grid.features, dtype=np.float64),
        deg_tilde=deg,
        norm_adj=NeighborTable(index, weight),
    )
