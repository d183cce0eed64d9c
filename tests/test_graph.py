import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from slidegt.errors import ContractError, DimensionError
from slidegt.graph import FeatureGrid, build_graph

seeds = st.integers(0, 2**32 - 1)


def grid_from_mask(mask, dim=3, seed=0):
    mask = np.asarray(mask, dtype=bool)
    rng = np.random.default_rng(seed)
    feats = rng.normal(0, 1, (int(mask.sum()), dim))
    return FeatureGrid(rows=mask.shape[0], cols=mask.shape[1],
                       occupancy=mask, features=feats)


def reference_norm_adj(mask):
    """Independent O(n^2) oracle: scan all cell pairs for 8-adjacency."""
    cells = [tuple(rc) for rc in np.argwhere(np.asarray(mask, dtype=bool))]
    n = len(cells)
    a = np.eye(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                dr = abs(cells[i][0] - cells[j][0])
                dc = abs(cells[i][1] - cells[j][1])
                if max(dr, dc) == 1:
                    a[i, j] = 1.0
    deg = a.sum(axis=1)
    out = np.zeros_like(a)
    for i in range(n):
        for j in range(n):
            out[i, j] = a[i, j] / np.sqrt(deg[i] * deg[j])
    return out


def dense(g):
    """The graph's adjacency operator applied to the identity."""
    return g.norm_adj @ np.eye(g.n_nodes)


def test_single_cell_graph():
    g = build_graph(grid_from_mask([[True]]))
    assert g.n_nodes == 1
    assert_array_equal(dense(g), [[1.0]])
    assert_array_equal(g.deg_tilde, [1.0])


def test_three_cell_path_normalization():
    # one row of three cells: degrees with self-loops are 2, 3, 2
    g = build_graph(grid_from_mask([[True, True, True]]))
    a = dense(g)
    assert_array_equal(g.deg_tilde, [2.0, 3.0, 2.0])
    assert_allclose(a[0, 1], 1.0 / np.sqrt(6.0), atol=1e-15)
    assert_allclose(a[1, 2], 1.0 / np.sqrt(6.0), atol=1e-15)
    assert a[0, 2] == 0.0
    assert_allclose(np.diag(a), [0.5, 1.0 / 3.0, 0.5], atol=1e-15)


def test_full_2x2_block_is_uniform():
    g = build_graph(grid_from_mask([[True, True], [True, True]]))
    # all four cells mutually adjacent under 8-adjacency
    assert_array_equal(g.deg_tilde, [4.0] * 4)
    assert_allclose(dense(g), np.full((4, 4), 0.25), atol=1e-15)


def test_diagonal_cells_connect():
    g = build_graph(grid_from_mask([[True, False], [False, True]]))
    assert_allclose(dense(g), np.full((2, 2), 0.5), atol=1e-15)


def test_gap_does_not_connect():
    g = build_graph(grid_from_mask([[True, False, True]]))
    assert_array_equal(dense(g), np.eye(2))


def test_node_order_is_row_major():
    # row-major ids: 0=(0,1), 1=(0,2), 2=(1,0); cell (0,1) touches both
    # others, which do not touch each other
    mask = [[False, True, True], [True, False, False]]
    g = build_graph(grid_from_mask(mask))
    assert_array_equal(g.deg_tilde, [3.0, 2.0, 2.0])
    assert dense(g)[1, 2] == 0.0


@given(seeds)
def test_norm_adj_matches_pairwise_oracle(seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((4, 5)) < 0.6
    if not mask.any():
        mask[0, 0] = True
    g = build_graph(grid_from_mask(mask, seed=seed))
    assert_allclose(dense(g), reference_norm_adj(mask), atol=1e-14)


@given(seeds)
def test_norm_adj_is_symmetric_with_bounded_spectrum(seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((5, 5)) < 0.7
    if not mask.any():
        mask[2, 2] = True
    g = build_graph(grid_from_mask(mask, seed=seed))
    a = dense(g)
    assert_array_equal(a, a.T)
    eigs = np.linalg.eigvalsh(a)
    assert eigs.max() <= 1.0 + 1e-10
    assert eigs.min() >= -1.0 - 1e-10


@given(seeds)
def test_neighbor_table_lists_each_node_once(seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((6, 4)) < 0.5
    if not mask.any():
        mask[0, 0] = True
    g = build_graph(grid_from_mask(mask, seed=seed))
    n = g.n_nodes
    table = g.norm_adj
    assert table.index.shape == table.weight.shape == (n, 9)
    for i in range(n):
        present = table.index[i] < n
        ids = table.index[i][present]
        assert len(set(ids.tolist())) == len(ids)  # no repeated neighbor
        assert ids.tolist().count(i) == 1          # exactly one self slot
        assert (table.index[i][~present] == n).all()
        assert (table.weight[i][~present] == 0.0).all()
    assert_array_equal(g.deg_tilde, (table.index < n).sum(axis=1))


def test_full_large_grid_stays_linear_in_memory():
    # a dense (A + I) of this grid alone would take n * n * 8 bytes = 2 GiB
    side = 128
    g = build_graph(grid_from_mask(np.ones((side, side), bool), dim=1))
    assert g.n_nodes == side * side
    held = (g.node_features.nbytes + g.deg_tilde.nbytes
            + g.norm_adj.index.nbytes + g.norm_adj.weight.nbytes)
    assert held < 5 * 2**20
    assert_array_equal(g.deg_tilde[[0, side + 1]], [4.0, 9.0])  # corner, interior


def test_grid_validation():
    with pytest.raises(ContractError, match="no occupied"):
        FeatureGrid(rows=2, cols=2, occupancy=np.zeros((2, 2), bool),
                    features=np.zeros((0, 3)))
    with pytest.raises(DimensionError, match="does not match"):
        FeatureGrid(rows=2, cols=2, occupancy=np.ones((2, 2), bool),
                    features=np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        FeatureGrid(rows=2, cols=3, occupancy=np.ones((2, 2), bool),
                    features=np.zeros((4, 3)))
    with pytest.raises(ContractError, match="non-finite"):
        FeatureGrid(rows=1, cols=1, occupancy=np.ones((1, 1), bool),
                    features=np.array([[np.nan]]))
