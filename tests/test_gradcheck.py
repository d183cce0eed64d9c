from dataclasses import replace

import numpy as np
from numpy.testing import assert_array_equal

from slidegt import cli, gradcheck
from slidegt import tensor as T
from slidegt.gradcheck import (build_check_model, check_gradients,
                               relative_error)
from slidegt.model import SlideGraphTransformer


def test_relative_error_floor_damps_tiny_denominators():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1e-9, 0.0) == 1e-9 / 1e-6  # floored denominator
    assert relative_error(2.0, 1.0) == 0.5


def test_check_covers_every_parameter_once():
    model, graph, labels = build_check_model(
        nodes=6, dim=4, gcn_layers=1, heads=2, tokens=2, keep=2, clusters=2)
    result = check_gradients(model, graph, labels)
    names = [n for n, _ in result.per_param]
    assert names == [n for n, _ in model.parameters()]
    assert result.worst == max(err for _, err in result.per_param)
    assert result.worst_param in names


def test_fixture_is_deterministic_and_pinned():
    a = build_check_model(nodes=6, dim=4, gcn_layers=1, heads=2, tokens=2,
                          keep=2, clusters=2, seed=5)
    b = build_check_model(nodes=6, dim=4, gcn_layers=1, heads=2, tokens=2,
                          keep=2, clusters=2, seed=5)
    assert a[2] == b[2]
    assert (a[1].node_features == b[1].node_features).all()

    kept = kept_rows_per_evaluation(*a)
    assert len(kept) > 2
    for other in kept[1:]:  # every loss evaluation keeps the same rows
        assert_array_equal(other, kept[0])


def test_kept_rows_follow_the_check_seed():
    subsets = set()
    for seed in range(4):
        model, graph, labels = build_check_model(
            nodes=6, dim=4, gcn_layers=1, heads=2, tokens=2, keep=2,
            clusters=2, seed=5)
        kept = kept_rows_per_evaluation(model, graph, labels, seed=seed)
        subsets.add(tuple(kept[0]))
    assert len(subsets) > 1


def kept_rows_per_evaluation(model, graph, labels, **kwargs):
    """The typing pool's kept rows for every forward check_gradients runs."""
    kept = []
    forward = model.forward

    def recording_forward(*args, **kw):
        out = forward(*args, **kw)
        kept.append(out.aux["typing"]["kept"])
        return out

    model.forward = recording_forward
    check_gradients(model, graph, labels, **kwargs)
    return kept


def test_only_the_analytic_evaluation_records_a_tape():
    model, graph, labels = build_check_model(
        nodes=6, dim=4, gcn_layers=1, heads=2, tokens=2, keep=2, clusters=2)
    recording = []
    forward = model.forward

    def recording_forward(*args, **kw):
        recording.append(T.is_recording())
        return forward(*args, **kw)

    model.forward = recording_forward
    check_gradients(model, graph, labels)
    assert len(recording) > 2
    assert recording[0] and not any(recording[1:])
    assert T.is_recording()


def test_tiny_model_passes_at_tolerance():
    model, graph, labels = build_check_model(
        nodes=6, dim=4, gcn_layers=1, heads=2, tokens=2, keep=2, clusters=2)
    result = check_gradients(model, graph, labels)
    assert result.worst < 1e-4


def test_two_gcmincut_branches_pass_at_tolerance():
    model, graph, labels = build_check_model(
        nodes=6, dim=4, gcn_layers=1, heads=2, tokens=2, keep=2, clusters=2)
    branches = tuple(replace(b, pooling="gcmincut", pool_size=2)
                     for b in model.config.branches)
    model = SlideGraphTransformer(replace(model.config, branches=branches), seed=1)
    assert all("assignment" in aux
               for aux in model.forward(graph, None).aux.values())
    result = check_gradients(model, graph, labels)
    assert result.worst < 1e-4


def test_one_cluster_gradients_are_finite_and_pass():
    # one cluster makes the orthogonality term exactly 0, where its norm has
    # no gradient; the loss op takes the subgradient 0 there
    model, graph, labels = build_check_model(
        nodes=6, dim=4, gcn_layers=1, heads=2, tokens=2, keep=2, clusters=1)
    result = check_gradients(model, graph, labels)
    assert all(np.isfinite(p.grad).all() for _, p in model.parameters())
    assert result.worst < 1e-4


def test_a_nan_gradient_fails_the_check(monkeypatch, capsys):
    def nan_backward(loss):
        T.backward(loss)
        dict(model.parameters())["gcn.layer0.w"].grad[0, 0] = np.nan

    model, graph, labels = build_check_model(
        nodes=6, dim=4, gcn_layers=1, heads=2, tokens=2, keep=2, clusters=2)
    monkeypatch.setattr(gradcheck, "backward", nan_backward)
    monkeypatch.setattr(cli, "build_check_model", lambda **kw: (model, graph, labels))
    rc = cli.main(["gradcheck"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "worst relative error inf at gcn.layer0.w" in out
    assert out.rstrip().endswith("FAIL")
