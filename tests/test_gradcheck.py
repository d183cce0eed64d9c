from numpy.testing import assert_array_equal

from slidegt.gradcheck import (build_check_model, check_gradients,
                               relative_error)


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


def test_tiny_model_passes_at_tolerance():
    model, graph, labels = build_check_model(
        nodes=6, dim=4, gcn_layers=1, heads=2, tokens=2, keep=2, clusters=2)
    result = check_gradients(model, graph, labels)
    assert result.worst < 1e-4
