import itertools
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from slidegt.data import (Dataset, Sample, SyntheticSpec, generate,
                          stage_label, stratified_folds)
from slidegt.errors import ConfigError

SMALL = SyntheticSpec(samples=24, rows=10, cols=10, dim=6, seed=3,
                      region_radius=(1.5, 3.0), folds=4)


@pytest.fixture(scope="module")
def small_ds():
    return generate(SMALL)


def assert_same_samples(samples, others):
    assert len(samples) == len(others)
    for a, b in zip(samples, others):
        assert (a.label_type, a.label_stage) == (b.label_type, b.label_stage)
        assert_array_equal(a.grid.occupancy, b.grid.occupancy)
        assert (a.grid.features == b.grid.features).all()
        assert_array_equal(a.tumor_mask, b.tumor_mask)


def test_generation_is_bitwise_deterministic(small_ds):
    again = generate(SMALL)
    assert_array_equal(again.folds, small_ds.folds)
    assert_same_samples(again.samples, small_ds.samples)


def test_another_fold_count_splits_the_same_samples(small_ds):
    two = generate(replace(SMALL, folds=2))
    assert np.bincount(two.folds).tolist() == [12, 12]
    assert_same_samples(two.samples, small_ds.samples)


def test_stage_label_threshold_is_strict():
    assert stage_label(0.25, 0.25) == 0  # tie goes to early stage
    assert stage_label(0.2500001, 0.25) == 1
    assert stage_label(0.1, 0.25) == 0


def test_ratio_bookkeeping_is_exact(small_ds):
    for s in small_ds.samples:
        n = int(s.grid.occupancy.sum())
        assert s.tumor_mask.shape == (n,)
        assert s.tumor_mask.sum() / n == s.tumor_ratio
        assert s.label_stage == stage_label(s.tumor_ratio, SMALL.stage_threshold)
        assert s.label("typing") == s.label_type
        assert s.label("staging") == s.label_stage


def test_label_marginals_are_roughly_balanced():
    ds = generate(SyntheticSpec(samples=200, rows=10, cols=10, dim=4, seed=11,
                                region_radius=(1.5, 3.0)))
    type_rate = np.mean([s.label_type for s in ds.samples])
    stage_rate = np.mean([s.label_stage for s in ds.samples])
    assert 0.40 <= type_rate <= 0.60
    assert 0.35 <= stage_rate <= 0.65  # ratio window is symmetric around the cut


def test_tumor_features_are_separable_without_noise():
    """With zero noise a nearest-archetype vote recovers typing exactly."""
    spec = SyntheticSpec(samples=40, rows=10, cols=10, dim=8, seed=5,
                         noise_std=0.0, region_radius=(1.5, 3.0))
    ds = generate(spec)
    votes = []
    for s in ds.samples:
        tumor_rows = s.grid.features[s.tumor_mask]
        # noiseless tumor rows are copies of a single archetype (f32-rounded)
        spread = np.abs(tumor_rows - tumor_rows[0]).max()
        assert spread == 0.0
        votes.append((tuple(np.round(tumor_rows[0], 6)), s.label_type))
    keys = {k for k, _ in votes}
    assert len(keys) == 2
    by_key = {k: {lab for kk, lab in votes if kk == k} for k in keys}
    for labs in by_key.values():
        assert len(labs) == 1  # each archetype maps to exactly one label


def test_quantization_makes_features_f32_exact(small_ds):
    for s in small_ds.samples:
        f = s.grid.features
        assert f.dtype == np.float64
        assert (f == f.astype(np.float32).astype(np.float64)).all()


def test_stratified_folds_balance_every_joint_class():
    rng = np.random.default_rng(0)
    labels = np.repeat([0, 1, 2, 3], [13, 7, 11, 9])
    folds = stratified_folds(labels, 4, rng)
    for value in range(4):
        counts = np.bincount(folds[labels == value], minlength=4)
        assert counts.max() - counts.min() <= 1
    totals = np.bincount(folds, minlength=4)
    assert totals.max() - totals.min() <= 1  # offset carry balances sizes too


def test_generated_folds_respect_joint_stratification(small_ds):
    joint = np.array([2 * s.label_type + s.label_stage for s in small_ds.samples])
    for value in np.unique(joint):
        counts = np.bincount(small_ds.folds[joint == value], minlength=SMALL.folds)
        assert counts.max() - counts.min() <= 1


def test_spec_validation_rejects_infeasible_setups():
    with pytest.raises(ConfigError, match="radius"):
        SyntheticSpec(rows=6, cols=6, region_radius=(1.5, 4.5)).validate()
    with pytest.raises(ConfigError, match="window"):
        SyntheticSpec(stage_threshold=0.1, stage_spread=0.2).validate()
    with pytest.raises(ConfigError, match=r"window \[0.350, 0.150\] must be a range"):
        SyntheticSpec(stage_spread=-0.1).validate()
    with pytest.raises(ConfigError, match="folds"):
        SyntheticSpec(samples=3, folds=5, region_radius=(1.0, 2.0),
                      rows=8, cols=8).validate()
    with pytest.raises(ConfigError, match="occupancy"):
        SyntheticSpec(occupancy=0.0).validate()
    with pytest.raises(ConfigError, match="region count"):
        SyntheticSpec(region_count=(2, 1)).validate()
    for field, value in [("region_count", (1.3,)), ("region_count", (1, 2, 3)),
                         ("region_count", 2), ("region_count", (1, "3")),
                         ("region_count", (True, 3)), ("region_count", (1, 3.0))]:
        with pytest.raises(ConfigError, match=f"{field} must be two integers"):
            SyntheticSpec(**{field: value}).validate()
    for field, value in [("region_radius", ()), ("region_radius", (1.0, float("nan"))),
                         ("region_radius", (float("-inf"), 2.0)),
                         ("region_radius", (1.0, 10**400))]:
        with pytest.raises(ConfigError, match=f"{field} must be two finite numbers"):
            SyntheticSpec(**{field: value}).validate()
    for field, value in [("noise_std", float("nan")), ("noise_std", float("inf")),
                         ("archetype_scale", float("inf")), ("archetype_scale", float("nan")),
                         ("archetype_scale", "1"), ("noise_std", True),
                         ("occupancy", True), ("occupancy", None),
                         ("stage_threshold", 10**400), ("stage_spread", [0.1])]:
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SyntheticSpec(**{field: value}).validate()
    for field, value in itertools.product(("samples", "rows", "cols", "dim", "seed", "folds"),
                                          (6.0, 8.5, True, "x", None)):
        with pytest.raises(ConfigError, match=f"dataset spec field '{field}' must be an integer"):
            SyntheticSpec(**{field: value}).validate()


def test_spec_round_trips_through_dict():
    spec = SyntheticSpec(samples=10, seed=9, region_count=(2, 2), folds=2)
    assert SyntheticSpec.from_dict(spec.to_dict()) == spec


def test_sample_label_rejects_unknown_task(small_ds):
    with pytest.raises(ConfigError, match="unknown task"):
        small_ds.samples[0].label("grading")
