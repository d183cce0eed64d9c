"""Synthetic slide-like datasets with planted, decidable labels.

Each sample is an occupancy grid with feature rows per occupied cell.  A set
of jittered elliptical tumor regions is grown or trimmed to an exact target
cell count; tumor cells carry one of two archetype feature vectors (the
typing label) plus noise, and the tumor-to-tissue ratio against a fixed
threshold decides the staging label (ties go to early stage).  Features are
quantized to float32 precision at generation time so file round-trips are
bit-exact in both directions.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_types
from .graph import FeatureGrid


def _finite_number(value):
    """A non-bool real within float range (NaN fails, as does a huge int)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


_OFFSETS8 = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                  if (dr, dc) != (0, 0))


@dataclass(frozen=True)
class SyntheticSpec:
    samples: int = 200
    rows: int = 16
    cols: int = 16
    dim: int = 32
    seed: int = 0
    occupancy: float = 0.85
    noise_std: float = 0.5
    stage_threshold: float = 0.25
    stage_spread: float = 0.18
    region_count: tuple = (1, 3)
    region_radius: tuple = (1.5, 4.5)
    archetype_scale: float = 1.0
    folds: int = 5

    def validate(self):
        check_types(self, int, ("samples", "rows", "cols", "dim", "seed", "folds"), "dataset spec")
        for name in ("occupancy", "noise_std", "stage_threshold", "stage_spread",
                     "archetype_scale"):
            value = getattr(self, name)
            if not _finite_number(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.samples < 1:
            raise ConfigError("need at least one sample")
        if self.rows < 2 or self.cols < 2:
            raise ConfigError("grid must be at least 2x2")
        if self.dim < 2:
            raise ConfigError("feature width must be >= 2")
        if not 0.0 < self.occupancy <= 1.0:
            raise ConfigError(f"occupancy must be in (0, 1], got {self.occupancy}")
        if self.noise_std < 0.0:
            raise ConfigError("noise_std must be >= 0")
        lo, hi = self.stage_threshold - self.stage_spread, self.stage_threshold + self.stage_spread
        if not 0.0 < lo <= hi < 1.0:  # a negative spread gives lo > hi
            raise ConfigError(
                f"stage ratio window [{lo:.3f}, {hi:.3f}] must be a range inside (0, 1)")
        for name, what, valid in (("region_count", "integers", lambda v: type(v) is int),
                                  ("region_radius", "finite numbers", _finite_number)):
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(valid(v) for v in pair)):
                raise ConfigError(f"{name} must be two {what}, got {pair!r}")
        c_lo, c_hi = self.region_count
        if c_lo < 1 or c_hi < c_lo:
            raise ConfigError(f"bad region count range {self.region_count}")
        r_lo, r_hi = self.region_radius
        if r_lo <= 0.0 or r_hi < r_lo:
            raise ConfigError(f"bad region radius range {self.region_radius}")
        if 2.0 * r_hi + 1.0 > min(self.rows, self.cols):
            raise ConfigError(
                f"region radius {r_hi} does not fit a {self.rows}x{self.cols} grid")
        if not 2 <= self.folds <= self.samples:
            raise ConfigError(f"folds must be in [2, samples], got {self.folds}")

    def to_dict(self):
        d = dict(self.__dict__)
        d["region_count"] = list(self.region_count)
        d["region_radius"] = list(self.region_radius)
        return d

    @staticmethod
    def from_dict(d):
        d = dict(d)
        d["region_count"] = tuple(d["region_count"])
        d["region_radius"] = tuple(d["region_radius"])
        return SyntheticSpec(**d)


@dataclass
class Sample:
    sample_id: int
    grid: FeatureGrid
    label_type: int
    label_stage: int
    tumor_mask: np.ndarray  # bool per occupied node, row-major
    tumor_ratio: float

    def label(self, task):
        if task == "typing":
            return self.label_type
        if task == "staging":
            return self.label_stage
        raise ConfigError(f"unknown task {task!r}")


@dataclass
class Dataset:
    samples: list
    folds: np.ndarray  # fold id per sample
    spec: SyntheticSpec


def stage_label(ratio, threshold):
    """Late stage iff the tumor ratio strictly exceeds the threshold."""
    return int(ratio > threshold)


def make_archetypes(rng, dim, scale):
    """Three unit-norm feature prototypes: tissue, type A tumor, type B tumor."""
    arch = rng.normal(0.0, 1.0, (3, dim))
    arch /= np.linalg.norm(arch, axis=1, keepdims=True)
    return arch * scale


def _has_true_neighbor(mask):
    rows, cols = mask.shape
    padded = np.zeros((rows + 2, cols + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    acc = np.zeros_like(mask)
    for dr, dc in _OFFSETS8:
        acc |= padded[1 + dr:rows + 1 + dr, 1 + dc:cols + 1 + dc]
    return acc


def _grow_tumor_mask(rng, occ, target, spec):
    """Plant jittered elliptical regions, then adjust to an exact cell count."""
    rows, cols = occ.shape
    positions = np.argwhere(occ)
    n = len(positions)
    count = int(rng.integers(spec.region_count[0], spec.region_count[1] + 1))
    seed_rows = positions[rng.choice(n, size=min(count, n), replace=False)]
    mask = np.zeros_like(occ)
    for r0, c0 in seed_rows:
        a_r = rng.uniform(*spec.region_radius)
        b_r = rng.uniform(*spec.region_radius)
        jitter = rng.normal(0.0, 0.25, (rows, cols))
        rr = (np.arange(rows)[:, None] - r0) / a_r
        cc = (np.arange(cols)[None, :] - c0) / b_r
        mask |= ((rr * rr + cc * cc) <= 1.0 + jitter) & occ
        mask[r0, c0] = True

    while mask.sum() > target:
        interior = mask.copy()
        for dr, dc in _OFFSETS8:
            padded = np.zeros((rows + 2, cols + 2), dtype=bool)
            padded[1:-1, 1:-1] = mask
            interior &= padded[1 + dr:rows + 1 + dr, 1 + dc:cols + 1 + dc]
        boundary = np.argwhere(mask & ~interior)
        if len(boundary) == 0:
            boundary = np.argwhere(mask)
        r, c = boundary[rng.integers(len(boundary))]
        mask[r, c] = False
    while mask.sum() < target:
        frontier = occ & ~mask & _has_true_neighbor(mask)
        if not frontier.any():
            frontier = occ & ~mask
        cells = np.argwhere(frontier)
        r, c = cells[rng.integers(len(cells))]
        mask[r, c] = True
    return mask


def _generate_sample(rng, spec, archetypes, sample_id):
    occ = rng.random((spec.rows, spec.cols)) < spec.occupancy
    if not occ.any():
        occ[spec.rows // 2, spec.cols // 2] = True
    n = int(occ.sum())

    ratio_draw = rng.uniform(spec.stage_threshold - spec.stage_spread,
                             spec.stage_threshold + spec.stage_spread)
    target = int(np.clip(round(ratio_draw * n), 1, n))
    mask_grid = _grow_tumor_mask(rng, occ, target, spec)
    label_type = int(rng.integers(2))

    node_mask = mask_grid[occ]  # row-major occupied order
    assignment = np.where(node_mask, 1 + label_type, 0)
    features = archetypes[assignment] + spec.noise_std * rng.normal(0.0, 1.0, (n, spec.dim))
    features = features.astype(np.float32).astype(np.float64)

    ratio = target / n
    return Sample(
        sample_id=sample_id,
        grid=FeatureGrid(rows=spec.rows, cols=spec.cols, occupancy=occ, features=features),
        label_type=label_type,
        label_stage=stage_label(ratio, spec.stage_threshold),
        tumor_mask=node_mask,
        tumor_ratio=ratio,
    )


def stratified_folds(joint_labels, n_folds, rng):
    """Spread every label value across folds; per-label fold counts differ by
    at most one, and carrying the offset across labels balances fold sizes."""
    joint_labels = np.asarray(joint_labels)
    folds = np.empty(len(joint_labels), dtype=np.int64)
    offset = 0
    for value in np.unique(joint_labels):
        idx = rng.permutation(np.nonzero(joint_labels == value)[0])
        folds[idx] = (offset + np.arange(len(idx))) % n_folds
        offset += len(idx)
    return folds


def generate(spec):
    """Build the full dataset: samples plus a stratified fold assignment."""
    spec.validate()
    children = np.random.SeedSequence(spec.seed).spawn(spec.samples + 2)
    archetypes = make_archetypes(np.random.default_rng(children[0]), spec.dim,
                                 spec.archetype_scale)
    samples = [
        _generate_sample(np.random.default_rng(children[2 + i]), spec, archetypes, i)
        for i in range(spec.samples)
    ]
    joint = np.array([2 * s.label_type + s.label_stage for s in samples])
    folds = stratified_folds(joint, spec.folds, np.random.default_rng(children[1]))
    return Dataset(samples=samples, folds=folds, spec=spec)
