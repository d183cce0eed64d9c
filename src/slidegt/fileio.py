"""Binary file formats: datasets, checkpoints, embedding dumps.

All integers are little-endian.  Grid blobs ("MGT1") carry the occupancy
bitmap (row-major cells, LSB-first within each byte) and float32 features per
occupied cell.  Checkpoints ("MGTC"), embedding dumps ("MGTE") and datasets
("MGTS") share one framing: magic, u32 format version, u32 header length and
a JSON header.  Checkpoints and embedding dumps follow it with length-prefixed
named float64 blobs of rank at most 2; datasets with one tumor mask and one
MGT1 blob per sample (labels and fold ids sit in the header).

Readers parse fully in memory and validate before returning anything, so a
truncated or corrupt file is rejected outright; error messages name the byte
offset of the problem.  Writers emit a canonical byte stream (sorted JSON
keys, fixed field order), so save -> load -> save reproduces files bit for
bit, and write it through ``write_atomic``, so an interrupted write never
leaves a partial file under the target name.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .data import Dataset, Sample, SyntheticSpec
from .errors import CheckpointError, ConfigError, ParseError
from .graph import FeatureGrid

GRID_MAGIC = b"MGT1"
CHECKPOINT_MAGIC = b"MGTC"
EMBEDDINGS_MAGIC = b"MGTE"
DATASET_MAGIC = b"MGTS"
FORMAT_VERSION = 1


class _Reader:
    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.buf):
            raise ParseError(f"truncated file: needed {n} bytes for {what}",
                             offset=self.pos)
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self, what):
        return self.take(1, what)[0]

    def u16(self, what):
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def expect_magic(self, magic):
        if self.take(len(magic), "magic") != magic:
            raise ParseError(f"bad magic, expected {magic!r}", offset=0)

    def expect_end(self):
        if self.pos != len(self.buf):
            raise ParseError("unexpected trailing bytes", offset=self.pos)


def _json_bytes(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _parse_json(raw, offset):
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"bad JSON header: {exc}", offset=offset) from None
    if not isinstance(header, dict):
        raise ParseError(f"JSON header is not an object: {type(header).__name__}",
                         offset=offset)
    return header


# ------------------------------------------------------------------- grids


def grid_to_bytes(grid):
    cells = np.zeros(grid.rows * grid.cols, dtype=bool)
    cells[:] = grid.occupancy.reshape(-1)
    bitmap = np.packbits(cells, bitorder="little").tobytes()
    out = bytearray()
    out += GRID_MAGIC
    n = grid.features.shape[0]
    out += struct.pack("<4I", grid.rows, grid.cols, grid.features.shape[1], n)
    out += bitmap
    out += grid.features.astype("<f4").tobytes()
    return bytes(out)


def grid_from_bytes(buf):
    r = _Reader(buf)
    r.expect_magic(GRID_MAGIC)
    rows_at, rows = r.pos, r.u32("row count")
    cols_at, cols = r.pos, r.u32("column count")
    dim_at, dim = r.pos, r.u32("feature width")
    count_at, count = r.pos, r.u32("occupied count")
    if rows < 1:
        raise ParseError(f"row count must be >= 1, got {rows}", offset=rows_at)
    if cols < 1:
        raise ParseError(f"column count must be >= 1, got {cols}", offset=cols_at)
    if dim < 1:
        raise ParseError(f"feature width must be >= 1, got {dim}", offset=dim_at)
    if not 1 <= count <= rows * cols:
        raise ParseError(
            f"occupied count {count} out of range for {rows}x{cols} grid",
            offset=count_at)
    n_cells = rows * cols
    bitmap_at = r.pos
    bitmap = r.take((n_cells + 7) // 8, "occupancy bitmap")
    cells = np.unpackbits(np.frombuffer(bitmap, dtype=np.uint8),
                          count=n_cells, bitorder="little").astype(bool)
    if int(cells.sum()) != count:
        raise ParseError(
            f"occupancy bitmap has {int(cells.sum())} set cells, header says {count}",
            offset=bitmap_at)
    feat_at = r.pos
    raw = r.take(count * dim * 4, "feature block")
    r.expect_end()
    features = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(count, dim)
    if not np.isfinite(features).all():
        raise ParseError("non-finite feature values", offset=feat_at)
    return FeatureGrid(rows=rows, cols=cols,
                       occupancy=cells.reshape(rows, cols), features=features)


# ------------------------------------------------------------------ framing


def write_atomic(path, *parts):
    """Write the byte strings parts to path through a temp file and a rename.

    The temp file sits next to path, so ``os.replace`` swaps it in whole: a
    reader sees the old file or the new one, never a partial write.  On any
    exception the temp file is removed and an existing file stays as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, "wb")  # a bad directory fails here, before any temp file exists
    try:
        with fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj):
    """Write obj as sorted JSON indented by 2 plus a newline, atomically."""
    write_atomic(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode())


def _write_framed(path, magic, header, body):
    """Write magic, u32 version, u32 header length, JSON header, then body."""
    header_raw = _json_bytes(header)
    write_atomic(path, magic + struct.pack("<II", FORMAT_VERSION, len(header_raw))
                 + header_raw, body)


def _read_framed(path, magic):
    """Check a file's framing; returns (reader past the header, header, header offset)."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    r.expect_magic(magic)
    version_at, version = r.pos, r.u32("format version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version}", offset=version_at)
    header_len = r.u32("header length")
    header_at = r.pos
    header = _parse_json(r.take(header_len, "JSON header"), header_at)
    return r, header, header_at


# -------------------------------------------------- named-blob containers


def _write_container(path, magic, header, blobs):
    out = bytearray(struct.pack("<I", len(blobs)))
    for name, arr in blobs:
        raw_name = name.encode("utf-8")
        arr = np.asarray(arr, dtype=np.float64)
        out += struct.pack("<H", len(raw_name))
        out += raw_name
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
        out += arr.astype("<f8").tobytes()
    _write_framed(path, magic, header, out)


def _read_container(path, magic):
    r, header, _ = _read_framed(path, magic)
    n_blobs = r.u32("blob count")
    blobs = {}
    for _ in range(n_blobs):
        name_len = r.u16("blob name length")
        name_at = r.pos
        name = r.take(name_len, "blob name").decode("utf-8", errors="replace")
        if name in blobs:
            raise ParseError(f"duplicate blob name {name!r}", offset=name_at)
        rank_at, ndim = r.pos, r.u8("blob rank")
        if ndim > 2:  # writers store vectors and matrices only
            raise ParseError(f"blob {name!r} has rank {ndim}, expected at most 2",
                             offset=rank_at)
        shape = tuple(r.u32("blob dimension") for _ in range(ndim))
        size = 1
        for s in shape:
            size *= s
        raw = r.take(size * 8, f"blob {name!r} data")
        blobs[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    r.expect_end()
    return header, blobs


# ------------------------------------------------------------- checkpoints


def save_checkpoint(model, path):
    header = {"kind": "checkpoint", "model": model.config.to_dict()}
    blobs = [(name, param.data) for name, param in model.parameters()]
    _write_container(path, CHECKPOINT_MAGIC, header, blobs)


def load_checkpoint(path):
    """Rebuild a model from a checkpoint; parameter set must match exactly."""
    from .model import ModelConfig, SlideGraphTransformer

    header, blobs = _read_container(path, CHECKPOINT_MAGIC)
    if header.get("kind") != "checkpoint" or "model" not in header:
        raise CheckpointError(f"not a model checkpoint: header {header}")
    try:  # from_dict raises KeyError or TypeError on a missing, unknown or non-dict field
        model = SlideGraphTransformer(ModelConfig.from_dict(header["model"]), seed=0)
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"bad model config in checkpoint: {exc}") from None
    params = model.parameters()
    expected = {name for name, _ in params}
    found = set(blobs)
    if expected != found:
        missing = sorted(expected - found)
        extra = sorted(found - expected)
        raise CheckpointError(
            f"parameter names do not match config: missing {missing}, extra {extra}")
    for name, param in params:
        blob = blobs[name]
        if blob.shape != param.data.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {blob.shape}, expected {param.data.shape}")
        if not np.isfinite(blob).all():
            raise CheckpointError(f"parameter {name!r} holds non-finite values")
        param.data[...] = blob
    return model


# -------------------------------------------------------------- embeddings


def save_embeddings(path, model_config, entries):
    """entries: list of (sample_id, task, array); keys become sample_XXXXX/task."""
    ids = sorted({sid for sid, _, _ in entries})
    header = {"kind": "embeddings", "model": model_config.to_dict(), "samples": ids}
    blobs = [(f"sample_{sid:05d}/{task}", arr) for sid, task, arr in entries]
    _write_container(path, EMBEDDINGS_MAGIC, header, blobs)


def load_embeddings(path):
    header, blobs = _read_container(path, EMBEDDINGS_MAGIC)
    if header.get("kind") != "embeddings":
        raise ParseError(f"not an embeddings file: header {header}", offset=0)
    return header, blobs


# ----------------------------------------------------------------- datasets


def save_dataset(dataset, path):
    meta = [{"id": s.sample_id, "type": s.label_type, "stage": s.label_stage,
             "fold": int(dataset.folds[i])}
            for i, s in enumerate(dataset.samples)]
    header = {"kind": "dataset", "spec": dataset.spec.to_dict(), "samples": meta}
    out = bytearray(struct.pack("<I", len(dataset.samples)))
    for sample in dataset.samples:
        mask_bytes = np.packbits(sample.tumor_mask, bitorder="little").tobytes()
        grid_bytes = grid_to_bytes(sample.grid)
        out += struct.pack("<I", len(mask_bytes))
        out += mask_bytes
        out += struct.pack("<I", len(grid_bytes))
        out += grid_bytes
    _write_framed(path, DATASET_MAGIC, header, out)


def _check_sample_meta(meta, spec, offset):
    """Reject header sample entries that would load as wrong labels or folds."""
    if not isinstance(meta, list) or not all(isinstance(m, dict) for m in meta):
        raise ParseError("dataset header 'samples' is not a list of objects", offset=offset)
    limits = {"id": np.inf, "type": 2, "stage": 2, "fold": spec.folds}
    ids = set()
    for i, m in enumerate(meta):
        for key, hi in limits.items():
            v = m.get(key)
            if type(v) is not int or not 0 <= v < hi:
                raise ParseError(f"header sample {i} needs an integer {key!r} in "
                                 f"[0, {hi}), got {v!r}", offset=offset)
        if m["id"] in ids:
            raise ParseError(f"header sample {i} repeats sample id {m['id']}", offset=offset)
        ids.add(m["id"])


def load_dataset(path):
    r, header, header_at = _read_framed(path, DATASET_MAGIC)
    if header.get("kind") != "dataset":
        raise ParseError(f"not a dataset file: header kind {header.get('kind')!r}",
                         offset=header_at)
    try:
        spec = SyntheticSpec.from_dict(header["spec"])
        spec.validate()
        meta = header["samples"]
    except (KeyError, TypeError, ConfigError) as exc:
        raise ParseError(f"bad dataset header: {exc}", offset=header_at) from None
    _check_sample_meta(meta, spec, header_at)
    count_at, count = r.pos, r.u32("sample count")
    if count != len(meta):
        raise ParseError(
            f"sample count {count} does not match header list ({len(meta)})",
            offset=count_at)
    samples = []
    folds = np.empty(count, dtype=np.int64)
    for i in range(count):
        mask_len = r.u32("mask length")
        mask_at = r.pos
        mask_raw = r.take(mask_len, "tumor mask")
        grid_len = r.u32("grid blob length")
        grid_at = r.pos
        grid_raw = r.take(grid_len, "grid blob")
        try:
            grid = grid_from_bytes(grid_raw)
        except ParseError as exc:
            raise ParseError(f"sample {i}: {exc}", offset=grid_at) from None
        n = grid.features.shape[0]
        if mask_len != (n + 7) // 8:
            raise ParseError(
                f"sample {i}: mask has {mask_len} bytes for {n} nodes", offset=mask_at)
        mask = np.unpackbits(np.frombuffer(mask_raw, dtype=np.uint8),
                             count=n, bitorder="little").astype(bool)
        ratio = float(mask.sum()) / n
        m = meta[i]
        samples.append(Sample(
            sample_id=m["id"],
            grid=grid,
            label_type=m["type"],
            label_stage=m["stage"],
            tumor_mask=mask,
            tumor_ratio=ratio,
        ))
        folds[i] = m["fold"]
    r.expect_end()
    return Dataset(samples=samples, folds=folds, spec=spec)
