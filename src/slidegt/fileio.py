"""Binary file formats: datasets, checkpoints, embedding dumps.

All integers are little-endian.  Checkpoints ("MGTC"), embedding dumps
("MGTE") and datasets ("MGTS") share one framing: magic, u32 format version,
u32 header length and a JSON header.  Checkpoints and embedding dumps (version
1) follow it with length-prefixed named float64 blobs of rank at most 3.

Datasets (version 2) hold labels, fold ids and the generating spec in the
header, then a u32 sample count and, per sample, three blocks with no length
prefixes, each sized by the spec:

- the occupancy bitmap, ceil(rows*cols/8) bytes: row-major cells, LSB-first
  within each byte;
- the tumor bitmap, ceil(n/8) bytes, one bit per occupied cell in the same
  order and packing, where n is the occupancy bitmap's popcount;
- n*dim float32 features, one row per occupied cell.

Version-1 datasets, whose samples held a length-prefixed tumor mask and a
length-prefixed "MGT1" grid blob, are rejected; ``slidegt synth`` with the
spec fields of the old file's header writes the same slides again.

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
from .errors import CheckpointError, ConfigError, ContractError, ParseError
from .graph import FeatureGrid

CHECKPOINT_MAGIC = b"MGTC"
EMBEDDINGS_MAGIC = b"MGTE"
DATASET_MAGIC = b"MGTS"
FORMAT_VERSIONS = {CHECKPOINT_MAGIC: 1, EMBEDDINGS_MAGIC: 1, DATASET_MAGIC: 2}


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

    def bits(self, count, what):
        """count bits packed LSB-first into ceil(count / 8) bytes, as bools."""
        raw = np.frombuffer(self.take((count + 7) // 8, what), dtype=np.uint8)
        return np.unpackbits(raw, count=count, bitorder="little").astype(bool)

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
    write_atomic(path, magic + struct.pack("<II", FORMAT_VERSIONS[magic], len(header_raw))
                 + header_raw, body)


def _read_framed(path, magic):
    """Check a file's framing; returns (reader past the header, header, header offset)."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    r.expect_magic(magic)
    version_at, version = r.pos, r.u32("format version")
    if version != FORMAT_VERSIONS[magic]:
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
        if ndim > 3:  # writers store vectors, matrices and weight stacks only
            raise ParseError(f"blob {name!r} has rank {ndim}, expected at most 3",
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
    blobs = [(name, tensor.data) for name, tensor in model.state()]
    _write_container(path, CHECKPOINT_MAGIC, header, blobs)


def load_checkpoint(path):
    """Rebuild a model from a checkpoint; its blobs must name exactly ``state()``."""
    from .model import ModelConfig, SlideGraphTransformer

    header, blobs = _read_container(path, CHECKPOINT_MAGIC)
    if header.get("kind") != "checkpoint" or "model" not in header:
        raise CheckpointError(f"not a model checkpoint: header {header}")
    try:  # from_dict raises KeyError or TypeError on a missing, unknown or non-dict field
        model = SlideGraphTransformer(ModelConfig.from_dict(header["model"]), seed=0)
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"bad model config in checkpoint: {exc}") from None
    state = model.state()
    expected = {name for name, _ in state}
    found = set(blobs)
    if expected != found:
        missing = sorted(expected - found)
        extra = sorted(found - expected)
        raise CheckpointError(
            f"parameter names do not match config: missing {missing}, extra {extra}")
    for name, tensor in state:
        blob = blobs[name]
        if blob.shape != tensor.data.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {blob.shape}, expected {tensor.data.shape}")
        if not np.isfinite(blob).all():
            raise CheckpointError(f"parameter {name!r} holds non-finite values")
        tensor.data[...] = blob
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
    """Write dataset; every sample must have the spec's grid shape and feature
    width and one tumor bit per node, since the reader sizes its blocks by them."""
    spec = dataset.spec
    meta = [{"id": s.sample_id, "type": s.label_type, "stage": s.label_stage,
             "fold": int(dataset.folds[i])}
            for i, s in enumerate(dataset.samples)]
    header = {"kind": "dataset", "spec": spec.to_dict(), "samples": meta}
    out = bytearray(struct.pack("<I", len(dataset.samples)))
    for i, sample in enumerate(dataset.samples):
        grid = sample.grid
        n, dim = grid.features.shape
        if (grid.rows, grid.cols, dim, sample.tumor_mask.shape) != (
                spec.rows, spec.cols, spec.dim, (n,)):
            raise ContractError(
                f"sample {i}: {grid.rows}x{grid.cols} grid, feature width {dim} and "
                f"{sample.tumor_mask.size} tumor bits do not fit the spec's "
                f"{spec.rows}x{spec.cols} grid, width {spec.dim} and {n} nodes")
        out += np.packbits(grid.occupancy, axis=None, bitorder="little").tobytes()
        out += np.packbits(sample.tumor_mask, bitorder="little").tobytes()
        out += grid.features.astype("<f4").tobytes()
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
    if count == 0:
        raise ParseError("dataset has no samples", offset=count_at)
    if count != spec.samples:
        raise ParseError(f"sample count {count}, spec says {spec.samples}", offset=count_at)
    samples = []
    folds = np.empty(count, dtype=np.int64)
    cells = spec.rows * spec.cols
    for i in range(count):
        sample_at = r.pos
        occupancy = r.bits(cells, "occupancy bitmap")
        n = int(occupancy.sum())
        mask = r.bits(n, "tumor bitmap")
        raw = r.take(n * spec.dim * 4, "feature block")
        with np.errstate(invalid="ignore"):  # a signalling NaN is FeatureGrid's to reject
            features = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        try:
            grid = FeatureGrid(rows=spec.rows, cols=spec.cols,
                               occupancy=occupancy.reshape(spec.rows, spec.cols),
                               features=features.reshape(n, spec.dim))
        except ContractError as exc:  # shapes come from the spec, so never DimensionError
            raise ParseError(f"sample {i}: {exc}", offset=sample_at) from None
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
