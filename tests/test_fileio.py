import dataclasses
import json
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from slidegt import fileio
from slidegt.data import Dataset, Sample, SyntheticSpec, generate
from slidegt.errors import CheckpointError, ContractError, ParseError
from slidegt.fileio import (load_checkpoint, load_dataset, load_embeddings, save_checkpoint,
                            save_dataset, save_embeddings)
from slidegt.graph import FeatureGrid
from slidegt.model import BranchConfig, ModelConfig, SlideGraphTransformer
from slidegt.pooling import POOL_KINDS
from test_model import small_config, small_graph


FIXTURE_SPEC = SyntheticSpec(samples=2, rows=3, cols=4, dim=2, seed=0,
                             region_radius=(0.5, 1.0), folds=2)
FIXTURE_FEATURES = np.arange(32, dtype=np.float64).reshape(16, 2) / 4 - 3  # f32-exact


def fixture_dataset():
    """Two 3x4 slides: 5 occupied cells (3 tumor), then 11 (9 tumor)."""
    occupancy = [np.array([[1, 0, 1, 1], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=bool),
                 np.arange(12).reshape(3, 4) < 11]
    masks = [np.array([1, 0, 0, 1, 1], dtype=bool), np.arange(11) < 9]
    features = [FIXTURE_FEATURES[:5], FIXTURE_FEATURES[5:]]
    samples = [Sample(sample_id=sid, label_type=sid, label_stage=1 - sid, tumor_mask=mask,
                      tumor_ratio=mask.mean(),
                      grid=FeatureGrid(rows=3, cols=4, occupancy=occ, features=feats))
               for sid, occ, mask, feats in zip((0, 1), occupancy, masks, features)]
    return Dataset(samples=samples, folds=np.array([1, 0]), spec=FIXTURE_SPEC)


def fixture_bytes():
    """The same file assembled by hand from the documented layout."""
    header = json.dumps({"kind": "dataset", "spec": FIXTURE_SPEC.to_dict(), "samples": [
        {"fold": 1, "id": 0, "stage": 1, "type": 0},
        {"fold": 0, "id": 1, "stage": 0, "type": 1},
    ]}, sort_keys=True, separators=(",", ":")).encode()
    out = b"MGTS" + struct.pack("<II", 2, len(header)) + header
    out += struct.pack("<I", 2)
    # sample 0: cells row-major 1011 0100 1000, packed LSB-first into 2 bytes
    out += bytes([0b00101101, 0b00000001])
    out += bytes([0b00011001])  # tumor bits 10011 over its 5 nodes
    out += struct.pack("<10f", *FIXTURE_FEATURES[:5].ravel())
    # sample 1: the first 11 of 12 cells, then tumor on its first 9 nodes
    out += bytes([0xFF, 0b00000111])
    out += bytes([0xFF, 0b00000001])
    out += struct.pack("<22f", *FIXTURE_FEATURES[5:].ravel())
    return out


def sample_starts(path):
    """The byte offset at which each sample of the dataset file at path starts."""
    at = 12 + struct.unpack_from("<I", path.read_bytes(), 8)[0] + 4  # past the count
    ds = load_dataset(path)
    starts = []
    for s in ds.samples:
        starts.append(at)
        n = s.tumor_mask.size
        at += (ds.spec.rows * ds.spec.cols + 7) // 8 + (n + 7) // 8 + 4 * n * ds.spec.dim
    return starts


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "fixture.mgts"
    path.write_bytes(fixture_bytes())
    return path


def test_dataset_writer_matches_hand_assembled_bytes(tmp_path):
    save_dataset(fixture_dataset(), tmp_path / "d.mgts")
    assert (tmp_path / "d.mgts").read_bytes() == fixture_bytes()


def test_dataset_reader_accepts_hand_assembled_bytes(fixture_path):
    back = load_dataset(fixture_path)
    ref = fixture_dataset()
    assert back.spec == ref.spec
    assert_array_equal(back.folds, ref.folds)
    for a, b in zip(back.samples, ref.samples):
        assert (a.sample_id, a.label_type, a.label_stage, a.tumor_ratio) == \
               (b.sample_id, b.label_type, b.label_stage, b.tumor_ratio)
        assert_array_equal(a.tumor_mask, b.tumor_mask)
        assert_array_equal(a.grid.occupancy, b.grid.occupancy)
        assert (a.grid.features == b.grid.features).all()  # exact f32-representable values


def test_grid_round_trip_is_bitwise_stable(tmp_path, fixture_path):
    """Each sample's three grid blocks are rewritten byte for byte after a load."""
    save_dataset(load_dataset(fixture_path), tmp_path / "d.mgts")
    assert (tmp_path / "d.mgts").read_bytes() == fixture_bytes()


def test_generated_features_round_trip_exactly(tmp_path):
    ds = generate(SyntheticSpec(samples=2, rows=8, cols=8, dim=4, seed=1,
                                region_radius=(1.0, 2.5), folds=2))
    save_dataset(ds, tmp_path / "d.mgts")
    for s, back in zip(ds.samples, load_dataset(tmp_path / "d.mgts").samples):
        assert back.grid.features.tobytes() == s.grid.features.tobytes()
        assert_array_equal(back.grid.occupancy, s.grid.occupancy)


def test_bad_magic_is_reported_at_offset_zero(fixture_path):
    fixture_path.write_bytes(b"XGTS" + fixture_bytes()[4:])
    with pytest.raises(ParseError, match=r"bad magic.*byte offset 0") as exc:
        load_dataset(fixture_path)
    assert exc.value.offset == 0


def test_version_one_dataset_is_rejected_at_its_version(fixture_path):
    buf = bytearray(fixture_bytes())
    struct.pack_into("<I", buf, 4, 1)
    fixture_path.write_bytes(bytes(buf))
    with pytest.raises(ParseError, match=r"^unsupported format version 1 \(byte offset 4\)$"):
        load_dataset(fixture_path)


def test_every_truncation_prefix_is_rejected(fixture_path):
    buf = fixture_bytes()
    for k in range(len(buf)):
        fixture_path.write_bytes(buf[:k])
        with pytest.raises(ParseError):
            load_dataset(fixture_path)


def test_trailing_bytes_are_rejected(fixture_path):
    fixture_path.write_bytes(fixture_bytes() + b"\x00")
    with pytest.raises(ParseError, match="trailing") as exc:
        load_dataset(fixture_path)
    assert exc.value.offset == len(fixture_bytes())


def test_popcount_mismatch_is_rejected(fixture_path):
    # the popcount sizes the blocks after the bitmap, so one cell more or less
    # in the last sample's bitmap leaves its features short or some bytes over
    at = sample_starts(fixture_path)[1]
    buf = bytearray(fixture_bytes())
    buf[at + 1] = 0b00001111  # 12 cells set: 96 feature bytes, 88 left
    fixture_path.write_bytes(bytes(buf))
    with pytest.raises(ParseError, match="truncated file: needed 96 bytes for feature block"):
        load_dataset(fixture_path)
    buf[at + 1] = 0b00000011  # 10 cells set: 80 feature bytes, 88 left
    fixture_path.write_bytes(bytes(buf))
    with pytest.raises(ParseError, match="trailing"):
        load_dataset(fixture_path)


def test_impossible_occupancy_count_is_rejected(fixture_path):
    at = sample_starts(fixture_path)[1]
    buf = bytearray(fixture_bytes())
    buf[at:at + 2] = b"\x00\x00"  # a slide with no tissue
    fixture_path.write_bytes(bytes(buf))
    with pytest.raises(ParseError, match="^sample 1: grid has no occupied cells") as exc:
        load_dataset(fixture_path)
    assert exc.value.offset == at


SIGNALLING_NAN = struct.pack("<I", 0x7FA00000)


def test_non_finite_features_are_rejected(fixture_path):
    # a signalling NaN must not warn while it is widened to float64
    at = sample_starts(fixture_path)[1]
    for bad in (struct.pack("<f", np.nan), struct.pack("<f", -np.inf), SIGNALLING_NAN):
        buf = bytearray(fixture_bytes())
        buf[-12:-8] = bad  # a feature of the last sample
        fixture_path.write_bytes(bytes(buf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=r"^sample 1: grid features contain "
                                                 r"non-finite values \(byte offset \d+\)$") as exc:
                load_dataset(fixture_path)
        assert exc.value.offset == at


# -------------------------------------------------------------- checkpoints


def trained_like_model(seed=0, **config):
    model = SlideGraphTransformer(small_config(head_init="random", **config), seed=seed)
    rng = np.random.default_rng(99)
    for _, t in model.state():
        t.data += rng.normal(0, 0.05, t.data.shape)
    return model


def test_checkpoint_restores_parameters_bitwise(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.mgtc"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.config == model.config
    for (na, pa), (nb, pb) in zip(model.state(), back.state()):
        assert na == nb
        assert (pa.data == pb.data).all()


@pytest.mark.parametrize("scheme", ["specific", "shared"])
@pytest.mark.parametrize("kind", POOL_KINDS)
def test_reloaded_model_reproduces_logits_bitwise(tmp_path, kind, scheme):
    # every pool's own parameters (gm's seeds and attention stacks, the
    # topk/sag scorer, the cluster weights) survive the round trip
    model = trained_like_model(seed=4, token_scheme=scheme, branches=(
        BranchConfig(task="typing", pooling=kind, tokens=3, pool_size=3),
        BranchConfig(task="staging", pooling="gcmincut", tokens=3, pool_size=2)))
    g = small_graph(8)
    path = tmp_path / "m.mgtc"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    out_a = model.forward(g, np.random.default_rng(5))
    out_b = back.forward(g, np.random.default_rng(5))
    for task in out_a.logits:
        assert (out_a.logits[task].data == out_b.logits[task].data).all()


def test_checkpoint_save_load_save_is_bitwise_stable(tmp_path):
    model = trained_like_model(seed=6)
    p1, p2 = tmp_path / "a.mgtc", tmp_path / "b.mgtc"
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_with_missing_parameter_is_rejected(tmp_path):
    model = trained_like_model()
    blobs = model.parameters()[:-1]
    header = {"kind": "checkpoint", "model": model.config.to_dict()}
    path = tmp_path / "bad.mgtc"
    fileio._write_container(path, fileio.CHECKPOINT_MAGIC, header,
                            [(n, p.data) for n, p in blobs])
    with pytest.raises(CheckpointError, match="missing"):
        load_checkpoint(path)


def test_checkpoint_with_tampered_shape_is_rejected(tmp_path):
    model = trained_like_model()
    blobs = [(n, p.data if n != "gcn.layer0.w" else p.data[:, :1])
             for n, p in model.parameters()]
    header = {"kind": "checkpoint", "model": model.config.to_dict()}
    path = tmp_path / "bad.mgtc"
    fileio._write_container(path, fileio.CHECKPOINT_MAGIC, header, blobs)
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_with_non_finite_weight_is_rejected(tmp_path, bad):
    model = trained_like_model()
    blobs = [(n, p.data.copy()) for n, p in model.parameters()]
    name, arr = blobs[0]
    arr.flat[1] = bad
    header = {"kind": "checkpoint", "model": model.config.to_dict()}
    path = tmp_path / "bad.mgtc"
    fileio._write_container(path, fileio.CHECKPOINT_MAGIC, header, blobs)
    with pytest.raises(CheckpointError, match=f"{name!r} holds non-finite"):
        load_checkpoint(path)


def test_checkpoint_with_wrong_kind_is_rejected(tmp_path):
    path = tmp_path / "bad.mgtc"
    fileio._write_container(path, fileio.CHECKPOINT_MAGIC, {"kind": "other"}, [])
    with pytest.raises(CheckpointError, match="not a model checkpoint"):
        load_checkpoint(path)


def _set_model(key, value):
    def mutate(model_dict):
        model_dict[key] = value
    return mutate


def _set_branch_tokens(model_dict):
    model_dict["branches"][0]["tokens"] = "3"


def _set_branch_pool_size(model_dict):
    model_dict["branches"][0]["pool_size"] = 4.0


@pytest.mark.parametrize("mutate", [
    _set_model("heads", "a"), _set_branch_tokens, _set_model("branches", []),
    _set_model("dim", 4.5), _set_model("dim", 4.0), _set_branch_pool_size,
    _set_model("scale_attention", "no"), _set_model("assign_softmax", "false"),
    _set_model("scale_attention", 0), _set_model("assign_softmax", None),
], ids=["heads-string", "tokens-string", "no-branches", "dim-fraction", "dim-float",
        "pool-size-float", "scale-string", "softmax-string", "scale-int", "softmax-null"])
def test_checkpoint_with_bad_config_values_is_rejected(tmp_path, mutate):
    model = trained_like_model()
    model_dict = model.config.to_dict()
    mutate(model_dict)
    path = tmp_path / "bad.mgtc"
    fileio._write_container(path, fileio.CHECKPOINT_MAGIC,
                            {"kind": "checkpoint", "model": model_dict},
                            [(n, p.data) for n, p in model.parameters()])
    with pytest.raises(CheckpointError, match="bad model config"):
        load_checkpoint(path)


def test_rank_three_blobs_round_trip(tmp_path):
    path = tmp_path / "stack.mgtc"
    stack = np.random.default_rng(7).normal(0, 1, (2, 3, 4))
    fileio._write_container(path, fileio.CHECKPOINT_MAGIC, {"kind": "x"},
                            [("s", stack), ("v", stack[0, 0])])
    header, blobs = fileio._read_container(path, fileio.CHECKPOINT_MAGIC)
    assert header == {"kind": "x"}
    assert blobs["s"].shape == (2, 3, 4) and blobs["s"].tobytes() == stack.tobytes()
    assert blobs["v"].tobytes() == stack[0, 0].tobytes()


def test_blob_rank_above_three_is_rejected(tmp_path):
    path = tmp_path / "rank.mgtc"
    body = struct.pack("<IH", 1, 1) + b"w" + struct.pack("<B4I", 4, *[1] * 4)
    fileio._write_framed(path, fileio.CHECKPOINT_MAGIC, {"kind": "checkpoint"},
                         body + struct.pack("<d", 0.0))
    with pytest.raises(ParseError, match="rank 4, expected at most 3") as exc:
        load_checkpoint(path)
    assert exc.value.offset == path.stat().st_size - 8 - 4 * 4 - 1


def test_per_head_checkpoint_layout_is_rejected(tmp_path):
    # the layout of checkpoints written before the weight stacks: one
    # (dim, head width) blob per head and role
    model = trained_like_model()
    blobs = []
    for name, p in model.parameters():
        prefix, role = name.rsplit(".", 1)
        if role in ("wq", "wk", "wv") and p.data.ndim == 3:
            blobs += [(f"{prefix}.head{i}.{role}", block) for i, block in enumerate(p.data)]
        else:
            blobs.append((name, p.data))
    header = {"kind": "checkpoint", "model": model.config.to_dict()}
    path = tmp_path / "per_head.mgtc"
    fileio._write_container(path, fileio.CHECKPOINT_MAGIC, header, blobs)
    with pytest.raises(CheckpointError, match=r"missing \[[^]]*'typing\.inject\.attn\.wq'"
                                              r".*extra \[[^]]*'typing\.inject\.attn\.head0\.wq'"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.mgtc"
    save_checkpoint(trained_like_model(), path)
    return path, path.read_bytes()


# bytes that keep the JSON header parseable more often than a uniform draw does
JSON_BYTES = st.sampled_from(b'0123456789"{}[],:-.eEtrufalsn ')


def corrupt(raw, data):
    """One truncation or one single-byte overwrite of a framed file, drawn by
    hypothesis.  Overwrites favour the JSON header and the framing just after
    it, and within the header its punctuation and the commas of number lists,
    where one byte changes the header's structure or a list's length."""
    header_end = 12 + struct.unpack("<I", raw[8:12])[0]
    if data.draw(st.booleans(), label="truncate"):
        return raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    punctuation = [i for i in range(12, header_end) if raw[i] in b",:[]{}"]
    offsets = (st.integers(0, header_end + 40) | st.integers(0, len(raw) - 1)
               | st.sampled_from(punctuation))
    digits = b"0123456789"
    separators = [i for i in punctuation
                  if raw[i] == ord(",") and raw[i - 1] in digits and raw[i + 1] in digits]
    if separators:
        offsets |= st.sampled_from(separators)
    at = data.draw(offsets, label="offset")
    byte = data.draw(JSON_BYTES | st.integers(0, 255), label="byte")
    return raw[:at] + bytes([byte]) + raw[at + 1:]


@settings(max_examples=150)
@given(data=st.data())
def test_corrupt_checkpoint_loads_or_raises_a_typed_error(checkpoint_file, data):
    path, raw = checkpoint_file
    path.write_bytes(corrupt(raw, data))
    try:
        load_checkpoint(path)
    except (ParseError, CheckpointError):
        pass


@pytest.fixture(scope="module")
def embeddings_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "e.mgte"
    rng = np.random.default_rng(1)
    save_embeddings(path, small_config(), [(3, "typing", rng.normal(0, 1, (4, 8))),
                                           (3, "staging", rng.normal(0, 1, (2, 8)))])
    return path, path.read_bytes()


@settings(max_examples=150)
@given(data=st.data())
def test_corrupt_embeddings_load_or_raise_a_typed_error(embeddings_file, data):
    path, raw = embeddings_file
    path.write_bytes(corrupt(raw, data))
    try:
        load_embeddings(path)
    except ParseError:
        pass


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "d.mgts"
    save_dataset(generate(SyntheticSpec(samples=2, rows=6, cols=6, dim=2, seed=1,
                                        region_radius=(1.0, 2.0), folds=2)), path)
    return path, path.read_bytes()


@settings(max_examples=300)
@given(data=st.data())
def test_corrupt_dataset_loads_or_raises_a_typed_error(dataset_file, data):
    path, raw = dataset_file
    path.write_bytes(corrupt(raw, data))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            load_dataset(path)
        except ParseError:
            pass


def write_non_object_header(path, magic):
    """A container or dataset file whose JSON header is the list [1]."""
    raw = b"[1]"
    path.write_bytes(magic + struct.pack("<II", fileio.FORMAT_VERSIONS[magic], len(raw)) + raw
                     + struct.pack("<I", 0))


@pytest.mark.parametrize("magic, reader", [
    (fileio.DATASET_MAGIC, load_dataset),
    (fileio.CHECKPOINT_MAGIC, load_checkpoint),
    (fileio.EMBEDDINGS_MAGIC, load_embeddings),
], ids=["dataset", "checkpoint", "embeddings"])
def test_non_object_json_header_is_rejected(tmp_path, magic, reader):
    path = tmp_path / "list_header.bin"
    write_non_object_header(path, magic)
    with pytest.raises(ParseError, match="JSON header is not an object") as exc:
        reader(path)
    assert exc.value.offset == 12  # the JSON header


def test_checkpoint_version_gate(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.mgtc"
    save_checkpoint(model, path)
    buf = bytearray(path.read_bytes())
    struct.pack_into("<I", buf, 4, 99)
    path.write_bytes(bytes(buf))
    with pytest.raises(ParseError, match="version"):
        load_checkpoint(path)


# --------------------------------------------------------------- embeddings


def test_embeddings_round_trip(tmp_path):
    cfg = small_config()
    rng = np.random.default_rng(0)
    entries = [(3, "typing", rng.normal(0, 1, (5, 8))),
               (3, "staging", rng.normal(0, 1, (5, 8))),
               (12, "typing", rng.normal(0, 1, (2, 8)))]
    path = tmp_path / "e.mgte"
    save_embeddings(path, cfg, entries)
    header, blobs = load_embeddings(path)
    assert header["kind"] == "embeddings"
    assert header["samples"] == [3, 12]
    assert set(blobs) == {"sample_00003/typing", "sample_00003/staging",
                          "sample_00012/typing"}
    for sid, task, arr in entries:
        assert (blobs[f"sample_{sid:05d}/{task}"] == arr).all()


def test_embeddings_reject_checkpoint_files(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.mgtc"
    save_checkpoint(model, path)
    with pytest.raises(ParseError, match="bad magic"):
        load_embeddings(path)


# ----------------------------------------------------------------- datasets


@pytest.fixture(scope="module")
def tiny_ds():
    return generate(SyntheticSpec(samples=6, rows=8, cols=8, dim=4, seed=2,
                                  region_radius=(1.0, 2.5), folds=3))


def test_dataset_round_trip_preserves_everything(tmp_path, tiny_ds):
    path = tmp_path / "d.mgts"
    save_dataset(tiny_ds, path)
    back = load_dataset(path)
    assert back.spec == tiny_ds.spec
    assert_array_equal(back.folds, tiny_ds.folds)
    for a, b in zip(tiny_ds.samples, back.samples):
        assert (a.sample_id, a.label_type, a.label_stage) == \
               (b.sample_id, b.label_type, b.label_stage)
        assert_array_equal(a.tumor_mask, b.tumor_mask)
        assert a.tumor_ratio == b.tumor_ratio  # recomputed from the mask
        assert (a.grid.features == b.grid.features).all()
        assert_array_equal(a.grid.occupancy, b.grid.occupancy)


def test_dataset_save_load_save_is_bitwise_stable(tmp_path, tiny_ds):
    p1, p2 = tmp_path / "a.mgts", tmp_path / "b.mgts"
    save_dataset(tiny_ds, p1)
    save_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_with_corrupt_sample_names_it(tmp_path, tiny_ds):
    path = tmp_path / "d.mgts"
    save_dataset(tiny_ds, path)
    at = sample_starts(path)[0]
    buf = bytearray(path.read_bytes())
    buf[at:at + 8] = bytes(8)  # sample 0's occupancy bitmap, emptied
    path.write_bytes(bytes(buf))
    with pytest.raises(ParseError, match="^sample 0: grid has no occupied cells") as exc:
        load_dataset(path)
    assert exc.value.offset == at


def empty_dataset(ds):
    """ds with every sample removed."""
    return replace(ds, samples=[], folds=ds.folds[:0])


def narrowed_dataset(ds, i):
    """ds whose sample i has lost its last feature column."""
    samples = list(ds.samples)
    grid = samples[i].grid
    samples[i] = replace(samples[i], grid=replace(grid, features=grid.features[:, :-1]))
    return replace(ds, samples=samples)


def test_dataset_with_no_samples_is_rejected(tmp_path, tiny_ds):
    path = tmp_path / "d.mgts"
    save_dataset(empty_dataset(tiny_ds), path)
    with pytest.raises(ParseError, match=r"^dataset has no samples \(byte offset \d+\)$"):
        load_dataset(path)


def cut_dataset(ds, count):
    """ds cut to its first count samples, its header spec unchanged."""
    return replace(ds, samples=ds.samples[:count], folds=ds.folds[:count])


def test_dataset_with_fewer_samples_than_its_spec_is_rejected(tmp_path, tiny_ds):
    path = tmp_path / "d.mgts"
    save_dataset(cut_dataset(tiny_ds, 3), path)
    with pytest.raises(ParseError, match=r"^sample count 3, spec says 6 \(byte offset \d+\)$") as exc:
        load_dataset(path)
    at = exc.value.offset
    assert path.read_bytes()[at:at + 4] == (3).to_bytes(4, "little")  # the count's


def taller_dataset(ds, i):
    """ds whose sample i has one more grid row, left unoccupied."""
    samples = list(ds.samples)
    grid = samples[i].grid
    occupancy = np.vstack([grid.occupancy, np.zeros((1, grid.cols), dtype=bool)])
    samples[i] = replace(samples[i], grid=replace(grid, rows=grid.rows + 1,
                                                  occupancy=occupancy))
    return replace(ds, samples=samples)


def short_mask_dataset(ds, i):
    """ds whose sample i has lost its last tumor bit."""
    samples = list(ds.samples)
    samples[i] = replace(samples[i], tumor_mask=samples[i].tumor_mask[:-1])
    return replace(ds, samples=samples)


@pytest.mark.parametrize("misfit, message", [
    (narrowed_dataset, "^sample 2: 8x8 grid, feature width 3 and"),
    (taller_dataset, "^sample 2: 9x8 grid, feature width 4 and"),
    (short_mask_dataset, r"^sample 2: 8x8 grid, feature width 4 and \d+ tumor bits do not fit"),
], ids=["narrow", "tall", "short-mask"])
def test_save_dataset_refuses_a_sample_that_does_not_fit_its_spec(tmp_path, tiny_ds, misfit,
                                                                  message):
    # the reader sizes every block by the spec, so such a file would misparse
    path = tmp_path / "d.mgts"
    with pytest.raises(ContractError, match=message):
        save_dataset(misfit(tiny_ds, 2), path)
    assert not path.exists()


def rewrite_dataset_header(path, mutate):
    """Apply mutate to the JSON header of the dataset file at path, in place."""
    buf = path.read_bytes()
    (length,) = struct.unpack_from("<I", buf, 8)
    header = json.loads(buf[12:12 + length])
    mutate(header)
    raw = json.dumps(header).encode()
    path.write_bytes(buf[:8] + struct.pack("<I", len(raw)) + raw + buf[12 + length:])


def _mutate_sample(i, key, value):
    def mutate(header):
        header["samples"][i][key] = value
    return mutate


def _drop_stage(header):
    del header["samples"][0]["stage"]


def _mutate_spec(key, value):
    def mutate(header):
        header["spec"][key] = value
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_drop_stage, r"integer 'stage' in \[0, 2\), got None"),
    (_mutate_sample(1, "type", 7), r"integer 'type' in \[0, 2\), got 7"),
    (_mutate_sample(0, "stage", -1), r"integer 'stage' in \[0, 2\), got -1"),
    (_mutate_sample(2, "type", "1"), r"integer 'type' .* got '1'"),
    (_mutate_sample(0, "fold", 1.0), r"integer 'fold' .* got 1.0"),
    (_mutate_sample(0, "stage", True), r"integer 'stage' .* got True"),
    (_mutate_sample(0, "fold", -1), r"integer 'fold' in \[0, 3\), got -1"),
    (_mutate_sample(3, "fold", 3), r"sample 3 needs an integer 'fold' in \[0, 3\), got 3"),
    (_mutate_sample(4, "id", -2), r"integer 'id' in \[0, inf\), got -2"),
    (_mutate_sample(4, "id", 0), "sample 4 repeats sample id 0"),
    (_mutate_spec("folds", "x"), "bad dataset header"),
    (_mutate_spec("folds", 0), "bad dataset header: folds must be in"),
    (_mutate_spec("region_count", [1.3]),
     r"bad dataset header: region_count must be two integers, got \(1.3,\)"),
    (_mutate_spec("region_radius", [1.0, 2.0, 3.0]), "region_radius must be two finite"),
    (_mutate_spec("region_count", [1, "3"]), "region_count must be two integers"),
    (_mutate_spec("noise_std", float("nan")), "bad dataset header: noise_std must be finite"),
    (_mutate_spec("archetype_scale", float("inf")),
     "bad dataset header: archetype_scale must be finite"),
    (_mutate_spec("folds", 3.0),
     "bad dataset header: dataset spec field 'folds' must be an integer, got 3.0"),
    (_mutate_spec("rows", 8.5), "dataset spec field 'rows' must be an integer, got 8.5"),
    (_mutate_spec("seed", "x"), "dataset spec field 'seed' must be an integer, got 'x'"),
    (_mutate_spec("samples", 6.0), "dataset spec field 'samples' must be an integer"),
    (_mutate_spec("region_count", [1.0, 3]), "region_count must be two integers"),
], ids=["missing-stage", "type-7", "stage-negative", "type-string", "fold-float",
        "stage-bool", "fold-negative", "fold-too-large", "negative-id", "duplicate-id",
        "spec-folds-string", "spec-folds-zero", "spec-region-count-single",
        "spec-region-radius-triple", "spec-region-count-string", "spec-noise-nan",
        "spec-archetype-scale-inf", "spec-folds-float", "spec-rows-fraction",
        "spec-seed-string", "spec-samples-float", "spec-region-count-float"])
def test_dataset_header_sample_entries_are_validated(tmp_path, tiny_ds, mutate,
                                                     message):
    path = tmp_path / "d.mgts"
    save_dataset(tiny_ds, path)
    rewrite_dataset_header(path, mutate)
    with pytest.raises(ParseError, match=message) as exc:
        load_dataset(path)
    assert exc.value.offset == 12  # the JSON header


SPEC_INT_FIELDS = ("samples", "rows", "cols", "dim", "seed", "folds")
json_values = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.text(max_size=4), st.none(),
    st.lists(st.one_of(st.integers(-2, 12), st.floats(-2.0, 12.0), st.booleans(),
                       st.text(max_size=2)), max_size=3))


@settings(max_examples=150)
@given(field=st.sampled_from([f.name for f in dataclasses.fields(SyntheticSpec)]),
       value=json_values)
def test_any_json_value_in_a_spec_field_loads_or_raises_parse_error(
        tiny_ds, tmp_path_factory, field, value):
    path = tmp_path_factory.getbasetemp() / "spec_field.mgts"
    save_dataset(tiny_ds, path)
    rewrite_dataset_header(path, _mutate_spec(field, value))
    try:
        spec = load_dataset(path).spec
    except ParseError:
        return
    assert all(type(getattr(spec, name)) is int for name in SPEC_INT_FIELDS)
    assert all(type(v) is int for v in spec.region_count)


def test_dataset_truncation_is_rejected(tmp_path, tiny_ds):
    path = tmp_path / "d.mgts"
    save_dataset(tiny_ds, path)
    buf = path.read_bytes()
    for k in (0, 3, 7, len(buf) // 2, len(buf) - 1):
        path.write_bytes(buf[:k])
        with pytest.raises(ParseError):
            load_dataset(path)


class _Unwritable:
    """A part that fh.write rejects, after the parts before it are written."""


def test_a_failed_write_keeps_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "model.mgtc"
    path.write_bytes(b"old contents\n")
    with pytest.raises(TypeError):
        fileio.write_atomic(path, b"new contents, first part", _Unwritable())
    assert path.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["model.mgtc"]
    fileio.write_atomic(path, b"new ", b"contents")
    assert path.read_bytes() == b"new contents"
    assert [p.name for p in tmp_path.iterdir()] == ["model.mgtc"]


def test_a_checkpoint_that_fails_to_land_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "run0_fold0.mgtc"
    path.write_bytes(b"old checkpoint")

    def no_space(src, dst):
        raise OSError("No space left on device")

    monkeypatch.setattr(fileio.os, "replace", no_space)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(SlideGraphTransformer(small_config(), seed=0), path)
    assert path.read_bytes() == b"old checkpoint"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_parse_error_carries_offset():
    err = ParseError("boom", offset=17)
    assert err.offset == 17
    assert "byte offset 17" in str(err)
