import json

import numpy as np
import pytest

from slidegt import cli, fileio
from slidegt.cli import main
from slidegt.fileio import load_dataset, load_embeddings
from slidegt.graph import build_graph
from slidegt.tensor import constant, no_grad
from slidegt.train import evaluate
from test_fileio import _mutate_spec, rewrite_dataset_header, write_non_object_header

SYNTH = ["synth", "--samples", "8", "--rows", "10", "--cols", "10",
         "--dim", "4", "--seed", "3", "--radius", "1.0", "2.5",
         "--folds", "2", "--noise", "0.5"]

TRAIN_FLAGS = ["--epochs", "1", "--batch-size", "4", "--lr", "1e-3",
               "--folds", "2", "--runs", "1", "--gcn-layers", "1",
               "--heads", "2", "--transformer-depth", "1",
               "--latent-tokens", "3", "--drop-keep", "6", "--clusters", "2",
               "--eval-drop-seeds", "2"]


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ds.mgts"
    assert main(SYNTH + ["--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def checkpoint(data_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    assert main(["train", "--data", str(data_path), "--out", str(out)]
                + TRAIN_FLAGS) == 0
    return out / "checkpoints" / "run0_fold0.mgtc"


def test_synth_writes_a_loadable_dataset(data_path, capsys):
    ds = load_dataset(data_path)
    assert len(ds.samples) == 8
    assert ds.spec.dim == 4


def test_full_pipeline_train_eval_export(data_path, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data_path), "--out", str(out)]
              + TRAIN_FLAGS)
    assert rc == 0
    printed = capsys.readouterr().out
    assert "typing" in printed and "staging" in printed
    assert (out / "metrics.jsonl").exists()
    assert (out / "summary.json").exists()
    assert (out / "manifest.json").exists()
    ck = out / "checkpoints" / "run0_fold0.mgtc"
    assert ck.exists()

    metrics_json = tmp_path / "metrics.json"
    rc = main(["eval", "--checkpoint", str(ck), "--data", str(data_path),
               "--fold", "0", "--eval-drop-seeds", "2",
               "--out", str(metrics_json)])
    assert rc == 0
    results = json.loads(metrics_json.read_text())
    assert set(results) == {"typing", "staging"}
    assert 0.0 <= results["typing"]["acc"] <= 1.0

    emb_path = tmp_path / "emb.mgte"
    rc = main(["export-embeddings", "--checkpoint", str(ck),
               "--data", str(data_path), "--out", str(emb_path),
               "--samples", "0", "3"])
    assert rc == 0
    header, blobs = load_embeddings(emb_path)
    assert header["samples"] == [0, 3]
    assert "sample_00000/typing" in blobs
    assert blobs["sample_00003/staging"].shape[1] == 4  # model width


def test_exported_embeddings_equal_the_refined_rows_of_a_forward(data_path, checkpoint,
                                                                 tmp_path):
    emb_path = tmp_path / "emb.mgte"
    assert main(["export-embeddings", "--checkpoint", str(checkpoint),
                 "--data", str(data_path), "--out", str(emb_path),
                 "--samples", "1", "4"]) == 0
    _, blobs = load_embeddings(emb_path)
    model = fileio.load_checkpoint(checkpoint)
    by_id = {s.sample_id: s for s in load_dataset(data_path).samples}
    assert len(blobs) == 2 * len(model.branches)
    for sid in (1, 4):
        graph = build_graph(by_id[sid].grid)
        trunk = model.trunk(graph)  # the tape is on, as in training
        for task, branch in model.branches.items():
            assert np.array_equal(blobs[f"sample_{sid:05d}/{task}"],
                                  branch.inject(trunk, branch.bank).data)
        # a no-tape forward injects only its kept typing rows; the exported
        # rows at those indices read out to the same logits
        with no_grad():
            out = model.forward(graph, np.random.default_rng(sid))
            typing = model.branches["typing"]
            rows = blobs[f"sample_{sid:05d}/typing"][out.aux["typing"]["kept"]]
            logits = typing.head(constant(rows)).data
        assert np.array_equal(logits, out.logits["typing"].data)


def test_eval_fold_builds_graphs_only_for_the_scored_slides(data_path, checkpoint,
                                                           tmp_path, monkeypatch):
    built = []

    def counting_build_graph(grid):
        built.append(grid)
        return build_graph(grid)

    monkeypatch.setattr(cli, "build_graph", counting_build_graph)
    out = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data_path),
                 "--fold", "0", "--eval-drop-seeds", "2", "--out", str(out)]) == 0
    dataset = load_dataset(data_path)
    indices = np.nonzero(dataset.folds == 0)[0]
    assert len(built) == len(indices) == 4
    # the same file as scoring with a graph for every slide of the dataset
    graphs = [build_graph(s.grid) for s in dataset.samples]
    every = evaluate(fileio.load_checkpoint(checkpoint), graphs, dataset.samples,
                     indices, 2)
    fileio.write_json(tmp_path / "every.json", every)
    assert out.read_bytes() == (tmp_path / "every.json").read_bytes()


def test_gradcheck_command_passes_on_a_tiny_model(capsys):
    rc = main(["gradcheck", "--nodes", "6", "--dim", "4", "--gcn-layers", "1",
               "--heads", "2", "--tokens", "2", "--keep", "2",
               "--clusters", "2", "--depth", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "worst relative error" in out


@pytest.mark.parametrize("flags, message", [
    (["--nodes", "-1"], "gradcheck needs at least one node"),
    (["--nodes", "0"], "gradcheck needs at least one node"),
    (["--step", "0"], "finite-difference step must be finite and > 0"),
    (["--step", "nan"], "finite-difference step must be finite and > 0"),
], ids=["nodes-negative", "nodes-zero", "step-zero", "step-nan"])
def test_gradcheck_rejects_bad_nodes_and_step(flags, message, capsys):
    rc = main(["gradcheck", "--nodes", "6", "--dim", "4", "--gcn-layers", "1",
               "--tokens", "2", "--keep", "2"] + flags)
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_non_object_dataset_header_exits_one(tmp_path, capsys):
    path = tmp_path / "list_header.mgts"
    write_non_object_header(path, fileio.DATASET_MAGIC)
    rc = main(["train", "--data", str(path)] + TRAIN_FLAGS)
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: JSON header is not an object" in err
    assert "Traceback" not in err


def test_dataset_with_a_malformed_spec_range_exits_one(data_path, tmp_path, capsys):
    path = tmp_path / "bad_range.mgts"
    path.write_bytes(data_path.read_bytes())
    rewrite_dataset_header(path, _mutate_spec("region_count", [1.3]))
    rc = main(["train", "--data", str(path)] + TRAIN_FLAGS)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad dataset header: region_count must be two finite")
    assert err.count("\n") == 1 and "Traceback" not in err


def eval_with_config(checkpoint, data_path, tmp_path, mutate):
    """Run ``slidegt eval`` on a copy of checkpoint whose model dict is mutated."""
    model = fileio.load_checkpoint(checkpoint)
    model_dict = model.config.to_dict()
    mutate(model_dict)
    path = tmp_path / "bad.mgtc"
    fileio._write_container(path, fileio.CHECKPOINT_MAGIC,
                            {"kind": "checkpoint", "model": model_dict},
                            [(n, p.data) for n, p in model.parameters()])
    return main(["eval", "--checkpoint", str(path), "--data", str(data_path)])


def test_checkpoint_with_a_bad_config_exits_one(data_path, checkpoint, tmp_path, capsys):
    rc = eval_with_config(checkpoint, data_path, tmp_path,
                          lambda d: d.update(heads="a"))
    assert rc == 1
    assert "error: bad model config in checkpoint" in capsys.readouterr().err


def test_checkpoint_with_a_float_pool_size_exits_one(data_path, checkpoint, tmp_path,
                                                     capsys):
    rc = eval_with_config(checkpoint, data_path, tmp_path,
                          lambda d: d["branches"][0].update(pool_size=4.0))
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: bad model config in checkpoint" in err and "'pool_size'" in err
    assert "Traceback" not in err


def test_unknown_pooling_kind_exits_one(data_path, capsys):
    rc = main(["train", "--data", str(data_path), "--typing-pool", "mean"]
              + TRAIN_FLAGS)
    assert rc == 1
    assert "unknown pooling kind" in capsys.readouterr().err


def test_missing_dataset_file_exits_one(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.mgts")] + TRAIN_FLAGS)
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_worker_cap_exits_one(data_path, monkeypatch, capsys):
    monkeypatch.setenv("SLIDEGT_WORKERS", "two")
    rc = main(["train", "--data", str(data_path)] + TRAIN_FLAGS)
    assert rc == 1
    assert "SLIDEGT_WORKERS must be an integer, got 'two'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [
    ("--lr", "nan", "lr"), ("--lr", "inf", "lr"), ("--w-typing", "inf", "weights.typing"),
    ("--w-staging", "-inf", "weights.staging"), ("--w-mincut", "nan", "weights.mincut"),
])
def test_non_finite_training_numbers_exit_one_before_any_fold(data_path, monkeypatch,
                                                              capsys, flag, value, field):
    import slidegt.train as tr

    def no_fold(*args, **kwargs):
        raise AssertionError("a fold ran before the config was checked")

    monkeypatch.setattr(tr, "_run_fold", no_fold)
    rc = main(["train", "--data", str(data_path)] + TRAIN_FLAGS + [f"{flag}={value}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be finite")
    assert "Traceback" not in err


def test_eval_rejects_mismatched_checkpoint(data_path, tmp_path, capsys):
    other = tmp_path / "wide.mgts"
    assert main(["synth", "--samples", "4", "--rows", "10", "--cols", "10",
                 "--dim", "6", "--seed", "1", "--radius", "1.0", "2.5",
                 "--folds", "2", "--out", str(other)]) == 0
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_path), "--out", str(out)]
                + TRAIN_FLAGS) == 0
    ck = out / "checkpoints" / "run0_fold0.mgtc"
    rc = main(["eval", "--checkpoint", str(ck), "--data", str(other)])
    assert rc == 1
    assert "feature width" in capsys.readouterr().err


def test_eval_rejects_empty_fold(data_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_path), "--out", str(out)]
                + TRAIN_FLAGS) == 0
    ck = out / "checkpoints" / "run0_fold0.mgtc"
    rc = main(["eval", "--checkpoint", str(ck), "--data", str(data_path),
               "--fold", "9"])
    assert rc == 1
    assert "has no samples" in capsys.readouterr().err


def test_ablate_runs_the_paradigm_axis(data_path, tmp_path, capsys):
    out = tmp_path / "ab"
    rc = main(["ablate", "--axis", "paradigm", "--data", str(data_path),
               "--out", str(out)] + TRAIN_FLAGS + ["--epochs", "3"])
    assert rc == 0
    printed = capsys.readouterr().out
    for name in ("multi", "single_type", "single_stage"):
        assert f"variant: {name}" in printed
    lines = (out / "ablation.jsonl").read_text().strip().split("\n")
    assert {json.loads(l)["variant"] for l in lines} == \
           {"multi", "single_type", "single_stage"}
    acc = {name: json.loads((out / name / "summary.json").read_text())["staging"]["acc_mean"]
           for name in ("multi", "single_stage")}
    delta = acc["multi"] - acc["single_stage"]
    assert printed.strip().split("\n")[-1] == \
           f"staging acc, multi minus single: {delta:+.4f}"
    rc = main(["ablate", "--axis", "tokens", "--data", str(data_path)] + TRAIN_FLAGS)
    assert rc == 0
    printed = capsys.readouterr().out
    assert "variant: shared" in printed and "multi minus single" not in printed


def test_directory_given_as_a_file_exits_one(data_path, tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path)] + TRAIN_FLAGS) == 1
    assert "error:" in capsys.readouterr().err
    rc = main(["export-embeddings", "--checkpoint", str(tmp_path),
               "--data", str(data_path), "--out", str(tmp_path / "emb.mgte")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_train_with_an_empty_fold_exits_one_and_writes_nothing(data_path, tmp_path,
                                                              capsys):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data_path), "--out", str(out)]
              + TRAIN_FLAGS + ["--folds", "9"])
    assert rc == 1
    assert "error: fold 8 is empty: 9 folds over 8 samples" in capsys.readouterr().err
    assert not out.exists()


def test_eval_out_on_a_directory_exits_one_and_leaves_no_temp_file(data_path, checkpoint,
                                                                   tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    rc = main(["eval", "--checkpoint", str(checkpoint), "--data", str(data_path),
               "--eval-drop-seeds", "2", "--out", str(target)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_train_out_on_a_file_exits_one_before_any_fold(data_path, tmp_path,
                                                       monkeypatch, capsys):
    import slidegt.train as tr

    def no_fold(*args, **kwargs):
        raise AssertionError("a fold ran before the output path was checked")

    monkeypatch.setattr(tr, "_run_fold", no_fold)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    rc = main(["train", "--data", str(data_path), "--out", str(blocker)] + TRAIN_FLAGS)
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_eval_rejects_fewer_than_one_drop_seed(data_path, checkpoint, seeds, capsys):
    rc = main(["eval", "--checkpoint", str(checkpoint), "--data", str(data_path),
               "--eval-drop-seeds", seeds])
    assert rc == 1
    assert "error: eval_drop_seeds must be >= 1" in capsys.readouterr().err


def test_export_rejects_a_repeated_sample_id(data_path, checkpoint, tmp_path, capsys):
    emb_path = tmp_path / "emb.mgte"
    rc = main(["export-embeddings", "--checkpoint", str(checkpoint),
               "--data", str(data_path), "--out", str(emb_path),
               "--samples", "3", "0", "3"])
    assert rc == 1
    assert "error: sample id 3 is given more than once" in capsys.readouterr().err
    assert not emb_path.exists()


def test_export_rejects_an_empty_sample_list(data_path, checkpoint, tmp_path, capsys):
    emb_path = tmp_path / "emb.mgte"
    rc = main(["export-embeddings", "--checkpoint", str(checkpoint),
               "--data", str(data_path), "--out", str(emb_path), "--samples"])
    assert rc == 1
    assert "error: --samples needs at least one sample id" in capsys.readouterr().err
    assert not emb_path.exists()
