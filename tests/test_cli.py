import json
import shlex
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from slidegt import cli, fileio
from slidegt.cli import main
from slidegt.fileio import load_dataset, load_embeddings
from slidegt.graph import build_graph
from slidegt.model import ModelConfig
from slidegt.tensor import constant, no_grad
from slidegt.train import TrainConfig, evaluate
from test_fileio import (SIGNALLING_NAN, _mutate_spec, cut_dataset, empty_dataset,
                         rewrite_dataset_header, sample_starts, write_non_object_header)

SYNTH = ["synth", "--samples", "8", "--rows", "10", "--cols", "10",
         "--dim", "4", "--seed", "3", "--radius", "1.0", "2.5",
         "--folds", "2", "--noise", "0.5"]

TRAIN_FLAGS = ["--epochs", "1", "--batch-size", "4", "--lr", "1e-3",
               "--runs", "1", "--gcn-layers", "1",
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


def test_one_cluster_training_exits_zero_without_warnings(data_path, tmp_path, capsys):
    # the last --clusters wins
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--data", str(data_path), "--out", str(tmp_path)]
                  + TRAIN_FLAGS + ["--clusters", "1"])
    assert rc == 0, capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


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
    assert err.startswith("error: bad dataset header: region_count must be two integers")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_dataset_with_a_whole_number_float_fold_count_exits_one(data_path, tmp_path, capsys):
    path = tmp_path / "float_folds.mgts"
    path.write_bytes(data_path.read_bytes())
    rewrite_dataset_header(path, _mutate_spec("folds", 2.0))
    rc = main(["train", "--data", str(path)] + TRAIN_FLAGS)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad dataset header: dataset spec field 'folds' "
                          "must be an integer, got 2.0 (byte offset 12)")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("flag, value, field", [
    ("--noise", "nan", "noise_std"), ("--archetype-scale", "inf", "archetype_scale"),
])
def test_synth_rejects_a_non_finite_number(tmp_path, capsys, flag, value, field):
    out = tmp_path / "ds.mgts"
    rc = main(SYNTH + ["--out", str(out), flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be finite")
    assert err.count("\n") == 1 and not out.exists()


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
    path = tmp_path / "one_fold.mgts"
    path.write_bytes(data_path.read_bytes())
    rewrite_dataset_header(path, lambda h: [m.update(fold=0) for m in h["samples"]])
    out = tmp_path / "run"
    rc = main(["train", "--data", str(path), "--out", str(out)] + TRAIN_FLAGS)
    assert rc == 1
    assert "error: fold 1 is empty: 2 folds over 8 samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_train_and_ablate_have_no_fold_flag(data_path, command, capsys):
    argv = [command, "--data", str(data_path), "--folds", "2"] + TRAIN_FLAGS
    if command == "ablate":
        argv += ["--axis", "tokens"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --folds 2" in capsys.readouterr().err


def test_eval_of_a_cell_reproduces_its_training_record(data_path, checkpoint, tmp_path):
    # the dataset file stores 2 folds and train holds out exactly those, so
    # eval --fold 0 scores only the slides that run0_fold0 never trained on
    out = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data_path),
                 "--fold", "0", "--eval-drop-seeds", "2", "--out", str(out)]) == 0
    lines = (checkpoint.parents[1] / "metrics.jsonl").read_text().splitlines()
    cell = {r["task"]: {k: v for k, v in r.items() if k not in ("run", "fold", "task")}
            for r in map(json.loads, lines) if (r["run"], r["fold"]) == (0, 0)}
    assert set(cell) == {"typing", "staging"}
    assert json.loads(out.read_text()) == cell


@pytest.fixture(scope="module")
def bad_datasets(data_path, tmp_path_factory):
    """Files that load_dataset rejects: no samples, a header spec one feature
    narrower (dim 4 -> 3) or one grid row taller (rows 10 -> 11) than the
    samples the body holds, and 3 of the spec's 8 samples."""
    ds = load_dataset(data_path)
    root = tmp_path_factory.mktemp("bad_data")
    fileio.save_dataset(empty_dataset(ds), root / "empty.mgts")
    for name, key, value in (("narrow", "dim", 3), ("tall", "rows", 11)):
        shutil.copy(data_path, root / f"{name}.mgts")
        rewrite_dataset_header(root / f"{name}.mgts", _mutate_spec(key, value))
    fileio.save_dataset(cut_dataset(ds, 3), root / "cut.mgts")
    return root


def dataset_argv(command, data, checkpoint, tmp_path):
    return {
        "train": ["train", "--data", data] + TRAIN_FLAGS,
        "eval": ["eval", "--checkpoint", str(checkpoint), "--data", data],
        "export-embeddings": ["export-embeddings", "--checkpoint", str(checkpoint),
                              "--data", data, "--out", str(tmp_path / "emb.mgte")],
    }[command]


# a body read under a spec it was not written for misparses: here a block
# boundary lands inside the features, so sample 1 reads a NaN
@pytest.mark.parametrize("name, message", [
    ("empty", "dataset has no samples"),
    ("narrow", "sample 1: grid features contain non-finite values"),
    ("tall", "sample 1: grid features contain non-finite values"),
    ("cut", "sample count 3, spec says 8"),
])
@pytest.mark.parametrize("command", ["train", "eval", "export-embeddings"])
def test_a_dataset_with_no_samples_or_a_narrow_sample_exits_one(
        bad_datasets, checkpoint, tmp_path, command, name, message, capsys):
    data = str(bad_datasets / f"{name}.mgts")
    assert main(dataset_argv(command, data, checkpoint, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message} (byte offset ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "eval", "export-embeddings"])
def test_a_signalling_nan_feature_prints_one_error_line_at_its_sample(
        data_path, checkpoint, tmp_path, command, capsys):
    path = tmp_path / "snan.mgts"
    path.write_bytes(data_path.read_bytes()[:-4] + SIGNALLING_NAN)  # the last feature
    at = sample_starts(data_path)[-1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(dataset_argv(command, str(path), checkpoint, tmp_path)) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        f"error: sample 7: grid features contain non-finite values (byte offset {at})\n")


def test_train_flag_defaults_are_the_config_defaults(data_path, monkeypatch):
    parsed = []
    monkeypatch.setattr(cli, "_cmd_train", lambda args: parsed.append(args) or 0)
    assert main(["train", "--data", str(data_path)]) == 0
    dataset = load_dataset(data_path)
    d = dataset.spec.dim
    assert cli._build_train_config(parsed[0], dataset) == TrainConfig(
        model=ModelConfig(input_dim=d, dim=d), folds=dataset.spec.folds)


def readme_commands():
    """Every ``slidegt ...`` command in the README's code blocks, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in text.split("```")[1::2]:
        for command in block.replace("\\\n", " ").splitlines():
            if command.startswith("slidegt "):
                commands.append(shlex.split(command)[1:])
    return commands


def test_readme_commands_parse(monkeypatch):
    commands = readme_commands()
    assert len(commands) >= 8
    for name in dir(cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, lambda args: 0)
    for argv in commands:
        try:
            assert main(argv) == 0, argv
        except SystemExit as exc:
            pytest.fail(f"argparse rejects the README command {shlex.join(argv)!r} "
                        f"(exit {exc.code})")


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
