"""Compare the output files of this checkout with those of a git revision.

    python3 scripts/compare_outputs.py <rev>

Exports the ``src`` tree of ``<rev>`` with ``git archive`` into a temporary
directory (read-only on the repository, so an interrupted run leaves nothing
to clean up) and runs the same steps in both trees, each in its own
subprocess with its own ``src`` first on PYTHONPATH.  For every gated
perfbench workload (cv-desk, cv-wsi64, eval-ckpt32, configs read from
``perfbench/workloads.py`` of this checkout) on seeds 1000 and 3 it writes:

- ``data.mgts``: ``fileio.save_dataset`` of the generated dataset;
- ``metrics.jsonl``, ``summary.json`` and ``checkpoints/*.mgtc``:
  ``train.run_training`` on the reloaded dataset, as perfbench runs it;
- ``eval.json``: ``slidegt eval --fold 0 --out`` on the reloaded run-0,
  fold-0 checkpoint, with the workload's drop-seed count;
- ``embeddings.mgte``: ``slidegt export-embeddings`` of that checkpoint for
  every sample.

On the same seeds it also runs the pooling ablation of the golden guard
(``tests/test_golden.py``): ``train.run_ablation`` along ``pooling`` with the
criterion-5 model and ``assign_softmax=False``, 1 epoch, 12 slides at 16x16,
2 folds.  That covers every pool kind and the relu-normalized assignment,
which the gated workloads do not run, and writes ``ablation.jsonl`` plus each
variant's metrics, summary and checkpoints under ``ablate_pooling_seed<S>``.

``manifest.json`` is left out, because it records the package version.  The
script prints one line per file and exits 1 if any file differs or exists in
only one tree.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GATED = ("cv-desk", "cv-wsi64", "eval-ckpt32")
SEEDS = (1000, 3)


def produce(out_dir):
    """Write every compared file under out_dir with the slidegt on sys.path."""
    from dataclasses import replace

    import slidegt
    from perfbench.workloads import DESK_MODEL, DESK_TRAIN, EVAL_FOLD, WORKLOADS, train_config
    from slidegt.cli import main as cli
    from slidegt.data import SyntheticSpec, generate
    from slidegt.fileio import load_dataset, save_dataset
    from slidegt.model import ModelConfig
    from slidegt.train import TrainConfig, run_ablation, run_training

    print(f"slidegt from {Path(slidegt.__file__).parent}", file=sys.stderr)
    for name in GATED:
        workload = WORKLOADS[name]
        cfg = train_config(workload)
        for seed in SEEDS:
            out = Path(out_dir) / f"{name}_seed{seed}"
            out.mkdir(parents=True)
            data = str(out / "data.mgts")
            save_dataset(generate(SyntheticSpec(seed=seed, **workload.data)), data)
            run_training(cfg, load_dataset(data), out)
            (out / "manifest.json").unlink()
            ck = str(out / "checkpoints" / f"run0_fold{EVAL_FOLD}.mgtc")
            steps = (["eval", "--checkpoint", ck, "--data", data, "--fold", str(EVAL_FOLD),
                      "--eval-drop-seeds", str(cfg.eval_drop_seeds),
                      "--out", str(out / "eval.json")],
                     ["export-embeddings", "--checkpoint", ck, "--data", data,
                      "--out", str(out / "embeddings.mgte")])
            for argv in steps:
                if cli(argv) != 0:
                    raise SystemExit(f"slidegt {argv[0]} failed on {out}")
    ablate = TrainConfig(model=replace(ModelConfig.from_dict(DESK_MODEL), assign_softmax=False),
                         folds=2, **dict(DESK_TRAIN, epochs=1))
    for seed in SEEDS:
        out = Path(out_dir) / f"ablate_pooling_seed{seed}"
        spec = SyntheticSpec(samples=12, rows=16, cols=16, dim=32, seed=seed, folds=2)
        run_ablation(ablate, generate(spec), "pooling", out)
        for manifest in out.rglob("manifest.json"):
            manifest.unlink()


def run_tree(src, out_dir):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT)]))
    proc = subprocess.run([sys.executable, __file__, "--produce", str(out_dir)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"producing outputs with {src} failed")
    sys.stderr.write(proc.stderr)


def export_src(rev, dest):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return Path(dest) / "src"


def compare(here, there, rev):
    files = sorted({p.relative_to(d) for d in (here, there)
                    for p in d.rglob("*") if p.is_file()})
    differing = 0
    for rel in files:
        a, b = here / rel, there / rel
        if not a.exists():
            status = "only in " + rev
        elif not b.exists():
            status = "missing in " + rev
        else:
            status = "equal" if a.read_bytes() == b.read_bytes() else "DIFFERS"
        differing += status != "equal"
        print(f"{status:<24} {rel}")
    print(f"{len(files) - differing} of {len(files)} files byte-equal")
    return differing


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="git revision to compare against")
    ap.add_argument("--produce", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.produce:
        produce(args.produce)
        return 0
    if args.rev is None:
        ap.error("a revision is required")
    probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                            f"{args.rev}^{{commit}}"], capture_output=True)
    if probe.returncode != 0:
        ap.error(f"{args.rev!r} does not name a commit")
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        other_src = export_src(args.rev, tmp)
        here, there = tmp / "out_here", tmp / "out_rev"
        run_tree(ROOT / "src", here)
        run_tree(other_src, there)
        return 1 if compare(here, there, args.rev) else 0


if __name__ == "__main__":
    sys.exit(main())
