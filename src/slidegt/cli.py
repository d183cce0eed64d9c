"""Command-line entry points.

Subcommands: synth (generate a dataset file), train (cross-validated
training), eval (score a checkpoint), gradcheck (finite-difference audit),
export-embeddings (dump per-task node embeddings), ablate (variant sweeps).
Domain errors exit with status 1; argparse handles usage errors with 2.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .data import SyntheticSpec, generate
from .errors import (CheckpointError, ConfigError, ContractError, DimensionError,
                     NonFiniteError, ParseError, TrainingDiverged)
from .fileio import write_json
from .gradcheck import build_check_model, check_gradients
from .graph import build_graph
from .losses import LossWeights
from .model import BranchConfig, ModelConfig
from .tensor import no_grad
from .train import (ABLATION_AXES, PARADIGMS, TrainConfig, evaluate,
                    format_summary, run_ablation, run_training)

# OSError covers unreadable or misdirected paths (missing file, directory)
_ERRORS = (CheckpointError, ConfigError, ContractError, DimensionError,
           NonFiniteError, ParseError, TrainingDiverged, OSError)


def _add_synth(sub):
    p = sub.add_parser("synth", help="generate a synthetic dataset file")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--rows", type=int, default=16)
    p.add_argument("--cols", type=int, default=16)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--occupancy", type=float, default=0.85)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--stage-threshold", type=float, default=0.25)
    p.add_argument("--stage-spread", type=float, default=0.18)
    p.add_argument("--regions", type=int, nargs=2, default=(1, 3),
                   metavar=("LO", "HI"))
    p.add_argument("--radius", type=float, nargs=2, default=(1.5, 4.5),
                   metavar=("LO", "HI"))
    p.add_argument("--archetype-scale", type=float, default=1.0)
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(fn=_cmd_synth)


def _cmd_synth(args):
    from .fileio import save_dataset

    spec = SyntheticSpec(
        samples=args.samples, rows=args.rows, cols=args.cols, dim=args.dim,
        seed=args.seed, occupancy=args.occupancy, noise_std=args.noise,
        stage_threshold=args.stage_threshold, stage_spread=args.stage_spread,
        region_count=tuple(args.regions), region_radius=tuple(args.radius),
        archetype_scale=args.archetype_scale, folds=args.folds)
    dataset = generate(spec)
    save_dataset(dataset, args.out)
    nodes = [s.grid.features.shape[0] for s in dataset.samples]
    type_pos = np.mean([s.label_type for s in dataset.samples])
    stage_pos = np.mean([s.label_stage for s in dataset.samples])
    print(f"wrote {args.out}: {len(dataset.samples)} samples, "
          f"{np.mean(nodes):.1f} nodes on average, "
          f"type positives {type_pos:.2f}, stage positives {stage_pos:.2f}")
    return 0


def _add_model_flags(p):
    p.add_argument("--dim", type=int, default=None,
                   help="model width (default: dataset feature width)")
    p.add_argument("--gcn-layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--transformer-depth", type=int, default=2)
    p.add_argument("--latent-tokens", type=int, default=150)
    p.add_argument("--drop-keep", type=int, default=100)
    p.add_argument("--clusters", type=int, default=100)
    p.add_argument("--token-scheme", choices=("specific", "shared"),
                   default="specific")
    p.add_argument("--typing-pool", default="drop")
    p.add_argument("--staging-pool", default="gcmincut")
    p.add_argument("--head-init", choices=("zero", "random"), default="zero")
    p.add_argument("--no-attention-scale", action="store_true",
                   help="drop the 1/sqrt(head width) factor on attention scores")
    p.add_argument("--relu-normalize-assignment", action="store_true",
                   help="row-normalize relu cluster scores instead of softmax")


def _add_train_flags(p):
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--paradigm", choices=PARADIGMS, default="multi")
    p.add_argument("--w-typing", type=float, default=1.0)
    p.add_argument("--w-staging", type=float, default=1.0)
    p.add_argument("--w-mincut", type=float, default=1.0)
    p.add_argument("--eval-drop-seeds", type=int, default=8)
    p.add_argument("--workers", type=int, default=1)
    _add_model_flags(p)


def _build_train_config(args, dataset):
    input_dim = dataset.samples[0].grid.features.shape[1]
    dim = args.dim if args.dim is not None else input_dim
    branches = (
        BranchConfig(task="typing", pooling=args.typing_pool,
                     tokens=args.latent_tokens, pool_size=args.drop_keep),
        BranchConfig(task="staging", pooling=args.staging_pool,
                     tokens=args.latent_tokens, pool_size=args.clusters),
    )
    model = ModelConfig(
        input_dim=input_dim, dim=dim, gcn_layers=args.gcn_layers,
        heads=args.heads, transformer_depth=args.transformer_depth,
        token_scheme=args.token_scheme,
        scale_attention=not args.no_attention_scale,
        assign_softmax=not args.relu_normalize_assignment,
        head_init=args.head_init, branches=branches)
    return TrainConfig(
        model=model, epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        seed=args.seed, folds=args.folds, runs=args.runs, paradigm=args.paradigm,
        weights=LossWeights(typing=args.w_typing, staging=args.w_staging,
                            mincut=args.w_mincut),
        eval_drop_seeds=args.eval_drop_seeds, workers=args.workers)


def _add_train(sub):
    p = sub.add_parser("train", help="cross-validated training on a dataset file")
    p.add_argument("--out", default=None,
                   help="directory for checkpoints, metrics, and the manifest")
    _add_train_flags(p)
    p.set_defaults(fn=_cmd_train)


def _cmd_train(args):
    from .fileio import load_dataset

    dataset = load_dataset(args.data)
    cfg = _build_train_config(args, dataset)
    report = run_training(cfg, dataset, args.out)
    print(format_summary(report["summary"], title=f"{cfg.paradigm} training"))
    if args.out:
        print(f"artifacts written to {args.out}")
    return 0


def _add_eval(sub):
    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--fold", type=int, default=None,
                   help="restrict to this fold's held-out samples")
    p.add_argument("--eval-drop-seeds", type=int, default=8)
    p.add_argument("--out", default=None, help="write metrics as JSON")
    p.set_defaults(fn=_cmd_eval)


def _load_model_and_data(args):
    """The checkpoint's model and the dataset, checked for one feature width."""
    from .fileio import load_checkpoint, load_dataset

    model = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    dim = dataset.samples[0].grid.features.shape[1]
    if dim != model.config.input_dim:
        raise CheckpointError(
            f"checkpoint expects feature width {model.config.input_dim}, "
            f"dataset has {dim}")
    return model, dataset


def _cmd_eval(args):
    model, dataset = _load_model_and_data(args)
    if args.fold is not None:
        indices = np.nonzero(dataset.folds == args.fold)[0]
        if indices.size == 0:
            raise ConfigError(f"fold {args.fold} has no samples")
    else:
        indices = np.arange(len(dataset.samples))
    # evaluate reads graphs[si] for the scored indices only
    graphs = {si: build_graph(dataset.samples[si].grid) for si in indices}
    results = evaluate(model, graphs, dataset.samples, indices,
                       args.eval_drop_seeds)
    for task, metrics in results.items():
        parts = [f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                 for k, v in metrics.items()]
        print(f"{task}: " + " ".join(parts))
    if args.out:
        write_json(args.out, results)
    return 0


def _add_gradcheck(sub):
    p = sub.add_parser("gradcheck",
                       help="compare backward against finite differences")
    p.add_argument("--nodes", type=int, default=12)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--gcn-layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--tokens", type=int, default=3)
    p.add_argument("--keep", type=int, default=3)
    p.add_argument("--clusters", type=int, default=2)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gradcheck)


def _cmd_gradcheck(args):
    model, graph, labels = build_check_model(
        nodes=args.nodes, dim=args.dim, gcn_layers=args.gcn_layers,
        heads=args.heads, tokens=args.tokens, keep=args.keep,
        clusters=args.clusters, depth=args.depth, seed=args.seed)
    result = check_gradients(model, graph, labels, step=args.step,
                             seed=args.seed)
    for name, err in result.per_param:
        print(f"{name:<40} {err:.3e}")
    ok = result.worst < args.tol
    print(f"worst relative error {result.worst:.3e} at {result.worst_param} "
          f"(tolerance {args.tol:.1e}): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _add_export(sub):
    p = sub.add_parser("export-embeddings",
                       help="dump per-task node embeddings for samples")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, nargs="*", default=None,
                   help="sample ids (default: all)")
    p.set_defaults(fn=_cmd_export)


def _cmd_export(args):
    from .fileio import save_embeddings

    model, dataset = _load_model_and_data(args)
    by_id = {s.sample_id: s for s in dataset.samples}
    if args.samples == []:
        raise ConfigError("--samples needs at least one sample id")
    ids = sorted(by_id) if args.samples is None else args.samples
    seen = set()
    for sid in ids:  # check every id before any forward runs
        if sid not in by_id:
            raise ConfigError(f"sample id {sid} not in dataset")
        if sid in seen:
            raise ConfigError(f"sample id {sid} is given more than once")
        seen.add(sid)
    entries = []
    with no_grad():
        for sid in ids:
            h = model.trunk(build_graph(by_id[sid].grid))
            entries += [(sid, task, branch.inject(h, branch.bank).data)
                        for task, branch in model.branches.items()]
    save_embeddings(args.out, model.config, entries)
    print(f"wrote {len(entries)} embedding blocks for {len(ids)} samples to {args.out}")
    return 0


def _add_ablate(sub):
    p = sub.add_parser("ablate", help="run a sweep along one comparison axis")
    p.add_argument("--axis", choices=ABLATION_AXES, required=True)
    p.add_argument("--out", default=None)
    _add_train_flags(p)
    p.set_defaults(fn=_cmd_ablate)


def _cmd_ablate(args):
    from .fileio import load_dataset

    dataset = load_dataset(args.data)
    cfg = _build_train_config(args, dataset)
    results = run_ablation(cfg, dataset, args.axis, args.out)
    for name, report in results:
        print(format_summary(report["summary"], title=f"variant: {name}"))
        print()
    acc = {name: report["summary"].get("staging", {}).get("acc_mean")
           for name, report in results}
    if acc.get("multi") is not None and acc.get("single_stage") is not None:
        delta = acc["multi"] - acc["single_stage"]
        print(f"staging acc, multi minus single: {delta:+.4f}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="slidegt",
        description="multi-task graph-transformer classification on tile graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_synth(sub)
    _add_train(sub)
    _add_eval(sub)
    _add_gradcheck(sub)
    _add_export(sub)
    _add_ablate(sub)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
