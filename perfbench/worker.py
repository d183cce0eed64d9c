"""Measure one prepared workload in a process of its own.

    python3 perfbench/worker.py WORKDIR SECONDS TRACE

Reads WORKDIR/spec.json written by the harness (run.py), repeats timed units
until SECONDS have passed, checks every unit's outputs, and writes
WORKDIR/result.json.  A unit is what one CLI command does: for a "cv"
workload, load the dataset and build every graph (set-up), then one
``run_training`` call; for an "eval" workload, load the checkpoint and the
dataset and build every graph (set-up), then one ``evaluate`` call.  Between
units the set-up alone is repeated, for a tenth of the run's time in all, so
that setup_s is the median of many set-ups even where a run holds few units.

With TRACE 0 only ``train.evaluate`` and ``SlideGraphTransformer.forward``
are wrapped: the training rate leaves out the time in evaluate, and the eval
rate counts the forwards inside it.  With TRACE 1 untraced and fully traced
units alternate: the traced ones give the per-layer numbers, the pair gives
the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import trace  # noqa: E402

MIN_UNITS = 3
MIN_UNITS_TRACED = 4  # two traced and two untraced
SETUP_SHARE = 0.1  # of the run's time spent repeating the set-up between units

# Spans reported per measured unit in the traced run, in this order.
REPORTED_SPANS = (
    "bench.setup", "bench.call",
    "fileio.load_dataset", "fileio.load_checkpoint", "fileio.save_checkpoint",
    "graph.build_graph", "train.run_training", "train.pool.wait", "train.evaluate",
    "model.forward", "gcn.forward",
    "injection.forward.typing", "injection.forward.staging",
    "pooling.drop", "pooling.gcmincut",
    "model.head.typing", "model.head.staging",
    "attention.attend", "losses.cross_entropy", "losses.mincut_loss",
    "tensor.backward", "optim.adam_step",
)
AUC_KEYS = ("auc", "auc_seed_avg")
MB = 1024.0 * 1024.0


def _ratio(num, den):
    return num / den if den else 0.0


class Context:
    """What every unit of one workload shares: config, inputs, first outputs."""

    def __init__(self, spec, workdir):
        from slidegt.fileio import load_dataset
        from perfbench.workloads import EVAL_FOLD, Workload, train_config

        self.workload = Workload(**spec["workload"])
        self.inputs = spec["inputs"]
        self.workdir = Path(workdir)
        self.cfg = train_config(self.workload)
        dataset = load_dataset(self.inputs["dataset"])
        self.folds = dataset.folds
        self.tasks = [b["task"] for b in self.workload.model["branches"]]
        self.labels = {t: [s.label(t) for s in dataset.samples] for t in self.tasks}
        w = self.workload
        if w.kind == "cv":
            self.units_of_work = self.cfg.runs * self.cfg.folds  # (run, fold) cells
            self.train_steps = self.cfg.runs * self.cfg.epochs * sum(
                int((self.folds != f).sum()) for f in range(self.cfg.folds))
        else:
            self.eval_idx = [i for i, f in enumerate(self.folds) if f == EVAL_FOLD]
            self.units_of_work = len(self.eval_idx)  # scored slides
            self.train_steps = 0
        self.first_bytes = None
        self.quality = {}  # held-out AUCs of the first checked unit, for the report

    def single_class(self, task, indices):
        return len({self.labels[task][i] for i in indices}) < 2


def _check_metrics(ctx, task, metrics, indices):
    """Problems with one task's metric dict: missing or non-finite scores."""
    problems = []
    for key in ("auc", "acc", "f1"):
        if key not in metrics:
            problems.append(f"{task}: no {key}")
    for key, value in metrics.items():
        if value is None and key in AUC_KEYS and ctx.single_class(task, indices):
            continue  # AUC is undefined on a one-class fold
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{task}: {key}={value!r}")
    return problems


def _cv_setup(ctx):
    from slidegt import fileio, graph

    dataset = fileio.load_dataset(ctx.inputs["dataset"])
    return dataset, [graph.build_graph(s.grid) for s in dataset.samples]


def _cv_unit(ctx, tracer, index):
    from slidegt import train

    with tracer.span("bench.setup"):
        t0 = time.perf_counter()
        dataset, graphs = _cv_setup(ctx)
        setup = time.perf_counter() - t0
    del graphs  # run_training builds its own; do not hold both sets
    out = ctx.workdir / f"cv_out{index}"
    with tracer.span("bench.call"):
        t0 = time.perf_counter()
        report = train.run_training(ctx.cfg, dataset, out)
        call = time.perf_counter() - t0
    return (setup, call) + _check_cv(ctx, report, out)


def _check_cv(ctx, report, out):
    """Return (failed cells, messages) for one run_training call."""
    problems = {}
    cells = {}
    for record in report["records"]:
        cells.setdefault((record["run"], record["fold"]), {})[record["task"]] = record
    for run in range(ctx.cfg.runs):
        for fold in range(ctx.cfg.folds):
            got = cells.get((run, fold), {})
            test_idx = [i for i, f in enumerate(ctx.folds) if f == fold]
            msgs = [f"no record for {t}" for t in ctx.tasks if t not in got]
            for task, record in got.items():
                metrics = {k: v for k, v in record.items() if k not in ("run", "fold", "task")}
                msgs += _check_metrics(ctx, task, metrics, test_idx)
            if msgs:
                problems[(run, fold)] = f"cell run {run} fold {fold}: " + "; ".join(msgs)
    whole = []
    artifacts = tuple((out / name).read_bytes() for name in ("metrics.jsonl", "summary.json"))
    if ctx.first_bytes is None:
        ctx.first_bytes = artifacts
    elif artifacts != ctx.first_bytes:
        whole.append("metrics.jsonl/summary.json bytes differ from the first unit's")
    if not ctx.quality:
        ctx.quality = {f"{t}_auc": report["summary"].get(t, {}).get("auc_mean")
                       for t in ctx.tasks}
    if ctx.workload.auc_floors is not None:
        for task, floor in zip(ctx.tasks, ctx.workload.auc_floors):
            auc = report["summary"].get(task, {}).get("auc_mean")
            if auc is None or not auc >= floor:
                whole.append(f"{task} auc_mean {auc} below floor {floor}")
    shutil.rmtree(out, ignore_errors=True)
    if whole:
        return ctx.units_of_work, whole
    return len(problems), list(problems.values())


def _eval_setup(ctx):
    from slidegt import fileio, graph
    from perfbench.workloads import EVAL_FOLD

    model = fileio.load_checkpoint(ctx.inputs["checkpoint"])
    dataset = fileio.load_dataset(ctx.inputs["dataset"])
    if dataset.samples[0].grid.features.shape[1] != model.config.input_dim:
        raise ValueError("checkpoint and dataset feature widths differ")
    indices = [i for i, f in enumerate(dataset.folds) if f == EVAL_FOLD]
    return model, dataset, indices, [graph.build_graph(s.grid) for s in dataset.samples]


def _eval_unit(ctx, tracer, index):
    from slidegt import train

    with tracer.span("bench.setup"):
        t0 = time.perf_counter()
        model, dataset, indices, graphs = _eval_setup(ctx)
        setup = time.perf_counter() - t0
    with tracer.span("bench.call"):
        t0 = time.perf_counter()
        results = train.evaluate(model, graphs, dataset.samples, indices,
                                 ctx.cfg.eval_drop_seeds)
        call = time.perf_counter() - t0
    return (setup, call) + _check_eval(ctx, results)


def _check_eval(ctx, results):
    msgs = [f"no result for {t}" for t in ctx.tasks if t not in results]
    for task, metrics in results.items():
        msgs += _check_metrics(ctx, task, metrics, ctx.eval_idx)
    if not ctx.quality:
        ctx.quality = {f"{t}_auc": results.get(t, {}).get("auc") for t in ctx.tasks}
    if results != ctx.inputs["reference"]:
        msgs.append("eval metrics differ from the training run's record for this cell")
    return (ctx.units_of_work if msgs else 0), msgs


def _repeat_setup(ctx, setup_fn, seconds):
    """Time the set-up alone, again and again, for about `seconds`."""
    times = []
    while sum(times) < seconds:
        t0 = time.perf_counter()
        try:
            setup_fn(ctx)
        except Exception:  # every unit repeats this set-up and counts the failure
            break
        times.append(time.perf_counter() - t0)
    return times


def measure(spec, workdir, seconds, traced):
    """Run units for `seconds`; return the result dict for run.py."""
    ctx = Context(spec, workdir)
    cv = ctx.workload.kind == "cv"
    unit_fn = _cv_unit if cv else _eval_unit
    dump_dir = Path(workdir) / "spans"
    dump_dir.mkdir(exist_ok=True)
    tracers = [trace.Tracer(full=False, dump_dir=dump_dir)]
    if traced:
        tracers.append(trace.Tracer(full=True, dump_dir=dump_dir))
    min_units = MIN_UNITS_TRACED if traced else MIN_UNITS
    units, layer, durations, failures = [], trace.Totals(), [], []
    attempted = failed = 0
    setup_fn = _cv_setup if cv else _eval_setup
    setups, extra_s = [], 0.0
    start = time.perf_counter()
    while len(durations) < min_units or (
            time.perf_counter() - start + statistics.median(durations) <= seconds):
        t_unit = time.perf_counter()
        full = traced and len(durations) % 2 == 1
        tracer = tracers[int(full)].install()
        try:
            setup, call, bad, msgs = unit_fn(ctx, tracer, len(durations))
        except Exception:  # all of the unit's work counts as failed; the run goes on
            setup = None
            bad, msgs = ctx.units_of_work, [traceback.format_exc(limit=4)]
        finally:
            tracer.uninstall()
        totals = trace.Totals().add(tracer.collect())
        attempted += ctx.units_of_work
        failed += bad
        failures += msgs
        if setup is not None:
            # under the pool, cells run in `procs` processes at once
            procs = max(totals.eval_pids, 1)
            setups.append(setup)
            units.append({
                "setup": setup, "call": call, "traced": full,
                "eval": totals.total_ns["train.evaluate"] / 1e9 / procs,
                "slides": totals.counts["eval_slides"],
                "forwards": totals.counts["eval_forwards"],
            })
            if full:
                layer.add_unit(totals)
        gc.collect()
        # spread over the run, so setup_s sees the same machine as the units
        more = _repeat_setup(ctx, setup_fn,
                             SETUP_SHARE * (time.perf_counter() - start) - extra_s)
        setups += more
        extra_s += sum(more)
        durations.append(time.perf_counter() - t_unit)
    result = {
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "units": len(durations), "quality": ctx.quality,
        "unit_walls": [round(u["setup"] + u["call"], 4) for u in units],
        "metrics": {},
    }
    if traced:
        if layer.units and len(units) > layer.units:
            result["metrics"] = _layer_metrics(ctx, units, layer)
    elif units:
        result["metrics"] = _end_to_end(ctx, units, setups)
    return result


def _end_to_end(ctx, units, setups):
    eval_kind = ctx.workload.kind == "eval"

    def med(fn):
        return statistics.median(fn(u) for u in units)

    if eval_kind:  # model forwards inside evaluate
        samples = med(lambda u: _ratio(u["forwards"], u["eval"]))
    else:  # training sample steps
        samples = med(lambda u: _ratio(ctx.train_steps, u["call"] - u["eval"]))
    rss = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": med(lambda u: u["call"] + (u["setup"] if eval_kind else 0.0)),
        "samples_per_s": samples,
        "eval_slides_per_s": med(lambda u: _ratio(u["slides"], u["eval"])),
        "peak_rss_mb": rss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def _layer_metrics(ctx, units, layer):
    n = layer.units
    out = {}
    for name in REPORTED_SPANS:
        out[f"{name}.calls"] = layer.calls[name] / n
        out[f"{name}.ms"] = layer.total_ns[name] / 1e6 / n
        out[f"{name}.self_ms"] = layer.self_ns[name] / 1e6 / n
    c = layer.counts
    slides = c["eval_slides"]
    builds = c["graphs_call"] + (c["graphs_setup"] if ctx.workload.kind == "eval" else 0)
    graphs = c["graphs_setup"] + c["graphs_call"]
    traced = [u["setup"] + u["call"] for u in units if u["traced"]]
    untraced = [u["setup"] + u["call"] for u in units if not u["traced"]]
    out.update({
        "tensor.ops_per_sample": _ratio(c["train_ops"], c["train_samples"]),
        "tensor.ops_per_eval_forward": _ratio(c["eval_ops"], c["eval_forwards"]),
        "graph.dense_adj_mb": _ratio(c["dense_adj_bytes"], graphs) / MB,
        "graph.array_mb": _ratio(c["graph_array_bytes"], graphs) / MB,
        "train.evaluate.ms_per_slide": _ratio(layer.total_ns["train.evaluate"] / 1e6, slides),
        "train.eval_forwards_per_slide": _ratio(c["eval_forwards"], slides),
        "train.graph_builds_per_slide": _ratio(builds, slides),
        "trace.wall_ms": (layer.total_ns["bench.setup"] + layer.total_ns["bench.call"]) / 1e6 / n,
        "trace.overhead_share": statistics.median(traced) / statistics.median(untraced) - 1.0,
    })
    return out


def main(argv):
    workdir, seconds, traced = Path(argv[0]), float(argv[1]), argv[2] == "1"
    spec = json.loads((workdir / "spec.json").read_text())
    result = measure(spec, workdir, seconds, traced)
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
