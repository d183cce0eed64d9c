"""Spans and counters recorded around slidegt's public functions.

The benchmark never edits slidegt.  While a measured unit runs it replaces
module and class attributes with timing wrappers and puts the originals back
afterwards.  A function that other modules import by name (``from .tensor
import backward``) is replaced in every slidegt module that holds it, because
each caller resolves the name in its own module.

Spans stay in memory as ``(name, start_ns, end_ns, parent_index)`` tuples.
A forked pool worker process writes its spans and counters to one file when
it exits; the measuring process reads those files after the pool has shut
down.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

import numpy as np

clock_ns = time.perf_counter_ns

# Spans of the traced mode, in report order.  Names with {task} are split per
# model branch, names with {kind} per pooling operator.
FUNCTION_SPANS = (
    ("slidegt.fileio", "load_dataset", "fileio.load_dataset"),
    ("slidegt.fileio", "load_checkpoint", "fileio.load_checkpoint"),
    ("slidegt.fileio", "save_checkpoint", "fileio.save_checkpoint"),
    ("slidegt.graph", "build_graph", "graph.build_graph"),
    ("slidegt.train", "run_training", "train.run_training"),
    ("slidegt.train", "evaluate", "train.evaluate"),
    ("slidegt.attention", "attend", "attention.attend"),
    ("slidegt.losses", "cross_entropy", "losses.cross_entropy"),
    ("slidegt.losses", "mincut_loss", "losses.mincut_loss"),
    ("slidegt.tensor", "backward", "tensor.backward"),
)
METHOD_SPANS = (
    ("slidegt.model", "SlideGraphTransformer", "forward", "model.forward"),
    ("slidegt.gcn", "GcnStack", "__call__", "gcn.forward"),
    ("slidegt.injection", "InjectionBlock", "__call__", "injection.forward.{task}"),
    ("slidegt.model", "TransformerHead", "__call__", "model.head.{task}"),
    ("slidegt.optim", "Adam", "step", "optim.adam_step"),
    # run_training's process pool: time the parent spends waiting on cells
    ("concurrent.futures", "Future", "result", "train.pool.wait"),
)
POOL_SPAN = "pooling.{kind}"

# The untraced mode keeps only what the end-to-end metrics need: the time
# spent in evaluate, which the training rate leaves out, and the model
# forwards inside it, which the eval rate counts.
PROBE_SPANS = ("train.evaluate", "model.forward")


def op_count():
    """Tape ops created so far in this process (slidegt.tensor's op-id stamp).

    Reads the counter through its repr, which does not advance it.
    """
    counter = getattr(sys.modules["slidegt.tensor"], "_op_counter", None)
    text = repr(counter)
    if not (text.startswith("count(") and text.endswith(")")):
        raise RuntimeError(
            "slidegt.tensor._op_counter is no longer an itertools.count; "
            "tensor.ops_per_sample cannot be measured")
    return int(text[6:-1])


def array_bytes(obj, depth=2):
    """Bytes of the numpy arrays an object holds, directly or in its attributes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0 or not hasattr(obj, "__dict__"):
        return 0
    return sum(array_bytes(v, depth - 1) for v in vars(obj).values())


class Tracer:
    """Records spans in one process; forked pool workers adopt it."""

    def __init__(self, full, dump_dir):
        self.full = full
        self.dump_dir = str(dump_dir)
        self.pid = os.getpid()
        self.phase = "call"
        self._patches = []
        self._reset()

    def _reset(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.task_of = {}
        self.fwd_ops = 0
        self.eval_ops = 0
        self.in_eval = 0
        self._dumped = False

    # ----------------------------------------------------------- recording

    def _adopt_process(self):
        """First span in a forked worker: drop inherited spans, dump at exit.

        Forked workers leave through os._exit, so atexit would not run;
        multiprocessing's finalizers do.
        """
        self.pid = os.getpid()
        self._reset()
        mp_util.Finalize(None, self.dump, exitpriority=100)

    def begin(self, name):
        if self.pid != os.getpid():
            self._adopt_process()
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx, clock_ns()

    def end(self, name, idx, start):
        stop = clock_ns()
        self.stack.pop()
        self.spans[idx] = (name, start, stop, self.stack[-1] if self.stack else -1)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself; names the phase for counters."""
        self.phase = name.rsplit(".", 1)[-1]
        idx, start = self.begin(name)
        try:
            yield
        finally:
            self.end(name, idx, start)
            self.phase = "call"

    def dump(self):
        if self._dumped or not self.spans:
            return
        self._dumped = True
        path = Path(self.dump_dir) / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))

    def collect(self):
        """This process's spans plus every worker dump; clears both."""
        parts = [{"spans": self.spans, "counts": dict(self.counts)}]
        for path in sorted(Path(self.dump_dir).glob("spans-*.json")):
            parts.append(json.loads(path.read_text()))
            path.unlink()
        self._reset()
        return parts

    # ------------------------------------------------------------ patching

    def install(self):
        # bind every by-name import before scanning for it
        package = importlib.import_module("slidegt")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"slidegt.{info.name}")
        for module_name, attr, name in FUNCTION_SPANS:
            if self.full or name in PROBE_SPANS:
                self._wrap_function(module_name, attr, name)
        for module_name, cls_name, attr, name in METHOD_SPANS:
            if self.full or name in PROBE_SPANS:
                cls = getattr(importlib.import_module(module_name), cls_name)
                self._patch(cls, attr, self._wrapper(name, getattr(cls, attr)))
        if self.full:
            pooling = importlib.import_module("slidegt.pooling")
            for cls in vars(pooling).values():
                if (isinstance(cls, type) and cls.__module__ == pooling.__name__
                        and "__call__" in vars(cls)):
                    self._patch(cls, "__call__", self._wrapper(POOL_SPAN, cls.__call__))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_function(self, module_name, attr, name):
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self._wrapper(name, original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("slidegt") and getattr(module, attr, None) is original:
                self._patch(module, attr, wrapper)

    def _wrapper(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if "{" in name:
                owner = args[0]
                label = name.format(task=tracer.task_of.get(id(owner), "other"),
                                    kind=getattr(owner, "kind", "other"))
            idx, start = tracer.begin(label)
            if before is not None:
                before(tracer, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(label, idx, start)
            if after is not None:  # a failed call leaves state that collect() resets
                after(tracer, result)
            return result

        return wrapper


# -------------------------------------------------------------------- hooks


def _forward_before(tracer, args, kwargs):
    model = args[0]
    for task, branch in model.branches.items():
        tracer.task_of[id(branch.inject)] = task
        tracer.task_of[id(branch.head)] = task
    if tracer.in_eval:
        tracer.counts["eval_forwards"] += 1
    tracer.fwd_ops = op_count()


def _backward_before(tracer, args, kwargs):
    # backward runs once per training sample, right after its forward + loss
    tracer.counts["train_ops"] += op_count() - tracer.fwd_ops
    tracer.counts["train_samples"] += 1


def _evaluate_before(tracer, args, kwargs):
    indices = kwargs["indices"] if "indices" in kwargs else args[3]
    tracer.counts["eval_slides"] += len(indices)
    tracer.in_eval += 1
    tracer.eval_ops = op_count()


def _evaluate_after(tracer, result):
    tracer.in_eval -= 1
    tracer.counts["eval_ops"] += op_count() - tracer.eval_ops


def _build_graph_after(tracer, graph):
    n = int(graph.n_nodes)
    tracer.counts[f"graphs_{tracer.phase}"] += 1
    tracer.counts["dense_adj_bytes"] += 2 * 8 * n * n  # adj_tilde + norm_adj as dense f64
    tracer.counts["graph_array_bytes"] += array_bytes(graph)


_HOOKS = {
    "model.forward": (_forward_before, None),
    "tensor.backward": (_backward_before, None),
    "train.evaluate": (_evaluate_before, _evaluate_after),
    "graph.build_graph": (None, _build_graph_after),
}


# -------------------------------------------------------------- aggregation


class Totals:
    """Per-span calls, total and self time, and counters, summed over the
    processes of one unit (``add``) or over units (``add_unit``)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.eval_pids = 0
        self.units = 0

    def add(self, parts):
        for part in parts:
            spans = part["spans"]
            child_ns = [0] * len(spans)
            for name, start, stop, parent in spans:
                if parent >= 0:
                    child_ns[parent] += stop - start
            for (name, start, stop, parent), inner in zip(spans, child_ns):
                self.calls[name] += 1
                self.total_ns[name] += stop - start
                self.self_ns[name] += stop - start - inner
            for key, value in part["counts"].items():
                self.counts[key] += value
            if any(s[0] == "train.evaluate" for s in spans):
                self.eval_pids += 1
        return self

    def add_unit(self, other):
        for mine, theirs in ((self.calls, other.calls), (self.total_ns, other.total_ns),
                             (self.self_ns, other.self_ns), (self.counts, other.counts)):
            for key, value in theirs.items():
                mine[key] += value
        self.units += 1
