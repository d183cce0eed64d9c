"""Run the benchmark over several seeds and report how much each metric spreads.

    python3 perfbench/spread.py --seeds 1-10 [--sets 2] [--workloads cv-desk,eval-ckpt32]
                                [--seconds S] [--trace-seed N] [--out FILE]

Runs run.py once per (workload, seed), one run at a time, the way a checker
of BENCHMARK.json does.  For every end-to-end metric it prints the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(third minus first quartile, over the median) next to a third of the
metric's bound.  With --sets N it repeats all of that N times and prints how
far each later set's median moved from the first set's, against the bound.
--trace-seed adds one traced run per workload.  --out writes all values, the
machine block and the traced runs as JSON; the committed baseline.json was
made this way.  Exit status 1 means a spread reached a third of its bound or
a median moved by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    lines = out.stdout.splitlines()
    machine = next(json.loads(l[len("machine "):]) for l in lines if l.startswith("machine "))
    return json.loads(lines[-1]), machine


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def measure_set(workload, args, bounds, report, first):
    """One run per seed; returns (entry, whether every check held)."""
    values = {name: [] for name in bounds}
    failed = 0
    for seed in args.seeds:
        line, report["machine"] = run_once(workload, seed, args.seconds, 0)
        failed += line["failed"] + (not line["correct"])
        for name in bounds:
            values[name].append(line["metrics"][name]["value"])
    entry = {"failed": failed, "metrics": {}}
    steady = failed == 0
    for name, vals in values.items():
        stats = entry["metrics"][name] = dict(spread(vals), values=vals)
        ok = stats["spread"] is not None and stats["spread"] < bounds[name] / 3
        text = (f"{workload:<14} {name:<18} median {stats['median']:<12.6g}"
                f" spread {stats['spread']:.4f}  bound/3 {bounds[name] / 3:.4f}"
                f"{'' if ok else '  TOO WIDE'}")
        if first is not None:
            shift = stats["median"] / first["metrics"][name]["median"] - 1.0
            moved = abs(shift) > bounds[name]
            ok &= not moved
            text += f"  shift from set 1 {shift:+.4f}{'  MOVED' if moved else ''}"
        steady &= ok
        print(text, flush=True)
    print(f"{workload:<14} failed units or runs: {failed}", flush=True)
    return entry, steady


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"command": " ".join(["python3", "perfbench/spread.py"] + list(
        sys.argv[1:] if argv is None else argv)),
              "seeds": args.seeds, "seconds": args.seconds, "sets": []}
    steady = True
    for set_index in range(args.sets):
        workloads = {}
        for workload in args.workloads.split(","):
            first = report["sets"][0]["workloads"][workload] if report["sets"] else None
            workloads[workload], ok = measure_set(workload, args, bounds, report, first)
            steady &= ok
        report["sets"].append({"workloads": workloads})
        if set_index == 0 and args.trace_seed is not None:
            report["traced"] = {}
            for workload in workloads:
                line, _ = run_once(workload, args.trace_seed, args.seconds, 1)
                report["traced"][workload] = {
                    "seed": args.trace_seed, "correct": line["correct"],
                    "metrics": {k: v["value"] for k, v in line["metrics"].items()}}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
