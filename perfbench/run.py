"""slidegt performance benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a slidegt checkout; it measures the slidegt
under ``src/`` next to this directory.  It generates the workload's inputs
from --seed, measures them in a process of its own for about --seconds,
checks the outputs, and prints a readable report.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are BENCHMARK.json's end_to_end list,
with --trace 1 its per_layer list.

Exit status: 0 with a result, 1 when the measuring process failed or timed
out, 2 when the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 170.0  # the whole command must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def machine_block():
    """Hardware and library facts recorded next to every result."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    mem_kb = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": None if mem_kb is None else round(mem_kb / 1024),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def metric_spec(trace):
    """(name, unit) pairs this mode must print, from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


def result_line(result, spec):
    """The final JSON object; fails if the measured names drift from the spec."""
    values = result["metrics"]
    names = [name for name, _ in spec]
    if sorted(values) != sorted(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                           f"extra {extra}")
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }


def run_workload(workload, seed, seconds, trace, workdir, deadline):
    """Prepare inputs in workdir, measure them in a child process, return its result."""
    from perfbench.workloads import prepare

    prepare(workload, seed, workdir)
    env = dict(os.environ)
    env.pop("SLIDEGT_WORKERS", None)  # the workload fixes its own worker count
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(workdir),
           repr(float(seconds)), "1" if trace else "0"]
    # own session, so a timeout can stop the pool workers too
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("measuring process timed out") from None
    if code != 0:
        raise RuntimeError(f"measuring process exited with status {code}")
    return json.loads((Path(workdir) / "result.json").read_text())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "slidegt" / "__init__.py").is_file():
        print(f"perfbench: no slidegt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import slidegt
    from perfbench.workloads import WORKLOADS

    if Path(slidegt.__file__).resolve().parent != ROOT / "src" / "slidegt":
        print(f"perfbench: imported slidegt from {slidegt.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = metric_spec(args.trace)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              args.trace, workdir, deadline)
        line = result_line(result, spec)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(machine_block(), sort_keys=True))
    print(f"units {result['units']}  unit walls (s) {result['unit_walls']}")
    for key, value in result["quality"].items():
        print(f"quality {key} {value}")
    share = line["failed"] / line["attempted"] if line["attempted"] else 1.0
    print(f"failed_share {share:.4f} ({line['failed']} of {line['attempted']})")
    for msg in result["failures"]:
        print("failure " + msg.rstrip().replace("\n", "\n  "))
    for name, unit in spec:
        print(f"{name:<40} {line['metrics'][name]['value']:>14.6g} {unit}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
