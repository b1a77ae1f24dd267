"""One measured run of one workload, in a fresh process.

Usage: python3 perfbench/worker.py --workload W --seed N --config C.json
           --out DIR --seconds S --trace 0|1 --result R.json

A single closed-loop caller: each operation starts when the previous one
has ended, until the next one would end after ``--seconds``.  With
``--trace 1`` untraced and traced operations alternate, so the per-layer
numbers and the tracing overhead come from the same process; ``sweep_k``
then runs with one job, so that every span is recorded here.

Before and after every operation a fixed calibration loop is timed.  The
host this runs on is shared, and how fast it executes the same work
drifts by up to a factor of 2 over tens of seconds; the calibration
times let the report scale each operation to one nominal machine speed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy

import workloads

TRACE_DIR = workloads.ROOT / ".perfbench_traces"
CAL_ITERATIONS = 8000
CAL_NOMINAL_S = 0.030  # the calibration loop's time on a quiet 2-vCPU Xeon host
_CAL_FIELD = numpy.linspace(0.0, 1.0, 200)


def calibrate(_=None) -> float:
    """Time a fixed loop of the kind of work the program does: 200-wide
    numpy stencils driven from Python.  It runs no viscodelay code."""
    x = _CAL_FIELD.copy()
    start = time.perf_counter()
    for _ in range(CAL_ITERATIONS):
        y = -2.0 * x
        y[1:] += x[:-1]
        y[:-1] += x[1:]
        x = x + 1e-3 * y
    return time.perf_counter() - start


@contextlib.contextmanager
def calibration(processes: int):
    """A callable timing the calibration loop on as many CPUs as the
    operation computes on: in this process, or at once in a pool."""
    if processes == 1:
        yield calibrate
        return
    pool = multiprocessing.get_context("spawn").Pool(processes)
    try:
        yield lambda: statistics.fmean(pool.map(calibrate, range(processes), chunksize=1))
    finally:
        pool.close()
        pool.join()


def _cpu_seconds() -> float:
    """CPU time of this process and its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_once(op: workloads.Operation, ref: dict, tracer=None, op_id: int = 0) -> dict:
    """Time one operation, then check its outputs against ``ref``."""
    cpu0 = _cpu_seconds()
    wall0 = time.perf_counter()
    scope = tracer.installed(op_id) if tracer is not None else contextlib.nullcontext()
    outcome = problems = None
    try:
        with scope:
            exit_code = op.execute()
    except Exception as err:  # a raising operation is a failed operation
        problems = [f"raised {type(err).__name__}: {err}"]
    wall = time.perf_counter() - wall0
    cpu = _cpu_seconds() - cpu0
    if problems is None:
        try:
            outcome = op.outcome()
            problems = workloads.check(op.workload, exit_code, outcome, ref)
        except (OSError, ValueError, KeyError, IndexError) as err:
            problems = [f"unreadable outputs: {type(err).__name__}: {err}"]
    record = {"op": op_id, "traced": tracer is not None, "wall_s": wall,
              "cpu_s": cpu, "problems": problems}
    if outcome is not None and "seed_failures" in outcome:
        record["seed_failures"] = outcome["seed_failures"]
    if tracer is not None:
        from tracing import layer_metrics
        record["layers"] = layer_metrics(tracer.layer_stats(op_id))
    return record


def measure(op: workloads.Operation, ref: dict, seconds: float, tracer=None) -> list[dict]:
    """Closed loop for ``seconds``; with a tracer, untraced and traced alternate.

    Each record carries ``speed``, the nominal over the measured time of
    the calibration loops run just before and just after the operation.
    """
    records = []
    with calibration(op.processes) as timed_calibration:
        start = time.perf_counter()
        cal_before = timed_calibration()
        while True:
            traced = tracer is not None and len(records) % 2 == 1
            record = run_once(op, ref, tracer if traced else None, len(records))
            cal_after = timed_calibration()
            record["speed"] = CAL_NOMINAL_S / (0.5 * (cal_before + cal_after))
            cal_before = cal_after
            records.append(record)
            if tracer is not None and not traced:
                continue  # finish the pair
            cycle = statistics.median(r["wall_s"] for r in records)
            if tracer is not None:
                cycle *= 2
            if time.perf_counter() - start + cycle > seconds:
                return records


def peak_rss_mb() -> float:
    """This process's peak plus the largest peak among its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    viscodelay = workloads.import_program()
    ref = workloads.load_references()[args.workload][str(args.seed % workloads.N_VARIANTS)]
    jobs = 1 if args.trace else workloads.SWEEP_JOBS
    op = workloads.Operation(args.workload, Path(args.config), Path(args.out), jobs=jobs)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    records = measure(op, ref, args.seconds, tracer)
    result = {
        "records": records,
        "peak_rss_mb": peak_rss_mb(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "viscodelay": viscodelay.__version__,
    }
    if tracer is not None:
        spans = TRACE_DIR / f"{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans)
        result["spans"] = str(spans.relative_to(workloads.ROOT))
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
