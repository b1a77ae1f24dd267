"""viscodelay benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload aux_long --seed 3 --seconds 30 --trace 0

Writes the workload's generated config, measures set-up in fresh probe
processes, runs the closed-loop operations in a fresh worker process, and
prints a table followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = workloads.ROOT / ".perfbench_work"
SETUP_REPEATS = 7
DEADLINE_S = 170.0  # every run must end within 180 s
# one thread per process, so sweep_k --jobs 2 runs no more threads than cores
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)}

END_TO_END = {  # name -> unit
    "wall_cal_s": "s", "cpu_cal_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ops": "ratio",
}


class BenchError(RuntimeError):
    pass


def _run_child(argv: list[str], timeout: float) -> str:
    """Run a helper in its own process group; kill the whole group on timeout."""
    env = {**os.environ, **THREAD_ENV}
    proc = subprocess.Popen([sys.executable, *argv], cwd=workloads.ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(argv[0]).name} exceeded {timeout:.0f} s") from None
    finally:
        _wait_for_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"{Path(argv[0]).name} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def _wait_for_group(pgid: int, grace_s: float = 5.0) -> None:
    """Wait until no process of the helper's group is left (the pool's
    resource tracker outlives the helper by a moment); kill stragglers."""
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline + 1.0:
        try:
            os.killpg(pgid, signal.SIGKILL if time.monotonic() > deadline else 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end_metrics(records: list[dict], setup: list[dict], peak_rss_mb: float) -> dict:
    failed = sum(1 for r in records if r["problems"])
    values = {
        # times scaled to the nominal machine speed; the raw ones are in the table
        "wall_cal_s": _median([r["wall_s"] * r["speed"] for r in records]),
        "cpu_cal_s": _median([r["cpu_s"] * r["speed"] for r in records]),
        "setup_s": _median([p["setup_s"] * p["speed"] for p in setup]),
        "peak_rss_mb": peak_rss_mb,
        # the complement of failed/attempted, so that the metric is never 0
        "ok_ops": 1.0 - failed / len(records),
    }
    return {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}


def per_layer_metrics(records: list[dict]) -> dict:
    from tracing import LAYER_METRICS, OVERHEAD_METRIC

    traced = [r for r in records if r["traced"]]
    metrics = {name: {"value": _median([r["layers"][name] for r in traced]), "unit": unit}
               for name, (_, _, unit) in LAYER_METRICS.items()}
    # on calibrated walls: the host's drift is larger than the overhead itself
    overhead = (_median([r["wall_s"] * r["speed"] for r in traced])
                - _median([r["wall_s"] * r["speed"] for r in records if not r["traced"]]))
    metrics[OVERHEAD_METRIC] = {"value": overhead, "unit": "s"}
    return metrics


def _print_table(args, records, setup, result, metrics) -> None:
    variant = args.seed % workloads.N_VARIANTS
    print(f"workload {args.workload}  seed {args.seed} (variant {variant})  "
          f"trace {args.trace}  python {result['python']}  numpy {result['numpy']}")
    print(f"operations {len(records)}, wall_s@host speed each (t: traced): "
          + " ".join(f"{r['wall_s']:.3f}@{r['speed']:.2f}{'t' if r['traced'] else ''}"
                     for r in records))
    print(f"  raw medians: wall_s {_median([r['wall_s'] for r in records]):.6g} s, "
          f"cpu_s {_median([r['cpu_s'] for r in records]):.6g} s; host speed "
          f"min {min(r['speed'] for r in records):.3f} "
          f"median {_median([r['speed'] for r in records]):.3f} "
          f"max {max(r['speed'] for r in records):.3f} of nominal")
    if setup:
        print(f"setup probes {len(setup)}, setup_s@host speed each: "
              + " ".join(f"{p['setup_s']:.3f}@{p['speed']:.2f}" for p in setup))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for r in records:
        for problem in r["problems"]:
            print(f"  FAILED op {r['op']}: {problem}")
    seed_failures = [r["seed_failures"] for r in records if "seed_failures" in r]
    if seed_failures:
        print("  known seed failures (reported, not gated): "
              + json.dumps(seed_failures[0], sort_keys=True))
    if "spans" in result:
        print(f"  spans written to {result['spans']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (workloads.SOURCE / "__init__.py").is_file():
        print(f"error: no viscodelay sources under {workloads.SOURCE}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(workloads.make_config(args.workload, args.seed)))
        setup = []  # per-layer runs report solver.build.s instead
        for _ in range(0 if args.trace else SETUP_REPEATS):
            probe = _run_child([str(HERE / "setup_probe.py"), str(config)], timeout=60.0)
            setup.append(json.loads(probe.splitlines()[-1]))
        result_path = work / "result.json"
        _run_child([str(HERE / "worker.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--config", str(config),
                    "--out", str(work / "out"), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--result", str(result_path)],
                   timeout=DEADLINE_S - (time.monotonic() - started))
        result = json.loads(result_path.read_text())
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = result["records"]
    if args.trace:
        metrics = per_layer_metrics(records)
    else:
        metrics = end_to_end_metrics(records, setup, result["peak_rss_mb"])
    _print_table(args, records, setup, result, metrics)
    failed = sum(1 for r in records if r["problems"])
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
