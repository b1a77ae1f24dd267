"""Self-tests of the benchmark, at tiny sizes.

Run from the root of the checkout:  python3 -m pytest perfbench
(They sit outside the package's ``testpaths`` on purpose.)
"""

import csv
import json
import shutil
import subprocess
import sys

import pytest

import run
import worker
import workloads
from tracing import LAYER_METRICS, Tracer, span_stats

workloads.import_program()
from viscodelay import cli, solver  # noqa: E402  (needs import_program first)


def _tiny_op(tmp_path, workload, jobs=workloads.SWEEP_JOBS):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.make_config(workload, 0, tiny=True)))
    return workloads.Operation(workload, config, tmp_path / "out", jobs=jobs)


def _reference_from_clean_run(op):
    op.execute()
    return workloads.reference(op.workload, op.outcome())


def _n_steps(op):
    cfg = cli.load_config(op.config_path)
    return round(cfg.horizon / cfg.discretize().dt)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs(tmp_path, workload):
    op = _tiny_op(tmp_path, workload)
    ref = _reference_from_clean_run(op)
    records = worker.measure(op, ref, seconds=0.0)
    assert len(records) == 1
    assert records[0]["problems"] == []
    assert records[0]["wall_s"] > 0.0 and records[0]["cpu_s"] > 0.0


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _edit_sweep_cell(out_dir, column, edit):
    path = out_dir / "sweep.csv"
    lines = path.read_text().splitlines()
    header = next(csv.reader([lines[1]]))
    cells = lines[2].split(",")
    i = header.index(column)
    cells[i] = edit(cells[i])
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _nudge(x):
    return x * (1.0 + 1e-6)


CORRUPTIONS = {
    "aux_long-sigma": ("aux_long", lambda op: _edit_json(
        op.out_dir / "report.json",
        lambda d: d["fit"].update(sigma_emp=_nudge(d["fit"]["sigma_emp"])))),
    "aux_long-verdict": ("aux_long", lambda op: _edit_json(
        op.out_dir / "report.json", lambda d: d.update(classification="growing"))),
    "aux_long-energy": ("aux_long", lambda op: (op.out_dir / "energy.csv").write_text(
        (op.out_dir / "energy.csv").read_text().replace("\n0,", "\n0,nan,", 1))),
    "sweep_k-sigma": ("sweep_k", lambda op: _edit_sweep_cell(
        op.out_dir, "sigma_emp", lambda c: repr(_nudge(float(c))))),
    "sweep_k-verdict": ("sweep_k", lambda op: _edit_sweep_cell(
        op.out_dir, "certified", lambda c: "false" if c == "true" else "true")),
    "long_memory-sigma": ("long_memory", lambda op: op._library_result.update(
        sigma_emp=_nudge(op._library_result["sigma_emp"]))),
    "long_memory-verdict": ("long_memory", lambda op: op._library_result.update(
        certified=not op._library_result["certified"])),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch, case):
    workload, corrupt = CORRUPTIONS[case]
    op = _tiny_op(tmp_path, workload)
    ref = _reference_from_clean_run(op)
    execute = workloads.Operation.execute

    def execute_then_corrupt(self):
        code = execute(self)
        corrupt(self)
        return code

    monkeypatch.setattr(workloads.Operation, "execute", execute_then_corrupt)
    records = worker.measure(op, ref, seconds=0.0)
    assert records[0]["problems"], case
    metrics = run.end_to_end_metrics(records, [{"setup_s": 0.1, "speed": 1.0}], 1.0)
    assert metrics["ok_ops"]["value"] == 0.0


@pytest.mark.parametrize("workload, per_op_runs", [("aux_long", 1), ("sweep_k", None)])
def test_traced_counts_are_exact(tmp_path, workload, per_op_runs):
    op = _tiny_op(tmp_path, workload, jobs=1)
    ref = _reference_from_clean_run(op)
    runs = per_op_runs or len(cli.load_config(op.config_path).k_values)
    tracer = Tracer()
    layers = []
    for op_id in (0, 1):
        record = worker.run_once(op, ref, tracer, op_id)
        assert record["problems"] == []
        layers.append(record["layers"])
    n_steps = _n_steps(op)
    assert layers[0]["solver.step.calls"] == runs * n_steps
    assert layers[0]["solver.rhs.calls"] == 4 * runs * n_steps
    counts = [name for name in LAYER_METRICS if name.endswith(".calls")]
    assert [layers[0][n] for n in counts] == [layers[1][n] for n in counts]
    assert layers[0]["solver.state_bytes"] > 0
    # every wrapper is gone once the traced block ends
    assert not hasattr(solver.step, "__wrapped__")
    assert not hasattr(cli.validate_kernel, "__wrapped__")


def test_self_time_subtracts_direct_children():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("b", 5.0, 6.0, 0, 0),
    ]
    stats = span_stats(spans)
    assert stats["a"]["self_s"] == pytest.approx(6.0)
    assert stats["b"]["self_s"] == pytest.approx(3.0)
    assert stats["b"]["calls"] == 2
    assert stats["b"]["us_per_call"] == pytest.approx(2e6)
    assert stats["c"]["self_s"] == pytest.approx(1.0)


def test_references_cover_every_variant():
    refs = workloads.load_references()
    for workload in workloads.WORKLOADS:
        assert sorted(refs[workload], key=int) == [str(v) for v in range(workloads.N_VARIANTS)]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aux_long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
