"""A sweep's k values advanced as one batch against each k run on its own.

``run(..., ks=...)`` puts the rows on a leading batch axis of one state.
Every per-row value it reports must be the one the row's solo run gives,
and a row that blows up must abort where its solo run does without
touching the others.  A batch's displacement history, R times a row's,
must stay unresident where the run does not fill it, run after run.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import viscodelay
from viscodelay import analysis, cli
from viscodelay.kernel import MemoryKernel
from viscodelay.solver import (InitialData, ModelParams, SolverError, build, discretize,
                               run)

from test_cli import read_sweep_rows, sweep_config, write_config
from test_properties import kernels

COLUMNS = ("times", "kinetic", "elastic", "memory", "delay", "total", "ut_sq",
           "ut_tau_sq", "delay_raw", "mu_prime_eta")
KERNEL = MemoryKernel.from_terms([(1.0, 2.0)])
SWEEP_KS = [-0.02, -0.004, 0.0, 0.0005, 0.003, 0.02]


def assert_matches_solo(batch, params, init, disc, horizon, ks, sample_every=0):
    assert len(batch) == len(ks)
    for trace, k in zip(batch, ks):
        solo = run(replace(params, k=k), init, disc, horizon, sample_every=sample_every)
        assert trace.params == solo.params
        assert trace.aborted_step == solo.aborted_step
        for name in COLUMNS:
            np.testing.assert_allclose(getattr(trace, name), getattr(solo, name),
                                       rtol=1e-12, atol=0.0, err_msg=f"k={k} {name}")


@pytest.mark.parametrize("size", [1, 3, 4])
def test_batched_traces_match_solo_runs(size):
    params = ModelParams(tau=0.3, theta=2.0, kernel=KERNEL, mode="auxiliary")
    init = InitialData(shape="gaussian", width=0.08, history="modulated", omega=3.0)
    disc = discretize(params, nx=30)
    ks = SWEEP_KS[:size]
    batch = run(params, init, disc, 1.0, sample_every=3, ks=ks)
    assert_matches_solo(batch, params, init, disc, 1.0, ks, sample_every=3)
    assert all(trace.final_state is None for trace in batch)


PREMISE_KERNELS = {0: MemoryKernel(), 1: KERNEL,
                   2: MemoryKernel.from_terms([(0.3, 1.0), (2.0, 8.0)])}


@pytest.mark.parametrize("history", ["frozen", "modulated"])
@pytest.mark.parametrize("mode", ["original", "auxiliary"])
@pytest.mark.parametrize("tau", [0.0, 0.3])
@pytest.mark.parametrize("terms", sorted(PREMISE_KERNELS))
def test_solo_run_is_bitwise_its_batch_of_one(terms, tau, mode, history):
    # byte-identical outputs rest on a solo run being exactly its batch of one
    params = ModelParams(tau=tau, k=-0.4, theta=2.0, kernel=PREMISE_KERNELS[terms], mode=mode)
    init = InitialData(shape="gaussian", width=0.08, history=history, omega=3.0)
    disc = discretize(params, nx=30)
    solo = run(params, init, disc, 1.0, sample_every=2)
    (one,) = run(params, init, disc, 1.0, sample_every=2, ks=[params.k])
    assert one.aborted_step == solo.aborted_step is None
    for name in COLUMNS:
        assert np.array_equal(getattr(one, name), getattr(solo, name)), name


def test_aborted_solo_run_is_bitwise_its_batch_of_one():
    params = ModelParams(tau=0.0, k=-1000.0)
    disc = discretize(params, nx=40)
    solo = run(params, InitialData(), disc, 10.0, sample_every=20)
    (one,) = run(params, InitialData(), disc, 10.0, sample_every=20, ks=[params.k])
    assert one.aborted_step == solo.aborted_step is not None
    # the samples up to the abort overflow to inf and nan in the same places
    for name in COLUMNS:
        assert np.array_equal(getattr(one, name), getattr(solo, name), equal_nan=True), name


def solo_fits(cfg_path):
    cfg = cli.load_config(cfg_path)
    disc = cfg.discretize()
    fits = []
    for k in sorted(cfg.k_values):
        trace = run(replace(cfg.params(), k=k), cfg.init, disc, cfg.horizon,
                    sample_every=cfg.sample_every)
        fits.append(analysis.fit_decay_rate(trace))
    return fits


@pytest.mark.parametrize("size, jobs", [(1, "1"), (3, "1"), (4, "1"), (4, "2")])
def test_sweep_rows_match_solo_fits(tmp_path, monkeypatch, size, jobs):
    monkeypatch.setattr(cli, "SWEEP_BATCH", size)
    cfg = write_config(tmp_path, sweep_config(k_values=SWEEP_KS, T=5.0))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
    rows = read_sweep_rows(out)
    for row, fit in zip(rows, solo_fits(cfg), strict=True):
        assert row["error"] == ""
        for name in ("sigma_emp", "r_squared"):
            assert float(row[name]) == pytest.approx(getattr(fit, name), rel=1e-12, abs=0.0)


def test_sweep_csv_does_not_depend_on_batching(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, sweep_config(k_values=SWEEP_KS, T=5.0))
    written = set()
    for size in (1, 3, 8):
        monkeypatch.setattr(cli, "SWEEP_BATCH", size)
        for jobs in ("1", "2"):
            out = tmp_path / f"batch{size}-jobs{jobs}"
            assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
            written.add((out / "sweep.csv").read_bytes())
    assert len(written) == 1


class RecordingPool:
    """A stand-in process pool that runs its map in this process."""

    def __init__(self, max_workers, pools):
        pools.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("n_rows, jobs, sizes, workers", [
    (16, 2, [8, 8], 2), (6, 2, [3, 3], 2), (17, 1, [6, 6, 5], 1), (3, 4, [1, 1, 1], 3),
])
def test_sweep_gives_each_worker_one_batch(tmp_path, monkeypatch, n_rows, jobs, sizes, workers):
    ks = [0.001 * i for i in range(n_rows)]
    batches, pools = [], []
    monkeypatch.setattr(cli, "_sweep_batch", lambda cfg, disc, batch: (
        batches.append(batch) or [analysis.SweepRow(k, float("nan"), float("nan"), "not run",
                                                    None, None) for k in batch]))
    monkeypatch.setattr(cli, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(max_workers, pools))
    cfg = write_config(tmp_path, sweep_config(k_values=ks[::-1]))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--jobs", str(jobs)]) == 0
    assert [len(batch) for batch in batches] == sizes
    assert [k for batch in batches for k in batch] == ks
    assert [float(row["k"]) for row in read_sweep_rows(out)] == ks
    assert pools == ([] if workers == 1 else [workers])


def test_blow_up_row_aborts_at_its_solo_step_alone():
    params = ModelParams(tau=0.0)
    disc = discretize(params, nx=40)
    ks = [0.0, -1000.0, 5.0]
    batch = run(params, InitialData(), disc, 10.0, sample_every=20, ks=ks)
    healthy, blown_up, damped = batch
    solo = run(replace(params, k=-1000.0), InitialData(), disc, 10.0, sample_every=20)
    assert solo.aborted_step is not None
    assert blown_up.aborted_step == solo.aborted_step
    assert blown_up.times.size == solo.times.size < healthy.times.size
    assert healthy.aborted_step is None and damped.aborted_step is None
    assert_matches_solo(batch, params, InitialData(), disc, 10.0, ks, sample_every=20)


@pytest.mark.parametrize("history, abort", [("frozen", 1542), ("modulated", 1543)])
def test_retired_row_with_memory_and_delay_line_stays_its_solo_run(history, abort):
    # the k = -300 row blows up with Prony modes and a delay line (n_delay = 3):
    # left in the state, its non-finite q or delayed velocity would make it
    # abort again at a later step, moving its aborted_step
    params = ModelParams(tau=0.02, kernel=KERNEL)
    init = InitialData(shape="gaussian", history=history)
    disc = discretize(params, nx=40, ns=16)
    assert disc.n_delay == 3
    ks = [0.5, -300.0, 0.2]
    batch = run(params, init, disc, 10.0, sample_every=20, ks=ks)
    assert [trace.aborted_step for trace in batch] == [None, abort, None]
    for trace, k in zip(batch, ks):
        solo = run(replace(params, k=k), init, disc, 10.0, sample_every=20)
        assert trace.aborted_step == solo.aborted_step
        for name in COLUMNS:
            assert np.array_equal(getattr(trace, name), getattr(solo, name),
                                  equal_nan=True), (k, name)


def test_sweep_batch_with_a_blow_up_row(tmp_path):
    doc = {"kernel": {"terms": []}, "nx": 40, "tau": 0.0, "T": 10.0,
           "sample_every": 20, "k_values": [-1000.0, 0.0, 0.5, 1.0]}
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    rows = read_sweep_rows(out)
    cfg = cli.load_config(tmp_path / "config.json")
    disc = cfg.discretize()
    for row, k in zip(rows, doc["k_values"], strict=True):
        solo = run(replace(cfg.params(), k=k), cfg.init, disc, cfg.horizon,
                   sample_every=cfg.sample_every)
        if k == -1000.0:
            assert row["error"] == f"non-finite at step {solo.aborted_step}"
        else:
            assert row["error"] == ""
            assert row["classification"] == cli._judge(cfg, solo, k)[1]


def test_batch_error_marks_every_row(tmp_path, capsys):
    # the delay line of the 3-row batch cannot be reserved, so no row runs
    # and the sweep refuses as simulate does, naming the batch's rows
    doc = {"nx": 200, "cfl": 1e-12, "tau": 1.0, "T": 1e-9, "k_values": [0.0, 0.1, 0.2]}
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    text = capsys.readouterr().err
    assert text.startswith("error: the delay line needs") and "x 3 batch rows" in text
    assert not out.exists()


@pytest.mark.parametrize("memory", ["prony_modes", "eta_grid"])
def test_an_empty_batch_is_refused(memory):
    # no row to size a plan by or to stack a map for, on either stepping path
    params = ModelParams(tau=0.2, kernel=KERNEL, memory_realization=memory)
    disc = discretize(params, nx=20, ns=16)
    with pytest.raises(ValueError, match="a batch needs at least one k"):
        run(params, InitialData(), disc, 0.5, ks=[])
    with pytest.raises(ValueError, match="a batch needs at least one k"):
        build(params, InitialData(), disc, ks=[])


@pytest.mark.parametrize("realization", [{"memory_realization": "eta_grid"},
                                         {"delay_realization": "rho_grid"}])
def test_grid_realizations_run_one_row_at_a_time(realization):
    params = ModelParams(tau=0.2, theta=2.0, kernel=KERNEL, **realization)
    disc = discretize(params, nx=20, ns=16)
    ks = [0.0, 0.3]
    batch = run(params, InitialData(shape="gaussian"), disc, 0.5, ks=ks)
    assert_matches_solo(batch, params, InitialData(shape="gaussian"), disc, 0.5, ks)


@st.composite
def batch_configs(draw):
    params = ModelParams(
        tau=draw(st.one_of(st.just(0.0), st.floats(0.05, 0.5))),
        theta=draw(st.floats(1.0, 4.0, exclude_min=True)),
        kernel=draw(kernels(min_terms=0)),
        mode=draw(st.sampled_from(["original", "auxiliary"])),
    )
    init = InitialData(shape="gaussian", width=0.08,
                       history=draw(st.sampled_from(["frozen", "modulated"])),
                       omega=draw(st.floats(0.5, 5.0)))
    ks = draw(st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), min_size=1, max_size=4))
    return params, init, ks


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(config=batch_configs())
def test_batched_map_runs_match_solo_runs(config):
    params, init, ks = config
    try:
        disc = discretize(params, nx=20)
    except SolverError:
        return
    horizon = 20 * disc.dt
    batch = run(params, init, disc, horizon, sample_every=1, ks=ks)
    assert_matches_solo(batch, params, init, disc, horizon, ks, sample_every=1)


# VmRSS after each run of one process; a reserved history must stay
# unresident run after run, not only in the first
RESIDENCY_PROBE = """
import re
from viscodelay.kernel import MemoryKernel
from viscodelay.solver import InitialData, ModelParams, discretize, run
params = ModelParams(kernel=MemoryKernel.from_terms([(1.0, 2.0)]))
disc = discretize(params, nx=100)
resident = []
for _ in range(6):
    run(params, InitialData(), disc, 20 * disc.dt, ks=[0.0, 0.1, 0.2, 0.3])
    with open("/proc/self/status") as status:
        resident.append(int(re.search(r"VmRSS:\\s*(\\d+) kB", status.read()).group(1)))
print(disc.n_hist, *resident)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
def test_reserved_history_stays_unresident_from_run_to_run():
    src = Path(viscodelay.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", RESIDENCY_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout.split()
    n_hist, resident = int(out[0]), [int(kib) for kib in out[1:]]
    # each run reserves 4 rows x n_hist x nx doubles, 11.9 MB, and pushes 20 rows
    assert 8 * 4 * n_hist * 100 > 11e6
    assert max(resident) - resident[0] < 2 * 1024
