"""The displacement history evaluates the prescribed past on demand.

Every read must equal, bit for bit, a buffer that stores the whole past
(``_oracles.materialized_history``), and no read may touch a slot that no
push has written: the tests fill those slots with NaN right after ``build``.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import viscodelay
from _oracles import (assert_sample_matches, eta_field_rows, materialized_history,
                      sample_state_rows)
from viscodelay.energy import SampleRow, sample_state
from viscodelay.kernel import MemoryKernel, quadrature_weights
from viscodelay.solver import (
    InitialData,
    ModelParams,
    SolverError,
    Span,
    build,
    discretize,
    eta_field,
    step,
)

# short memory, so the displacement ring buffer wraps after ~200 steps at nx=20
KERNEL = MemoryKernel.from_terms([(2.0, 8.0)])
PARAMS = ModelParams(tau=0.2, k=-0.3, kernel=KERNEL, mode="auxiliary")
HISTORIES = {
    "frozen": InitialData(shape="gaussian", center=0.4),
    "modulated": InitialData(shape="gaussian", center=0.4, history="modulated", omega=3.0),
}


class Mirror:
    """A run whose every push is repeated on a fully stored copy of its history."""

    def __init__(self, params, init, disc):
        self.params, self.disc = params, disc
        self.state = build(params, init, disc)
        self.state.u_hist.data[:] = np.nan  # no slot has been pushed yet
        self.stored = materialized_history(params, init, disc)

    def advance(self, steps: int) -> None:
        for _ in range(steps):
            step(self.state, self.params, self.disc)
            self.stored.push(self.state.u)

    def assert_matches(self) -> None:
        state, params, disc = self.state, self.params, self.disc
        hist, stored = state.u_hist, self.stored
        assert hist.pushed == state.step_index
        assert hist.head == stored.head
        for p in range(hist.capacity):
            assert np.array_equal(hist.back(p), stored.back(p))
        offsets = list(disc.s_nodes[1:] / disc.dt)
        offsets += [p + 0.5 for p in range(hist.capacity - 1)]
        for sb in offsets:
            assert np.array_equal(hist.back_interp(sb), stored.back_interp(sb))
        as_stored = replace(state, u_hist=stored)
        assert np.array_equal(eta_field(state, params, disc),
                              eta_field(as_stored, params, disc))
        assert sample_state(state, params, disc) == sample_state(as_stored, params, disc)
        # while the ring has not wrapped, NaN slots are left that a read would show
        if hist.pushed < hist.capacity:
            assert np.isnan(hist.data).any()


def whole_step_disc(params):
    """The default grid with s-nodes replaced: eight whole steps, three fractional."""
    base = discretize(params, nx=20)
    # power-of-two multiples of dt divide back to whole numbers exactly
    whole = base.dt * np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    fractional = base.dt * np.array([3.5, 12.25, 100.75])
    nodes = np.sort(np.concatenate([whole, fractional]))
    disc = replace(base, s_nodes=nodes, s_weights=quadrature_weights(nodes))
    steps = disc.s_nodes[1:] / disc.dt
    assert np.count_nonzero(steps == np.floor(steps)) == 8
    return disc


@pytest.mark.parametrize("history", sorted(HISTORIES))
def test_past_matches_stored_past_until_and_after_wrap(history):
    disc = discretize(PARAMS, nx=20)
    run = Mirror(PARAMS, HISTORIES[history], disc)
    run.assert_matches()

    # the step at which a node's newer row is pushed and its older row is still past
    steps = disc.s_nodes[1:] / disc.dt
    j = np.floor(steps)
    node = int(np.flatnonzero((steps > j) & (j >= 1))[0])
    run.advance(int(j[node]) + 1)
    hist = run.state.u_hist
    assert j[node] < hist.pushed == j[node] + 1 < steps[node] + 1
    run.assert_matches()

    while run.state.step_index < disc.n_hist + 10:
        run.advance(37)
        run.assert_matches()
    assert hist.pushed > hist.capacity


@pytest.mark.parametrize("history", sorted(HISTORIES))
def test_past_matches_stored_past_on_whole_step_nodes(history):
    disc = whole_step_disc(PARAMS)
    run = Mirror(PARAMS, HISTORIES[history], disc)
    # pushed = 101 and 128 leave the older row of node 100.75 and the row
    # of node 128 in the past; the last advance wraps the ring
    for steps in (0, 50, 51, 27, 1, 1, disc.n_hist):
        run.advance(steps)
        run.assert_matches()


def test_whole_step_node_ignores_inf_in_pushed_next_slot():
    params = ModelParams(tau=0.2, k=0.3, kernel=KERNEL)
    disc = whole_step_disc(params)
    state = build(params, HISTORIES["modulated"], disc)
    for _ in range(140):
        step(state, params, disc)
    # offset 129 is the slot past the whole-step node 128 and holds a pushed row
    hist = state.u_hist
    assert 129 < hist.pushed < hist.capacity
    hist.data[(hist.head + 129) % hist.capacity] = np.inf
    with np.errstate(invalid="ignore"):  # the discarded 0 * inf
        eta = eta_field(state, params, disc)
    assert np.isfinite(eta).all()
    assert np.array_equal(eta, eta_field_rows(state, params, disc))


@pytest.mark.parametrize("ks", [None, [-0.3, 0.0, 0.4]], ids=["solo", "batch"])
@pytest.mark.parametrize("grid", ["default", "whole-step"])
@pytest.mark.parametrize("history", sorted(HISTORIES))
def test_span_reads_of_the_past_touch_no_unpushed_slot(history, grid, ks):
    # a span of six states five steps apart, read as the ring is still
    # filling: a node reads a stored slot at the newest state and the past
    # at older ones, so a read that reached a NaN slot would show
    disc = discretize(PARAMS, nx=20) if grid == "default" else whole_step_disc(PARAMS)
    init = HISTORIES[history]
    every, depth = 5, 6
    state = build(PARAMS, init, disc, ks=ks)
    # each row alone, stepped one step at a time, with its references at every kept step
    solos = [(replace(PARAMS, k=k), build(replace(PARAMS, k=k), init, disc))
             for k in ks or [PARAMS.k]]
    for each in (state, *(solo for _, solo in solos)):
        each.u_hist.data[:] = np.nan  # no slot has been pushed yet
    span = Span(depth, state.u.shape, every)
    span.keep(state)
    step(state, PARAMS, disc, (depth - 1) * every, span=span)
    etas, samples = [], []
    for n in range((depth - 1) * every + 1):
        if n % every == 0:
            etas.append([eta_field_rows(solo, params, disc) for params, solo in solos])
            samples.append([sample_state_rows(solo, params, disc) for params, solo in solos])
        for params, solo in solos:
            step(solo, params, disc)

    hist = state.u_hist
    assert span.steps == list(range(0, depth * every, every)) and hist.pushed < hist.capacity
    past = disc.node_steps[0] + span.lags(state)[:, None] >= hist.pushed
    assert (past.any(axis=0) & ~past.all(axis=0)).any()
    if grid == "whole-step":
        assert (past & (disc.node_steps[2] == 0.0)).any()
    eta = eta_field(state, PARAMS, disc, span=span)
    rows = sample_state(state, PARAMS, disc, span=span)
    assert np.isfinite(eta).all()
    assert np.isnan(hist.data).any()
    for i in range(depth):
        for r, (expected_eta, expected) in enumerate(zip(etas[i], samples[i])):
            got = eta[i] if ks is None else eta[i][:, r]
            assert np.array_equal(got, expected_eta)
            terms = [getattr(rows, name)[i] for name in SampleRow.__dataclass_fields__]
            assert_sample_matches(SampleRow(*(t if ks is None else t[r] for t in terms)),
                                  expected)


@pytest.mark.parametrize("history", sorted(HISTORIES))
def test_read_of_an_overwritten_slot_refused(history):
    # a history built for 5 steps and stepped 12 times: eta's second node,
    # about 8.6 steps back, falls on a stored slot that a later push overwrote
    params = ModelParams(kernel=MemoryKernel.from_terms([(1.0, 2.0)]))
    disc = discretize(params, nx=20)
    state = build(params, HISTORIES[history], disc, steps=5)
    for _ in range(12):
        step(state, params, disc)
    hist = state.u_hist
    newer = disc.s_nodes[1:] / disc.dt
    assert hist.capacity <= np.floor(newer[1]) < hist.pushed == 12
    message = r"history offset \d+ is past the 5 slots of a buffer with 12 pushes"
    with pytest.raises(SolverError, match=message):
        eta_field(state, params, disc)
    with pytest.raises(SolverError, match=message):
        sample_state(state, params, disc)
    with pytest.raises(SolverError, match="history offset 8 is past the 5 slots"):
        hist.back(8)
    # the slots still held, and the past beyond the pushes, read as before
    assert np.array_equal(hist.back(4), hist.data[(hist.head + 4) % 5])
    assert np.isfinite(hist.back(12)).all()


# VmHWM is the peak resident size of the probe's own address space;
# ru_maxrss would also carry the peak of the forking test process
MEMORY_PROBE = """
import re
from viscodelay.kernel import MemoryKernel
from viscodelay.solver import InitialData, ModelParams, discretize, run
params = ModelParams(kernel=MemoryKernel.from_terms([(2.0, 8.0), (0.02, 0.05)]))
disc = discretize(params, nx=200)
trace = run(params, InitialData(history="modulated"), disc, 0.5)
with open("/proc/self/status") as status:
    peak_kib = re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1)
state = trace.final_state
print(disc.n_hist, disc.nx, state.step_index, state.u_hist.nbytes, trace.aborted_step, peak_kib)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
def test_slow_kernel_history_is_sized_to_the_run():
    src = Path(viscodelay.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", MEMORY_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout.split()
    n_hist, nx, steps, nbytes = (int(word) for word in out[:4])
    aborted, peak_kib = out[4], int(out[5])
    assert 8 * n_hist * nx >= 400e6  # what a history of n_hist rows would take
    assert nbytes == 8 * (nx + 2) * (steps + 1)
    assert aborted == "None"
    assert peak_kib < 150 * 1024
