"""The map step against the eager step it replaced, bit for bit.

``solver.step`` keeps its map step's buffers per state, and norms the delay
line's slots and carries its delay integral once per call, and once more
for each n_delay steps of a longer call (``DelayLine.advance``).
``_oracles.eager_map_step`` is the step that formed every buffer afresh,
normed each slot as it was pushed and advanced the integral one step at a
time in plain floats.  Both step the same states through runs that wrap
both ring buffers, and every field, stored slot, slot norm and delay
integral must be the same bits.  A call of
``step`` may make several steps, and ``run`` makes one call per span of
sample intervals and samples the span's states together: both keep the
bits of single steps, each sampled as it is reached (``hand_run``).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from viscodelay import energy, solver
from viscodelay.energy import sample_state
from viscodelay.kernel import MemoryKernel
from viscodelay.solver import (SAMPLE_TERMS, InitialData, ModelParams, NonFinite, build,
                               discretize, run, step)

from _oracles import eager_map_step

ONE_TERM = MemoryKernel.from_terms([(1.0, 2.0)])
# s_max ~ 36: a displacement history longer than the runs below
SLOW = MemoryKernel.from_terms([(0.25, 0.5)])
THREE_TERMS = MemoryKernel.from_terms([(0.2, 0.7), (1.0, 5.0), (3.0, 30.0)])
FROZEN = InitialData(shape="gaussian", width=0.08)
MODULATED = InitialData(shape="gaussian", width=0.08, history="modulated", omega=3.0)
STEPS = 60  # past the displacement history's 25 slots and the delay line's 6

# (params, init, ks, the k of each stretch of STEPS // 4 steps for a solo state)
CASES = {
    "solo": (ModelParams(tau=0.05, k=0.4, kernel=ONE_TERM, mode="auxiliary"),
             FROZEN, None, None),
    "batch-with-k0-row": (ModelParams(tau=0.05, kernel=ONE_TERM, mode="auxiliary"),
                          FROZEN, [0.4, 0.0, -0.3], None),
    "tau0": (ModelParams(tau=0.0, k=0.5, kernel=ONE_TERM), FROZEN, None, None),
    "tau0-batch": (ModelParams(tau=0.0, kernel=ONE_TERM), MODULATED, [0.5, 0.0], None),
    "no-memory": (ModelParams(tau=0.05, k=-0.3, theta=3.0, mode="auxiliary"),
                  FROZEN, None, None),
    "no-memory-batch": (ModelParams(tau=0.05), FROZEN, [0.0, -0.3, 0.6], None),
    "three-terms": (ModelParams(tau=0.05, k=0.2, kernel=THREE_TERMS), MODULATED, None, None),
    "three-terms-batch": (ModelParams(tau=0.05, kernel=THREE_TERMS, mode="auxiliary"),
                          MODULATED, [-0.2, 0.0, 0.3], None),
    "modulated": (ModelParams(tau=0.05, k=-0.4, kernel=ONE_TERM), MODULATED, None, None),
    # a new map at each stretch: the state's plan is rebuilt, and at k = 0
    # the map reads no delay rows
    "k-changes": (ModelParams(tau=0.05, kernel=ONE_TERM, mode="auxiliary"),
                  MODULATED, None, [0.3, -0.2, 0.0, 0.3]),
}


def same_integrals(buf, ref_buf) -> bool:
    """Whether two delay lines carry the same bits of the delay integral."""
    return np.array(buf.integral).tobytes() == np.array(ref_buf.integral).tobytes()


def assert_same_bits(state, ref):
    for name in ("u", "v", "q"):
        a, b = getattr(state, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert np.array_equal(a, b), name
    for name in ("u_hist", "v_hist"):
        buf, ref_buf = getattr(state, name), getattr(ref, name)
        assert (buf is None) == (ref_buf is None), name
        if buf is not None:
            assert buf.head == ref_buf.head and buf.pushed == ref_buf.pushed, name
            assert np.array_equal(buf.data, ref_buf.data), name
    if state.v_hist is not None:
        assert state.v_hist.norms.tobytes() == ref.v_hist.norms.tobytes()
        assert same_integrals(state.v_hist, ref.v_hist)


@pytest.mark.parametrize("case", sorted(CASES))
def test_step_keeps_the_bits_of_the_eager_step(case):
    params, init, ks, k_stretches = CASES[case]
    disc = discretize(params, nx=20, ns=16)
    state = build(params, init, disc, ks=ks, steps=25)
    ref = build(params, init, disc, ks=ks, steps=25)
    for n in range(STEPS):
        if k_stretches is not None:
            params = replace(params, k=k_stretches[n * len(k_stretches) // STEPS])
        step(state, params, disc)
        eager_map_step(ref, params, disc)
        assert_same_bits(state, ref)


def test_retired_row_keeps_the_live_rows_delay_integrals():
    # the k = -330 row goes non-finite between two samples; retiring it
    # zeroes its slots, norms and delay integral, and the live rows' integrals
    # go on from their own; the next sample comes within n_delay steps, so
    # the recursion reads norms of slots the retired row shares with them
    params = ModelParams(tau=0.02, kernel=ONE_TERM)
    disc = discretize(params, nx=40, ns=16)
    ks = [0.5, -330.0, 0.2]
    batch = run(params, FROZEN, disc, 9.6, sample_every=7, ks=ks)
    assert [trace.aborted_step for trace in batch] == [None, 1482, None]
    assert 1482 % 7 != 0 and -1482 % 7 <= disc.n_delay
    for trace, k in zip(batch, ks):
        if trace.aborted_step is None:
            solo = run(replace(params, k=k), FROZEN, disc, 9.6, sample_every=7)
            assert np.array_equal(trace.delay_raw, solo.delay_raw), k
            assert np.array_equal(trace.total, solo.total), k


def assert_same_bytes(state, ref):
    """Every field and stored slot the same bytes, signs of zero and NaNs included."""
    assert (state.t, state.step_index) == (ref.t, ref.step_index)
    for name in ("u", "v", "q"):
        a, b = getattr(state, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    for name in ("u_hist", "v_hist"):
        buf, ref_buf = getattr(state, name), getattr(ref, name)
        assert (buf is None) == (ref_buf is None), name
        if buf is not None:
            assert (buf.head, buf.pushed) == (ref_buf.head, ref_buf.pushed), name
            assert buf.data.tobytes() == ref_buf.data.tobytes(), name
    if state.v_hist is not None:
        assert same_integrals(state.v_hist, ref.v_hist)


@pytest.mark.parametrize("n", [1, 7, STEPS])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_call_of_n_steps_keeps_the_bits_of_n_eager_steps(case, n):
    params, init, ks, k_stretches = CASES[case]
    disc = discretize(params, nx=20, ns=16)
    state = build(params, init, disc, ks=ks, steps=25)
    ref = build(params, init, disc, ks=ks, steps=25)
    # a call keeps one k, so it ends where a stretch does
    stretch = STEPS if k_stretches is None else STEPS // len(k_stretches)
    while state.step_index < STEPS:
        if k_stretches is not None:
            params = replace(params, k=k_stretches[state.step_index // stretch])
        count = min(n, stretch - state.step_index % stretch)
        step(state, params, disc, count)
        for _ in range(count):
            eager_map_step(ref, params, disc)
        assert_same_bytes(state, ref)
        assert_same_bits(state, ref)


# the k = -330 row of this batch goes non-finite at step 1482
ABORTING = (ModelParams(tau=0.02, kernel=ONE_TERM), FROZEN, [0.5, -330.0, 0.2], 1482)


def test_abort_inside_a_call_names_the_step_and_rows_of_single_steps():
    params, init, ks, abort = ABORTING
    disc = discretize(params, nx=40, ns=16)
    single = build(params, init, disc, ks=ks)
    with pytest.raises(NonFinite) as by_single:
        for _ in range(2 * abort):
            step(single, params, disc)
    batched = build(params, init, disc, ks=ks)
    with pytest.raises(NonFinite) as by_call:
        step(batched, params, disc, 2 * abort)
    assert (by_call.value.step_index, by_call.value.rows) == (abort, [1])
    assert (by_single.value.step_index, by_single.value.rows) == (abort, [1])
    assert_same_bytes(batched, single)


@pytest.mark.parametrize("case", ["solo", "three-terms-batch"])
def test_huge_finite_state_steps_on(case):
    # |u| ~ 1e200: the squares overflow, every entry stays finite
    params, init, ks, _ = CASES[case]
    disc = discretize(params, nx=20, ns=16)
    state = build(params, init, disc, ks=ks)
    ref = build(params, init, disc, ks=ks)
    for s in (state, ref):
        s.u *= 1e200
        s.q *= 1e200
    step(state, params, disc, 5)
    for _ in range(5):
        eager_map_step(ref, params, disc)
    assert_same_bytes(state, ref)
    assert np.isfinite(state.u).all() and not math.isfinite(np.vdot(state.u, state.u))


def hand_run(params, init, disc, horizon, sample_every, ks=None):
    """``run`` by single steps: (times, samples (sample, term) + batch, aborted, kept)."""
    n_steps = round(horizon / disc.dt)
    state = build(params, init, disc, ks=ks, steps=n_steps)
    aborted = [None] * (1 if ks is None else len(ks))
    kept = [None] * len(aborted)
    times, samples = [], []

    def take_sample():
        row = sample_state(state, params, disc)
        samples.append([getattr(row, name) for name in SAMPLE_TERMS])
        times.append(state.t)

    take_sample()
    for n in range(1, n_steps + 1):
        try:
            step(state, params, disc, 1)
        except NonFinite as err:
            for r in err.rows or [0]:
                aborted[r], kept[r] = err.step_index, len(times)
            if None not in aborted:
                break
            state.retire(err.rows)
        if n % sample_every == 0 or n == n_steps:
            take_sample()
    return np.array(times), np.array(samples), aborted, kept


def counted_calls(monkeypatch):
    """The n of every ``solver.step`` call, as ``run`` passes it."""
    calls = []
    original = solver.step
    monkeypatch.setattr(solver, "step", lambda *args, **kwargs:
                        calls.append(args[3]) or original(*args, **kwargs))
    return calls


def span_calls(n_steps, span_steps, abort=None):
    """A call per span of ``span_steps`` steps, spans on a grid of that many
    steps, and one more after a mid-span abort."""
    calls = []
    for start in range(0, n_steps, span_steps):
        end = min(start + span_steps, n_steps)
        calls.append(end - start)
        if abort is not None and start < abort < end:
            calls.append(end - abort)
    return calls


def test_solo_run_steps_a_span_per_call_with_the_bits_of_single_steps(monkeypatch):
    params, init, _, _ = CASES["three-terms"]
    disc = discretize(params, nx=20, ns=16)
    horizon = 60 * disc.dt
    times, samples, aborted, _ = hand_run(params, init, disc, horizon, 7)
    calls = counted_calls(monkeypatch)
    trace = run(params, init, disc, horizon, sample_every=7)
    # every interval of the run fits in one span
    depth = solver._span_depth(params, init, disc, (), 60, 7)
    assert depth == 9
    assert calls == span_calls(60, 7 * depth) == [60]
    assert trace.aborted_step is None and aborted == [None]
    assert trace.times.tobytes() == times.tobytes()
    for i, name in enumerate(SAMPLE_TERMS):
        assert getattr(trace, name).tobytes() == samples[:, i].tobytes(), name


def test_batch_run_finishes_the_interval_of_an_abort_with_the_bits_of_single_steps(monkeypatch):
    # the batch of test_retired_row_keeps_the_live_rows_delay_integrals; its
    # displacement history is shorter than the run, so a span is one interval
    params, init, ks, abort = ABORTING
    disc = discretize(params, nx=40, ns=16)
    times, samples, aborted, kept = hand_run(params, init, disc, 9.6, 7, ks)
    assert aborted == [None, abort, None] and abort % 7 != 0
    calls = counted_calls(monkeypatch)
    batch = run(params, init, disc, 9.6, sample_every=7, ks=ks)
    n_steps = round(9.6 / disc.dt)
    assert disc.n_hist < n_steps and solver._span_depth(params, init, disc, (3,), n_steps, 7) == 1
    assert calls == span_calls(n_steps, 7, abort)
    for r, trace in enumerate(batch):
        n = times.size if kept[r] is None else kept[r]
        assert trace.aborted_step == aborted[r]
        assert trace.times.tobytes() == times[:n].tobytes()
        for i, name in enumerate(SAMPLE_TERMS):
            assert getattr(trace, name).tobytes() == samples[:n, i, r].tobytes(), (r, name)


def assert_run_is_hand_run(params, init, disc, horizon, sample_every, ks=None):
    """``run`` gives the times, terms, abort steps and kept samples of
    ``hand_run``, bit for bit; returns its traces and ``hand_run``'s kept."""
    times, samples, aborted, kept = hand_run(params, init, disc, horizon, sample_every, ks)
    traces = run(params, init, disc, horizon, sample_every=sample_every, ks=ks)
    for r, trace in enumerate([traces] if ks is None else traces):
        n = times.size if kept[r] is None else kept[r]
        assert trace.aborted_step == aborted[r]
        assert trace.times.tobytes() == times[:n].tobytes()
        for i, name in enumerate(SAMPLE_TERMS):
            column = samples[:n, i] if ks is None else samples[:n, i, r]
            assert getattr(trace, name).tobytes() == column.tobytes(), (r, name)
    return traces, kept


def test_a_history_shorter_than_the_run_takes_spans_of_one(monkeypatch):
    # n_hist = 776 slots for 840 steps: a lagged read could find its slot overwritten
    params = ModelParams(tau=0.3, k=0.05, kernel=ONE_TERM)
    disc = discretize(params, nx=20)
    n_steps = round(10.0 / disc.dt)
    assert disc.n_hist < n_steps
    assert solver._span_depth(params, MODULATED, disc, (), n_steps, 5) == 1
    calls = counted_calls(monkeypatch)
    trace, _ = assert_run_is_hand_run(params, MODULATED, disc, 10.0, 5)
    assert calls == span_calls(n_steps, 5)
    assert trace.final_state.u_hist.capacity == min(disc.n_hist, n_steps)
    assert trace.final_state.v_hist.capacity == disc.n_delay + 2


@pytest.mark.parametrize("span_bytes, depth", [(2 ** 10, 1), (2 ** 13, 5), (2 ** 21, 84)])
def test_the_delay_line_has_n_delay_plus_2_slots_at_every_span_depth(monkeypatch, span_bytes,
                                                                     depth):
    # spans of one interval of 3 steps, of 5 and of the whole run's 84: a
    # span keeps each state's delayed velocity and delay integral as it
    # passes it, so a span's first state, sampled up to 249 steps after it
    # was kept, reads nothing of the delay line's n_delay + 2 = 6 slots
    monkeypatch.setattr(solver, "SPAN_BYTES", span_bytes)
    params = ModelParams(tau=0.05, k=0.4, kernel=SLOW, mode="auxiliary")
    disc = discretize(params, nx=20, ns=16)
    n_steps = round(3.0 / disc.dt)
    assert solver._span_depth(params, MODULATED, disc, (), n_steps, 3) == depth
    trace, _ = assert_run_is_hand_run(params, MODULATED, disc, 3.0, 3)
    assert trace.final_state.v_hist.capacity == disc.n_delay + 2 == 6


@pytest.mark.parametrize("ks", [None, ABORTING[2]], ids=["solo", "batch"])
def test_a_mid_span_abort_keeps_the_samples_before_it_and_kept(monkeypatch, ks):
    # the k = -330 row of ABORTING, alone or in its batch, with a displacement
    # history longer than the run, in spans of several intervals of 7 steps
    monkeypatch.setattr(solver, "SPAN_BYTES", 2 ** 17)
    params = ModelParams(tau=0.02, k=-330.0, kernel=SLOW)  # a batch reads ks, not k
    abort = ABORTING[3]
    disc = discretize(params, nx=40, ns=16)
    n_steps = round(9.6 / disc.dt)
    depth = solver._span_depth(params, FROZEN, disc, () if ks is None else (3,), n_steps, 7)
    assert depth > 1 and disc.n_hist >= n_steps
    # the abort falls between two samples, after the first one of its span
    assert abort % (7 * depth) > 7 and abort % 7 != 0
    calls = counted_calls(monkeypatch)
    traces, kept = assert_run_is_hand_run(params, FROZEN, disc, 9.6, 7, ks)
    # the aborting row keeps its samples at steps 0, 7, ..., up to the abort
    if ks is None:
        assert traces.aborted_step == abort and kept == [abort // 7 + 1]
        # a solo run stops there: no call finishes the span
        assert calls == span_calls(n_steps, 7 * depth)[:abort // (7 * depth) + 1]
    else:
        assert [trace.aborted_step for trace in traces] == [None, abort, None]
        assert kept == [None, abort // 7 + 1, None]
        assert calls == span_calls(n_steps, 7 * depth, abort)


@pytest.mark.parametrize("case", ["no-memory", "no-memory-batch", "tau0", "tau0-batch"])
def test_spans_without_a_kernel_or_a_delay_keep_the_bits_of_single_steps(case):
    params, init, ks, _ = CASES[case]
    disc = discretize(params, nx=20, ns=16)
    n_steps = round(2.0 / disc.dt)
    batch = () if ks is None else (len(ks),)
    assert solver._span_depth(params, init, disc, batch, n_steps, 3) > 1
    assert_run_is_hand_run(params, init, disc, 2.0, 3, ks)


def test_a_last_interval_shorter_than_sample_every_ends_the_last_span(monkeypatch):
    # 100 steps sampled every 7 in spans of 3 intervals: the last span holds
    # the samples at steps 91 and 98, then the last step's
    monkeypatch.setattr(solver, "SPAN_BYTES", 2 ** 14)
    params, init, ks, _ = CASES["three-terms-batch"]
    disc = discretize(params, nx=20, ns=16)
    assert solver._span_depth(params, init, disc, (3,), 100, 7) == 3
    calls = counted_calls(monkeypatch)
    assert_run_is_hand_run(params, init, disc, 100 * disc.dt, 7, ks)
    assert calls == span_calls(100, 21) == [21] * 4 + [16]


SLOW_SOLO = ModelParams(tau=0.05, k=0.4, kernel=SLOW, mode="auxiliary")
SLOW_BATCH, SLOW_KS = replace(SLOW_SOLO, k=0.0), [0.4, 0.0, -0.3]  # a batch reads ks, not k
# A span of S states forms eta in tiles of T: (params, init, ks, (nx, ns),
# SPAN_BYTES, sample_every, horizon, S, T)
TILED = {
    # tiles of 5, four times, and 3 states
    "solo-modulated": (SLOW_SOLO, MODULATED, None, (20, 16), 2 ** 15, 1, 3.0, 23, 5),
    # tiles of 7, four times, and 3 states
    "batch-modulated": (SLOW_BATCH, MODULATED, SLOW_KS, (20, 16), 2 ** 17, 1, 3.0, 31, 7),
    "solo-tiles-of-one": (SLOW_SOLO, MODULATED, None, (20, 16), 2 ** 13, 1, 3.0, 5, 1),
    "batch-tiles-of-one": (SLOW_BATCH, MODULATED, SLOW_KS, (20, 16), 2 ** 15, 1, 3.0, 7, 1),
    # the k = -330 row of ABORTING goes non-finite past a span's first tile,
    # after its 34th state (tiles of 4) or its 10th (tiles of 3)
    "abort-solo": (ModelParams(tau=0.02, k=-330.0, kernel=SLOW), FROZEN, None, (40, 64),
                   2 ** 17, 4, 9.6, 48, 4),
    "abort-batch": (ModelParams(tau=0.02, kernel=SLOW), FROZEN, ABORTING[2], (40, 64),
                    5 * 2 ** 16, 4, 9.6, 40, 3),
}


@pytest.mark.parametrize("case", sorted(TILED))
def test_tiles_of_a_span_keep_the_bits_of_single_steps(monkeypatch, case):
    params, init, ks, (nx, ns), span_bytes, every, horizon, depth, tile = TILED[case]
    monkeypatch.setattr(solver, "SPAN_BYTES", span_bytes)
    disc = discretize(params, nx=nx, ns=ns)
    n_steps = round(horizon / disc.dt)
    batch = () if ks is None else (len(ks),)
    assert solver._span_depth(params, init, disc, batch, n_steps, every) == depth
    assert solver._tile_depth(params, init, disc, batch, n_steps, every) == tile
    traces, kept = assert_run_is_hand_run(params, init, disc, horizon, every, ks)
    if case.startswith("abort"):
        abort = ABORTING[3]
        assert abort % every != 0 and abort % (every * depth) // every > tile
        assert kept[0 if ks is None else 1] == abort // every + 1


@pytest.mark.parametrize("init", [FROZEN, MODULATED], ids=["frozen", "modulated"])
def test_tiled_snapshots_keep_the_moments_of_each_states_eta(monkeypatch, init):
    # spans of 23 states in tiles of 5, four times, and 3, against single
    # steps, each sampled and its eta formed alone when it is reached
    monkeypatch.setattr(solver, "SPAN_BYTES", 2 ** 15)
    disc = discretize(SLOW_SOLO, nx=20, ns=16)
    n_steps = round(3.0 / disc.dt)
    assert solver._span_depth(SLOW_SOLO, init, disc, (), n_steps, 1, snapshots=True) == 23
    assert solver._tile_depth(SLOW_SOLO, init, disc, (), n_steps, 1, snapshots=True) == 5
    trace = run(SLOW_SOLO, init, disc, 3.0, sample_every=1, snapshots=True)
    times, samples, _, _ = hand_run(SLOW_SOLO, init, disc, 3.0, 1)
    for i, name in enumerate(SAMPLE_TERMS):
        assert getattr(trace, name).tobytes() == samples[:, i].tobytes(), name
    on_grid = disc.kernel_on_grid
    state = build(SLOW_SOLO, init, disc, steps=n_steps)
    snaps = iter(trace.snapshots)
    for n in range(n_steps + 1):
        if n:
            step(state, SLOW_SOLO, disc, 1)
        snap, eta = next(snaps), solver.eta_field(state, SLOW_SOLO, disc)
        assert snap.t == state.t
        for got, want in ((snap.u, state.u), (snap.v, state.v),
                          (snap.v_delayed, solver.delayed_velocity(state, SLOW_SOLO, disc)),
                          (snap.int_mu_eta, on_grid.w_mu @ eta),
                          (snap.int_mu_prime_eta, on_grid.w_mu_prime @ eta)):
            assert got.tobytes() == want.tobytes(), n
    assert next(snaps, None) is None and len(trace.snapshots) == times.size


# (params, init, ks, nx, horizon, sample_every, snapshots, S, T): a sweep_k
# batch and the long_memory config of the benchmark, at ns = 64
BUDGETED = {
    "sweep-batch": (ModelParams(tau=1.0, kernel=ONE_TERM),
                    InitialData(shape="sine"), [0.001 * r for r in range(8)], 100, 1.0, 1,
                    False, 40, 4),
    "long-memory": (ModelParams(tau=0.5, k=0.05, mode="auxiliary",
                                kernel=MemoryKernel.from_terms([(2.0, 8.0), (0.02, 0.05)])),
                    InitialData(shape="gaussian", width=0.1, history="modulated"), None, 200,
                    2.0, 4, True, 162, 10),
}


@pytest.mark.parametrize("case", sorted(BUDGETED))
def test_a_span_and_its_tiles_fit_their_bytes(monkeypatch, case):
    params, init, ks, nx, horizon, every, snapshots, depth, tile = BUDGETED[case]
    disc = discretize(params, nx=nx, ns=64)
    kept = []
    original = energy.sample_state

    def sampled(state, params, disc, moments=None, span=None):
        kept.append((state, span))
        return original(state, params, disc, moments, span)

    monkeypatch.setattr(energy, "sample_state", sampled)
    run(params, init, disc, horizon, sample_every=every, snapshots=snapshots, ks=ks)
    state, span = kept[-1]
    assert all(s is state and sp is span for s, sp in kept)
    assert (span.fields.shape[1], span.tile_depth) == (depth, tile)
    rows = 1 if ks is None else len(ks)
    row = 8 * rows * (nx + 2)
    # the delay line adds no slot for the span, however deep
    assert state.v_hist.capacity == disc.n_delay + 2
    # a tile: eta and its gradient and its states' u and v
    eta = span.pool["eta"].nbytes + span.pool["work"].nbytes
    tile_bytes = eta + 2 * tile * row
    assert tile_bytes <= solver.SPAN_BYTES < tile_bytes + eta // tile + 2 * row
    # the span outside eta: its states' u, v and delayed velocity and the
    # gradient of u; one more state breaks the bound
    kept_bytes = span.fields.nbytes + span.pool["grad_u"].nbytes
    assert kept_bytes == 4 * depth * row <= solver.SPAN_BYTES // 2 < 4 * (depth + 1) * row


# A call makes its steps in chunks of at most ``solver._chunk_bound`` steps:
# (case of CASES, nx, the ``steps`` the state is built for, what bounds a chunk)
TAU_LARGE = ModelParams(tau=0.1, k=0.4, kernel=ONE_TERM, mode="auxiliary")
CHUNKED = {
    # the delay inputs of a chunk's steps: n_delay = 4 rows back at nx = 20
    "n_delay-solo": ("solo", 20, 25, "n_delay"),
    "n_delay-batch": ("batch-with-k0-row", 20, 25, "n_delay"),
    "n_delay-three-terms-batch": ("three-terms-batch", 20, 25, "n_delay"),
    # no delay line: the displacement history's 25 slots
    "capacity-tau0": ("tau0", 20, 25, "u_hist"),
    # a delay line but no delay inputs (k = 0): n_delay, two fewer than the
    # line's 6 slots, so the norms its integral's advance reads are stored
    "capacity-delay-line": ("k0-delay-line", 20, 25, "n_delay"),
    # tau = 0.1 is 80 steps at nx = 200: the block of a chunk's inputs
    "bytes-solo": ("tau-large", 200, 100, "bytes"),
    "bytes-batch": ("tau-large-batch", 200, 100, "bytes"),
    # 5 slots of displacement history, fewer than n_delay = 8 at nx = 20
    "capacity-small-steps": ("tau-large", 20, 5, "u_hist"),
}
CHUNK_CASES = {**CASES,
               "k0-delay-line": (replace(CASES["solo"][0], k=0.0), FROZEN, None, None),
               "tau-large": (TAU_LARGE, MODULATED, None, None),
               "tau-large-batch": (TAU_LARGE, MODULATED, [0.4, 0.0, -0.3], None)}


def chunk_bound(params, disc, state):
    coeffs = (solver._step_map(params, disc) if state.ks is None
              else solver._stacked_maps(params, disc, state.ks))
    n_in = coeffs.shape[-1]
    rows = 1 if state.ks is None else len(state.ks)
    limits = {"n_delay": disc.n_delay if state.v_hist is not None else math.inf,
              "u_hist": state.u_hist.capacity,
              "bytes": solver.CHUNK_BYTES // (8 * n_in * rows * (disc.nx + 2))}
    return solver._chunk_bound(coeffs, state, disc), limits


@pytest.mark.parametrize("chunked", sorted(CHUNKED))
def test_a_call_across_chunk_bounds_keeps_the_bytes_of_eager_steps(chunked):
    case, nx, steps, bounded_by = CHUNKED[chunked]
    params, init, ks, _ = CHUNK_CASES[case]
    disc = discretize(params, nx=nx, ns=16)
    bound, limits = chunk_bound(params, disc, build(params, init, disc, ks=ks, steps=steps))
    assert bound == limits[bounded_by] < min(v for k, v in limits.items() if k != bounded_by)
    for n in (bound - 1, bound, bound + 1, 2 * bound + 3):
        state = build(params, init, disc, ks=ks, steps=steps)
        ref = build(params, init, disc, ks=ks, steps=steps)
        step(state, params, disc, n)
        for _ in range(n):
            eager_map_step(ref, params, disc)
        assert_same_bytes(state, ref)
        assert_same_bits(state, ref)
        assert state.t == ref.t, n


@pytest.mark.parametrize("ks", [None, ABORTING[2]], ids=["solo", "batch"])
def test_abort_inside_a_chunk_keeps_the_step_rows_and_bytes_of_single_steps(ks):
    params, init, _, abort = ABORTING
    if ks is None:
        params = replace(params, k=-330.0)
    disc = discretize(params, nx=40, ns=16)
    state = build(params, init, disc, ks=ks)
    bound, _ = chunk_bound(params, disc, state)
    assert bound == disc.n_delay == 3
    # one step first, so the abort falls on the middle step of a chunk
    step(state, params, disc, 1)
    assert 0 < (abort - 1 - state.step_index) % bound < bound - 1
    ref = build(params, init, disc, ks=ks)
    with pytest.raises(NonFinite) as by_eager:
        for _ in range(2 * abort):
            eager_map_step(ref, params, disc)
    with pytest.raises(NonFinite) as by_call:
        step(state, params, disc, 2 * abort)
    rows = None if ks is None else [1]
    assert (by_call.value.step_index, by_call.value.rows) == (abort, rows)
    assert (by_eager.value.step_index, by_eager.value.rows) == (abort, rows)
    assert_same_bytes(state, ref)
    assert_same_bits(state, ref)


# chunks of 32 steps or more: no delay line (the chunk is bounded by its
# bytes) or one of 33 slots; the k = -330 and k = -3300 rows go non-finite
LONG_CHUNKS = {
    "no-delay-solo": (ModelParams(tau=0.0, k=-330.0, kernel=ONE_TERM), None),
    "no-delay-batch": (ModelParams(tau=0.0, kernel=ONE_TERM), [0.5, -330.0, 0.2]),
    "long-delay-solo": (ModelParams(tau=0.2, k=-3300.0, kernel=ONE_TERM), None),
    "long-delay-batch": (ModelParams(tau=0.2, kernel=ONE_TERM), [0.5, -3300.0, 0.2]),
}


def long_chunk_states(case):
    params, ks = LONG_CHUNKS[case]
    disc = discretize(params, nx=40, ns=16)
    state, ref = (build(params, FROZEN, disc, ks=ks) for _ in range(2))
    bound, _ = chunk_bound(params, disc, state)
    assert bound >= 32
    return params, disc, state, ref, bound, None if ks is None else [1]


@pytest.mark.parametrize("case", sorted(LONG_CHUNKS))
def test_abort_on_the_first_step_of_a_long_chunk_keeps_the_bytes_of_single_steps(case):
    # the screen reads the chunk's last outputs only: the row that went
    # non-finite at its first step must still be found, at that step
    params, disc, state, ref, bound, rows = long_chunk_states(case)
    with pytest.raises(NonFinite) as by_eager:
        for _ in range(10_000):
            eager_map_step(ref, params, disc)
    abort = by_eager.value.step_index
    step(state, params, disc, abort - 1)
    with pytest.raises(NonFinite) as by_call:
        step(state, params, disc, 2 * bound)
    assert (by_call.value.step_index, by_call.value.rows) == (abort, rows)
    assert by_eager.value.rows == rows
    assert_same_bytes(state, ref)
    assert_same_bits(state, ref)


@pytest.mark.parametrize("case", sorted(LONG_CHUNKS))
def test_a_non_finite_q_alone_aborts_a_long_chunk_as_single_steps(case):
    params, disc, state, ref, bound, rows = long_chunk_states(case)
    for each in (state, ref):
        q = each.q if rows is None else each.q[:, 1]  # a view of row 1's modes
        q[:, 7] = np.inf if rows is None else np.nan
    with pytest.raises(NonFinite) as by_eager:
        for _ in range(2 * bound):
            eager_map_step(ref, params, disc)
    with pytest.raises(NonFinite) as by_call:
        step(state, params, disc, 2 * bound)
    assert by_call.value.step_index == by_eager.value.step_index < bound
    assert by_call.value.rows == by_eager.value.rows == rows
    assert_same_bytes(state, ref)


def counted_advances(monkeypatch):
    """The k of every ``DelayLine.advance`` call."""
    counts = []
    original = solver.DelayLine.advance
    monkeypatch.setattr(solver.DelayLine, "advance",
                        lambda line, k: counts.append(k) or original(line, k))
    return counts


# tau = n_delay dt at nx = 20 (dt = 0.25 / 21): delay lines of 5 to 7 steps, so
# a call of 2 n_delay + 3 steps advances its delay integral twice inside it
MID_CALL_TAU = {5: 0.06, 6: 0.07, 7: 0.085}
# (params, init, ks, the steps a run takes); the k = -100 row of the batch
# goes non-finite at step 2508, 2802 or 3084, and the others go on
MID_CALL = {
    "solo": (ModelParams(k=0.4, kernel=ONE_TERM, mode="auxiliary"), MODULATED, None, 200),
    "batch-abort": (ModelParams(kernel=ONE_TERM), FROZEN, [0.5, -100.0, 0.2], 3200),
}


def eager_call(ref, params, disc, n, every):
    """``n`` eager steps of ``ref``: the (step, time, delay integral) of each
    state a span keeps, and the NonFinite raised, if any."""
    end = ref.step_index + n
    kept = []
    for _ in range(n):
        try:
            eager_map_step(ref, params, disc)
        except NonFinite as err:
            return kept, err
        if ref.step_index % every == 0 or ref.step_index == end:
            kept.append((ref.step_index, ref.t, ref.v_hist.integral.tolist()))
    return kept, None


@pytest.mark.parametrize("case", sorted(MID_CALL))
@pytest.mark.parametrize("n_delay", sorted(MID_CALL_TAU))
def test_advances_inside_a_call_keep_the_bytes_of_eager_pushes(monkeypatch, n_delay, case):
    # calls of 2 n_delay + 3 steps in chunks of n_delay: the call advances
    # before its second chunk, before its third and at its end, and its span
    # keeps every third state, on both sides of each advance
    params, init, ks, horizon = MID_CALL[case]
    params = replace(params, tau=MID_CALL_TAU[n_delay])
    disc = discretize(params, nx=20, ns=16)
    assert disc.n_delay == n_delay
    n, every = 2 * n_delay + 3, 3
    state, ref = (build(params, init, disc, ks=ks) for _ in range(2))
    assert chunk_bound(params, disc, state)[0] == n_delay
    span = solver.Span(n // every + 2, state.u.shape, every)
    advances = counted_advances(monkeypatch)
    aborted = None
    while state.step_index < horizon:
        start = state.step_index
        kept, err = eager_call(ref, params, disc, n, every)
        del advances[:]
        try:
            step(state, params, disc, n, span)
        except NonFinite as raised:
            assert err is not None and (raised.step_index, raised.rows) == (err.step_index,
                                                                              err.rows)
        else:
            assert err is None
        assert_same_bytes(state, ref)
        assert_same_bits(state, ref)
        assert span.steps == [s for s, _, _ in kept]
        assert span.times == [t for _, t, _ in kept]
        expected = np.array([integral for _, _, integral in kept])
        assert span.integral[:len(kept)].tobytes() == expected.tobytes()
        span.clear()
        if err is None:
            assert advances == [n_delay, n_delay, 3], start
        else:
            # inside a window of pushes the next advance would have closed:
            # the one before the raise takes more than the aborting step
            assert aborted is None and 1 < advances[-1] and err.step_index - start < n
            aborted = err.step_index
            state.retire(err.rows)
            ref.retire(err.rows)
    assert (aborted is None) == (ks is None)


# the solo aux_long and long_memory benchmark configs (seed 0) at nx = 200,
# and the step call of one of their spans: (params, init, steps, advances)
BENCH_SHAPES = {
    "aux_long": (ModelParams(tau=1.0, k=0.018, theta=2.0, kernel=ONE_TERM, mode="auxiliary"),
                 InitialData(), 400, [400]),
    "long_memory": (ModelParams(tau=0.5, k=0.05, theta=2.0, mode="auxiliary",
                                kernel=MemoryKernel.from_terms([(2.0, 8.0), (0.02, 0.05)])),
                    InitialData(shape="gaussian", center=0.35, width=0.1, history="modulated"),
                    648, [378, 270]),
}


@pytest.mark.parametrize("case", sorted(BENCH_SHAPES))
def test_a_call_advances_the_delay_line_once_per_n_delay_steps_not_per_chunk(monkeypatch,
                                                                              case):
    params, init, n, expected = BENCH_SHAPES[case]
    disc = discretize(params, nx=200, ns=64)
    state = build(params, init, disc, steps=n)
    bound, _ = chunk_bound(params, disc, state)
    # many chunks, and a delay line of 804 or 402 steps
    assert n // bound >= 12 and disc.n_delay == {"aux_long": 804, "long_memory": 402}[case]
    advances = counted_advances(monkeypatch)
    step(state, params, disc, n)
    assert advances == expected
