"""The map step against the eager step it replaced, bit for bit.

``solver.step`` keeps its map step's buffers per state and norms the delay
line's slots when they are read.  ``_oracles.eager_map_step`` is the step
that formed every buffer afresh and normed each slot as it was pushed.
Both step the same states through runs that wrap both ring buffers, and
every field, stored slot and slot norm must be the same bits.
"""

from dataclasses import replace

import numpy as np
import pytest

from viscodelay.kernel import MemoryKernel
from viscodelay.solver import InitialData, ModelParams, build, discretize, run, step

from _oracles import eager_map_step, eager_slot_norms

ONE_TERM = MemoryKernel.from_terms([(1.0, 2.0)])
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


def assert_same_bits(state, ref, read_norms):
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
    if read_norms and state.v_hist is not None:
        offsets = np.arange(state.v_hist.capacity)
        assert np.array_equal(state.v_hist.slot_norms(offsets),
                              eager_slot_norms(ref.v_hist, offsets))
        assert np.array_equal(state.v_hist.norms, ref.v_hist.norms)


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
        # norms are read at uneven gaps, some longer than the delay line
        assert_same_bits(state, ref, read_norms=n % 7 in (0, 3) or n == STEPS - 1)


@pytest.mark.parametrize("ks", [None, [0.4, 0.0, -0.3]])
def test_slot_norms_are_formed_on_read(ks):
    params = ModelParams(tau=0.05, k=0.4, kernel=ONE_TERM, mode="auxiliary")
    disc = discretize(params, nx=20, ns=16)
    state = build(params, MODULATED, disc, ks=ks)
    buf = state.v_hist
    offsets = np.arange(buf.capacity)
    # gaps of one to past the capacity, so the unread slots come as one run,
    # as two where they wrap the end of the array, and as every slot
    for gap in list(range(1, buf.capacity + 3)) * 2:
        for _ in range(gap):
            step(state, params, disc)
        rows = buf.data[(buf.head + offsets) % buf.capacity]
        by_slot = np.stack([np.einsum("...i,...i->...", row, row) for row in rows], axis=-1)
        assert np.array_equal(buf.slot_norms(offsets), by_slot), gap


def test_retired_row_keeps_the_live_rows_unread_norms():
    # the k = -330 row goes non-finite between two samples, while the live
    # rows' slots pushed since the last sample are still to be normed; the
    # next sample comes within n_delay steps, so it reads one of those slots
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
