"""The precomputed one-step map against the four-stage RK4 loop it replaces.

``step`` advances a ``prony_modes`` state with the ``ring_buffer`` delay (or
none) by ``solver._step_map``.  The reference is the same state advanced by
``solver._step_by_stages``, the four ``_rhs`` stages, swapped in for the map
while everything else in ``step`` and ``run`` stays as it is.
"""

import numpy as np
import pytest

from viscodelay import solver
from viscodelay.kernel import MemoryKernel
from viscodelay.solver import (InitialData, ModelParams, NonFinite, build, discretize,
                               eta_field, run, step)

KERNELS = {
    1: MemoryKernel.from_terms([(1.0, 2.0)]),
    2: MemoryKernel.from_terms([(0.3, 1.0), (2.0, 8.0)]),
    3: MemoryKernel.from_terms([(0.2, 0.7), (1.0, 5.0), (3.0, 30.0)]),
    4: MemoryKernel.from_terms([(0.05, 0.5), (0.2, 1.0), (1.0, 5.0), (4.0, 40.0)]),
}
GAUSSIAN = InitialData(shape="gaussian", width=0.05)
MODULATED = InitialData(shape="gaussian", width=0.05, history="modulated", omega=3.0)

CASES = {
    "aux-tau1-1term-sine": (ModelParams(tau=1.0, k=0.02, theta=2.0, kernel=KERNELS[1],
                                        mode="auxiliary"), InitialData()),
    "gaussian-frozen-1term": (ModelParams(tau=0.3, k=0.5, kernel=KERNELS[1]), GAUSSIAN),
    "gaussian-modulated-1term": (ModelParams(tau=0.3, k=0.5, kernel=KERNELS[1]), MODULATED),
    "gaussian-modulated-2terms-aux": (ModelParams(tau=0.2, k=-0.4, theta=3.0,
                                                  kernel=KERNELS[2], mode="auxiliary"),
                                      MODULATED),
    "gaussian-frozen-3terms": (ModelParams(tau=0.25, k=0.3, kernel=KERNELS[3]), GAUSSIAN),
    "gaussian-modulated-4terms": (ModelParams(tau=0.1, k=0.2, kernel=KERNELS[4]), MODULATED),
    "k-tau0-2terms": (ModelParams(tau=0.0, k=0.7, kernel=KERNELS[2], mode="auxiliary"),
                      MODULATED),
    "k-tau0-empty": (ModelParams(tau=0.0, k=-0.3), GAUSSIAN),
    "empty-kernel-delay": (ModelParams(tau=0.4, k=0.6, mode="auxiliary"), GAUSSIAN),
    "k0-delay-line-only": (ModelParams(tau=0.4, k=0.0, kernel=KERNELS[1]), MODULATED),
}


def traces(monkeypatch, params, init, nx=60, horizon=2.0, **kwargs):
    disc = discretize(params, nx=nx)
    by_map = run(params, init, disc, horizon, sample_every=5, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_step_by_map", solver._step_by_stages)
        by_stages = run(params, init, disc, horizon, sample_every=5, **kwargs)
    return by_map, by_stages


@pytest.mark.parametrize("case", sorted(CASES))
def test_map_matches_stages(monkeypatch, case):
    params, init = CASES[case]
    by_map, by_stages = traces(monkeypatch, params, init, snapshots=True)
    assert by_map.aborted_step is None and by_stages.aborted_step is None
    np.testing.assert_array_equal(by_map.times, by_stages.times)
    # the ROADMAP gate for a rewrite of the same scheme
    for name in ("total", "kinetic", "elastic", "memory", "delay", "mu_prime_eta"):
        np.testing.assert_allclose(getattr(by_map, name), getattr(by_stages, name),
                                   rtol=1e-10, atol=0.0, err_msg=name)
    final_map, final_stages = by_map.final_state, by_stages.final_state
    scale = np.abs(final_stages.u).max()
    for name in ("u", "v", "q"):
        a, b = getattr(final_map, name), getattr(final_stages, name)
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10 * scale, err_msg=name)
    # reconstructed history and delay line follow the pushed fields
    for name in ("int_mu_eta", "int_mu_prime_eta"):
        moment_map = np.array([getattr(s, name) for s in by_map.snapshots])
        moment_stages = np.array([getattr(s, name) for s in by_stages.snapshots])
        np.testing.assert_allclose(moment_map, moment_stages, rtol=0.0, atol=1e-10 * scale,
                                   err_msg=name)
    np.testing.assert_allclose(eta_field(final_map, params, by_map.disc),
                               eta_field(final_stages, params, by_stages.disc),
                               rtol=0.0, atol=1e-10 * scale)


@pytest.mark.parametrize("params", [ModelParams(tau=0.0, k=-1000.0),
                                    ModelParams(tau=0.05, k=-1000.0, kernel=KERNELS[1])],
                         ids=["tau0-empty", "delay-1term"])
def test_blow_up_aborts_at_the_edge_of_the_float_range(monkeypatch, params):
    # The stage path overflows first: its stage derivatives are many times
    # the state (up to |k| + 4/dx^2 per unit time), while the map's partial
    # sums stay near the state's own size.  So the map aborts a few steps
    # later (149 vs 147 for tau0-empty), once both are at the float range.
    by_map, by_stages = traces(monkeypatch, params, GAUSSIAN, nx=40, horizon=20.0)
    assert by_stages.aborted_step is not None
    assert by_map.aborted_step is not None
    assert by_map.aborted_step >= by_stages.aborted_step
    disc = by_map.disc
    last_common = by_stages.aborted_step - 1
    state = run(params, GAUSSIAN, disc, last_common * disc.dt, sample_every=10).final_state
    assert state.step_index == last_common
    # within six decades of the largest float
    assert max(np.abs(state.u).max(), np.abs(state.v).max()) > 1e-6 * np.finfo(float).max
    # up to there the two traces agree
    common = by_stages.times < last_common * disc.dt
    np.testing.assert_allclose(by_map.total[:common.sum()], by_stages.total[common],
                               rtol=1e-10, atol=0.0)


def test_map_built_once_per_params_and_grid(monkeypatch):
    # each state keeps its own map: one build per state, none per step
    built = []
    step_map = solver._step_map

    def counted(*args):
        built.append(step_map(*args))
        return built[-1]

    monkeypatch.setattr(solver, "_step_map", counted)
    params = ModelParams(tau=0.3, k=0.5, kernel=KERNELS[2])
    disc = discretize(params, nx=30)
    for _ in range(2):
        state = build(params, GAUSSIAN, disc)
        for _ in range(20):
            step(state, params, disc)
    assert len(built) == 2
    coeffs = built[0]
    assert not coeffs.flags.writeable
    # three (2 + m) x (2 + m + 2) blocks: C0, C1, C2
    assert coeffs.shape == (3 * 4, 6)
    # a new grid is a new map
    other = discretize(params, nx=30)
    step(state, params, other)
    assert len(built) == 3


def test_fields_handed_out_survive_the_next_step():
    params = ModelParams(tau=0.3, k=0.5, kernel=KERNELS[2])
    disc = discretize(params, nx=30)
    state = build(params, MODULATED, disc)
    step(state, params, disc)
    held = (state.u, state.v, state.q)
    copies = [field.copy() for field in held]
    for _ in range(3):
        step(state, params, disc)
    for field, copy in zip(held, copies):
        np.testing.assert_array_equal(field, copy)
    assert not any(np.shares_memory(field, state.u) for field in held)


def test_grid_realizations_keep_the_stage_loop(monkeypatch):
    def no_map(*args):
        raise AssertionError("the map path ran")

    monkeypatch.setattr(solver, "_step_map", no_map)
    for memory, delay in (("eta_grid", "ring_buffer"), ("prony_modes", "rho_grid"),
                          ("eta_grid", "rho_grid")):
        params = ModelParams(tau=0.3, k=0.5, kernel=KERNELS[1],
                             memory_realization=memory, delay_realization=delay)
        disc = discretize(params, nx=30, ns=16)
        state = build(params, GAUSSIAN, disc)
        step(state, params, disc)
        assert state.step_index == 1


def test_map_is_built_by_four_stage_calls(monkeypatch):
    # the map is the stage loop run once on polynomial fields; steps after
    # that make no stage call
    calls = []
    rhs = solver._rhs

    def counted(*args):
        calls.append(args)
        return rhs(*args)

    monkeypatch.setattr(solver, "_rhs", counted)
    for params, init in CASES.values():
        disc = discretize(params, nx=30)
        state = build(params, init, disc)
        step(state, params, disc)
        assert len(calls) == 4
        calls.clear()
        for _ in range(3):
            step(state, params, disc)
        assert calls == []
        assert state.step_index == 4


def test_non_finite_state_raises_from_the_map():
    params = ModelParams(tau=0.2, k=0.3, kernel=KERNELS[1])
    disc = discretize(params, nx=30)
    state = build(params, GAUSSIAN, disc)
    state.v = state.v.copy()
    state.v[3] = np.inf
    with pytest.raises(NonFinite) as err:
        step(state, params, disc)
    assert err.value.step_index == 1


@pytest.mark.parametrize("n_delay", [1, 2, 7])
def test_delay_stages_are_the_ring_buffers_interpolation(n_delay):
    # the stage inputs at c = 0, 1/2, 1 are back_interp(n_delay - c), bit for bit
    rng = np.random.default_rng(n_delay)
    ring = solver.RingBuffer(n_delay + 2, (3, 40))
    for _ in range(2 * n_delay + 5):
        ring.push(rng.standard_normal((3, 40)) * 10.0 ** rng.uniform(-8, 8, (3, 40)))
    stages = solver._delay_stages(ring.back(n_delay), ring.back(n_delay - 1))
    for c, stage in zip((0.0, 0.5, 1.0), stages):
        assert stage.tobytes() == ring.back_interp(n_delay - c).tobytes()


def test_the_swapped_in_stage_loop_makes_four_stage_calls_a_step(monkeypatch):
    # traces() and the property test compare two paths only while step reaches
    # the map path through solver._step_by_map: with the stage loop patched in
    # there, run builds no map and makes the four _rhs stages of every step
    calls = []
    rhs = solver._rhs

    def counted(*args):
        calls.append(args)
        return rhs(*args)

    monkeypatch.setattr(solver, "_rhs", counted)
    monkeypatch.setattr(solver, "_step_by_map", solver._step_by_stages)
    for params, init in CASES.values():
        disc = discretize(params, nx=30)
        trace = run(params, init, disc, 12 * disc.dt, sample_every=5)
        assert trace.final_state.step_index == 12
        assert len(calls) == 4 * 12
        calls.clear()


def test_doubling_by_an_add_is_the_product_by_two():
    # the map step forms each Horner level's 2 w as w + w: both round the
    # exact 2 w once, so they must give the same bytes on every double
    tiny = np.finfo(np.float64).smallest_subnormal
    huge = np.finfo(np.float64).max
    special = [0.0, -0.0, tiny, -tiny, np.finfo(np.float64).smallest_normal - tiny,
               huge, -huge, np.inf, -np.inf, np.nan]
    w = np.concatenate([special, np.random.default_rng(0).standard_normal(1000)])
    twice = np.empty_like(w)
    with np.errstate(over="ignore"):
        np.add(w, w, twice)
        product = np.multiply(2.0, w)
    assert twice.tobytes() == product.tobytes()
    assert twice[5] == np.inf and np.signbit(twice[1]) and twice[2] == np.nextafter(tiny, 1.0)
