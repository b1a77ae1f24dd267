"""Energy sampling against its row-by-row references, bit for bit."""

from dataclasses import replace

import numpy as np
import pytest

from _oracles import (assert_sample_matches, delay_integral_rows, eta_field_rows,
                      sample_state_rows)
from viscodelay import energy, solver
from viscodelay.analysis import check_memory_identity
from viscodelay.kernel import MemoryKernel, quadrature_weights
from viscodelay.solver import (
    InitialData,
    ModelParams,
    NonFinite,
    build,
    discretize,
    dissipativity_spot_check,
    eta_field,
    run,
    step,
)

# short memory, so the displacement ring buffer wraps after ~200 steps at nx=20
KERNEL = MemoryKernel.from_terms([(2.0, 8.0)])
TWO_TERMS = MemoryKernel.from_terms([(2.0, 8.0), (1.0, 12.0)])
FROZEN = InitialData(shape="gaussian", center=0.4)
MODULATED = InitialData(shape="gaussian", center=0.4, history="modulated", omega=3.0)
BATCH_KS = [-0.3, 0.0, 0.4]


def assert_matches_reference(state, params, disc):
    assert np.array_equal(eta_field(state, params, disc),
                          eta_field_rows(state, params, disc))
    assert_sample_matches(energy.sample_state(state, params, disc),
                          sample_state_rows(state, params, disc))
    if state.v_hist is not None:
        data = state.v_hist.data
        assert np.array_equal(state.v_hist.norms, np.einsum("ij,ij->i", data, data))


@pytest.mark.parametrize("delay_realization", ["ring_buffer", "rho_grid"])
def test_sampling_matches_reference_after_heads_wrap(delay_realization):
    params = ModelParams(tau=0.2, k=-0.3, kernel=KERNEL, mode="auxiliary",
                         delay_realization=delay_realization)
    disc = discretize(params, nx=20)
    state = build(params, MODULATED, disc)
    assert_matches_reference(state, params, disc)
    for n in range(disc.n_hist + 10):
        step(state, params, disc)
        if n % 23 == 0:
            assert_matches_reference(state, params, disc)
    assert state.step_index > state.u_hist.capacity > state.v_hist.capacity
    assert_matches_reference(state, params, disc)


def test_sampling_matches_reference_on_whole_step_nodes():
    params = ModelParams(tau=0.2, k=0.3, kernel=KERNEL)
    base = discretize(params, nx=20)
    # power-of-two multiples of dt divide back to whole numbers exactly
    whole = base.dt * np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    fractional = base.dt * np.array([3.5, 12.25, 100.75])
    nodes = np.sort(np.concatenate([whole, fractional]))
    disc = replace(base, s_nodes=nodes, s_weights=quadrature_weights(nodes))
    steps = disc.s_nodes[1:] / disc.dt
    assert np.count_nonzero(steps == np.floor(steps)) == 8
    assert 129 < disc.n_hist

    state = build(params, MODULATED, disc)
    for _ in range(50):
        step(state, params, disc)
    assert_matches_reference(state, params, disc)
    # a whole-step node reads its slot alone: a non-finite value in the
    # next slot must not reach it (0 * inf would be nan)
    hist = state.u_hist
    hist.data[(hist.head + 129) % hist.capacity] = np.inf
    with np.errstate(invalid="ignore"):  # the discarded 0 * inf
        eta = eta_field(state, params, disc)
    assert np.isfinite(eta).all()
    assert np.array_equal(eta, eta_field_rows(state, params, disc))


@pytest.mark.parametrize("kernel, tau", [(MemoryKernel(), 0.2), (KERNEL, 0.0),
                                         (MemoryKernel(), 0.0)])
def test_sampling_matches_reference_without_memory_or_delay(kernel, tau):
    params = ModelParams(tau=tau, k=0.3, kernel=kernel, mode="auxiliary")
    disc = discretize(params, nx=20)
    state = build(params, MODULATED, disc)
    for _ in range(30):
        step(state, params, disc)
    assert_matches_reference(state, params, disc)


@pytest.mark.parametrize("tau", [0.0, 0.2])
def test_state_bytes_count_delay_line_norms(tau):
    params = ModelParams(tau=tau, k=0.3, kernel=KERNEL)
    disc = discretize(params, nx=20)
    state = build(params, InitialData(), disc)
    fields = [state.u, state.v, state.q, state.eta, state.z_rho]
    fields += [buf.padded for buf in (state.u_hist, state.v_hist) if buf is not None]
    without_norms = sum(arr.nbytes for arr in fields if arr is not None)
    expected = 8 * (disc.n_delay + 2) if tau > 0.0 else 0
    assert state.nbytes() - without_norms == expected


@pytest.mark.parametrize("memory_realization", ["eta_grid", "prony_modes"])
def test_kernel_evaluated_once_per_grid(monkeypatch, memory_realization):
    calls = {"value": 0, "derivative": 0}
    for name in calls:
        def counted(self, s, _original=getattr(MemoryKernel, name), _name=name):
            calls[_name] += 1
            return _original(self, s)
        monkeypatch.setattr(MemoryKernel, name, counted)

    params = ModelParams(tau=0.2, k=0.3, kernel=KERNEL, mode="auxiliary",
                         memory_realization=memory_realization)
    per_run = []
    for horizon in (0.5, 2.0):
        before = dict(calls)
        disc = discretize(params, nx=20)  # a new grid, so nothing is cached for it yet
        trace = run(params, InitialData(), disc, horizon, sample_every=1, snapshots=True)
        check_memory_identity(trace, 0.0, horizon)
        dissipativity_spot_check(params, disc)
        per_run.append({name: calls[name] - before[name] for name in calls})
    assert per_run[0] == per_run[1] == {"value": 1, "derivative": 1}


def memory_terms_from_every_row(state, params, disc):
    """memory and mu_prime_eta from every row of eta_field, none shared."""
    eta = eta_field(state, params, disc)
    ge = energy.grad_full(eta, disc.dx)
    grad_sq = np.ascontiguousarray(energy.integral_x(ge * ge, disc.dx).T)
    s_inner, w_inner = disc.s_nodes[1:], disc.s_weights[1:]
    return (0.5 * np.vecdot(params.kernel.value(s_inner) * grad_sq, w_inner),
            0.5 * np.vecdot(params.kernel.derivative(s_inner) * grad_sq, w_inner))


@pytest.mark.parametrize("kernel, init, ks", [
    (KERNEL, FROZEN, None), (KERNEL, FROZEN, BATCH_KS),
    (TWO_TERMS, FROZEN, None), (TWO_TERMS, FROZEN, BATCH_KS),
    (KERNEL, MODULATED, BATCH_KS),
], ids=["one-term-solo", "one-term-batch", "two-terms-solo", "two-terms-batch",
        "modulated-batch"])
def test_memory_terms_match_every_eta_row(kernel, init, ks):
    # a frozen past's eta rows that read the past alone are formed once;
    # the terms must be those of forming every row, whether all, some or
    # none of the rows read the past, and after the history wraps
    params = ModelParams(tau=0.2, k=0.3, kernel=kernel, mode="auxiliary")
    disc = discretize(params, nx=20)
    n_steps = disc.n_hist + 20
    state = build(params, init, disc, ks=ks, steps=n_steps)
    newer_slot = np.floor(disc.s_nodes[1:] / disc.dt)
    reading_past = set()
    for n in range(n_steps + 1):
        if n % 17 == 0 or n == n_steps:
            # how many rows read the past alone
            reading_past.add(int(np.count_nonzero(newer_slot >= state.u_hist.pushed)))
            row = energy.sample_state(state, params, disc)
            memory, mu_prime_eta = memory_terms_from_every_row(state, params, disc)
            assert np.array_equal(row.memory, memory)
            assert np.array_equal(row.mu_prime_eta, mu_prime_eta)
        if n < n_steps:
            step(state, params, disc)
    assert {0, disc.ns - 1} < reading_past
    assert state.step_index > state.u_hist.capacity


@pytest.mark.parametrize("ks", [None, [0.0, 0.3]])
def test_row_without_delay_term_reads_zero_past_a_non_finite_integral(ks):
    params = ModelParams(tau=0.2, k=0.0, kernel=KERNEL)
    disc = discretize(params, nx=20)
    state = build(params, FROZEN, disc, ks=ks)
    state.v_hist.integral[:] = [np.inf] * len(state.v_hist.integral)
    row = energy.sample_state(state, params, disc)
    assert np.all(np.isposinf(row.delay_raw))
    assert np.array_equal(row.delay, 0.0 if ks is None else [0.0, np.inf])


@pytest.mark.parametrize("kernel, ks", [
    (KERNEL, None), (KERNEL, BATCH_KS), (TWO_TERMS, None), (TWO_TERMS, BATCH_KS),
], ids=["one-term-solo", "one-term-batch", "two-terms-solo", "two-terms-batch"])
def test_eta_rows_past_the_distinct_ones_repeat_the_last(kernel, ks):
    # with a frozen past, every eta row from _distinct_eta_rows on has the
    # bits of the last distinct row, before and after the history wraps
    params = ModelParams(tau=0.2, k=0.3, kernel=kernel, mode="auxiliary")
    disc = discretize(params, nx=20)
    n_steps = disc.n_hist + 20
    state = build(params, FROZEN, disc, ks=ks, steps=n_steps)
    seen = set()
    for n in range(n_steps + 1):
        if n % 17 == 0 or n == n_steps:
            distinct = solver._distinct_eta_rows(state, params, disc)
            bits = eta_field(state, params, disc).view(np.uint64)
            assert np.array_equal(bits[distinct:], np.broadcast_to(
                bits[distinct - 1], bits[distinct:].shape))
            if distinct > 1:
                assert not np.array_equal(bits[distinct - 2], bits[distinct - 1])
            seen.add(distinct)
        if n < n_steps:
            step(state, params, disc)
    assert {1, disc.ns - 1} < seen
    assert state.step_index > state.u_hist.capacity


@pytest.mark.parametrize("init, memory_realization, ks", [
    (MODULATED, "prony_modes", None), (MODULATED, "prony_modes", BATCH_KS),
    (FROZEN, "eta_grid", None), (MODULATED, "eta_grid", None),
], ids=["modulated-solo", "modulated-batch", "eta-grid-frozen", "eta-grid-modulated"])
def test_every_eta_row_is_distinct_without_a_frozen_displacement_past(
        init, memory_realization, ks):
    params = ModelParams(tau=0.2, k=0.3, kernel=KERNEL, mode="auxiliary",
                         memory_realization=memory_realization)
    disc = discretize(params, nx=20)
    state = build(params, init, disc, ks=ks)
    for n in range(40):
        assert solver._distinct_eta_rows(state, params, disc) == disc.ns - 1
        step(state, params, disc)


def node_step_grids():
    """The worked auxiliary grid (s_1 = dx = 4 dt, a whole step), a two-term
    grid with no whole-step node, and a grid whose every node is a whole step."""
    aux = discretize(ModelParams(tau=1.0, kernel=MemoryKernel.from_terms([(1.0, 2.0)]),
                                 mode="auxiliary"), nx=200, ns=64)
    long_memory = discretize(ModelParams(tau=0.5, kernel=MemoryKernel.from_terms(
        [(2.0, 8.0), (0.02, 0.05)]), mode="auxiliary"), nx=200, ns=64)
    base = discretize(ModelParams(kernel=KERNEL), nx=20)
    nodes = base.dt * np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    whole = replace(base, s_nodes=nodes, s_weights=quadrature_weights(nodes))
    return {"aux_long": (aux, 1), "long_memory": (long_memory, 0), "whole": (whole, 7)}


@pytest.mark.parametrize("name", ["aux_long", "long_memory", "whole"])
def test_node_steps_fix_each_rows_neighbours_once_per_grid(name):
    disc, n_whole = node_step_grids()[name]
    newer, older, frac = disc.node_steps
    steps = disc.s_nodes[1:] / disc.dt
    assert newer.dtype == older.dtype == np.intp
    assert np.array_equal(newer + frac, steps)
    assert np.all((0.0 <= frac) & (frac < 1.0))
    exact = frac == 0.0
    assert np.count_nonzero(exact) == n_whole
    assert np.array_equal(older[exact], newer[exact])
    assert np.array_equal(older[~exact], newer[~exact] + 1)
    assert np.all(np.diff(newer) >= 0)
    assert not any(arr.flags.writeable for arr in (newer, older, frac))
    assert disc.node_steps is disc.node_steps


def positive_zero_ends(rows: np.ndarray) -> bool:
    """Whether both end columns of every row are +0.0, bit for bit."""
    return not rows[..., ::rows.shape[-1] - 1].view(np.uint64).any()


@pytest.mark.parametrize("ks", [None, BATCH_KS], ids=["solo", "batch"])
def test_padded_rows_keep_positive_zero_ends(ks):
    # the map block's end columns carry neighbour sums; the histories, the
    # kept states and eta's rows must still end in +0.0, which the flat
    # gradient reads as the Dirichlet zeros
    params = ModelParams(tau=0.2, k=-0.3, kernel=KERNEL, mode="auxiliary")
    disc = discretize(params, nx=20)
    every, depth = 5, 4
    state = build(params, MODULATED, disc, ks=ks)
    coeffs = (solver._step_map(params, disc) if ks is None
              else solver._stacked_maps(params, disc, tuple(ks)))
    assert solver._chunk_bound(coeffs, state, disc) > 1
    span = solver.Span(depth, state.u.shape, every)
    rows = disc.ns - 1
    eta = np.full((depth, rows) + state.u.shape[:-1] + (disc.nx + 2,), np.nan)
    for _ in range(3):
        step(state, params, disc, depth * every, span=span)
        assert positive_zero_ends(span.fields)
        solver.eta_field(state, params, disc, eta, span=span)
        assert positive_zero_ends(eta)
        span.clear()
    # and once both rings have wrapped
    step(state, params, disc, disc.n_hist)
    assert state.u_hist.pushed > state.u_hist.capacity
    assert positive_zero_ends(state.u_hist.padded)
    assert positive_zero_ends(state.v_hist.padded)
    if ks is None:
        trace = run(params, MODULATED, disc, 1.0, sample_every=every)
        assert positive_zero_ends(trace.final_state.u_hist.padded)
        assert positive_zero_ends(trace.final_state.v_hist.padded)


# a modulated past, so the delay line starts with nonzero norms, and no
# memory kernel, so one span holds a whole run sampled every step and a call
# steps in chunks of n_delay steps
LONG_PAST = InitialData(shape="gaussian", width=0.08, history="modulated", omega=3.0)
LONG_STEPS = 5040


def trapezoid_at_every_step(params, disc, steps):
    """``delay_integral_rows`` at each state of a solo run stepped one step at a time."""
    state = build(params, LONG_PAST, disc)
    integrals = [delay_integral_rows(state, disc)]
    for _ in range(steps):
        step(state, params, disc)
        integrals.append(delay_integral_rows(state, disc))
    return np.array(integrals)


@pytest.mark.parametrize("n_delay", [1, 2, 8])
def test_delay_integral_recursion_keeps_to_the_trapezoid_over_long_runs(n_delay):
    # the recursion carried over 5040 steps must stay within 1e-13 of the
    # trapezoid, relative to the run's largest integral (measured: at most
    # 2.5e-15); the k = -100 row goes non-finite, its norms overflowing first,
    # on its own and inside a chunk of its batch, and the batch must carry
    # each row's bits
    dt = discretize(ModelParams(), nx=20).dt
    params = ModelParams(tau=n_delay * dt)
    disc = discretize(params, nx=20)
    assert disc.n_delay == n_delay
    ks = [0.4, -100.0, -0.3]
    horizon = LONG_STEPS * disc.dt
    solos = [run(replace(params, k=k), LONG_PAST, disc, horizon, sample_every=1) for k in ks]
    for k, solo in zip(ks[::2], solos[::2]):
        reference = trapezoid_at_every_step(replace(params, k=k), disc, LONG_STEPS)
        assert solo.delay_raw.shape == reference.shape
        gap = np.abs(solo.delay_raw - reference).max()
        assert gap <= 1e-13 * solo.delay_raw.max(), k
    abort = solos[1].aborted_step
    assert solos[0].aborted_step is None and solos[2].aborted_step is None
    batch = run(params, LONG_PAST, disc, horizon, sample_every=1, ks=ks)
    for solo, trace in zip(solos, batch):
        assert trace.aborted_step == solo.aborted_step
        assert trace.delay_raw.tobytes() == solo.delay_raw.tobytes()
    # one call from step 0 takes chunks of n_delay steps; the abort is inside one
    state = build(params, LONG_PAST, disc, ks=ks, steps=LONG_STEPS)
    with pytest.raises(NonFinite) as err:
        step(state, params, disc, LONG_STEPS)
    assert err.value.step_index == abort and err.value.rows == [1]
    assert n_delay == 1 or abort % n_delay != 0
    state.retire([1])
    assert state.v_hist.integral[1] == 0.0
    step(state, params, disc, LONG_STEPS - abort)
    live = [solo.final_state.v_hist.integral[0] for solo in solos[::2]]
    assert np.array(state.v_hist.integral).tobytes() == np.array([live[0], 0.0, live[1]]).tobytes()
