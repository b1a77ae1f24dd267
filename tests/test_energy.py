import dataclasses
import math

import numpy as np
import pytest

from viscodelay import energy
from viscodelay.energy import SampleRow, WrongMode, check_dissipation, sample_state
from viscodelay.kernel import MemoryKernel
from viscodelay.solver import (SAMPLE_TERMS, InitialData, ModelParams, build, discretize,
                               run, step)

KERNEL = MemoryKernel.from_terms([(1.0, 2.0)])


def test_zero_state_zero_energy():
    params = ModelParams(tau=0.5, k=0.1, kernel=KERNEL, mode="auxiliary")
    disc = discretize(params, nx=40)
    state = build(params, InitialData(shape="zero"), disc)
    breakdown = sample_state(state, params, disc)
    assert breakdown.kinetic == 0.0
    assert breakdown.elastic == 0.0
    assert breakdown.memory == 0.0
    assert breakdown.delay == 0.0
    assert breakdown.total == 0.0


def test_delay_term_vanishes_when_k_zero():
    # buffer carries a nonzero velocity history, but the coefficient is zero
    params = ModelParams(tau=0.5, k=0.0, kernel=KERNEL)
    disc = discretize(params, nx=40)
    state = build(params, InitialData(history="modulated", omega=2.0), disc)
    assert np.any(state.v_hist.data != 0.0)
    assert sample_state(state, params, disc).delay == 0.0


def test_delay_term_vanishes_when_tau_zero():
    params = ModelParams(tau=0.0, k=0.3, kernel=KERNEL)
    disc = discretize(params, nx=40)
    state = build(params, InitialData(), disc)
    for _ in range(50):
        step(state, params, disc)
    assert sample_state(state, params, disc).delay == 0.0


def test_initial_sine_energy_converges_second_order():
    # frozen sine mode 1, L = 1: kinetic = 0, memory = 0,
    # elastic -> (1 - mu_tilde)/2 * pi^2/2 at second order in dx
    target = 0.25 * math.pi ** 2 / 2.0
    errors = []
    for nx in (24, 49, 99):
        params = ModelParams(kernel=KERNEL)
        disc = discretize(params, nx=nx)
        state = build(params, InitialData(), disc)
        breakdown = sample_state(state, params, disc)
        assert breakdown.kinetic == 0.0
        assert breakdown.memory == 0.0
        errors.append(abs(breakdown.elastic - target))
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5


def test_total_is_exact_sum_and_dominates_kinetic_elastic():
    params = ModelParams(tau=0.5, k=0.05, theta=2.0, kernel=KERNEL, mode="auxiliary")
    disc = discretize(params, nx=60)
    trace = run(params, InitialData(), disc, 5.0, sample_every=40)
    recomputed = trace.kinetic + trace.elastic + trace.memory + trace.delay
    assert np.array_equal(trace.total, recomputed)
    assert np.all(trace.kinetic >= 0.0)
    assert np.all(trace.elastic >= 0.0)
    assert np.all(trace.memory >= 0.0)
    assert np.all(trace.delay >= 0.0)
    assert np.all(trace.kinetic + trace.elastic <= trace.total + 1e-15)


def test_pure_wave_energy_conservation():
    params = ModelParams()
    disc = discretize(params, nx=200)
    trace = run(params, InitialData(), disc, 20.0, sample_every=100)
    drift = np.abs(trace.total - trace.total[0]).max() / trace.total[0]
    assert drift < 1e-4


def test_dissipation_requires_auxiliary_mode():
    params = ModelParams(tau=0.5, k=-0.02, theta=2.0, kernel=KERNEL, mode="original")
    disc = discretize(params, nx=40)
    trace = run(params, InitialData(), disc, 1.0, sample_every=20)
    with pytest.raises(WrongMode):
        check_dissipation(trace, params)


def test_dissipation_zero_trace_passes():
    params = ModelParams(tau=0.5, k=0.02, theta=2.0, kernel=KERNEL, mode="auxiliary")
    disc = discretize(params, nx=40)
    trace = run(params, InitialData(shape="zero"), disc, 1.0, sample_every=20)
    report = check_dissipation(trace, params)
    assert report.passed
    assert report.max_increment == 0.0
    assert report.max_violation <= 0.0


def test_dissipation_on_worked_auxiliary_run():
    params = ModelParams(tau=1.0, k=0.02, theta=2.0, kernel=KERNEL, mode="auxiliary")
    disc = discretize(params, nx=100)
    trace = run(params, InitialData(), disc, 10.0, sample_every=40)
    report = check_dissipation(trace, params)
    assert report.passed
    assert report.max_increment <= 1e-6 * trace.total[0]


def test_memory_term_tracks_kernel_mass():
    # doubling the kernel amplitude doubles the memory term of a fixed state
    init = InitialData(history="modulated", omega=1.5)
    k1 = MemoryKernel.from_terms([(0.4, 2.0)])
    k2 = MemoryKernel.from_terms([(0.8, 2.0)])
    e = {}
    for kern in (k1, k2):
        params = ModelParams(kernel=kern)
        disc = discretize(params, nx=50)
        state = build(params, init, disc)
        e[kern] = sample_state(state, params, disc).memory
    assert e[k2] == pytest.approx(2.0 * e[k1], rel=1e-9)


def test_one_sample_trace_reports_scaled_tolerances():
    # a trace of one sample reports the same F(0)-scaled tolerances as a longer one
    params = ModelParams(tau=1.0, k=0.02, theta=2.0, kernel=KERNEL, mode="auxiliary")
    disc = discretize(params, nx=40)
    one = check_dissipation(run(params, InitialData(), disc, 0.0), params)
    two = check_dissipation(run(params, InitialData(), disc, disc.dt), params)
    assert (one.n_pairs, two.n_pairs) == (0, 1)
    assert one.passed
    assert one.increment_tol == two.increment_tol != 1e-6
    assert one.violation_tol == two.violation_tol != 0.5


def test_sample_terms_name_the_sample_row_fields_in_order():
    assert SAMPLE_TERMS == tuple(f.name for f in dataclasses.fields(SampleRow))


def test_solo_sample_is_floats_and_batch_sample_is_arrays():
    params = ModelParams(tau=0.5, k=0.1, kernel=KERNEL, mode="auxiliary")
    disc = discretize(params, nx=20)
    solo = sample_state(build(params, InitialData(), disc), params, disc)
    assert all(type(getattr(solo, name)) is float for name in SAMPLE_TERMS)
    batch = sample_state(build(params, InitialData(), disc, ks=[0.0, 0.1]), params, disc)
    for name in SAMPLE_TERMS:
        assert getattr(batch, name).shape == (2,)
        assert getattr(batch, name)[1] == getattr(solo, name)


def gradient_reference(f: list[float], dx: float) -> list[float]:
    """The padded gradient of one row of interior values, entry by entry:
    one-sided at the ends, f[1] / h and f[-2] / (-h) next to them, centered
    between, each one IEEE operation on Python floats."""
    h = 2.0 * dx
    inside = [(f[j] - f[j - 2]) / h for j in range(2, len(f))]
    return [f[0] / dx, f[1] / h, *inside, f[-2] / -h, f[-1] / -dx]


SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1.5e-320, math.inf, -math.inf, math.nan,
            1.7e308, -1.7e308]


@pytest.mark.parametrize("shape", [(30,), (3, 17), (2, 3, 4, 12)],
                         ids=["row", "batch", "stacked-batch"])
def test_flat_gradient_keeps_the_bits_of_the_per_entry_formula(shape):
    rng = np.random.default_rng(11)
    interior = rng.standard_normal(shape)
    flat = interior.reshape(-1)
    # half the entries special, each special at least once
    picks = rng.choice(flat.size, flat.size // 2, replace=False)
    flat[picks] = np.resize(SPECIALS, picks.size)
    rows = interior.reshape(-1, shape[-1])
    # zeros next to the far end, where a centered 0 - (+0.0) would change the sign
    rows[::2, -2], rows[1::2, -2] = 0.0, -0.0
    dx = 1.0 / 37.0
    padded = np.zeros(shape[:-1] + (shape[-1] + 2,))
    padded[..., 1:-1] = interior
    with np.errstate(all="ignore"):
        expected = np.array([gradient_reference(row.tolist(), dx) for row in rows])
        flat_pass = energy._grad_into(padded, np.empty(padded.shape), dx)
        full = energy.grad_full(interior, dx)
    expected = expected.reshape(padded.shape).view(np.uint64)
    assert np.array_equal(flat_pass.view(np.uint64), expected)
    assert np.array_equal(full.view(np.uint64), expected)
    # the end columns of the input are read as the Dirichlet +0.0 and kept
    assert not padded[..., ::shape[-1] + 1].view(np.uint64).any()
