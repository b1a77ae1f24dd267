from dataclasses import replace

import numpy as np
import pytest

from viscodelay.analysis import (
    HorizonTooShort,
    InsufficientData,
    SnapshotsMissing,
    check_integral_inequality,
    check_memory_identity,
    check_theorem_bound,
    classify,
    fit_decay_rate,
)
from viscodelay.kernel import MemoryKernel
from viscodelay.solver import InitialData, ModelParams, Trace, discretize, run

KERNEL = MemoryKernel.from_terms([(1.0, 2.0)])


def synthetic_trace(times, totals):
    times = np.asarray(times, dtype=float)
    totals = np.asarray(totals, dtype=float)
    zeros = np.zeros_like(totals)
    params = ModelParams()
    disc = discretize(params, nx=10)
    return Trace(
        params=params, disc=disc, times=times,
        kinetic=totals, elastic=zeros, memory=zeros, delay=zeros,
        total=totals, ut_sq=zeros, ut_tau_sq=zeros, delay_raw=zeros,
        mu_prime_eta=zeros,
    )


def test_fit_exact_exponential():
    t = np.arange(0.0, 20.0, 0.1)
    trace = synthetic_trace(t, np.exp(-0.3 * t))
    fit = fit_decay_rate(trace, window=(0.0, 20.0))
    assert fit.sigma_emp == pytest.approx(0.3, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_energy():
    t = np.arange(0.0, 10.0, 0.1)
    trace = synthetic_trace(t, np.full_like(t, 2.5))
    fit = fit_decay_rate(trace)
    assert fit.sigma_emp == 0.0
    assert classify(fit) == "inconclusive"


def test_fit_invariant_under_rescaling():
    t = np.arange(0.0, 15.0, 0.05)
    f = np.exp(-0.7 * t)
    fit1 = fit_decay_rate(synthetic_trace(t, f))
    fit2 = fit_decay_rate(synthetic_trace(t, 3.7e4 * f))
    assert fit1.sigma_emp == pytest.approx(fit2.sigma_emp, abs=1e-12)


def test_fit_floor_guard_drops_dead_samples():
    t = np.arange(0.0, 30.0, 0.1)
    f = np.exp(-0.3 * t)
    f[t > 20.0] = 0.0  # dead tail must not poison the log fit
    fit = fit_decay_rate(synthetic_trace(t, f), window=(0.0, 30.0))
    assert fit.sigma_emp == pytest.approx(0.3, abs=1e-10)


def test_fit_insufficient_data():
    t = np.arange(0.0, 0.5, 0.1)
    with pytest.raises(InsufficientData):
        fit_decay_rate(synthetic_trace(t, np.exp(-t)), window=(0.0, 0.5))


def test_pure_wave_trace_is_inconclusive():
    params = ModelParams()
    disc = discretize(params, nx=100)
    trace = run(params, InitialData(), disc, 20.0, sample_every=50)
    fit = fit_decay_rate(trace)
    assert abs(fit.sigma_emp) < 1e-3
    assert classify(fit) == "inconclusive"


def test_classify_thresholds():
    from viscodelay.analysis import DecayFit

    mk = lambda s, r2: DecayFit(sigma_emp=s, r_squared=r2, window=(0, 1), n_samples=50)
    assert classify(mk(0.3, 1.0)) == "decaying"
    assert classify(mk(-0.5, 0.99)) == "growing"
    assert classify(mk(0.3, 0.5)) == "inconclusive"
    assert classify(mk(5e-4, 1.0)) == "inconclusive"
    assert classify(mk(-5e-4, 1.0)) == "inconclusive"


def test_classify_stable_under_thinning():
    params = ModelParams(tau=0.0, k=-0.5)
    disc = discretize(params, nx=60)
    trace = run(params, InitialData(), disc, 10.0, sample_every=25)
    thinned = synthetic_trace(trace.times[::2], trace.total[::2])
    assert classify(fit_decay_rate(trace)) == "growing"
    assert classify(fit_decay_rate(thinned)) == "growing"


# -- theorem bound ------------------------------------------------------------------

def test_theorem_bound_synthetic():
    t = np.linspace(0.0, 50.0, 400)
    trace = synthetic_trace(t, np.exp(-0.5 * t))
    res = check_theorem_bound(trace, sigma=0.013)
    assert res.ok
    assert res.worst_margin <= 0.0


def test_theorem_bound_monotone_in_sigma():
    t = np.linspace(0.0, 50.0, 400)
    trace = synthetic_trace(t, np.exp(-0.1 * t))
    sigmas = np.linspace(0.001, 0.2, 25)
    oks = [check_theorem_bound(trace, float(s)).ok for s in sigmas]
    # once it fails it never recovers at larger sigma
    first_bad = next((i for i, ok in enumerate(oks) if not ok), len(oks))
    assert all(ok for ok in oks[:first_bad])
    assert not any(oks[first_bad:])


def test_theorem_bound_zero_trace():
    t = np.linspace(0.0, 10.0, 50)
    trace = synthetic_trace(t, np.zeros_like(t))
    assert check_theorem_bound(trace, 0.01).ok


def test_theorem_bound_rejects_growth():
    t = np.linspace(0.0, 10.0, 200)
    trace = synthetic_trace(t, np.exp(0.5 * t))
    res = check_theorem_bound(trace, sigma=0.01)
    assert not res.ok
    assert res.first_violation_t is not None


# -- integral inequality --------------------------------------------------------------

def test_integral_inequality_synthetic_exponential():
    sigma = 0.25
    t = np.linspace(0.0, 60.0, 2400)
    trace = synthetic_trace(t, np.exp(-sigma * t))
    res = check_integral_inequality(trace, c_big=1.2 / sigma)
    assert res.ok
    assert res.worst_ratio == pytest.approx(1.0 / sigma, rel=2e-2)


def test_integral_inequality_detects_too_small_constant():
    sigma = 0.25
    t = np.linspace(0.0, 60.0, 2400)
    trace = synthetic_trace(t, np.exp(-sigma * t))
    res = check_integral_inequality(trace, c_big=0.5 / sigma)
    assert not res.ok


def test_integral_inequality_horizon_guard():
    t = np.linspace(0.0, 5.0, 100)
    trace = synthetic_trace(t, np.exp(-0.25 * t))  # F(5)/F(0) = 0.29
    with pytest.raises(HorizonTooShort):
        check_integral_inequality(trace, c_big=10.0)


def test_integral_inequality_zero_trace():
    t = np.linspace(0.0, 5.0, 100)
    trace = synthetic_trace(t, np.zeros_like(t))
    res = check_integral_inequality(trace, c_big=10.0)
    assert res.ok
    assert res.worst_ratio == 0.0


# -- memory identity ------------------------------------------------------------------

def test_memory_identity_zero_trace():
    params = ModelParams(tau=0.5, k=0.02, theta=2.0, kernel=KERNEL, mode="auxiliary")
    disc = discretize(params, nx=30)
    trace = run(params, InitialData(shape="zero"), disc, 2.0, sample_every=20,
                snapshots=True)
    res = check_memory_identity(trace, 0.0, 2.0)
    assert res.residual == 0.0


def test_memory_identity_no_kernel_trivial():
    params = ModelParams(tau=0.5, k=0.02, theta=2.0, mode="auxiliary")
    disc = discretize(params, nx=30)
    trace = run(params, InitialData(), disc, 2.0, sample_every=20, snapshots=True)
    res = check_memory_identity(trace, 0.0, 2.0)
    assert res.residual == 0.0
    assert res.lhs == 0.0
    assert res.rhs == 0.0


def test_memory_identity_needs_snapshots():
    params = ModelParams(tau=0.5, k=0.02, theta=2.0, kernel=KERNEL, mode="auxiliary")
    disc = discretize(params, nx=30)
    trace = run(params, InitialData(), disc, 1.0, sample_every=20)
    with pytest.raises(SnapshotsMissing):
        check_memory_identity(trace, 0.0, 1.0)


def test_memory_identity_small_residual_on_auxiliary_run():
    params = ModelParams(tau=0.5, k=0.02, theta=2.0, kernel=KERNEL, mode="auxiliary")
    disc = discretize(params, nx=100)
    trace = run(params, InitialData(), disc, 6.0,
                sample_every=max(1, int(round(0.05 / disc.dt))), snapshots=True)
    res = check_memory_identity(trace, 0.5, 6.0)
    assert res.residual < 1e-2


_TWO_TERMS = MemoryKernel.from_terms([(0.3, 1.0), (2.0, 8.0)])
_AUX = ModelParams(tau=0.5, k=0.02, theta=2.0, kernel=KERNEL, mode="auxiliary")
IDENTITY_CASES = {
    "sine-frozen": (_AUX, InitialData()),
    "gaussian-modulated-2terms": (ModelParams(tau=0.3, k=-0.4, kernel=_TWO_TERMS),
                                  InitialData(shape="gaussian", width=0.1,
                                              history="modulated", omega=3.0)),
    "sine-frozen-eta-grid": (replace(_AUX, memory_realization="eta_grid"), InitialData()),
}
# (residual, lhs, rhs) as computed from snapshots that stored the whole eta
PINNED_IDENTITY = {
    "sine-frozen": (5.5072665235582905e-05, 0.45801761750852465, 0.457967171784863),
    "gaussian-modulated-2terms": (0.006349086896231408, 0.981128011109828,
                                  0.9687480783807683),
    "sine-frozen-eta-grid": (0.010677316034114424, 0.46718409807666966,
                             0.45731295091201135),
}


@pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
def test_memory_identity_pinned(case):
    params, init = IDENTITY_CASES[case]
    disc = discretize(params, nx=40)
    trace = run(params, init, disc, 2.0, sample_every=10, snapshots=True)
    for snap in trace.snapshots:
        for name in ("u", "v", "v_delayed", "int_mu_eta", "int_mu_prime_eta"):
            assert getattr(snap, name).shape == (disc.nx,), name
    res = check_memory_identity(trace, 0.0, 2.0)
    assert res.n_snapshots == 33
    np.testing.assert_allclose((res.residual, res.lhs, res.rhs), PINNED_IDENTITY[case],
                               rtol=1e-12, atol=0.0)


def test_integral_inequality_needs_two_samples():
    with pytest.raises(InsufficientData, match="at least two samples"):
        check_integral_inequality(synthetic_trace([0.0], [1.0]), c_big=10.0)


def test_memory_identity_needs_three_snapshots_in_its_window():
    params = ModelParams(kernel=KERNEL)
    disc = discretize(params, nx=20, ns=16)
    trace = run(params, InitialData(), disc, 1.0, sample_every=40, snapshots=True)
    assert len(trace.snapshots) > 3
    t = [snap.t for snap in trace.snapshots]
    with pytest.raises(SnapshotsMissing, match="only 2 snapshots inside"):
        check_memory_identity(trace, t[1], t[2])
