"""Properties of the solver and the certificate over drawn configurations.

* every admissible kernel is refused before stepping or runs finite, and so
  is every auxiliary-mode configuration with a delay, in every realization;
* an auxiliary-mode configuration with |k| up to 10^3.5 is refused before
  stepping or stays within ten times its initial energy;
* the precomputed one-step map agrees with the four-stage loop it is built from;
* the certificate's thresholds are ordered and its rate falls with |k|.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viscodelay import solver
from viscodelay.certificate import (CertificateInputs, compute_constants,
                                    poincare_constant_interval)
from viscodelay.kernel import MemoryKernel, validate_kernel
from viscodelay.solver import InitialData, ModelParams, SolverError, discretize, run

RATES = st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e)  # b in [1e-2, 1e4]


@st.composite
def kernels(draw, min_terms=1, max_terms=4):
    """min_terms-max_terms Prony terms with total mass mu_tilde in [0.05, 0.95]."""
    shares = draw(st.lists(st.tuples(st.floats(0.05, 1.0), RATES),
                           min_size=min_terms, max_size=max_terms))
    if not shares:
        return MemoryKernel()
    mass = draw(st.floats(0.05, 0.95))
    total = sum(share for share, _ in shares)
    return MemoryKernel.from_terms([(mass * share / total * b, b) for share, b in shares])


@pytest.mark.parametrize("memory_realization", ["prony_modes", "eta_grid"])
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(kernel=kernels())
def test_admissible_kernel_refused_or_runs_finite(kernel, memory_realization):
    params = ModelParams(kernel=kernel, memory_realization=memory_realization)
    try:
        disc = discretize(params, nx=20)
    except SolverError:
        return
    trace = run(params, InitialData(shape="gaussian"), disc, 0.5)
    assert trace.aborted_step is None
    assert np.isfinite(trace.total).all()


@pytest.mark.parametrize("delay_realization", ["ring_buffer", "rho_grid"])
@pytest.mark.parametrize("memory_realization", ["prony_modes", "eta_grid"])
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(kernel=kernels(), tau=st.one_of(st.just(0.0), st.floats(0.05, 0.5)),
       k=st.floats(-2.0, 2.0), theta=st.floats(1.0, 4.0, exclude_min=True),
       history=st.sampled_from(["frozen", "modulated"]))
def test_auxiliary_config_refused_or_runs_finite(kernel, tau, k, theta, history,
                                                 memory_realization, delay_realization):
    # finite, not monotone: the centered-gradient energy can grow ~1% at nx = 20
    params = ModelParams(tau=tau, k=k, theta=theta, kernel=kernel, mode="auxiliary",
                         memory_realization=memory_realization,
                         delay_realization=delay_realization)
    try:
        disc = discretize(params, nx=20)
    except SolverError:
        return
    trace = run(params, InitialData(shape="gaussian", history=history), disc, 0.5)
    assert trace.aborted_step is None
    assert np.isfinite(trace.total).all()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(kernel=kernels(min_terms=0, max_terms=2),
       tau=st.one_of(st.just(0.0), st.floats(0.05, 0.5)),
       k=st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 3.5)).map(
           lambda pair: pair[0] * 10.0 ** pair[1]),
       theta=st.floats(1.05, 4.0), nx=st.sampled_from([20, 40]))
def test_auxiliary_config_refused_or_dissipates_at_large_k(kernel, tau, k, theta, nx):
    # |k| up to 10^3.5: a damping theta |k| e^tau that RK4 cannot resolve must
    # be refused before stepping, not blow up and read as growth; the paper's
    # auxiliary problem is dissipative, so an accepted run stays bounded
    params = ModelParams(tau=tau, k=k, theta=theta, kernel=kernel, mode="auxiliary")
    try:
        disc = discretize(params, nx=nx)
        trace = run(params, InitialData(shape="gaussian"), disc, 0.5)
    except SolverError:
        return
    assert trace.aborted_step is None
    assert trace.total[-1] <= 10.0 * trace.total[0]


@st.composite
def map_configs(draw):
    params = ModelParams(
        tau=draw(st.one_of(st.just(0.0), st.floats(0.05, 0.5))),
        k=draw(st.floats(-1.0, 1.0)),
        theta=draw(st.floats(1.0, 4.0, exclude_min=True)),
        kernel=draw(kernels(min_terms=0)),
        mode=draw(st.sampled_from(["original", "auxiliary"])),
    )
    init = InitialData(shape="gaussian", width=0.08,
                       history=draw(st.sampled_from(["frozen", "modulated"])),
                       omega=draw(st.floats(0.5, 5.0)))
    return params, init


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(config=map_configs())
def test_map_matches_stage_loop(config):
    params, init = config
    try:
        disc = discretize(params, nx=20)
    except SolverError:
        return
    horizon = 20 * disc.dt
    by_map = run(params, init, disc, horizon, sample_every=1)
    with mock.patch.object(solver, "_step_by_map", solver._step_by_stages):
        by_stages = run(params, init, disc, horizon, sample_every=1)
    assert by_map.aborted_step is None and by_stages.aborted_step is None
    assert by_map.times.size == 21
    np.testing.assert_allclose(by_map.total, by_stages.total, rtol=1e-10, atol=0.0)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(kernel=kernels(), tau=st.floats(0.0, 2.0), theta=st.floats(1.01, 5.0),
       k_pair=st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)))
def test_certificate_invariants(kernel, tau, theta, k_pair):
    report = validate_kernel(kernel)
    small, large = sorted(k_pair, key=abs)
    reports = [
        compute_constants(CertificateInputs(
            mu0=report.mu0, mu_tilde=report.mu_tilde, alpha=report.alpha, tau=tau,
            theta=theta, c_poincare=poincare_constant_interval(1.0), k=k))
        for k in (small, large)
    ]
    for r in reports:
        assert r.k0 <= r.k_bar
        assert r.k0_explicit_lb <= r.k_hat
    assert reports[0].sigma >= reports[1].sigma
