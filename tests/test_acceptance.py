"""Acceptance suite: one test per pinned criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines;
tolerances are fixed here, not tuned at runtime.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from viscodelay.analysis import (
    check_integral_inequality,
    check_memory_identity,
    check_theorem_bound,
    classify,
    fit_decay_rate,
)
from viscodelay.certificate import (
    CertificateInputs,
    amplitude_budget,
    compute_constants,
    explicit_lower_bound,
    gamma1_constant,
    gamma2_constant,
    khat_fixed_point,
)
from viscodelay.energy import check_dissipation
from viscodelay.kernel import MemoryKernel
from viscodelay.solver import (
    InitialData,
    ModelParams,
    build,
    discretize,
    run,
    step,
)

from _oracles import characteristic_energy_rate, dense_scan_khat, modal_oracle

C_P = 1.0 / math.pi ** 2
KERNEL = MemoryKernel.from_terms([(1.0, 2.0)])
SINE = InitialData(shape="sine", mode_index=1, history="frozen")


def worked_inputs(k=0.0):
    return CertificateInputs(mu0=1.0, mu_tilde=0.5, alpha=2.0, tau=1.0,
                             theta=2.0, c_poincare=C_P, k=k)


def aux_params(k=0.02):
    return ModelParams(tau=1.0, k=k, theta=2.0, kernel=KERNEL, mode="auxiliary")


@pytest.fixture(scope="module")
def aux_trace_T400():
    params = aux_params()
    disc = discretize(params, nx=200, ns=64)
    return run(params, SINE, disc, 400.0, sample_every=400)


def test_criterion_1_worked_constant_exactness():
    # exact rational arithmetic
    assert gamma1_constant(Fraction(1, 2)) == Fraction(495, 8)
    g2_0 = gamma2_constant(Fraction(1), Fraction(1, 2), Fraction(2), Fraction(0))
    g2_1 = gamma2_constant(Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1))
    assert g2_0 == 45 and g2_1 - g2_0 == 73
    # floating point, and the closed-form bound for arbitrary (tau, C_P)
    for tau, c_p in ((1.0, C_P), (0.0, 0.3), (2.5, 1.7), (0.7, 4.0 / math.pi ** 2)):
        inputs = CertificateInputs(mu0=1.0, mu_tilde=0.5, alpha=2.0, tau=tau,
                                   theta=2.0, c_poincare=c_p, k=0.0)
        lb, g1, g2 = explicit_lower_bound(inputs)
        assert g1 == pytest.approx(495.0 / 8.0, rel=1e-12)
        assert g2 == pytest.approx(45.0 + 73.0 * c_p, rel=1e-12)
        expected = 8.0 * math.exp(-(tau + 1.0)) / (1231.0 + 1168.0 * c_p)
        assert lb == pytest.approx(expected, rel=1e-12)
    print("\nACCEPTANCE 1: PASS - gamma1 = 495/8, gamma2 = 45 + 73 C_P exact; "
          "explicit bound matches 8 e^-(tau+1) / (1231 + 1168 C_P)")


def test_criterion_2_constants_pipeline_pinning():
    report = compute_constants(worked_inputs(k=0.0))
    pins = {
        "c0": 2.0,
        "c1": 8.0 + 8.0 * C_P,
        "c2": 20.0 + 20.0 * C_P,
        "c_star": 68.0 + 68.0 * C_P,
        "c_big": 69.5 + 68.0 * C_P,
        "sigma_tilde": 1.0 / (69.5 + 68.0 * C_P),
        "k_bar": 0.125 * math.exp(-1.0),
    }
    for name, want in pins.items():
        assert getattr(report, name) == pytest.approx(want, rel=1e-12), name
    assert report.k_bar == pytest.approx(0.045985, abs=5e-7)
    print("\nACCEPTANCE 2: PASS - constants chain matches hand-derived pins "
          f"(sigma_tilde = {report.sigma_tilde:.6f}, k_bar = {report.k_bar:.6f})")


def test_criterion_3_fixed_point():
    inputs = worked_inputs()
    khat = khat_fixed_point(inputs)
    residual = abs(amplitude_budget(inputs, khat) - khat)
    assert residual <= 1e-10
    scanned = dense_scan_khat(inputs, step=1e-8)
    assert abs(khat - scanned) <= 1e-7

    rng = np.random.default_rng(7)
    for _ in range(100):
        rand = CertificateInputs(
            mu0=float(rng.uniform(0.1, 10.0)),
            mu_tilde=float(rng.uniform(0.05, 0.95)),
            alpha=float(rng.uniform(0.1, 10.0)),
            tau=float(rng.uniform(0.0, 3.0)),
            theta=float(rng.uniform(1.05, 5.0)),
            c_poincare=float(rng.uniform(0.01, 2.0)),
        )
        lb, _, _ = explicit_lower_bound(rand)
        assert lb <= khat_fixed_point(rand) * (1.0 + 1e-9)
    print(f"\nACCEPTANCE 3: PASS - k_hat = {khat:.8f}, |g(k_hat) - k_hat| = "
          f"{residual:.2e}, dense-scan gap {abs(khat - scanned):.2e}, "
          "explicit bound <= k_hat on 100 random inputs")


def test_criterion_4_auxiliary_monotonicity():
    params = aux_params()
    reports = {}
    f0 = None
    for nx, ns in ((200, 64), (400, 128)):
        disc = discretize(params, nx=nx, ns=ns)
        trace = run(params, SINE, disc, 50.0, sample_every=40)
        reports[nx] = check_dissipation(trace, params)
        if f0 is None:
            f0 = trace.total[0]
            assert reports[nx].max_increment <= 1e-6 * f0
    coarse = reports[200].max_violation
    fine = reports[400].max_violation
    assert fine <= coarse / 2.0
    print(f"\nACCEPTANCE 4: PASS - max energy increment {reports[200].max_increment:.2e}"
          f" <= 1e-6 F(0) = {1e-6 * f0:.2e}; derivative-estimate residual "
          f"{coarse:.4f} -> {fine:.4f} ({coarse / fine:.2f}x) under refinement")


def test_criterion_5_theorem_envelope():
    margins = {}
    for k in (0.0, 0.0005, -0.0005):
        report = compute_constants(worked_inputs(k=k))
        assert abs(k) < report.k0
        assert report.sigma > 0.0
        params = ModelParams(tau=1.0, k=k, theta=2.0, kernel=KERNEL, mode="original")
        disc = discretize(params, nx=200, ns=64)
        trace = run(params, SINE, disc, 50.0, sample_every=400)
        result = check_theorem_bound(trace, report.sigma, tol=0.01)
        assert result.ok, f"envelope violated for k={k} at t={result.first_violation_t}"
        margins[k] = result.worst_margin
    worst = max(margins.values())
    print("\nACCEPTANCE 5: PASS - F(t) <= F(0) e^(1 - sigma t) at every sample "
          f"for k in {{0, +5e-4, -5e-4}} (worst margin {worst:+.3f})")


def test_criterion_6_integral_inequality(aux_trace_T400):
    report = compute_constants(worked_inputs(k=0.02))
    trace = aux_trace_T400
    assert trace.total[-1] <= 1e-3 * trace.total[0]
    result = check_integral_inequality(trace, report.c_big, tol=0.01)
    assert result.ok
    print(f"\nACCEPTANCE 6: PASS - int_S^T F dt <= C F(S) for all {trace.times.size} "
          f"sample points (worst ratio {result.worst_ratio:.3f} vs C = {report.c_big:.2f})")


def test_criterion_7_instability_witness():
    params = ModelParams(tau=0.0, k=-0.5)
    disc = discretize(params, nx=200)
    trace = run(params, SINE, disc, 10.0, sample_every=100)
    fit = fit_decay_rate(trace)
    oracle_rate = characteristic_energy_rate(params.k, math.pi ** 2)
    assert oracle_rate == pytest.approx(0.5, rel=1e-12)
    assert fit.sigma_emp == pytest.approx(-oracle_rate, abs=0.05)
    assert classify(fit) == "growing"
    growth = trace.total[-1] / trace.total[0]
    assert growth >= 10.0
    print(f"\nACCEPTANCE 7: PASS - anti-damping run grows {growth:.0f}x over T=10 "
          f"with sigma_emp = {fit.sigma_emp:.4f} (oracle -0.5)")


def test_criterion_8_scheme_correctness():
    # (a) pure-wave convergence order >= 1.8 under dx halving
    errors = []
    for nx in (24, 49, 99):
        params = ModelParams()
        disc = discretize(params, nx=nx)
        state = build(params, SINE, disc)
        for _ in range(int(round(1.7 / disc.dt))):
            step(state, params, disc)
        x = disc.x_interior()
        exact = np.sin(np.pi * x) * math.cos(math.pi * state.t)
        errors.append(float(np.abs(state.u - exact).max()))
    min_ratio = min(errors[0] / errors[1], errors[1] / errors[2])
    order = math.log2(min_ratio)
    assert order >= 1.8

    # (b) modal amplitude vs the dense direct-convolution oracle
    params = ModelParams(kernel=KERNEL)
    disc = discretize(params, nx=200, ns=64)
    state = build(params, SINE, disc)
    x = disc.x_interior()
    phi = np.sin(np.pi * x)
    proj = phi / float(phi @ phi)
    sample_every = 8
    amps = [float(state.u @ proj)]
    n_steps = int(round(10.0 / disc.dt))
    for i in range(1, n_steps + 1):
        step(state, params, disc)
        if i % sample_every == 0:
            amps.append(float(state.u @ proj))
    amps = np.array(amps)
    lam = math.pi ** 2
    _, y_fine = modal_oracle(lam, KERNEL, 10.0, disc.dt / 20.0)
    _, y_check = modal_oracle(lam, KERNEL, 10.0, disc.dt / 10.0)
    oracle = y_fine[:: 20 * sample_every]
    oracle_err = np.linalg.norm(oracle - y_check[:: 10 * sample_every]) \
        / np.linalg.norm(oracle)
    assert oracle_err < 1e-6  # the oracle itself has converged
    modal_err = np.linalg.norm(amps - oracle) / np.linalg.norm(oracle)
    assert modal_err < 1e-3

    # (c) ring buffer vs rho grid delay realizations
    results = {}
    common = dict(tau=0.5, k=0.2, theta=2.0, kernel=KERNEL)
    for cfl in (0.25, 0.125):
        for realization in ("ring_buffer", "rho_grid"):
            p = ModelParams(delay_realization=realization, **common)
            d = discretize(p, nx=50, cfl=cfl)
            s = build(p, SINE, d)
            for _ in range(int(round(5.0 / d.dt))):
                step(s, p, d)
            results[(realization, cfl)] = s.u.copy()
    gap = float(np.abs(results[("ring_buffer", 0.25)]
                       - results[("rho_grid", 0.25)]).max())
    truncation = 2.0 * float(np.abs(results[("rho_grid", 0.25)]
                                    - results[("rho_grid", 0.125)]).max())
    assert gap <= 10.0 * truncation
    print(f"\nACCEPTANCE 8: PASS - wave order {order:.2f} (>= 1.8); modal oracle "
          f"gap {modal_err:.2e} (< 1e-3); delay realizations gap {gap:.2e} "
          f"<= 10 x {truncation:.2e}")


def test_criterion_9_memory_identity():
    residuals = {}
    for nx, ns in ((200, 64), (400, 128)):
        params = aux_params()
        disc = discretize(params, nx=nx, ns=ns)
        cadence = max(1, int(round(0.05 / disc.dt)))
        trace = run(params, SINE, disc, 10.0, sample_every=cadence, snapshots=True)
        residuals[nx] = check_memory_identity(trace, 1.0, 10.0).residual
    assert residuals[200] < 1e-2
    assert residuals[400] < residuals[200]
    print(f"\nACCEPTANCE 9: PASS - identity residual {residuals[200]:.2e} < 1e-2 "
          f"at default resolution, {residuals[400]:.2e} refined")
