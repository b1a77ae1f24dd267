import math
from fractions import Fraction

import numpy as np
import pytest

from viscodelay.certificate import (
    CertificateInputs,
    InvalidInputs,
    ThetaOutOfRange,
    amplitude_budget,
    compute_constants,
    explicit_lower_bound,
    gamma1_constant,
    gamma2_constant,
    khat_fixed_point,
    k_bar_threshold,
    nodelay_c1_constant,
    nodelay_c2_constant,
    nodelay_threshold,
    poincare_constant_interval,
)

from viscodelay.kernel import MemoryKernel, validate_kernel

from _oracles import dense_scan_khat, poincare_fd_oracle

C_P = 1.0 / math.pi ** 2


def worked_inputs(k=0.0, tau=1.0, theta=2.0):
    return CertificateInputs(mu0=1.0, mu_tilde=0.5, alpha=2.0, tau=tau,
                             theta=theta, c_poincare=C_P, k=k)


# -- Poincare constant ---------------------------------------------------------

def test_poincare_interval_values():
    assert poincare_constant_interval(math.pi) == pytest.approx(1.0, rel=1e-15)
    assert poincare_constant_interval(1.0) == pytest.approx(1.0 / math.pi ** 2, rel=1e-15)
    assert poincare_constant_interval(2.0) == pytest.approx(4.0 / math.pi ** 2, rel=1e-15)


@pytest.mark.parametrize("length", [1.0, 2.0])
def test_poincare_against_fd_eigenvalue_oracle(length):
    oracle = poincare_fd_oracle(length)
    assert poincare_constant_interval(length) == pytest.approx(oracle, rel=1e-8)


def test_poincare_rejects_bad_length():
    with pytest.raises(InvalidInputs):
        poincare_constant_interval(0.0)
    with pytest.raises(InvalidInputs):
        poincare_constant_interval(-2.0)


# -- constants pipeline (values hand-derived before implementation) -------------

def test_pinned_chain_constants_k0():
    report = compute_constants(worked_inputs(k=0.0))
    assert report.c0 == pytest.approx(2.0, rel=1e-12)
    assert report.c1 == pytest.approx(8.0 + 8.0 * C_P, rel=1e-12)
    assert report.c2 == pytest.approx(20.0 + 20.0 * C_P, rel=1e-12)
    assert report.c_star == pytest.approx(68.0 + 68.0 * C_P, rel=1e-12)
    assert report.c_big == pytest.approx(69.5 + 68.0 * C_P, rel=1e-12)
    assert report.sigma_tilde == pytest.approx(1.0 / (69.5 + 68.0 * C_P), rel=1e-12)
    assert report.sigma_tilde == pytest.approx(0.013091, abs=5e-7)
    assert report.k_bar == pytest.approx(0.125 * math.exp(-1.0), rel=1e-12)
    assert report.k_bar == pytest.approx(0.045985, abs=5e-7)
    assert report.epsilon_star == pytest.approx(0.5 / 6.0, rel=1e-12)
    assert report.delta_star == pytest.approx(0.25, rel=1e-15)


def test_k0_means_no_delay_correction():
    report = compute_constants(worked_inputs(k=0.0))
    assert report.c0 == 2.0
    assert report.sigma == report.sigma_tilde


def test_c0_with_small_k():
    report = compute_constants(worked_inputs(k=0.01))
    assert report.c0 == pytest.approx(2.0 + 0.02 * math.e, rel=1e-14)


def test_negative_k_enters_via_magnitude():
    assert compute_constants(worked_inputs(k=0.01)).c_big == \
        compute_constants(worked_inputs(k=-0.01)).c_big


# -- fixed point ----------------------------------------------------------------

def test_khat_fixed_point_residual():
    inputs = worked_inputs()
    khat = khat_fixed_point(inputs)
    assert abs(amplitude_budget(inputs, khat) - khat) <= 1e-10
    assert abs(amplitude_budget(inputs, khat) - khat) / khat <= 1e-10


@pytest.mark.parametrize("a", [1e-8, 1e-12, 1e-14])
def test_khat_relative_precision_for_weak_kernels(a):
    # kernel (a, 2): k_hat ~ 1.45 a, far below any absolute bracket width;
    # at a = 1e-14, g(g(0)) == g(0) in floating point and k_hat is g(0)
    report = validate_kernel(MemoryKernel.from_terms([(a, 2.0)]))
    inputs = CertificateInputs(mu0=report.mu0, mu_tilde=report.mu_tilde,
                               alpha=report.alpha, tau=0.5, theta=2.0, c_poincare=C_P)
    k_hat = khat_fixed_point(inputs)
    assert abs(amplitude_budget(inputs, k_hat) - k_hat) <= 1e-12 * k_hat


def test_khat_against_dense_scan():
    inputs = worked_inputs()
    khat = khat_fixed_point(inputs)
    scanned = dense_scan_khat(inputs, step=1e-8)
    assert abs(khat - scanned) <= 1e-7
    assert khat == pytest.approx(8.85e-4, abs=2e-6)


def test_k0_is_khat_for_worked_inputs():
    report = compute_constants(worked_inputs())
    assert report.k_hat < report.k_bar
    assert report.k0 == report.k_hat


def test_budget_strictly_decreasing():
    inputs = worked_inputs()
    ks = np.linspace(0.0, 0.5, 40)
    gs = np.array([amplitude_budget(inputs, float(k)) for k in ks])
    assert np.all(np.diff(gs) < 0.0)


def test_kbar_monotone_in_tau_and_poincare():
    base = dict(mu0=1.0, mu_tilde=0.5, alpha=2.0, theta=2.0, k=0.0)
    taus = np.linspace(0.0, 3.0, 7)
    vals = [k_bar_threshold(CertificateInputs(tau=float(t), c_poincare=C_P, **base))
            for t in taus]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    cps = np.linspace(0.05, 2.0, 7)
    vals = [k_bar_threshold(CertificateInputs(tau=1.0, c_poincare=float(c), **base))
            for c in cps]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_sigma_positive_iff_below_budget():
    inputs0 = worked_inputs()
    for k in np.linspace(0.0, 3e-3, 31):
        report = compute_constants(worked_inputs(k=float(k)))
        budget = amplitude_budget(inputs0, float(k))
        assert (report.sigma > 0.0) == (k < budget)


# -- explicit lower bound ---------------------------------------------------------

def test_gamma_constants_exact_rational():
    # worked kernel: mu_tilde = 1/2, theta = 2 gives gamma1 = 495/8 and
    # gamma2 = 45 + 73 C_P, exactly
    g1 = gamma1_constant(Fraction(1, 2))
    assert g1 == Fraction(495, 8)
    base = gamma2_constant(Fraction(1), Fraction(1, 2), Fraction(2), Fraction(0))
    assert base == 45
    slope = gamma2_constant(Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1)) - base
    assert slope == 73


def test_explicit_lower_bound_worked_formula():
    for tau, c_p in ((1.0, C_P), (0.3, 0.2), (2.0, 1.0)):
        inputs = CertificateInputs(mu0=1.0, mu_tilde=0.5, alpha=2.0, tau=tau,
                                   theta=2.0, c_poincare=c_p, k=0.0)
        lb, g1, g2 = explicit_lower_bound(inputs)
        assert g1 == pytest.approx(495.0 / 8.0, rel=1e-12)
        assert g2 == pytest.approx(45.0 + 73.0 * c_p, rel=1e-12)
        assert lb == pytest.approx(
            8.0 * math.exp(-(tau + 1.0)) / (1231.0 + 1168.0 * c_p), rel=1e-12
        )


def test_explicit_lower_bound_worked_value_and_consistency():
    inputs = worked_inputs()
    lb, _, _ = explicit_lower_bound(inputs)
    assert lb == pytest.approx(8.02e-4, abs=2e-6)
    assert lb <= khat_fixed_point(inputs)


def test_all_constants_positive_and_finite_on_random_grid():
    rng = np.random.default_rng(41)
    names = ("c0", "c1", "c2", "c_star", "c_big", "sigma_tilde", "k_bar",
             "k_hat", "k0", "k0_explicit_lb", "gamma1", "gamma2",
             "epsilon_star", "delta_star")
    for _ in range(50):
        inputs = CertificateInputs(
            mu0=float(rng.uniform(0.1, 10.0)),
            mu_tilde=float(rng.uniform(0.05, 0.95)),
            alpha=float(rng.uniform(0.1, 10.0)),
            tau=float(rng.uniform(0.0, 3.0)),
            theta=float(rng.uniform(1.05, 5.0)),
            c_poincare=float(rng.uniform(0.01, 2.0)),
            k=float(rng.uniform(-0.5, 0.5)),
        )
        report = compute_constants(inputs)
        for name in names:
            value = getattr(report, name)
            assert math.isfinite(value) and value > 0.0, (name, inputs)


def test_explicit_bound_below_k0_on_random_grid():
    rng = np.random.default_rng(20260809)
    for _ in range(100):
        inputs = CertificateInputs(
            mu0=float(rng.uniform(0.1, 10.0)),
            mu_tilde=float(rng.uniform(0.05, 0.95)),
            alpha=float(rng.uniform(0.1, 10.0)),
            tau=float(rng.uniform(0.0, 3.0)),
            theta=float(rng.uniform(1.05, 5.0)),
            c_poincare=float(rng.uniform(0.01, 2.0)),
        )
        lb, _, _ = explicit_lower_bound(inputs)
        khat = khat_fixed_point(inputs)
        kbar = k_bar_threshold(inputs)
        assert lb <= min(khat, kbar) * (1.0 + 1e-9)


# -- no-delay threshold ------------------------------------------------------------

def test_nodelay_worked_values():
    c1 = nodelay_c1_constant(0.5, 2.0, C_P)
    c2 = nodelay_c2_constant(1.0, 0.5, 2.0, C_P)
    assert c1 == pytest.approx(6.0 + 8.0 * C_P, rel=1e-12)
    assert c2 == pytest.approx(16.0 + 12.0 * C_P, rel=1e-12)
    threshold = nodelay_threshold(1.0, 0.5, 2.0, C_P)
    assert threshold == pytest.approx(
        1.0 / ((c1 + 3.0 * c2 + 0.5) * math.e), rel=1e-12
    )
    assert threshold == pytest.approx(6.24e-3, abs=5e-6)


def test_nodelay_threshold_vanishes_with_mass():
    values = [nodelay_threshold(1.0, m, 2.0, C_P) for m in (1e-2, 1e-3, 1e-4)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-5


def test_nodelay_beats_delayed_threshold_on_worked_kernel():
    delayed_k0 = compute_constants(worked_inputs()).k0
    assert nodelay_threshold(1.0, 0.5, 2.0, C_P) > delayed_k0


# -- input validation ---------------------------------------------------------------

def test_theta_at_most_one_rejected():
    with pytest.raises(ThetaOutOfRange):
        compute_constants(worked_inputs(theta=1.0))
    with pytest.raises(ThetaOutOfRange):
        khat_fixed_point(worked_inputs(theta=0.5))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mu_tilde=1.0),
        dict(mu_tilde=0.0),
        dict(mu_tilde=-0.1),
        dict(mu0=0.0),
        dict(alpha=0.0),
        dict(tau=-1.0),
        dict(c_poincare=0.0),
        dict(k=math.nan),
    ],
)
def test_invalid_inputs_rejected(kwargs):
    base = dict(mu0=1.0, mu_tilde=0.5, alpha=2.0, tau=1.0, theta=2.0,
                c_poincare=C_P, k=0.0)
    base.update(kwargs)
    with pytest.raises(InvalidInputs):
        compute_constants(CertificateInputs(**base))


@pytest.mark.parametrize("kwargs, error", [
    (dict(mu_tilde=1.0), InvalidInputs),
    (dict(mu_tilde=0.0), InvalidInputs),
    (dict(mu_tilde=1e-160), InvalidInputs),
    (dict(mu0=0.0), InvalidInputs),
    (dict(alpha=0.0), InvalidInputs),
    (dict(tau=-1.0), InvalidInputs),
    (dict(tau=710.0), InvalidInputs),
    (dict(c_poincare=0.0), InvalidInputs),
    (dict(k=math.nan), InvalidInputs),
    (dict(theta=1.0), ThetaOutOfRange),
    (dict(theta=1e308), InvalidInputs),
])
def test_inputs_are_checked_when_built(kwargs, error):
    # inputs that exist are valid: no pipeline function checks them again
    base = dict(mu0=1.0, mu_tilde=0.5, alpha=2.0, tau=1.0, theta=2.0,
                c_poincare=C_P, k=0.0)
    with pytest.raises(error):
        CertificateInputs(**{**base, **kwargs})


def test_nodelay_rejects_bad_inputs():
    with pytest.raises(InvalidInputs):
        nodelay_threshold(1.0, 1.0, 2.0, C_P)
    with pytest.raises(InvalidInputs):
        nodelay_threshold(0.0, 0.5, 2.0, C_P)


def test_report_flat_dict_roundtrip():
    report = compute_constants(worked_inputs(k=5e-4))
    flat = report.as_flat_dict()
    assert flat["certified"] is True
    assert flat["inputs"]["k"] == 5e-4
    assert set(flat) >= {
        "c0", "c1", "c2", "c_star", "c_big", "sigma_tilde", "sigma",
        "k_bar", "k_hat", "k0", "k0_explicit_lb", "gamma1", "gamma2",
        "epsilon_star", "delta_star",
    }
