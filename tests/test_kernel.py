import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viscodelay.kernel import (
    KernelInvalid,
    MemoryKernel,
    _tail_cut,
    quadrature_weights,
    validate_kernel,
)
from viscodelay.solver import geometric_s_grid

WORKED = MemoryKernel.from_terms([(1.0, 2.0)])
TWO_TERM = MemoryKernel.from_terms([(0.3, 1.0), (0.2, 4.0)])


def test_worked_kernel_quantities():
    report = validate_kernel(WORKED)
    assert report.mu0 == 1.0
    assert report.mu_tilde == 0.5
    assert report.alpha == 2.0


def test_empty_kernel_disables_memory():
    report = validate_kernel(MemoryKernel())
    assert report.mu0 == 0.0
    assert report.mu_tilde == 0.0
    assert report.alpha == math.inf
    assert report.s_max == 0.0
    assert report.tail_mass == 0.0
    assert MemoryKernel().value(3.7) == 0.0


def test_two_term_kernel_closed_forms():
    report = validate_kernel(TWO_TERM)
    assert report.mu_tilde == pytest.approx(0.35, rel=1e-15)
    assert report.alpha == 1.0
    assert report.mu0 == pytest.approx(0.5, rel=1e-15)


def test_two_term_mass_against_adaptive_quadrature():
    # independent check of mu_tilde by adaptive quadrature on [0, 100]
    from scipy.integrate import quad

    value, err = quad(lambda s: 0.3 * math.exp(-s) + 0.2 * math.exp(-4.0 * s),
                      0.0, 100.0, epsabs=1e-13, epsrel=1e-13)
    assert validate_kernel(TWO_TERM).mu_tilde == pytest.approx(value, abs=1e-10)


def test_kernel_value_examples():
    assert WORKED.value(0.0) == pytest.approx(1.0, rel=1e-15)
    expected = 0.3 * math.exp(-1.0) + 0.2 * math.exp(-4.0)
    assert expected == pytest.approx(0.114025, abs=5e-6)
    assert TWO_TERM.value(1.0) == pytest.approx(expected, rel=1e-15)


def test_kernel_value_vectorized():
    s = np.array([0.0, 0.5, 2.0])
    np.testing.assert_allclose(WORKED.value(s), np.exp(-2.0 * s), rtol=1e-15)


def test_derivative_bound_pointwise():
    # mu'(s) <= -alpha mu(s) on a log-spaced sample, for several kernels
    for kernel in (WORKED, TWO_TERM, MemoryKernel.from_terms([(0.1, 0.5), (0.05, 3.0)])):
        alpha = validate_kernel(kernel).alpha
        s = np.concatenate(([0.0], np.logspace(-3, 2, 40)))
        assert np.all(kernel.derivative(s) <= -alpha * kernel.value(s) + 1e-15)


def test_smax_cuts_the_tail():
    tol = 1e-8
    for kernel in (WORKED, TWO_TERM):
        report = validate_kernel(kernel, tail_tol=tol)
        assert report.tail_mass <= tol * report.mu_tilde * (1.0 + 1e-12)
        # minimality: slightly earlier cut still leaves too much tail
        assert kernel.tail_mass(report.s_max * 0.999) > tol * report.mu_tilde


def test_quadrature_reproduces_mass_minus_tail():
    for kernel in (WORKED, TWO_TERM):
        report = validate_kernel(kernel)
        nodes = geometric_s_grid(report.s_max, 4096, report.s_max / 2e5)
        w = quadrature_weights(nodes)
        approx = float(w @ kernel.value(nodes))
        target = report.mu_tilde - report.tail_mass
        assert approx == pytest.approx(target, rel=1e-6)


def test_validate_is_deterministic():
    assert validate_kernel(WORKED) == validate_kernel(WORKED)
    assert validate_kernel(TWO_TERM, 1e-10) == validate_kernel(TWO_TERM, 1e-10)


@pytest.mark.parametrize(
    "terms, fragment",
    [
        ([(0.0, 2.0)], "(i)"),
        ([(-1.0, 2.0)], "(i)"),
        ([(1.0, 0.0)], "(iii)"),
        ([(1.0, -3.0)], "(iii)"),
        ([(1.0, 2.0), (2.0, 1.0)], "(ii)"),  # mass 0.5 + 2.0 >= 1
    ],
)
def test_invalid_kernels_name_the_assumption(terms, fragment):
    with pytest.raises(KernelInvalid) as err:
        validate_kernel(MemoryKernel.from_terms(terms))
    assert fragment in str(err.value)


def test_tail_tol_range_checked():
    with pytest.raises(ValueError):
        validate_kernel(WORKED, tail_tol=0.0)
    with pytest.raises(ValueError):
        validate_kernel(WORKED, tail_tol=1.5)


def test_derivative_value_consistency():
    s = np.linspace(0.0, 5.0, 11)
    d = TWO_TERM.derivative(s)
    expected = -0.3 * np.exp(-s) - 0.8 * np.exp(-4.0 * s)
    np.testing.assert_allclose(d, expected, rtol=1e-14)


def tail_cut_200(kernel: MemoryKernel, target: float) -> float:
    """``_tail_cut`` by 200 bisections, with no stop when the bracket stops moving."""
    if kernel.tail_mass(0.0) <= target:
        return 0.0
    hi = 1.0
    while kernel.tail_mass(hi) > target:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kernel.tail_mass(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(terms=st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)),
                      min_size=1, max_size=4),
       share=st.floats(1e-15, 1.0))
def test_tail_cut_stops_where_the_bracket_stops_moving(terms, share):
    # once the midpoint is an end of the bracket, bisection is at a fixed
    # point, so stopping there returns the bits of all 200 halvings
    kernel = MemoryKernel.from_terms(terms)
    target = share * kernel.tail_mass(0.0)
    assert _tail_cut(kernel, target) == tail_cut_200(kernel, target)
