"""Explicit exponential-stability constants for the delayed viscoelastic wave model.

Everything here is closed-form scalar arithmetic: the chained constants
C0..C, the certified decay rates, the structural amplitude threshold
k_bar, the fixed-point threshold k_hat, an explicit lower bound for the
certified amplitude, and the simplified no-delay threshold.

The pure-rational helpers (``gamma1_constant`` etc.) deliberately avoid
numpy and ``math`` so they can also be evaluated with ``fractions.Fraction``
inputs when exactness matters (the test suite does this).
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field

__all__ = [
    "InvalidInputs",
    "ThetaOutOfRange",
    "NoConvergence",
    "CertificateInputs",
    "ConstantsReport",
    "poincare_constant_interval",
    "compute_constants",
    "khat_fixed_point",
    "explicit_lower_bound",
    "nodelay_threshold",
    "amplitude_budget",
]


TAU_MAX = math.log(sys.float_info.max)  # the largest delay whose e^tau is finite
# the smallest mu_tilde whose square is a normal double (gamma2 divides by it)
MU_TILDE_MIN = math.sqrt(sys.float_info.min)
LENGTH_MAX = math.pi * math.sqrt(sys.float_info.max)  # the largest L whose (L/pi)^2 is finite


class InvalidInputs(ValueError):
    """Certificate inputs violate a precondition."""


class ThetaOutOfRange(InvalidInputs):
    """theta <= 1 requested on the delayed path (only the no-delay route allows it)."""


class NoConvergence(RuntimeError):
    """The fixed-point bisection could not bracket or converge."""


def poincare_constant_interval(length: float) -> float:
    """Sharp Poincare constant (L/pi)^2 on (0, L) with Dirichlet ends."""
    if not (math.isfinite(length) and length > 0.0):
        raise InvalidInputs(f"interval length must be positive, got {length!r}")
    if length > LENGTH_MAX:
        raise InvalidInputs(f"interval length must be at most {LENGTH_MAX:.6g}, where "
                            f"(L/pi)^2 overflows, got {length!r}")
    return (length / math.pi) ** 2


def _check_shared_inputs(mu0: float, mu_tilde: float, alpha: float,
                         c_poincare: float) -> None:
    """The preconditions the delayed and the no-delay thresholds share."""
    if not (math.isfinite(mu0) and mu0 > 0.0):
        raise InvalidInputs(f"mu0 must be positive, got {mu0!r}")
    if not (0.0 < mu_tilde < 1.0):
        raise InvalidInputs(f"mu_tilde must lie strictly in (0, 1), got {mu_tilde!r}")
    if not alpha > 0.0:
        raise InvalidInputs(f"alpha must be positive, got {alpha!r}")
    if not (math.isfinite(c_poincare) and c_poincare > 0.0):
        raise InvalidInputs(f"c_poincare must be positive, got {c_poincare!r}")


@dataclass(frozen=True)
class CertificateInputs:
    """Scalar inputs of the constants pipeline.

    ``c_poincare`` may come from :func:`poincare_constant_interval` or be
    user supplied (higher-dimensional domains).  ``k`` is the signed
    delay-feedback amplitude; only ``abs(k)`` enters the constants.
    """

    mu0: float
    mu_tilde: float
    alpha: float
    tau: float
    theta: float
    c_poincare: float
    k: float = 0.0

    def validate(self) -> None:
        _check_shared_inputs(self.mu0, self.mu_tilde, self.alpha, self.c_poincare)
        if not 0.0 <= self.tau <= TAU_MAX:
            raise InvalidInputs(
                f"tau must lie in [0, {TAU_MAX:.6g}], where e^tau is finite, got {self.tau!r}")
        if not math.isfinite(self.k):
            raise InvalidInputs(f"k must be finite, got {self.k!r}")
        if not self.theta > 1.0:
            raise ThetaOutOfRange(
                f"theta must exceed 1 on the delayed path, got {self.theta!r}"
            )
        # the constants divide by mu_tilde^2 and multiply theta e^tau: inputs
        # that push them out of the float range are refused, not bisected
        if self.mu_tilde < MU_TILDE_MIN:
            raise InvalidInputs(f"mu_tilde must be at least {MU_TILDE_MIN:.6g}, where "
                                f"mu_tilde^2 leaves the normal range, got {self.mu_tilde!r}")
        if not math.isfinite(self.theta * math.exp(self.tau)):
            raise InvalidInputs(f"theta * e^tau must be at most {sys.float_info.max:.6g}, "
                                f"got theta = {self.theta!r}, tau = {self.tau!r}")


# -- scalar constant formulas -------------------------------------------------
# Plain arithmetic only: these evaluate exactly under fractions.Fraction.

def c0_constant(theta, k_abs, exp_tau):
    return 2 + theta * k_abs * exp_tau


def c1_constant(mu_tilde, alpha, theta, c_p):
    m = mu_tilde
    return 4 * (1 + m / (alpha * (1 - m)) + c_p / (1 - m) + 1 / (2 * (theta - 1)))


def c2_constant(mu0, mu_tilde, alpha, theta, c_p, k_abs, exp_tau):
    # multiplier epsilon already fixed at (1 - mu_tilde) / (2 (C0 + 1))
    m = mu_tilde
    head = (4 / m) * (1 + 1 / (2 * (theta - 1)) + mu0 * c_p / m) + 4 * c_p
    tail = (2 / alpha) * (
        2
        + (6 + 2 * theta * k_abs * exp_tau) * (1 - m) / m
        + c_p * k_abs * (theta * exp_tau + 1)
    )
    return head + tail


def gamma1_constant(mu_tilde):
    m = mu_tilde
    return 4 * m / (1 - m) - 8 + 36 / m - (23 * m) / 2 - (3 * m * m) / 2


def gamma2_constant(mu0, mu_tilde, theta, c_p):
    m, t = mu_tilde, theta
    return (
        6
        + 12 * c_p
        + 3 / (t - 1)
        + 12 / m
        + 6 / (m * (t - 1))
        + 12 * mu0 * c_p / (m * m)
        + 2 * mu0 * c_p / m
        + 2 * c_p * m
        + 4 * c_p / (1 - m)
    )


def nodelay_c1_constant(mu_tilde, alpha, c_p):
    m = mu_tilde
    return 4 * (1 + m / (alpha * (1 - m)) + c_p / (1 - m))


def nodelay_c2_constant(mu0, mu_tilde, alpha, c_p):
    m = mu_tilde
    return (2 / m) * (2 + mu0 * c_p / m) + 4 * c_p + (2 / alpha) * (2 + 6 * (1 - m) / m)


# -- chained pipeline ----------------------------------------------------------

def _chain(inputs: CertificateInputs, k_abs: float):
    """C0, C1, C2, C*, C evaluated at a given feedback magnitude."""
    exp_tau = math.exp(inputs.tau)
    c0 = c0_constant(inputs.theta, k_abs, exp_tau)
    c1 = c1_constant(inputs.mu_tilde, inputs.alpha, inputs.theta, inputs.c_poincare)
    c2 = c2_constant(
        inputs.mu0, inputs.mu_tilde, inputs.alpha, inputs.theta,
        inputs.c_poincare, k_abs, exp_tau,
    )
    c_star = c0 * c2 + c1 + c2
    c_big = c_star + 1 + 1 / inputs.alpha
    return c0, c1, c2, c_star, c_big


def amplitude_budget(inputs: CertificateInputs, k_abs: float) -> float:
    """g(|k|) = 1 / (C(|k|) e theta e^tau).

    The perturbed decay rate stays positive exactly while |k| < g(|k|);
    g is continuous and strictly decreasing in |k|.
    """
    *_, c_big = _chain(inputs, k_abs)
    return 1.0 / (c_big * math.e * inputs.theta * math.exp(inputs.tau))


def k_bar_threshold(inputs: CertificateInputs) -> float:
    """Structural smallness threshold for the integral estimate."""
    exp_tau = math.exp(inputs.tau)
    return min(
        (1.0 - inputs.mu_tilde) / (2.0 * inputs.c_poincare * (inputs.theta * exp_tau + 1.0)),
        (inputs.mu_tilde / (2.0 * inputs.theta)) * math.exp(-inputs.tau),
    )


KHAT_REL_TOL = 1e-15  # bisection stops once the bracket is this narrow relative to hi
KHAT_MAX_ITER = 200


def khat_fixed_point(inputs: CertificateInputs) -> float:
    """Unique k_hat > 0 with k_hat = g(k_hat), by bisection on [0, g(0)].

    g is strictly decreasing, so f(k) = g(k) - k changes sign exactly once
    on (0, g(0)), inside [g(g(0)), g(0)]; a weak kernel makes those bounds
    one double, and k_hat is g(0).  Raises :class:`NoConvergence` if the
    bracket fails, which would indicate a non-monotone g (an implementation
    bug), and :class:`InvalidInputs` if C e theta e^tau overflows, so that
    g(0) = 0 leaves no bracket.
    """
    inputs.validate()
    lo = 0.0
    hi = amplitude_budget(inputs, 0.0)
    if not hi > 0.0:
        *_, c_big = _chain(inputs, 0.0)
        raise InvalidInputs(
            f"C e theta e^tau must be at most {sys.float_info.max:.6g}, but C = {c_big!r} "
            f"(c_poincare = {inputs.c_poincare!r}, mu0 = {inputs.mu0!r}, "
            f"alpha = {inputs.alpha!r}) leaves the amplitude budget g(0) = {hi!r}")
    g_hi = amplitude_budget(inputs, hi)
    if g_hi == hi:
        return hi
    if g_hi > hi:
        raise NoConvergence("g(g(0)) > g(0): g is not decreasing")
    for _ in range(KHAT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if amplitude_budget(inputs, mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= KHAT_REL_TOL * hi:
            return 0.5 * (lo + hi)
    raise NoConvergence(
        f"bisection did not reach {KHAT_REL_TOL} relative in {KHAT_MAX_ITER} steps")


def explicit_lower_bound(inputs: CertificateInputs):
    """Closed-form lower bound for the certified amplitude threshold.

    Returns ``(k0_lb, gamma1, gamma2)`` with
    k0_lb = e^{-(tau+1)} / (theta (1 + gamma1/alpha + gamma2)).
    """
    inputs.validate()
    g1 = gamma1_constant(inputs.mu_tilde)
    g2 = gamma2_constant(inputs.mu0, inputs.mu_tilde, inputs.theta, inputs.c_poincare)
    lb = math.exp(-(inputs.tau + 1.0)) / (inputs.theta * (1.0 + g1 / inputs.alpha + g2))
    return lb, g1, g2


def nodelay_threshold(mu0: float, mu_tilde: float, alpha: float,
                      c_poincare: float) -> float:
    """Amplitude threshold for tau = 0 (anti-damping), where theta = 1 works."""
    _check_shared_inputs(mu0, mu_tilde, alpha, c_poincare)
    c1 = nodelay_c1_constant(mu_tilde, alpha, c_poincare)
    c2 = nodelay_c2_constant(mu0, mu_tilde, alpha, c_poincare)
    return 1.0 / ((c1 + 3.0 * c2 + 1.0 / alpha) * math.e)


@dataclass(frozen=True)
class ConstantsReport:
    """Every constant of the certification pipeline, with its inputs."""

    c0: float
    c1: float
    c2: float
    c_star: float
    c_big: float
    sigma_tilde: float
    sigma: float
    k_bar: float
    k_hat: float
    k0: float
    k0_explicit_lb: float
    gamma1: float
    gamma2: float
    epsilon_star: float
    delta_star: float
    inputs: CertificateInputs = field(repr=False)

    @property
    def certified(self) -> bool:
        """Whether the report's own |k| sits below the certified threshold."""
        return abs(self.inputs.k) < self.k0

    def as_flat_dict(self) -> dict:
        return {**asdict(self), "certified": self.certified}


def compute_constants(inputs: CertificateInputs) -> ConstantsReport:
    """Evaluate the full constants chain at ``abs(inputs.k)``.

    ``sigma`` may come out nonpositive when |k| is too large; the report
    still carries every constant so the caller can see how far off it is.
    """
    inputs.validate()
    k_abs = abs(inputs.k)
    c0, c1, c2, c_star, c_big = _chain(inputs, k_abs)
    sigma_tilde = 1.0 / c_big
    sigma = sigma_tilde - math.e * inputs.theta * k_abs * math.exp(inputs.tau)
    k_bar = k_bar_threshold(inputs)
    k_hat = khat_fixed_point(inputs)
    lb, g1, g2 = explicit_lower_bound(inputs)
    return ConstantsReport(
        c0=c0,
        c1=c1,
        c2=c2,
        c_star=c_star,
        c_big=c_big,
        sigma_tilde=sigma_tilde,
        sigma=sigma,
        k_bar=k_bar,
        k_hat=k_hat,
        k0=min(k_hat, k_bar),
        k0_explicit_lb=lb,
        gamma1=g1,
        gamma2=g2,
        epsilon_star=(1.0 - inputs.mu_tilde) / (2.0 * (c0 + 1.0)),
        delta_star=0.5 * inputs.mu_tilde,
        inputs=inputs,
    )
