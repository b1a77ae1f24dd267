"""Prony-series memory kernels and their admissibility checks.

A kernel is a finite sum of decaying exponentials,

    mu(s) = sum_i a_i * exp(-b_i * s),    a_i > 0, b_i > 0.

This family gives the three quantities every other module consumes in
closed form: the initial value mu0 = sum a_i, the total mass
mu_tilde = sum a_i / b_i (which must stay strictly below 1), and the
decay rate alpha = min b_i with mu'(s) <= -alpha * mu(s) pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelInvalid",
    "MemoryKernel",
    "KernelReport",
    "validate_kernel",
    "quadrature_weights",
]


class KernelInvalid(ValueError):
    """A kernel violates one of the admissibility assumptions."""


@dataclass(frozen=True)
class MemoryKernel:
    """Finite Prony series; an empty term list disables memory (mu == 0)."""

    terms: tuple[tuple[float, float], ...] = ()

    @classmethod
    def from_terms(cls, pairs) -> "MemoryKernel":
        return cls(tuple((float(a), float(b)) for a, b in pairs))

    @property
    def is_empty(self) -> bool:
        return len(self.terms) == 0

    @property
    def mu0(self) -> float:
        """mu(0), the initial kernel value."""
        return float(sum(a for a, _ in self.terms))

    @property
    def mu_tilde(self) -> float:
        """Total mass, the integral of mu over [0, inf)."""
        return float(sum(a / b for a, b in self.terms))

    @property
    def alpha(self) -> float:
        """Largest rate with mu' <= -alpha*mu, i.e. min_i b_i (inf if empty)."""
        if self.is_empty:
            return math.inf
        return float(min(b for _, b in self.terms))

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([a for a, _ in self.terms], dtype=float)

    @property
    def rates(self) -> np.ndarray:
        return np.array([b for _, b in self.terms], dtype=float)

    def value(self, s):
        """mu evaluated exactly at s (scalar or array)."""
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for a, b in self.terms:
            out += a * np.exp(-b * s)
        return out

    def derivative(self, s):
        """mu'(s) = -sum_i a_i b_i exp(-b_i s)."""
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for a, b in self.terms:
            out -= a * b * np.exp(-b * s)
        return out

    def tail_mass(self, s: float) -> float:
        """Integral of mu over [s, inf), in closed form."""
        return float(sum((a / b) * math.exp(-b * s) for a, b in self.terms))


@dataclass(frozen=True)
class KernelReport:
    """Headline kernel quantities plus the history truncation point."""

    mu0: float
    mu_tilde: float
    alpha: float
    s_max: float
    tail_mass: float


def validate_kernel(kernel: MemoryKernel, tail_tol: float = 1e-8) -> KernelReport:
    """Check the admissibility assumptions and derive the kernel report.

    Rejects any kernel with a nonpositive amplitude or rate, or with total
    mass >= 1.  ``s_max`` is the smallest point where the remaining tail
    mass drops to ``tail_tol * mu_tilde``; history beyond it can be cut.
    """
    if not (0.0 < tail_tol < 1.0):
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    for i, (a, b) in enumerate(kernel.terms):
        if not (math.isfinite(a) and a > 0.0):
            raise KernelInvalid(
                f"terms[{i}]: amplitude a={a!r} must be positive and finite "
                "(assumption (i): mu(0) > 0)"
            )
        if not (math.isfinite(b) and b > 0.0):
            raise KernelInvalid(
                f"terms[{i}]: rate b={b!r} must be positive and finite "
                "(assumption (iii): exponential decay)"
            )
    if kernel.is_empty:
        return KernelReport(mu0=0.0, mu_tilde=0.0, alpha=math.inf, s_max=0.0, tail_mass=0.0)
    mu_tilde = kernel.mu_tilde
    if mu_tilde >= 1.0:
        raise KernelInvalid(
            f"total mass mu_tilde={mu_tilde} must be strictly below 1 (assumption (ii))"
        )
    s_max = _tail_cut(kernel, tail_tol * mu_tilde)
    return KernelReport(
        mu0=kernel.mu0,
        mu_tilde=mu_tilde,
        alpha=kernel.alpha,
        s_max=s_max,
        tail_mass=kernel.tail_mass(s_max),
    )


def _tail_cut(kernel: MemoryKernel, target: float) -> float:
    """Smallest s with tail_mass(s) <= target (tail_mass is strictly decreasing)."""
    if kernel.tail_mass(0.0) <= target:
        return 0.0
    hi = 1.0
    while kernel.tail_mass(hi) > target:
        hi *= 2.0
        if hi > 1e300:
            raise KernelInvalid(
                f"the kernel's tail mass stays above tail_tol*mu_tilde = {target:.6g} "
                "up to s = 1e300, where the search for s_max stops; "
                "raise the kernel rates or tail_tol"
            )
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # no double lies between lo and hi: tail(lo) > target >= tail(hi)
        # keeps both ends where they are from here on
        if mid == lo or mid == hi:
            break
        if kernel.tail_mass(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def quadrature_weights(s_nodes: np.ndarray) -> np.ndarray:
    """Trapezoid weights for an increasing node vector (possibly nonuniform)."""
    s = np.asarray(s_nodes, dtype=float)
    if s.size < 2:
        return np.zeros_like(s)
    w = np.zeros_like(s)
    h = np.diff(s)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return w
