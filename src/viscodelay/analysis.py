"""Decay-rate extraction and quantitative checks on energy traces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import Trace, extra_damping

__all__ = [
    "InsufficientData",
    "HorizonTooShort",
    "SnapshotsMissing",
    "DecayFit",
    "SweepRow",
    "TheoremBoundResult",
    "IntegralCheckResult",
    "IdentityCheckResult",
    "fit_decay_rate",
    "classify",
    "check_theorem_bound",
    "check_integral_inequality",
    "check_memory_identity",
]

ENERGY_FLOOR = 1e-30     # fit_decay_rate drops samples at or below this
GROWTH_THRESHOLD = 1e-3  # classify: |sigma_emp| needed for a trend
IDENTITY_FLOOR = 1e-300  # keeps the identity residual of a zero trace finite


class InsufficientData(ValueError):
    pass


class HorizonTooShort(ValueError):
    pass


class SnapshotsMissing(ValueError):
    pass


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of ln F(t); sigma_emp is its negation."""

    sigma_emp: float
    r_squared: float
    window: tuple[float, float]
    n_samples: int


@dataclass(frozen=True)
class SweepRow:
    k: float
    sigma_emp: float
    r_squared: float
    classification: str
    certified: bool | None
    theorem_bound_ok: bool | None
    error: str | None = None


def default_window(times: np.ndarray) -> tuple[float, float]:
    """Skip the initial transient and the floor region: [0.2 T, 0.9 T]."""
    t_end = float(times[-1])
    return (0.2 * t_end, 0.9 * t_end)


def fit_decay_rate(trace: Trace, window: tuple[float, float] | None = None) -> DecayFit:
    """Ordinary least squares on (t, ln F(t)) inside the fit window.

    Samples at or below ``ENERGY_FLOOR`` are dropped; fewer than 10 usable
    samples raises :class:`InsufficientData`.
    """
    t = trace.times
    f = trace.total
    if window is None:
        window = default_window(t)
    lo, hi = window
    mask = (t >= lo) & (t <= hi) & (f > ENERGY_FLOOR) & np.isfinite(f)
    if int(mask.sum()) < 10:
        raise InsufficientData(
            f"only {int(mask.sum())} usable samples in window [{lo}, {hi}]"
        )
    tw = t[mask]
    yw = np.log(f[mask])
    tbar = tw.mean()
    ybar = yw.mean()
    dt_ = tw - tbar
    dy = yw - ybar
    denom = float(dt_ @ dt_)
    slope = float(dt_ @ dy) / denom
    ss_tot = float(dy @ dy)
    if ss_tot <= 1e-28 * max(1.0, ybar * ybar):
        # numerically flat data: no trend to score
        return DecayFit(sigma_emp=0.0, r_squared=0.0, window=(lo, hi),
                        n_samples=int(mask.sum()))
    resid = dy - slope * dt_
    r2 = 1.0 - float(resid @ resid) / ss_tot
    return DecayFit(sigma_emp=-slope, r_squared=r2, window=(lo, hi),
                    n_samples=int(mask.sum()))


def classify(fit: DecayFit) -> str:
    """'decaying', 'growing', or 'inconclusive' from a decay fit."""
    if fit.sigma_emp > GROWTH_THRESHOLD and fit.r_squared > 0.9:
        return "decaying"
    if fit.sigma_emp < -GROWTH_THRESHOLD and fit.r_squared > 0.9:
        return "growing"
    return "inconclusive"


@dataclass(frozen=True)
class TheoremBoundResult:
    ok: bool
    worst_margin: float           # max over samples of F / envelope - 1
    first_violation_t: float | None
    sigma: float


def check_theorem_bound(trace: Trace, sigma: float,
                        tol: float = 0.01) -> TheoremBoundResult:
    """Check F(t) <= F(0) e^{1 - sigma t} (1 + tol) at every sample."""
    t = trace.times
    f = trace.total
    f0 = float(f[0])
    first = None
    if f0 <= 0.0:
        ok = bool(np.all(f <= 0.0))
        worst = -1.0 if ok else math.inf
    else:
        ratio = f / (f0 * np.exp(1.0 - sigma * t))
        worst = float(ratio.max()) - 1.0
        violations = np.nonzero(ratio > 1.0 + tol)[0]
        ok = not violations.size
        if not ok:
            first = float(t[violations[0]])
    return TheoremBoundResult(ok=ok, worst_margin=worst, first_violation_t=first, sigma=sigma)


@dataclass(frozen=True)
class IntegralCheckResult:
    ok: bool
    worst_ratio: float            # max over S of (int_S^T F dt) / F(S)
    worst_s: float
    c_big: float


def check_integral_inequality(trace: Trace, c_big: float,
                              tol: float = 0.01) -> IntegralCheckResult:
    """Check int_S^T F dt <= C F(S) (1 + tol) for every sample time S.

    The finite horizon only shrinks the left side, so the check is sound;
    it does require the trace to have essentially decayed, i.e.
    F(T) <= 1e-3 F(0), otherwise :class:`HorizonTooShort` is raised.
    """
    t = trace.times
    f = trace.total
    if t.size < 2:
        raise InsufficientData("need at least two samples")
    f0 = float(f[0])
    if f0 > 0.0 and float(f[-1]) > 1e-3 * f0:
        raise HorizonTooShort(
            f"F(T)/F(0) = {float(f[-1]) / f0:.3g} > 1e-3; extend the horizon"
        )
    # right-to-left cumulative trapezoid: tail[i] = int_{t_i}^{T} F dt
    seg = 0.5 * np.diff(t) * (f[:-1] + f[1:])
    tail = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
    worst_ratio = 0.0
    worst_s = float(t[0])
    for i in range(t.size):
        if f[i] <= 0.0:
            continue  # 0/0 tail of a dead trace
        r = tail[i] / f[i]
        if r > worst_ratio:
            worst_ratio = r
            worst_s = float(t[i])
    return IntegralCheckResult(
        ok=worst_ratio <= c_big * (1.0 + tol),
        worst_ratio=worst_ratio,
        worst_s=worst_s,
        c_big=c_big,
    )


@dataclass(frozen=True)
class IdentityCheckResult:
    residual: float
    lhs: float
    rhs: float
    n_snapshots: int


def check_memory_identity(trace: Trace, s_start: float, t_end: float) -> IdentityCheckResult:
    """Evaluate both sides of the seven-term memory identity on [S, T].

    Needs volumetric snapshots in the trace (run with ``snapshots=True``).
    Returns |LHS - RHS| / (|LHS| + |RHS| + IDENTITY_FLOOR); the identity is
    exact in the continuum, so the residual is pure discretization error
    and must shrink under refinement.
    """
    from .energy import grad_full, integral_x  # local import to avoid a cycle

    if not trace.snapshots:
        raise SnapshotsMissing("trace carries no snapshots; rerun with snapshots=True")
    snaps = [s for s in trace.snapshots if s_start <= s.t <= t_end]
    if len(snaps) < 3:
        raise SnapshotsMissing(
            f"only {len(snaps)} snapshots inside [{s_start}, {t_end}]"
        )
    params = trace.params
    if params.kernel.is_empty:
        return IdentityCheckResult(residual=0.0, lhs=0.0, rhs=0.0,
                                   n_snapshots=len(snaps))
    mu_tilde = params.kernel.mu_tilde
    dx = trace.disc.dx
    damp = extra_damping(params, trace.disc)

    times, u, v, v_delayed, p, pp = (
        np.array([getattr(snap, name) for snap in snaps])
        for name in ("t", "u", "v", "v_delayed", "int_mu_eta", "int_mu_prime_eta")
    )
    gu = grad_full(u, dx)
    gp = grad_full(p, dx)

    def inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # per-snapshot x-integral; Dirichlet zeros make the trapezoid a sum
        return dx * np.einsum("ij,ij->i", a, b)

    def over_time(values: np.ndarray) -> float:
        return float(np.trapezoid(values, times))

    v_dot_p = inner(v, p)  # <u_t, int mu eta>
    lhs = mu_tilde * over_time(inner(v, v))
    rhs = (
        (v_dot_p[-1] - v_dot_p[0])
        - over_time(inner(v, pp))
        + (1.0 - mu_tilde) * over_time(integral_x(gu * gp, dx))
        + over_time(integral_x(gp * gp, dx))
        + damp * over_time(v_dot_p)
        + params.k * over_time(inner(v_delayed, p))
    )
    residual = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + IDENTITY_FLOOR)
    return IdentityCheckResult(residual=residual, lhs=lhs, rhs=rhs,
                               n_snapshots=len(snaps))
