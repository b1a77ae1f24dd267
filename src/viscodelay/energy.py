"""The energy functional and its dissipation check for the auxiliary problem.

The energy of a state is

    F(t) = 1/2 int u_t^2 + (1 - mu_tilde)/2 int |grad u|^2
         + 1/2 int_0^inf mu(s) int |grad eta(s)|^2 dx ds
         + (theta |k| e^tau / 2) int_{t-tau}^t e^{-(t-s)} int u_t(s)^2 dx ds.

Spatial integrals use the trapezoid rule on the x-grid with gradients by
centered differences (one-sided at the boundary); the s-integral uses the
discretization's own quadrature weights, with the kernel values on the
s-grid computed once per grid.  A sample forms only the eta rows that
``solver._distinct_eta_rows`` says can differ (with a frozen past, every
row from the first whose s-node reaches back past t = 0 is u - phi) and
copies the last one's int |grad eta|^2 to the rest; how eta's rows are
laid out in the displacement history is the solver's alone.  The delay
integral is a trapezoid over the squared norms the velocity ring buffer
keeps per slot (``RingBuffer.slot_norms``), so a sample reads n_delay + 1
scalars instead of reducing the whole delay line again, and its
coefficient is computed once per (theta, tau, k).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import solver as solver_mod
from .solver import Discretization, ModelParams, SimState, Trace

__all__ = [
    "SampleRow",
    "WrongMode",
    "DissipationReport",
    "sample_state",
    "check_dissipation",
]

INCREMENT_TOL = 1e-6  # check_dissipation's tolerances, relative to F(0)
VIOLATION_TOL = 0.5


class WrongMode(ValueError):
    """The dissipation estimate only holds for auxiliary-problem traces."""


@dataclass(frozen=True)
class SampleRow:
    """The four additive (nonnegative) terms of F(t) plus the raw integrals
    the dissipation check needs."""

    kinetic: float
    elastic: float
    memory: float
    delay: float
    ut_sq: float
    ut_tau_sq: float
    delay_raw: float
    mu_prime_eta: float

    @property
    def total(self) -> float:
        return self.kinetic + self.elastic + self.memory + self.delay


def grad_full(interior: np.ndarray, dx: float) -> np.ndarray:
    """Gradient on the padded grid: centered inside, one-sided at the ends."""
    return _grad_into(interior, np.empty(interior.shape[:-1] + (interior.shape[-1] + 2,)), dx)


def _grad_into(f: np.ndarray, g: np.ndarray, dx: float) -> np.ndarray:
    """``grad_full`` of interior values ``f`` written into ``g``.

    Each entry is the padded formula's own quotient: its neighbours past
    the ends are the Dirichlet zeros, and w - 0 and 0 - w are w and -w.
    """
    h = 2.0 * dx
    np.subtract(f[..., 2:], f[..., :-2], out=g[..., 2:-2])
    g[..., 2:-2] /= h
    np.divide(f[..., 1], h, out=g[..., 1])
    np.divide(f[..., -2], -h, out=g[..., -2])
    np.divide(f[..., 0], dx, out=g[..., 0])
    np.divide(f[..., -1], -dx, out=g[..., -1])
    return g


def integral_x(values_full: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid over the padded x-grid (last axis)."""
    return dx * (
        values_full.sum(axis=-1) - 0.5 * (values_full[..., 0] + values_full[..., -1])
    )


@functools.lru_cache(maxsize=32)
def _delay_weights(disc: Discretization) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot offsets 0..n_delay, trapezoid weights and e^{-s} at s = offset * dt.

    Cached per grid (``Discretization`` hashes by identity); read-only
    because every sample shares them.
    """
    nd = disc.n_delay
    dt = disc.dt
    offsets = np.arange(nd + 1)
    w = np.full(nd + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    decay = np.exp(-dt * offsets)
    for arr in (offsets, w, decay):
        arr.flags.writeable = False
    return offsets, w, decay


@functools.lru_cache(maxsize=32)
def _delay_coefficient(theta: float, tau: float,
                       k: float | tuple[float, ...]) -> tuple[np.ndarray, np.ndarray | None]:
    """The delay term's factor 0.5 * theta |k| e^tau per batch row (``k`` a
    tuple for a batch), and which rows have a delay term at all (k != 0 and
    tau > 0), None when every row has; read-only, as every sample shares them."""
    k = np.array(k)
    half = np.asarray(0.5 * (theta * np.abs(k) * math.exp(tau)))
    live = np.asarray((k != 0.0) & (tau > 0.0))
    for arr in (half, live):
        arr.flags.writeable = False
    return half, None if live.all() else live


def _delay_integral(state: SimState, disc: Discretization) -> np.ndarray:
    """int_{t-tau}^t e^{-(t-s)} ||u_t(s)||^2 ds from the delay line's slot norms,
    one value per batch row."""
    if disc.n_delay == 0 or state.v_hist is None:
        return np.zeros(state.u.shape[:-1])
    offsets, w, decay = _delay_weights(disc)
    norms = disc.dx * state.v_hist.slot_norms(offsets)
    return np.vecdot(decay * norms, w)


def sample_state(state: SimState, params: ModelParams, disc: Discretization,
                 eta: np.ndarray | None = None) -> SampleRow:
    """One energy row; ``eta`` is ``eta_field(state, ...)`` when the caller has it.

    A solo state is sampled as a batch of one, and its terms are returned
    as floats; a batched state gets arrays over the batch axis, every
    row's terms formed in one pass.
    """
    # near-blow-up states report inf/nan energy instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _sample_terms(state, params, disc, eta)
    if state.ks is None:
        terms = [float(term) for term in terms]
    return SampleRow(*terms)


def _sample_terms(state: SimState, params: ModelParams, disc: Discretization,
                  eta: np.ndarray | None) -> list[np.ndarray]:
    # np.vecdot reduces each row by the one BLAS dot a 1-D ``a @ b`` makes,
    # so a batch row's terms have the bits of its solo run's
    dx = disc.dx
    ut_sq = dx * np.vecdot(state.v, state.v)
    mu_tilde = params.kernel.mu_tilde
    gu = grad_full(state.u, dx)
    elastic = 0.5 * (1.0 - mu_tilde) * integral_x(gu * gu, dx)

    if params.kernel.is_empty:
        memory = mu_prime_eta = np.zeros(state.u.shape[:-1])
    else:
        m = disc.ns - 1
        # only the leading rows of eta that differ are formed, and the last
        # one's grad_sq stands for the rest
        n = m if eta is not None else solver_mod._distinct_eta_rows(state, params, disc)
        # eta and its gradient in scratch memory; the gradient takes the
        # memory eta_field gathered into, which it no longer reads
        shape = (n,) + state.u.shape
        if eta is None:
            eta = solver_mod.eta_field(state, params, disc, state.scratch(shape, "eta"), n)
        ge = _grad_into(eta, state.scratch(shape[:-1] + (disc.nx + 2,), "work"), dx)
        formed = integral_x(np.multiply(ge, ge, out=ge), dx)
        # per s-node, batch axes first, so each row's s-sum is over contiguous values
        grad_sq = np.empty(state.u.shape[:-1] + (m,))
        grad_sq[..., :n] = formed.T
        grad_sq[..., n:] = formed[-1, ..., None]
        # w @ (mu * grad_sq), not (w * mu) @ grad_sq: keeps the reported bits
        on_grid = solver_mod._kernel_on_grid(params.kernel, disc)
        w_inner = disc.s_weights[1:]
        memory = 0.5 * np.vecdot(on_grid.mu * grad_sq, w_inner)
        mu_prime_eta = 0.5 * np.vecdot(on_grid.mu_prime * grad_sq, w_inner)

    delay_raw = _delay_integral(state, disc)
    half, live = _delay_coefficient(params.theta, disc.tau,
                                    params.k if state.ks is None else state.ks)
    # a row without a delay term reads 0 even where its integral is not finite
    delay = half * delay_raw if live is None else np.where(live, half * delay_raw, 0.0)

    v_tau = solver_mod.delayed_velocity(state, params, disc)
    ut_tau_sq = dx * np.vecdot(v_tau, v_tau)
    return [0.5 * ut_sq, elastic, memory, delay, ut_sq, ut_tau_sq, delay_raw, mu_prime_eta]


@dataclass(frozen=True)
class DissipationReport:
    """Discrete check of the auxiliary problem's energy decrease."""

    max_increment: float          # largest F(t_{i+1}) - F(t_i)
    max_violation: float          # largest dF/dt - RHS(left sample), clipped at 0
    increment_tol: float          # allowed increment, absolute (scaled by F(0))
    violation_tol: float          # allowed slope violation, absolute
    passed: bool
    n_pairs: int


def check_dissipation(trace: Trace, params: ModelParams) -> DissipationReport:
    """Verify F is non-increasing and satisfies the derivative estimate.

    Both tolerances are relative to F(0): ``INCREMENT_TOL`` bounds any
    positive per-sample increment, ``VIOLATION_TOL`` bounds the difference
    quotient's excess over the estimate's right-hand side (evaluated at the
    left sample; the excess is first order in the sampling interval and
    must shrink under refinement).
    """
    if trace.mode != "auxiliary":
        raise WrongMode(
            "dissipation estimate requires an auxiliary-mode trace; the original "
            "problem's energy is not monotone in general"
        )
    t = trace.times
    f = trace.total
    scale = f[0] if t.size and f[0] > 0.0 else 1.0
    inc_tol_abs = float(INCREMENT_TOL * scale)
    vio_tol_abs = float(VIOLATION_TOL * scale)
    if t.size < 2:
        return DissipationReport(0.0, 0.0, inc_tol_abs, vio_tol_abs, True, 0)
    increments = np.diff(f)
    max_increment = float(increments.max())
    k_abs = abs(params.k)
    theta = params.theta
    exp_tau = math.exp(trace.disc.tau)
    # the estimate's right-hand side at each pair's left sample
    rhs = (
        trace.mu_prime_eta
        - 0.5 * k_abs * (theta * exp_tau - 1.0) * trace.ut_sq
        - 0.5 * k_abs * (theta - 1.0) * trace.ut_tau_sq
        - 0.5 * theta * k_abs * exp_tau * trace.delay_raw
    )[:-1]
    dt_pair = np.diff(t)
    ok = dt_pair > 0.0
    # fmax drops NaN excesses; the floor 0 also covers "no pair with dt > 0"
    worst = float(np.fmax.reduce(increments[ok] / dt_pair[ok] - rhs[ok], initial=0.0))
    passed = max_increment <= inc_tol_abs and worst <= vio_tol_abs
    return DissipationReport(
        max_increment=float(max_increment),
        max_violation=float(worst),
        increment_tol=inc_tol_abs,
        violation_tol=vio_tol_abs,
        passed=bool(passed),
        n_pairs=int(t.size - 1),
    )
