"""The energy functional and its dissipation check for the auxiliary problem.

The energy of a state is

    F(t) = 1/2 int u_t^2 + (1 - mu_tilde)/2 int |grad u|^2
         + 1/2 int_0^inf mu(s) int |grad eta(s)|^2 dx ds
         + (theta |k| e^tau / 2) int_{t-tau}^t e^{-(t-s)} int u_t(s)^2 dx ds.

Spatial integrals use the trapezoid rule on the x-grid with gradients by
centered differences (one-sided at the boundary); the s-integral uses the
discretization's own quadrature weights, with the kernel values on the
s-grid the grid keeps (``Discretization.kernel_on_grid``).

``sample_state`` forms the samples of a ``solver.Span``, the states a run
kept over up to S sample intervals: eta and its gradient a tile of up to T
states at a time (``Span.tiles``), so their passes stay within
``solver.SPAN_BYTES`` however deep the span is, and every other term in one
stacked pass over all S states; a call without one samples the state itself
as a span of one at lag 0.  Every term is a per-row reduction over the
stacked rows, each the pairwise sum or BLAS dot a single sample makes, so
each state's terms have the bits of sampling it when it was reached.  A
tile forms only the eta rows that ``solver._distinct_eta_rows`` says can
differ at the current state (with a frozen past, every row from the first
whose s-node reaches back past t = 0 is u - phi; a state kept earlier has
no more) and copies the last one's int |grad eta|^2 to the rest; with
snapshot moments asked for, it forms every row.  How eta's rows are laid
out in the displacement history is the solver's alone.  The delay
integral and the delayed velocity are read from the span, which kept each
state's as the step passed it: the delay line carries the integral by its
one-step recursion (``solver.DelayLine``), so a sample reduces nothing of
the delay line.  The gradients of u and eta are formed in scratch memory the span
and its tiles reuse (``Span.scratch``), from rows nx + 2 wide whose end
columns are the Dirichlet +0.0, each by one flat subtract and one flat
divide over the whole buffer (``_grad_into``).
"""

from __future__ import annotations

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
    padded = np.zeros(interior.shape[:-1] + (interior.shape[-1] + 2,))
    padded[..., 1:-1] = interior
    return _grad_into(padded, np.empty(padded.shape), dx)


def _grad_into(f: np.ndarray, g: np.ndarray, dx: float) -> np.ndarray:
    """``grad_full`` of padded rows ``f``, whose end columns are +0.0, written
    into ``g``; both contiguous.

    One flat subtract and one flat divide over the whole buffer give every
    interior column its centered quotient: w - (+0.0) is w, so column 1 is
    the padded formula's own.  At column -2, 0 - w would turn a -0.0 quotient
    into +0.0, so that column is formed again as w / (-h); the flat pass runs
    across the rows' ends, whose columns are the one-sided quotients.
    """
    h = 2.0 * dx
    flat, out = f.reshape(-1), g.reshape(-1)
    inner = out[1:-1]
    np.subtract(flat[2:], flat[:-2], out=inner)
    np.divide(inner, h, out=inner)
    np.divide(f[..., -3], -h, out=g[..., -2])
    np.divide(f[..., 1], dx, out=g[..., 0])
    np.divide(f[..., -2], -dx, out=g[..., -1])
    return g


def integral_x(values_full: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid over the padded x-grid (last axis)."""
    return dx * (
        values_full.sum(axis=-1) - 0.5 * (values_full[..., 0] + values_full[..., -1])
    )


def sample_state(state: SimState, params: ModelParams, disc: Discretization,
                 moments: list | None = None,
                 span: solver_mod.Span | None = None) -> SampleRow:
    """One energy row.

    A solo state is sampled as a batch of one, and its terms are returned
    as floats; a batched state gets arrays over the batch axis, every
    row's terms formed in one pass.  Given ``span``, every term is an
    array (S,) + batch over the span's states: eta is formed a tile of
    states at a time (``Span.tiles``), every other term in one stacked
    pass; a call without one samples the state as a span of one at lag 0.
    Given ``moments``, a list, every row of eta is formed and each state's
    two s-quadrature moments ``w_mu @ eta`` and ``(w mu') @ eta`` are
    appended to it as a pair, oldest state first.
    """
    one = span is None
    if one:
        span = solver_mod.Span.of(state)
    # near-blow-up states report inf/nan energy instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _sample_terms(state, params, disc, span, moments)
    if one:
        terms = [term[0] if state.ks is not None else float(term[0]) for term in terms]
    return SampleRow(*terms)


def _sample_terms(state: SimState, params: ModelParams, disc: Discretization,
                  span: solver_mod.Span, moments: list | None) -> list[np.ndarray]:
    # np.vecdot reduces each row by the one BLAS dot a 1-D ``a @ b`` makes,
    # and each sum is one row's pairwise sum, so a state of a span and a
    # batch row have the bits of a solo state sampled alone
    dx = disc.dx
    u, v = span.u, span.v
    stack = u.shape[:-1]
    ut_sq = dx * np.vecdot(v, v)
    mu_tilde = params.kernel.mu_tilde
    # the gradient of u's padded rows, squared in place, in memory the span reuses
    gu = _grad_into(span.u_padded, span.scratch(stack + (disc.nx + 2,), "grad_u"), dx)
    elastic = 0.5 * (1.0 - mu_tilde) * integral_x(np.multiply(gu, gu, out=gu), dx)

    if params.kernel.is_empty:
        memory = mu_prime_eta = np.zeros(stack)
        if moments is not None:
            moments.extend((np.zeros(u.shape[1:]), np.zeros(u.shape[1:])) for _ in u)
    else:
        m = disc.ns - 1
        on_grid = disc.kernel_on_grid
        # only the leading rows of eta that differ are formed, and the last
        # one's grad_sq stands for the rest; a state kept earlier has no more
        # distinct rows than the current one, and its rows past its own count
        # are bitwise its last distinct one.  A snapshot's moments read them all
        n = m if moments is not None else solver_mod._distinct_eta_rows(state, params, disc)
        # per s-node, batch axes first, so each row's s-sum is over contiguous values
        grad_sq = np.empty(stack + (m,))
        for start, tile in span.tiles():
            # eta and its gradient on padded rows in scratch memory sized for a
            # tile; the gradient takes the memory eta_field gathered into,
            # which it no longer reads
            shape = (len(tile.steps), n) + state.u.shape[:-1] + (disc.nx + 2,)
            eta = tile.scratch(shape, "eta")
            inner = solver_mod.eta_field(state, params, disc, eta, n, tile)
            ge = _grad_into(eta, tile.scratch(shape, "work"), dx)
            formed = integral_x(np.multiply(ge, ge, out=ge), dx)
            rows = grad_sq[start:start + len(tile.steps)]
            rows[..., :n] = formed.swapaxes(1, -1)
            rows[..., n:] = formed[:, -1, ..., None]
            if moments is not None:
                moments.extend((on_grid.w_mu @ e, on_grid.w_mu_prime @ e) for e in inner)
        # w @ (mu * grad_sq), not (w * mu) @ grad_sq: keeps the reported bits
        w_inner = disc.s_weights[1:]
        memory = 0.5 * np.vecdot(on_grid.mu * grad_sq, w_inner)
        mu_prime_eta = 0.5 * np.vecdot(on_grid.mu_prime * grad_sq, w_inner)

    # each state's delay integral, as its span kept it from the delay line
    delay_raw = span.integral[:len(u)].reshape(stack).copy()
    # per batch row, the delay term's factor, as ``solver.build`` formed it; a
    # row without a delay term reads 0 even where its integral is not finite
    delay = state.delay_factor * delay_raw
    if state.delay_live is not None:
        delay = np.where(state.delay_live, delay, 0.0)

    ut_tau_sq = dx * np.vecdot(span.delayed, span.delayed)
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
