"""Independent oracles and reference implementations used by the test suite.

Each oracle deliberately avoids the implementation path it checks: the
modal oracle integrates the scalar history equation with a direct
trapezoid convolution over the stored past (no exponential auxiliary
variables), and the Poincare oracle diagonalizes the finite-difference
Laplacian.  The ``*_rows`` references evaluate an energy sample row by
row, reducing every stored field again on each call; the vectorized
sampling must reproduce them bit for bit.  ``materialized_history`` stores
the whole prescribed past in the displacement ring buffer, as ``build``
did before the past was evaluated on demand.
"""

from __future__ import annotations

import math

import numpy as np

from viscodelay.energy import SampleRow, grad_full, integral_x
from viscodelay.kernel import MemoryKernel
from viscodelay.solver import RingBuffer, delayed_velocity


def modal_oracle(lam: float, kernel: MemoryKernel, horizon: float,
                 dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrate y'' = -lam (y - int mu(s) y(t-s) ds) with frozen history y = 1.

    Stormer-Verlet in time; the convolution is a direct trapezoid sum over
    the full stored trajectory plus the closed-form frozen-history tail.
    Returns (times, y).
    """
    n = int(round(horizon / dt))
    svals = np.arange(n + 1) * dt
    mus = kernel.value(svals)
    tails = np.array([kernel.tail_mass(s) for s in svals])
    wmus = dt * mus
    mu_at_0 = float(mus[0])
    mu_tilde = kernel.mu_tilde
    # ypad[n - i] holds y_i, so ypad[n-i:] is y_i, ..., y_0 contiguously
    ypad = np.zeros(n + 1)
    y = np.zeros(n + 1)
    y[0] = 1.0
    ypad[n] = 1.0

    def acc(i: int) -> float:
        if i == 0:
            conv = mu_tilde
        else:
            conv = (
                float(wmus[: i + 1] @ ypad[n - i:])
                - 0.5 * dt * (mu_at_0 * y[i] + mus[i] * y[0])
                + tails[i]
            )
        return -lam * (y[i] - conv)

    y[1] = y[0] + 0.5 * dt * dt * acc(0)
    ypad[n - 1] = y[1]
    for i in range(1, n):
        y[i + 1] = 2.0 * y[i] - y[i - 1] + dt * dt * acc(i)
        ypad[n - i - 1] = y[i + 1]
    return svals, y


def poincare_fd_oracle(length: float, n: int = 500) -> float:
    """1 / lambda_1 of the N-point Dirichlet FD Laplacian, Richardson-extrapolated."""
    from scipy.linalg import eigvalsh_tridiagonal

    def lambda1(npts: int) -> float:
        dx = length / (npts + 1)
        diag = np.full(npts, 2.0 / dx ** 2)
        off = np.full(npts - 1, -1.0 / dx ** 2)
        return float(eigvalsh_tridiagonal(diag, off, select="i",
                                          select_range=(0, 0))[0])

    lam_n = lambda1(n)
    lam_2n = lambda1(2 * n)
    lam = (4.0 * lam_2n - lam_n) / 3.0  # kills the O(dx^2) term
    return 1.0 / lam


def characteristic_energy_rate(k: float, lam: float) -> float:
    """Energy growth/decay rate of y'' + k y' + lam y = 0 (twice the root's Re)."""
    disc = k * k - 4.0 * lam
    if disc < 0.0:
        return -k  # complex pair, Re = -k/2, energy rate doubles it
    r1 = (-k + math.sqrt(disc)) / 2.0
    r2 = (-k - math.sqrt(disc)) / 2.0
    return 2.0 * max(r1, r2)


def dense_scan_khat(inputs, step: float = 1e-8) -> float:
    """Brute-force fixed point of g: argmin |g(k) - k| over a dense k-grid."""
    from viscodelay.certificate import amplitude_budget

    hi = amplitude_budget(inputs, 0.0)
    ks = np.arange(0.0, hi + step, step)
    gs = np.array([amplitude_budget(inputs, float(k)) for k in ks])
    return float(ks[np.argmin(np.abs(gs - ks))])


def eta_field_rows(state, params, disc) -> np.ndarray:
    """eta on the interior s-nodes, one ``back_interp`` per node."""
    if params.kernel.is_empty:
        return np.zeros((0, disc.nx))
    if state.eta is not None:
        return state.eta
    steps = disc.s_nodes[1:] / disc.dt
    out = np.empty((steps.size, disc.nx))
    for row, sb in enumerate(steps):
        out[row] = state.u - state.u_hist.back_interp(float(sb))
    return out


def delay_integral_rows(state, disc) -> float:
    """The delay integral, reducing every row of the delay line again."""
    if disc.n_delay == 0 or state.v_hist is None:
        return 0.0
    nd = disc.n_delay
    dt = disc.dt
    buf = state.v_hist
    idx = (buf.head + np.arange(nd + 1)) % buf.capacity
    rows = buf.data[idx]
    norms = disc.dx * np.einsum("ij,ij->i", rows, rows)
    w = np.full(nd + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return float(w @ (np.exp(-dt * np.arange(nd + 1)) * norms))


def sample_state_rows(state, params, disc) -> SampleRow:
    """An energy sample from the two references above, with the kernel
    evaluated on the s-grid afresh."""
    dx = disc.dx
    ut_sq = dx * float(state.v @ state.v)
    gu = grad_full(state.u, dx)
    elastic = 0.5 * (1.0 - params.kernel.mu_tilde) * float(integral_x(gu * gu, dx))
    if params.kernel.is_empty:
        memory = mu_prime_eta = 0.0
    else:
        ge = grad_full(eta_field_rows(state, params, disc), dx)
        grad_sq = integral_x(ge * ge, dx)
        s_inner = disc.s_nodes[1:]
        w_inner = disc.s_weights[1:]
        memory = 0.5 * float(w_inner @ (params.kernel.value(s_inner) * grad_sq))
        mu_prime_eta = 0.5 * float(w_inner @ (params.kernel.derivative(s_inner) * grad_sq))
    delay_raw = delay_integral_rows(state, disc)
    coeff = params.theta * abs(params.k) * math.exp(disc.tau)
    delay = 0.5 * coeff * delay_raw if params.k != 0.0 and disc.tau > 0.0 else 0.0
    v_tau = delayed_velocity(state, params, disc)
    return SampleRow(
        kinetic=0.5 * ut_sq, elastic=elastic, memory=memory, delay=delay,
        ut_sq=ut_sq, ut_tau_sq=dx * float(v_tau @ v_tau),
        delay_raw=delay_raw, mu_prime_eta=mu_prime_eta,
    )


def materialized_history(params, init, disc) -> RingBuffer:
    """A displacement ring buffer at t = 0 with every slot of the past stored."""
    phi = init.profile(disc.x_interior(), params.length)
    hist = RingBuffer(disc.n_hist, disc.nx)
    factors = np.fromiter((init.history_factor(-j * disc.dt)
                           for j in range(hist.capacity)), float, hist.capacity)
    np.multiply.outer(factors, phi, out=hist.data)
    return hist
