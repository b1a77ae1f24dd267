"""Independent oracles and reference implementations used by the test suite.

Each oracle deliberately avoids the implementation path it checks: the
modal oracle integrates the scalar history equation with a direct
trapezoid convolution over the stored past (no exponential auxiliary
variables), and the Poincare oracle diagonalizes the finite-difference
Laplacian.  The ``*_rows`` references evaluate an energy sample row by
row, reducing every stored field again on each call; the vectorized
sampling must reproduce them bit for bit, except the delay integral, which
the run carries by its one-step recursion and ``delay_integral_rows`` forms
by the trapezoid over the delay line (``assert_sample_matches``).
``materialized_history`` stores the whole prescribed past in the
displacement ring buffer, as ``build`` did before the past was evaluated on
demand.  ``eager_map_step`` is the map step that formed its step buffers
afresh at every step, normed each delay-line slot as it was pushed and
advanced the delay integral one step per push in plain floats
(``eager_push``); ``solver.step`` must keep its bits.
"""

from __future__ import annotations

import math

import numpy as np

from viscodelay.energy import SampleRow, grad_full, integral_x
from viscodelay.kernel import MemoryKernel
from viscodelay import solver
from viscodelay.solver import NonFinite, RingBuffer, delayed_velocity


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


# how far a run's delay integral, carried by its recursion, may stray from the
# trapezoid over the delay line, relative
DELAY_RTOL = 1e-13


def assert_sample_matches(row, expected, rtol: float = DELAY_RTOL) -> None:
    """``row`` has the bits of ``expected`` (``sample_state_rows``) in every
    field but ``delay_raw``, ``delay`` and ``total``, and those agree within
    ``rtol`` relative; scalars or arrays over a batch alike."""
    loose = ("delay_raw", "delay")
    for name in SampleRow.__dataclass_fields__:
        if name not in loose:
            assert np.array_equal(getattr(row, name), getattr(expected, name)), name
    for name in (*loose, "total"):
        np.testing.assert_allclose(getattr(row, name), getattr(expected, name),
                                   rtol=rtol, atol=0.0, err_msg=name)


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


def eager_push(buf: RingBuffer, row: np.ndarray, disc) -> None:
    """Push ``row``; on the delay line, norm its slot at once and advance the
    delay integral R one step, per batch row in plain floats:

        R <- e^{-dt} R + (dt dx / 2) (y + e^{-dt} y_0 - e^{-N dt} y_{N-1}
             - e^{-(N+1) dt} y_N),

    y the new slot's norm and y_p the norm p slots back before the push."""
    norms = getattr(buf, "norms", None)
    if norms is not None:
        n, dt = disc.n_delay, disc.dt
        y_0, y_hi, y_lo = (np.atleast_1d(norms[(buf.head + p) % buf.capacity]).tolist()
                           for p in (0, n - 1, n))
    buf.head = (buf.head - 1) % buf.capacity
    buf.pushed += 1
    buf.data[buf.head] = row
    if norms is not None:
        slot = buf.data[buf.head]
        norms[buf.head] = np.einsum("...i,...i->...", slot, slot)
        y = np.atleast_1d(norms[buf.head]).tolist()
        c, e = 0.5 * dt * disc.dx, math.exp(-dt)
        e_n, e_n1 = math.exp(-n * dt), math.exp(-(n + 1) * dt)
        buf.integral = np.array([e * r + c * (((a + e * b) - e_n * hi) - e_n1 * lo)
                                 for r, a, b, hi, lo in zip(buf.integral.tolist(), y, y_0,
                                                            y_hi, y_lo)])


def eager_map_step(state, params, disc) -> None:
    """One map step with every step buffer formed afresh, the delay inputs
    read through ``back`` and both fields checked for finiteness on their
    own.  The map is kept in ``state.work`` and formed again when ``params``,
    ``disc`` or the state's ``ks`` is another object."""
    with np.errstate(over="ignore", invalid="ignore"):
        kept = state.work.get("eager_map")
        if kept is None or any(a is not b for a, b in zip(kept, (params, disc, state.ks))):
            coeffs = (solver._step_map(params, disc) if state.ks is None
                      else solver._stacked_maps(params, disc, state.ks))
            kept = state.work["eager_map"] = (params, disc, state.ks, coeffs)
        coeffs = kept[3]
        n_out, n_in = coeffs.shape[-2:]
        nw = n_out // 3
        x = state.work.get("map_rows")
        if x is None or x.shape[0] != n_in:
            x = state.work["map_rows"] = np.empty((n_in,) + state.u.shape)
            state.work["map_in"] = x.reshape(n_in, -1, disc.nx).swapaxes(0, 1)
        x[0] = state.u
        x[1] = state.v
        if state.q is not None:
            x[2:nw] = state.q
        if n_in > nw:
            x[nw] = state.v_hist.back(disc.n_delay)
            x[nw + 1] = state.v_hist.back(disc.n_delay - 1)
        y = np.empty((3, nw) + state.u.shape)
        np.matmul(coeffs, state.work["map_in"],
                  out=y.reshape(n_out, -1, disc.nx).swapaxes(0, 1))
        solver._add_second_difference(y[1], y[2])
        solver._add_second_difference(y[0], y[1])
        state.u = y[0, 0]
        state.v = y[0, 1]
        if state.q is not None:
            state.q = y[0, 2:]
    state.t += disc.dt
    state.step_index += 1
    if state.u_hist is not None:
        eager_push(state.u_hist, state.u, disc)
    if state.v_hist is not None:
        eager_push(state.v_hist, state.v, disc)
    if not (np.isfinite(state.u).all() and np.isfinite(state.v).all()):
        finite = np.isfinite(state.u).all(axis=-1) & np.isfinite(state.v).all(axis=-1)
        rows = np.flatnonzero(~finite).tolist()
        raise NonFinite(state.step_index, None if state.ks is None else rows)
