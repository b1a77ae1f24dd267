"""Method-of-lines integrator for the 1-D viscoelastic wave equation with
delayed velocity feedback.

The evolved system is the history-variable reformulation

    u_tt  = (1 - mu_tilde) u_xx + int mu(s) eta_xx(s) ds - k z(., 1, t)
    eta_t = -eta_s + u_t                (memory coordinate s > 0)
    tau z_t + z_rho = 0, z(., 0) = u_t  (delay coordinate rho in (0, 1))

on (0, L) with homogeneous Dirichlet ends, plus an extra damping term
-theta |k| e^tau u_t in the "auxiliary" mode.

Two realizations of the memory term are provided:

* ``prony_modes`` (default): the convolution against a Prony kernel is
  carried by auxiliary fields q_i = int_0^inf exp(-b_i s) u(t - s) ds
  with q_i' = u - b_i q_i, which integrates the s-direction exactly.
  The history field eta is reconstructed on the geometric s-grid from a
  ring buffer of past u fields (the transport equation is solved exactly
  along characteristics, eta(s) = u(t) - u(t - s)) at every sample.
  The buffer holds only the fields pushed since t = 0, so a run of
  ``steps`` steps gets min(steps, n_hist) slots: a read from before t = 0
  evaluates the prescribed past u0 = phi * factor(t) on demand.  One
  gather per neighbour, at offsets ``_node_steps`` fixes once per grid,
  reads either kind of row; this module alone knows which eta row reads
  which, and ``_distinct_eta_rows`` tells the energy how many leading rows
  a frozen past leaves distinct.
* ``eta_grid``: eta is evolved directly on the s-grid with first-order
  upwinding and the memory force is the trapezoid s-quadrature.  Kept as
  a cross-validation mode; its first-order transport error is far too
  large for quantitative use at desk resolutions.

The delay likewise has an exact ring-buffer realization (default) and a
first-order upwind rho-grid realization for cross-checks.

A state built with ``ks`` carries R rows on a batch axis: one grid and
one initial datum, one delay amplitude k per row.  u and v are (R, nx), q
is (m, R, nx), each ring-buffer slot holds an (R, nx) block, and one
``step`` advances every row by its own map.  No operation reduces
across the batch axis, and every per-row reduction is the one a single
row makes, so a row of a batch has the bits of its solo run.  A solo
state keeps (nx,) fields but steps and samples as a batch of one, on the
same code.  Only the map path is batched; the grid realizations step one
row at a time.

Time stepping is the classical 4-stage explicit scheme applied to the one
generator ``_rhs``, the only place the system is written down.  The system
is linear and its only spatial operator is the Dirichlet Laplacian L, so
with ``prony_modes`` memory and the ring-buffer delay (or none) one step is
a fixed map C0 + C1 L + C2 L^2 acting on [u; v; q; two delay-line rows].
``_step_map`` obtains its small scalar coefficient matrices once per
(params, grid) by running the stage loop ``_step_by_stages`` on fields that
are polynomials in L, and ``step`` applies the map with one matmul and two
in-place second differences.  The ``eta_grid`` and ``rho_grid``
realizations carry (ns - 1) or n_delay extra field rows and run the stage
loop on the fields themselves, which is also the reference the map is
tested against.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import TypeVar

import numpy as np

from .certificate import TAU_MAX
from .kernel import MemoryKernel, validate_kernel, quadrature_weights

__all__ = [
    "SolverError",
    "CflViolation",
    "DelayUnresolvable",
    "NonFinite",
    "HistoryTooLarge",
    "ModelParams",
    "Discretization",
    "InitialData",
    "SimState",
    "Snapshot",
    "Trace",
    "discretize",
    "geometric_s_grid",
    "build",
    "step",
    "run",
    "delayed_velocity",
    "eta_field",
    "extra_damping",
    "dissipativity_spot_check",
    "SpotCheckReport",
]

MODES = ("original", "auxiliary")
DELAY_REALIZATIONS = ("ring_buffer", "rho_grid")
MEMORY_REALIZATIONS = ("prony_modes", "eta_grid")

# RK4's stability interval on the negative real axis is about [-2.785, 0]
RK4_REAL_AXIS_LIMIT = 2.785
# largest dt / min(s-gap) accepted for the eta_grid transport: its upwind
# bidiagonal form is non-normal and already grew 1e8-fold at 1.69
ETA_GRID_COURANT_LIMIT = 1.5
# the largest history frequency whose square (in the memory weights) is finite
OMEGA_MAX = math.sqrt(sys.float_info.max)

T = TypeVar("T")


class SolverError(RuntimeError):
    pass


class CflViolation(SolverError):
    pass


class DelayUnresolvable(SolverError):
    pass


class HistoryTooLarge(SolverError):
    """A history ring buffer of rows x nx (x batch rows) doubles cannot be allocated."""


class NonFinite(SolverError):
    """A field left the finite range; carries the offending step index and,
    for a batched state, the indices of the rows that did (``rows``)."""

    def __init__(self, step_index: int, rows: list[int] | None = None):
        where = "" if rows is None else f" in batch rows {rows}"
        super().__init__(f"state became non-finite at step {step_index}{where}")
        self.step_index = step_index
        self.rows = rows


@dataclass(frozen=True)
class ModelParams:
    """Which problem variant runs, and with what coefficients."""

    length: float = 1.0
    tau: float = 0.0
    k: float = 0.0
    theta: float = 2.0
    kernel: MemoryKernel = MemoryKernel()
    mode: str = "original"
    delay_realization: str = "ring_buffer"
    memory_realization: str = "prony_modes"

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ValueError(f"length must be positive, got {self.length!r}")
        if not (math.isfinite(self.tau) and self.tau >= 0.0):
            raise ValueError(f"tau must be >= 0, got {self.tau!r}")
        if not math.isfinite(self.k):
            raise ValueError(f"k must be finite, got {self.k!r}")
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError(f"theta must be positive, got {self.theta!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.delay_realization not in DELAY_REALIZATIONS:
            raise ValueError(
                f"delay_realization must be one of {DELAY_REALIZATIONS}, "
                f"got {self.delay_realization!r}"
            )
        if self.memory_realization not in MEMORY_REALIZATIONS:
            raise ValueError(
                f"memory_realization must be one of {MEMORY_REALIZATIONS}, "
                f"got {self.memory_realization!r}"
            )


def extra_damping(params: ModelParams, disc: "Discretization") -> float:
    """Coefficient of the added damping term: theta |k| e^tau in auxiliary mode."""
    if params.mode != "auxiliary":
        return 0.0
    return params.theta * abs(params.k) * math.exp(disc.tau)


def geometric_s_grid(s_max: float, ns: int, first_interval: float,
                     max_ratio: float = 1.15) -> np.ndarray:
    """Nodes 0 = s_0 < ... < s_{ns-1} = s_max with geometrically growing gaps.

    The growth ratio is solved so that ns nodes starting from the requested
    first interval land exactly on s_max; it is capped at ``max_ratio`` (the
    first interval then widens), and the grid degrades to uniform when even
    constant spacing overshoots.
    """
    if ns < 2:
        raise ValueError(f"ns must be at least 2, got {ns}")
    if not s_max > 0.0:
        raise ValueError(f"s_max must be positive, got {s_max!r}")
    m = ns - 1
    if first_interval * m >= s_max:
        return np.linspace(0.0, s_max, ns)

    def span(ratio: float) -> float:
        return first_interval * (ratio ** m - 1.0) / (ratio - 1.0)

    if span(max_ratio) < s_max:
        ratio = max_ratio
        h0 = s_max * (ratio - 1.0) / (ratio ** m - 1.0)
    else:
        lo, hi = 1.0 + 1e-12, max_ratio
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if span(mid) < s_max:
                lo = mid
            else:
                hi = mid
        ratio = 0.5 * (lo + hi)
        h0 = first_interval
    gaps = h0 * ratio ** np.arange(m)
    nodes = np.concatenate(([0.0], np.cumsum(gaps)))
    nodes[-1] = s_max  # absorb the bisection residue
    return nodes


@dataclass(frozen=True, eq=False)
class Discretization:
    """Grid parameters; ``tau`` is the delay snapped to the step grid."""

    nx: int
    dx: float
    dt: float
    cfl: float
    tau: float
    n_delay: int
    s_nodes: np.ndarray
    s_weights: np.ndarray
    s_max: float
    n_hist: int

    @property
    def ns(self) -> int:
        return int(self.s_nodes.size)

    def x_interior(self) -> np.ndarray:
        return self.dx * np.arange(1, self.nx + 1)


def _steps_in(span: float, dt: float, name: str, remedy: str) -> float:
    """span / dt, refused when it overflows a double: no step count is that large."""
    ratio = span / dt
    if not math.isfinite(ratio):
        raise SolverError(f"{name}/dt = {span!r}/{dt!r} overflows a double, too many "
                          f"steps to count; {remedy}")
    return ratio


def discretize(params: ModelParams, nx: int = 200, cfl: float = 0.25,
               ns: int = 64, tail_tol: float = 1e-8) -> Discretization:
    """Build the grids for ``params``; snaps tau to a whole number of steps."""
    if nx < 3:
        raise ValueError(f"nx must be at least 3, got {nx}")
    if not (0.0 < cfl <= 0.5):
        raise CflViolation(f"cfl must lie in (0, 0.5], got {cfl!r}")
    dx = params.length / (nx + 1)
    dt = cfl * dx
    if params.tau > 0.0:
        n_delay = int(round(_steps_in(params.tau, dt, "tau", "raise cfl or shorten the delay")))
        if n_delay == 0:
            raise DelayUnresolvable(
                f"tau={params.tau} is below the step size dt={dt}; "
                "refine the grid or drop the delay"
            )
        tau_snapped = n_delay * dt
        if tau_snapped > TAU_MAX:
            raise DelayUnresolvable(f"tau={tau_snapped} (snapped to the step grid) "
                                    f"exceeds {TAU_MAX:.6g}, where e^tau overflows")
    else:
        n_delay = 0
        tau_snapped = 0.0
    if params.kernel.is_empty:
        s_nodes = np.zeros(0)
        s_weights = np.zeros(0)
        s_max = 0.0
        n_hist = 0
    else:
        report = validate_kernel(params.kernel, tail_tol)
        if params.memory_realization == "prony_modes":
            # q_i' = u - b_i q_i is explicit in q_i: a mode faster than RK4's
            # real-axis limit blows up and would read as physical growth
            stiffness = dt * float(params.kernel.rates.max())
            if stiffness > RK4_REAL_AXIS_LIMIT:
                raise CflViolation(
                    f"dt*max(b_i) = {stiffness:.4g} exceeds the RK4 stability limit "
                    f"{RK4_REAL_AXIS_LIMIT} on the real axis (dt={dt:.4g}); "
                    "refine the grid or lower the kernel rates"
                )
        s_nodes = geometric_s_grid(report.s_max, ns, dx)
        if params.memory_realization == "eta_grid":
            # the upwind eta transport has rates 1/gap_j, as explicit as q_i
            courant = dt / float(np.diff(s_nodes).min())
            if courant > ETA_GRID_COURANT_LIMIT:
                raise CflViolation(
                    f"dt/min(s gap) = {courant:.4g} exceeds the eta_grid transport "
                    f"limit {ETA_GRID_COURANT_LIMIT} (dt={dt:.4g}); refine the grid, "
                    "lower the kernel rates or use prony_modes"
                )
        s_weights = quadrature_weights(s_nodes)
        s_max = report.s_max
        reach = _steps_in(s_max, dt, "s_max", "raise cfl or the kernel rates")
        if params.memory_realization == "prony_modes" and reach > np.iinfo(np.intp).max:
            raise SolverError(f"s_max/dt = {reach:.6g} exceeds {np.iinfo(np.intp).max}, the "
                              "largest history offset; raise cfl or the kernel rates")
        n_hist = int(math.ceil(reach)) + 2
    return Discretization(
        nx=nx, dx=dx, dt=dt, cfl=cfl,
        tau=tau_snapped, n_delay=n_delay,
        s_nodes=s_nodes, s_weights=s_weights, s_max=s_max, n_hist=n_hist,
    )


@dataclass(frozen=True)
class InitialData:
    """Initial displacement profile and its prescribed past.

    The past is ``u0(x, t) = profile(x) * factor(t)`` for t <= 0, with
    factor 1 (frozen) or cos(omega t) (modulated).  Both give zero initial
    velocity; frozen history additionally kills all history terms.
    """

    shape: str = "sine"
    mode_index: int = 1
    center: float = 0.5
    width: float = 0.1
    history: str = "frozen"
    omega: float = 1.0

    def __post_init__(self):
        if self.shape not in ("sine", "gaussian", "zero"):
            raise ValueError(
                f"shape must be 'sine', 'gaussian' or 'zero', got {self.shape!r}"
            )
        if self.shape == "sine" and self.mode_index < 1:
            raise ValueError(f"mode_index must be >= 1, got {self.mode_index}")
        if self.shape == "gaussian" and not self.width > 0.0:
            raise ValueError(f"width must be positive, got {self.width!r}")
        if self.history not in ("frozen", "modulated"):
            raise ValueError(
                f"history must be 'frozen' or 'modulated', got {self.history!r}"
            )
        if not abs(self.omega) <= OMEGA_MAX:
            raise ValueError(f"omega must be at most {OMEGA_MAX:.6g} in magnitude, where "
                             f"omega^2 overflows, got {self.omega!r}")

    def profile(self, x: np.ndarray, length: float) -> np.ndarray:
        if self.shape == "sine":
            return np.sin(self.mode_index * np.pi * x / length)
        if self.shape == "gaussian":
            return np.exp(-((x - self.center) ** 2) / (2.0 * self.width ** 2))
        return np.zeros_like(x)

    def history_factor(self, t: float) -> float:
        if self.history == "frozen":
            return 1.0
        return math.cos(self.omega * t)

    def history_factors(self, t: np.ndarray) -> np.ndarray:
        """``history_factor`` at every entry of ``t``, by the same scalar math."""
        if self.history == "frozen":
            return np.ones(t.shape)
        return np.fromiter(map(math.cos, (self.omega * t).tolist()), float, t.size)

    def history_rate(self, t: float) -> float:
        if self.history == "frozen":
            return 0.0
        return -self.omega * math.sin(self.omega * t)

    def memory_weight(self, b: float) -> float:
        """int_0^inf exp(-b s) * factor(-s) ds, in closed form."""
        if self.history == "frozen":
            return 1.0 / b
        return b / (b * b + self.omega ** 2)


def _reserve(make: Callable[[], T], shape: tuple[int, ...], batch: tuple[int, ...],
             what: str, dims: str, remedy: str, error: type[SolverError]) -> T:
    """``make()``, which allocates an array of ``shape`` doubles, or ``error``
    saying that ``what`` needs ``dims`` (and the R > 1 rows of ``batch``) =
    its bytes, which cannot be allocated, and ``remedy``.

    The one place an allocation is refused: numpy raises MemoryError when
    memory cannot hold an array, or ValueError past its index range.
    """
    try:
        return make()
    except (MemoryError, ValueError) as err:
        rows = math.prod(batch)
        per_batch = f" x {rows} batch rows" if rows > 1 else ""
        nbytes = 8 * math.prod(shape)
        raise error(f"{what} needs {dims}{per_batch} = {nbytes} bytes "
                    f"({nbytes / 2**30:.4g} GiB), which cannot be allocated; {remedy}") from err


class RingBuffer:
    """Fixed-capacity ring of past fields; ``back(0)`` is the newest.

    A slot holds one row of shape ``row_shape``: (nx,), or (R, nx) for a
    batched state.  With a prescribed past (``past`` = the profile phi,
    shaped to broadcast against a row; ``factor`` maps the ages of past
    rows to their time factors, None for a frozen past) the buffer stores
    only the rows pushed since t = 0: a read ``p >= pushed`` steps back
    returns ``factor(p - pushed) * phi``, evaluated on demand, so a buffer
    that will see ``steps`` pushes needs no more than ``steps`` slots.
    ``_rows`` is the one gather of such reads, stored slots up to the first
    read past the pushes and the past from there on; ``back_interp_rows``
    interpolates between two, at neighbour offsets its caller fixes.

    After ``keep_norms()`` the buffer also holds each slot's squared norm
    per batch row in ``norms`` (shape (capacity,) + batch, indexed like
    ``data``) and keeps it current on ``push``.
    """

    __slots__ = ("data", "head", "norms", "pushed", "past", "factor")

    def __init__(self, capacity: int, row_shape: int | tuple[int, ...],
                 past: np.ndarray | None = None,
                 factor: Callable[[np.ndarray], np.ndarray] | None = None):
        if isinstance(row_shape, int):
            row_shape = (row_shape,)
        self.data = np.zeros((capacity, *row_shape))
        self.head = 0
        self.norms = None
        self.pushed = 0
        self.past = past
        self.factor = factor

    @property
    def capacity(self) -> int:
        return self.data.shape[0]

    @property
    def nbytes(self) -> int:
        """Allocated bytes: the slots and their norms."""
        return self.data.nbytes + (0 if self.norms is None else self.norms.nbytes)

    def keep_norms(self) -> None:
        # every einsum here reduces a row in the same order, so a slot's norm
        # is the same bits whichever call wrote it, batched or not
        self.norms = np.einsum("i...j,i...j->i...", self.data, self.data)

    def push(self, row: np.ndarray) -> None:
        self.head = (self.head - 1) % self.capacity
        self.pushed += 1
        self.data[self.head] = row
        if self.norms is not None:
            slot = self.data[self.head]
            self.norms[self.head] = np.einsum("...i,...i->...", slot, slot)

    def _past_rows(self, ages: np.ndarray) -> np.ndarray:
        """The past at each of 1-D ``ages``, broadcastable to (ages.size,) + past shape."""
        if self.factor is None:
            # phi at every age: one row, as np.broadcast_to costs microseconds a call
            return self.past[None]
        # one IEEE multiply per entry, as a stored factor * phi row had
        return np.multiply.outer(self.factor(ages), self.past)

    def back(self, steps: int) -> np.ndarray:
        if self.past is not None and steps >= self.pushed:
            row = self._past_rows(np.array([steps - self.pushed]))[0]
            return np.broadcast_to(row, self.data.shape[1:])
        return self.data[(self.head + steps) % self.capacity]

    def back_interp(self, steps: float) -> np.ndarray:
        """Linear interpolation between slots at a fractional offset."""
        j = int(math.floor(steps))
        frac = steps - j
        if frac == 0.0:
            return self.back(j)
        newer = self.back(j)
        # written so equal neighbours interpolate bitwise-exactly
        return newer + frac * (self.back(j + 1) - newer)

    def slot_norms(self, offsets: np.ndarray) -> np.ndarray:
        """The squared norms of ``back(p)`` for p in ``offsets``, batch axes
        first, so each batch row's norms are contiguous (needs ``keep_norms``)."""
        return np.take(self.norms.T, (self.head + offsets) % self.capacity, axis=-1)

    def _rows(self, j: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``back(p)`` for every p in ``j`` (non-decreasing integers), into ``out``:
        the stored slots up to the first p that reaches back past the pushes,
        the past from there on."""
        n = j.size if self.past is None else int(np.searchsorted(j, self.pushed))
        self.data.take((self.head + j[:n]) % self.capacity, axis=0, out=out[:n])
        if n < j.size:
            out[n:] = self._past_rows(j[n:] - self.pushed)
        return out

    def back_interp_rows(self, newer: np.ndarray, older: np.ndarray, frac: np.ndarray,
                         out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """back(newer) + frac * (back(older) - back(newer)) row by row, into
        ``out``; ``work``, shaped like ``out``, takes the gathered newer rows.
        Where ``older`` is ``newer`` (frac 0) the difference is exactly 0."""
        self._rows(newer, work)
        np.subtract(self._rows(older, out), work, out=out)
        np.multiply(frac.reshape(frac.shape + (1,) * (out.ndim - 1)), out, out=out)
        return np.add(work, out, out=out)


@dataclass
class SimState:
    """One snapshot of the discrete system; owned by a single integrator.

    A batched state (``ks`` set) has R = len(ks) rows on the leading axis
    of u, v and every ring-buffer slot, and on the axis after the modes of q.
    """

    t: float
    step_index: int
    u: np.ndarray
    v: np.ndarray
    q: np.ndarray | None = None        # (n_terms, nx) exponential memory modes; (n_terms, R, nx)
    eta: np.ndarray | None = None      # (ns-1, nx) evolved history field
    u_hist: RingBuffer | None = None   # past u fields, for eta reconstruction
    v_hist: RingBuffer | None = None   # past u_t fields, the delay line, with norms
    z_rho: np.ndarray | None = None    # (n_delay, nx) transported delay field
    ks: tuple[float, ...] | None = None  # each batch row's k; None for one row
    work: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    def full_grid(self, values: np.ndarray) -> np.ndarray:
        """Interior values padded with the Dirichlet boundary zeros."""
        out = np.zeros(values.shape[:-1] + (values.shape[-1] + 2,))
        out[..., 1:-1] = values
        return out

    def nbytes(self) -> int:
        """Bytes the state allocated, used to check that disabled terms cost nothing."""
        total = self.u.nbytes + self.v.nbytes
        for arr in (self.q, self.eta, self.z_rho):
            if arr is not None:
                total += arr.nbytes
        for buf in (self.u_hist, self.v_hist):
            if buf is not None:
                total += buf.nbytes
        return total

    def scratch(self, shape: tuple[int, ...], use: str) -> np.ndarray:
        """A float array of ``shape`` on memory this state reuses for ``use``.

        A batch's sampling temporaries exceed malloc's mmap threshold, so
        fresh ones would cost new pages at every sample.  The memory grows
        to the largest shape asked for; what it holds is valid until the
        next call with the same ``use``.
        """
        size = math.prod(shape)
        buf = self.work.get(use)
        if buf is None or buf.size < size:
            buf = self.work[use] = np.empty(size)
        return buf[:size].reshape(shape)

    def retire(self, rows: list[int]) -> None:
        """Zero batch ``rows`` and their delay line: a row that left the finite
        range goes on as the zero solution, which the other rows never read."""
        self.u[rows] = 0.0
        self.v[rows] = 0.0
        if self.q is not None:
            self.q[:, rows] = 0.0
        if self.v_hist is not None:
            self.v_hist.data[:, rows] = 0.0
            self.v_hist.norms[:, rows] = 0.0


def _steps_by_map(params: ModelParams, disc: Discretization) -> bool:
    """Whether ``build`` leaves no evolved eta or z field, so ``step`` uses the map."""
    eta = params.memory_realization == "eta_grid" and not params.kernel.is_empty
    z = params.delay_realization == "rho_grid" and disc.n_delay > 0
    return not (eta or z)


def build(params: ModelParams, init: InitialData, disc: Discretization,
          ks: list[float] | None = None, steps: int | None = None) -> SimState:
    """State at t = 0 with its history structures set from the prescribed past.

    The delay line and the evolved fields are filled; the displacement
    history stores nothing and evaluates the past when it is read.  Given
    ``steps``, the number of steps the state will take, the displacement
    history has min(n_hist, steps) slots (at least 1), as a read from
    further back than the pushes is the past; without it, n_hist.  With
    ``ks`` the state is a batch of len(ks) copies, row r stepped with
    k = ks[r] (``params.k`` is not read).  Without it the fields are
    (nx,), and ``step`` and ``sample_state`` treat the state as a batch of
    one.
    """
    if disc.tau > 0.0 and params.tau <= 0.0:
        raise DelayUnresolvable("discretization carries a delay but params.tau is 0")
    if ks is not None and not _steps_by_map(params, disc):
        raise ValueError("the eta_grid and rho_grid realizations step one row at a time")
    batch = () if ks is None else (len(ks),)
    x = disc.x_interior()
    phi = init.profile(x, params.length)
    u = np.broadcast_to(phi, batch + phi.shape).copy()
    v = u * init.history_rate(0.0)
    state = SimState(t=0.0, step_index=0, u=u, v=v, ks=None if ks is None else tuple(ks))

    kernel = params.kernel
    if not kernel.is_empty:
        if params.memory_realization == "prony_modes":
            state.q = np.multiply.outer([init.memory_weight(b) for b in kernel.rates], u)
            # the past is evaluated on demand, with the scalar math.cos factor
            # a stored row would have had; a frozen past is phi itself
            factor = None if init.history == "frozen" else (
                lambda ages: init.history_factors(-ages * disc.dt))
            phi.flags.writeable = False
            capacity = disc.n_hist if steps is None else max(1, min(disc.n_hist, steps))
            state.u_hist = _reserve(
                lambda: RingBuffer(capacity, batch + (disc.nx,),
                                   past=phi if ks is None else phi[None], factor=factor),
                (capacity,) + batch + (disc.nx,), batch, "the displacement history",
                f"{'n_hist' if capacity == disc.n_hist else 'steps'}={capacity} rows "
                f"x nx={disc.nx}", "raise the kernel rates, shorten T or coarsen the grid",
                HistoryTooLarge)
        else:
            state.eta = np.multiply.outer(
                [1.0 - init.history_factor(-s) for s in disc.s_nodes[1:]], phi
            )

    if disc.n_delay > 0:
        capacity = disc.n_delay + 2
        vbuf = _reserve(lambda: RingBuffer(capacity, batch + (disc.nx,)),
                        (capacity,) + batch + (disc.nx,), batch, "the delay line",
                        f"n_delay+2={capacity} rows x nx={disc.nx}",
                        "shorten the delay, raise cfl or coarsen the grid", HistoryTooLarge)
        rates = np.fromiter((init.history_rate(-j * disc.dt)
                             for j in range(vbuf.capacity)), float, vbuf.capacity)
        np.multiply.outer(rates, u, out=vbuf.data)
        vbuf.keep_norms()
        state.v_hist = vbuf
        if params.delay_realization == "rho_grid":
            # z(x, rho_l, 0) = u_t history at -tau*rho_l; rho_l = l/n_delay, l >= 1
            state.z_rho = vbuf.data[1:disc.n_delay + 1].copy()
    return state


def _add_second_difference(target: np.ndarray, w: np.ndarray) -> None:
    """target += dx^2 L w, the Dirichlet second difference w[i-1] - 2 w[i] + w[i+1]."""
    # -2 w stays an operation, not a coefficient: a rounded -2 in the map's
    # constant term would shift the decay rate of smooth modes step after step
    target -= 2.0 * w
    target[..., 1:] += w[..., :-1]
    target[..., :-1] += w[..., 1:]


def laplacian(w: np.ndarray, dx: float) -> np.ndarray:
    """Standard 3-point second difference with homogeneous Dirichlet rows."""
    out = np.zeros(w.shape)
    _add_second_difference(out, w)
    out /= dx * dx
    return out


@dataclass(frozen=True)
class KernelOnGrid:
    """The kernel on the interior s-nodes (node 0 carries eta = 0)."""

    mu: np.ndarray          # mu(s_j)
    mu_prime: np.ndarray    # mu'(s_j)
    w_mu: np.ndarray        # w_j mu(s_j), the memory force quadrature
    w_mu_prime: np.ndarray  # w_j mu'(s_j), the memory identity's mu' moment


@functools.lru_cache(maxsize=32)
def _kernel_on_grid(kernel: MemoryKernel, disc: Discretization) -> KernelOnGrid:
    """Kernel values for ``disc``'s s-grid, evaluated once per (kernel, grid).

    ``Discretization`` hashes by identity, so a grid built by ``replace``
    gets its own entry; the arrays are read-only because every caller
    shares them.
    """
    s, w = disc.s_nodes[1:], disc.s_weights[1:]
    mu, mu_prime = kernel.value(s), kernel.derivative(s)
    tables = KernelOnGrid(mu=mu, mu_prime=mu_prime, w_mu=w * mu, w_mu_prime=w * mu_prime)
    for arr in vars(tables).values():
        arr.flags.writeable = False
    return tables


def _delayed(params: ModelParams, disc: Discretization, state: SimState | None,
             v: np.ndarray, z, c: float) -> np.ndarray:
    """Delayed velocity z(., 1, t + c dt) for stage velocity v and delay field z."""
    if disc.n_delay == 0:
        return v
    if params.delay_realization == "ring_buffer":
        return state.v_hist.back_interp(disc.n_delay - c)
    return z[-1]


def _rhs(params: ModelParams, disc: Discretization, state: SimState | None,
         u: np.ndarray, v: np.ndarray, mem, z, c: float,
         lap: Callable[[np.ndarray, float], np.ndarray] = laplacian):
    """Stage derivative of (u, v, mem, z) at stage offset c in [0, 1].

    This is the one definition of the semi-discrete generator: ``step``
    integrates it, ``_step_map`` runs it on polynomial fields with its own
    ``lap``, and ``dissipativity_spot_check`` takes its Rayleigh quotient.
    ``state`` is read only for the velocity ring buffer.
    """
    if mem is None:
        dv = lap(u, disc.dx)
        dmem = None
    elif params.memory_realization == "prony_modes":
        # int mu(s) eta_xx ds = mu_tilde u_xx - sum_i a_i q_i_xx, exactly
        a = params.kernel.amplitudes
        b = params.kernel.rates
        dv = lap(u - a @ mem, disc.dx)
        dmem = u[None, :] - b[:, None] * mem
    else:
        mu_tilde = params.kernel.mu_tilde
        wmu = _kernel_on_grid(params.kernel, disc).w_mu
        dv = lap((1.0 - mu_tilde) * u + wmu @ mem, disc.dx)
        gaps = np.diff(disc.s_nodes)
        upwind = mem.copy()
        upwind[1:] -= mem[:-1]
        dmem = v[None, :] - upwind / gaps[:, None]

    if params.k != 0.0:
        dv = dv - params.k * _delayed(params, disc, state, v, z, c)
    damp = extra_damping(params, disc)
    if damp != 0.0:
        dv = dv - damp * v

    if z is not None:
        # tau z_t = -z_rho with inflow z(rho=0) = v; tau * drho equals dt
        upz = z.copy()
        upz[1:] -= z[:-1]
        upz[0] -= v
        dz = -upz / disc.dt
    else:
        dz = None
    return v, dv, dmem, dz


def _step_by_stages(state: SimState, params: ModelParams, disc: Discretization,
                    lap: Callable[[np.ndarray, float], np.ndarray] = laplacian) -> None:
    """One step of the classical RK4 tableau on (u, v, mem, z), by four ``_rhs`` stages.

    The path of the evolved eta and z fields, and how ``_step_map`` is built.
    """
    dt = disc.dt
    x0 = (state.u, state.v, state.eta if state.q is None else state.q, state.z_rho)
    slopes = [_rhs(params, disc, state, *x0, 0.0, lap)]
    for h, c in ((0.5 * dt, 0.5), (0.5 * dt, 0.5), (dt, 1.0)):
        x = (None if y is None else y + h * d for y, d in zip(x0, slopes[-1]))
        slopes.append(_rhs(params, disc, state, *x, c, lap))
    w = dt / 6.0
    state.u, state.v, mem, state.z_rho = (
        None if y is None else y + w * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        for y, d1, d2, d3, d4 in zip(x0, *slopes)
    )
    if state.q is None:
        state.eta = mem
    else:
        state.q = mem


@functools.lru_cache(maxsize=32)
def _step_map(params: ModelParams, disc: Discretization) -> np.ndarray:
    """One RK4 step without eta or z fields, as the map C0 + C1 L + C2 L^2.

    The map takes X = [u; v; q_1..q_m; v(t - tau); v(t - tau + dt)] (the
    delay rows only when k != 0 and tau > 0) to the next [u; v; q].  It is
    ``_step_by_stages`` run on a state whose fields are polynomials in
    D = dx^2 L: each field is a row of five blocks, the coefficients of
    D^0 .. D^4 acting on X, and the Laplacian moves a row up one block and
    divides it by dx^2.  The two delay inputs sit at ``v_hist`` slots
    n_delay and n_delay - 1, so ``back_interp(n_delay - c)`` weights them
    (1, 0), (1/2, 1/2), (0, 1) at c = 0, 1/2, 1, and at tau = 0 ``_rhs``
    folds -k v itself.  The generator is G0 + L G1 with scalar blocks; G1
    maps u and q into the v row and reads no v, so G1 G1 = 0 and four
    stages reach at most L^2.  Returns C0, C1 / dx^2 and C2 / dx^4 stacked
    by rows, shape (3 (2 + m), rows of X), read-only.
    """
    nw = 2 + params.kernel.amplitudes.size
    delayed = params.k != 0.0 and disc.n_delay > 0
    n_in = nw + (2 if delayed else 0)
    unit = np.eye(n_in, 5 * n_in)  # row i: input i at degree 0
    poly = SimState(t=0.0, step_index=0, u=unit[0], v=unit[1],
                    q=unit[2:nw] if nw > 2 else None)
    if delayed:
        # a two-slot ring reads back(p) from slot p % 2
        poly.v_hist = RingBuffer(2, 5 * n_in)
        poly.v_hist.data[disc.n_delay % 2] = unit[nw]
        poly.v_hist.data[(disc.n_delay - 1) % 2] = unit[nw + 1]

    def raise_degree(w: np.ndarray, dx: float) -> np.ndarray:
        out = np.zeros(w.shape)
        out[..., n_in:] = w[..., :-n_in] / (dx * dx)
        return out

    _step_by_stages(poly, params, disc, raise_degree)
    fields = np.vstack([poly.u, poly.v] + ([] if poly.q is None else [poly.q]))
    coeffs = fields.reshape(nw, 5, n_in)[:, :3].swapaxes(0, 1).reshape(3 * nw, n_in)
    coeffs.flags.writeable = False
    return coeffs


@functools.lru_cache(maxsize=32)
def _stacked_maps(params: ModelParams, disc: Discretization,
                  ks: tuple[float, ...]) -> np.ndarray:
    """``_step_map`` of each row k in ``ks``, stacked, shape (R, 3 (2 + m), n_in).

    A row without delay inputs (k = 0) gets zero columns for them when
    another row has them.  Read-only, one stack per (params, grid, ks).
    """
    maps = [_step_map(replace(params, k=k), disc) for k in ks]
    stacked = np.zeros((len(maps), maps[0].shape[0], max(c.shape[1] for c in maps)))
    for out, coeffs in zip(stacked, maps):
        out[:, :coeffs.shape[1]] = coeffs
    stacked.flags.writeable = False
    return stacked


def _step_by_map(state: SimState, params: ModelParams, disc: Discretization) -> None:
    # a solo state steps as a batch of one, R = 1, its map broadcast over it
    coeffs = (_step_map(params, disc) if state.ks is None
              else _stacked_maps(params, disc, state.ks))
    n_out, n_in = coeffs.shape[-2:]
    nw = n_out // 3
    # the input rows X, each shaped like u, and X as the matmul reads it,
    # (R, n_in, nx): memory the state reuses, as no step hands X out
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
    # Horner, C0 X + L (C1 X + L C2 X), in place in a fresh array, so the
    # fields handed out by earlier steps survive; each row's X is
    # multiplied by its own map
    y = np.empty((3, nw) + state.u.shape)
    np.matmul(coeffs, state.work["map_in"], out=y.reshape(n_out, -1, disc.nx).swapaxes(0, 1))
    _add_second_difference(y[1], y[2])
    _add_second_difference(y[0], y[1])
    state.u = y[0, 0]
    state.v = y[0, 1]
    if state.q is not None:
        state.q = y[0, 2:]


def step(state: SimState, params: ModelParams, disc: Discretization) -> SimState:
    """Advance one dt by the classical 4-stage explicit scheme (in place).

    A state with no evolved eta or z fields advances by ``_step_map``; the
    ``eta_grid`` and ``rho_grid`` realizations run the four ``_rhs`` stages.
    A non-finite u or v raises ``NonFinite`` after the step; for a batch it
    names the rows that went non-finite, and the others have advanced.
    """
    # a blowing-up state overflows to inf/nan and is caught below
    with np.errstate(over="ignore", invalid="ignore"):
        if state.eta is None and state.z_rho is None:
            _step_by_map(state, params, disc)
        else:
            _step_by_stages(state, params, disc)

    state.t += disc.dt
    state.step_index += 1
    if state.u_hist is not None:
        state.u_hist.push(state.u)
    if state.v_hist is not None:
        state.v_hist.push(state.v)
    if not (np.isfinite(state.u).all() and np.isfinite(state.v).all()):
        finite = np.isfinite(state.u).all(axis=-1) & np.isfinite(state.v).all(axis=-1)
        rows = np.flatnonzero(~finite).tolist()
        raise NonFinite(state.step_index, None if state.ks is None else rows)
    return state


def delayed_velocity(state: SimState, params: ModelParams,
                     disc: Discretization) -> np.ndarray:
    """z(., 1, t) at a whole-step time (bit-exact for the ring buffer)."""
    return _delayed(params, disc, state, state.v, state.z_rho, 0.0)


@functools.lru_cache(maxsize=32)
def _node_steps(disc: Discretization) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where eta's row j reads the displacement history, s_j / dt steps back:
    (newer, older, frac) = (floor, floor + 1 or floor itself at a whole
    step, s_j / dt - floor); read-only, one per grid."""
    steps = disc.s_nodes[1:] / disc.dt
    newer = np.floor(steps).astype(np.intp)
    frac = steps - newer
    older = newer + (frac > 0.0)
    for arr in (newer, older, frac):
        arr.flags.writeable = False
    return newer, older, frac


def _distinct_eta_rows(state: SimState, params: ModelParams, disc: Discretization) -> int:
    """How many leading rows of ``eta_field`` can differ; every later row
    repeats the last of them.

    With a frozen past, every row from the first whose newer slot reaches
    back past the pushes reads phi alone and is u - phi.  A modulated past
    or an evolved eta has ns - 1 distinct rows.
    """
    hist = state.u_hist
    m = disc.ns - 1
    if hist is None or hist.past is None or hist.factor is not None:
        return m
    return min(int(np.searchsorted(_node_steps(disc)[0], hist.pushed)) + 1, m)


def eta_field(state: SimState, params: ModelParams, disc: Discretization,
              out: np.ndarray | None = None, rows: int | None = None) -> np.ndarray:
    """History field eta(x, s_j) on the interior s-nodes, shape (ns-1, nx),
    or (ns-1, R, nx) for a batch; written into ``out`` when given.  Given
    ``rows``, only the first ``rows`` s-nodes, each row bitwise as in the
    full field.

    For the prony_modes realization this is the exact characteristics
    solution eta(s) = u(t) - u(t - s) read off the u ring buffer, by one
    gather of the two neighbours of every s-node (``back_interp_rows`` at
    the ``_node_steps`` of the grid); for eta_grid it is the evolved array
    itself.  Which rows read stored slots and which the past is known to
    this module alone: ``_distinct_eta_rows`` tells a caller how many differ.
    """
    if params.kernel.is_empty:
        return np.zeros((0,) + state.u.shape)
    if state.eta is not None:
        if out is None:
            return state.eta[:rows]
        out[...] = state.eta[:rows]
        return out
    newer, older, frac = (arr[:rows] for arr in _node_steps(disc))
    shape = (newer.size,) + state.u.shape
    u_past = state.u_hist.back_interp_rows(
        newer, older, frac, np.empty(shape) if out is None else out,
        state.scratch(shape, "work"))
    return np.subtract(state.u, u_past, out=u_past)


@dataclass
class Snapshot:
    """What the memory-identity check reads at one sample: 5 nx-wide fields.

    ``u``, ``v``, the delayed velocity and the two s-quadrature moments of
    eta, ``w_mu @ eta`` and ``(w mu') @ eta``; eta itself is not kept.
    """

    t: float
    u: np.ndarray
    v: np.ndarray
    v_delayed: np.ndarray
    int_mu_eta: np.ndarray
    int_mu_prime_eta: np.ndarray


# the terms of one energy sample, in ``energy.SampleRow``'s field order; the
# first four add up to F(t)
SAMPLE_TERMS = ("kinetic", "elastic", "memory", "delay",
                "ut_sq", "ut_tau_sq", "delay_raw", "mu_prime_eta")


@dataclass
class Trace:
    """Sampled energy history of one run (plus optional volumetric snapshots)."""

    params: ModelParams
    disc: Discretization
    times: np.ndarray
    kinetic: np.ndarray
    elastic: np.ndarray
    memory: np.ndarray
    delay: np.ndarray
    total: np.ndarray
    ut_sq: np.ndarray
    ut_tau_sq: np.ndarray
    delay_raw: np.ndarray
    mu_prime_eta: np.ndarray
    snapshots: list[Snapshot] = field(default_factory=list)
    aborted_step: int | None = None
    final_state: SimState | None = None

    @property
    def mode(self) -> str:
        return self.params.mode


def run(params: ModelParams, init: InitialData, disc: Discretization,
        horizon: float, sample_every: int = 0, snapshots: bool = False,
        ks: list[float] | None = None) -> Trace | list[Trace]:
    """Integrate to ``horizon`` sampling the energy every ``sample_every`` steps.

    ``sample_every = 0`` picks a cadence of about 1000 samples.  A
    non-finite state aborts the run; the partial trace is still returned
    with ``aborted_step`` set.

    With ``ks`` the rows k = ks[r] run as one batch and the result is one
    Trace per row, in order, each the trace its solo run gives, since a
    solo run steps and samples as a batch of one; rows advanced together
    keep no ``final_state``.  A row that goes non-finite gets its own
    ``aborted_step`` and is sampled no further; the others go on.
    Snapshots are kept for solo runs only.  A sample table that cannot be
    allocated is refused before the first step.
    """
    from .energy import sample_state  # deferred: energy imports this module

    if horizon < 0.0:
        raise ValueError(f"horizon must be >= 0, got {horizon!r}")
    if ks is not None:
        rows = [replace(params, k=k) for k in ks]
        if snapshots:
            raise ValueError("snapshots are kept for solo runs only, not for a batch")
        if not _steps_by_map(params, disc):
            # the grid realizations step their fields through _rhs, one k at a time
            return [run(row, init, disc, horizon, sample_every) for row in rows]
    n_steps = int(round(_steps_in(horizon, disc.dt, "T", "shorten T or raise cfl")))
    if sample_every <= 0:
        sample_every = max(1, n_steps // 1000)

    state = build(params, init, disc, ks=ks, steps=n_steps)
    times = []
    # per sample the SAMPLE_TERMS, then the batch axis
    batch = state.u.shape[:-1]
    shape = (2 + n_steps // sample_every, len(SAMPLE_TERMS)) + batch
    cols = _reserve(lambda: np.empty(shape), shape, batch, "the sample table",
                    f"{shape[0]} rows x {shape[1]} terms", "raise sample_every or shorten T",
                    SolverError)
    snaps = []

    def take_sample():
        # a snapshot shares the sample's eta, reconstructed once
        eta = eta_field(state, params, disc) if snapshots else None
        r = sample_state(state, params, disc, eta=eta)
        cols[len(times)] = [getattr(r, name) for name in SAMPLE_TERMS]
        times.append(state.t)
        if snapshots:
            on_grid = _kernel_on_grid(params.kernel, disc)
            snaps.append(Snapshot(
                t=state.t, u=state.u.copy(), v=state.v.copy(),
                v_delayed=delayed_velocity(state, params, disc).copy(),
                int_mu_eta=on_grid.w_mu @ eta, int_mu_prime_eta=on_grid.w_mu_prime @ eta,
            ))

    take_sample()
    # per row: the step it aborted at, and how many samples it kept
    aborted = [None] * (1 if ks is None else len(ks))
    kept = [None] * len(aborted)
    for n in range(1, n_steps + 1):
        try:
            step(state, params, disc)
        except NonFinite as err:
            for r in err.rows or [0]:
                aborted[r], kept[r] = err.step_index, len(times)
            if None not in aborted:
                break
            state.retire(err.rows)
        if n % sample_every == 0 or n == n_steps:
            take_sample()

    cols = cols[:len(times)]
    times = np.array(times)
    if ks is None:
        return _trace(params, disc, times, cols, aborted[0], snaps, state)
    return [_trace(row, disc, times[:n], cols[:n, :, r], step_index, [], None)
            for r, (row, n, step_index) in enumerate(zip(rows, kept, aborted))]


def _trace(params: ModelParams, disc: Discretization, times: np.ndarray, cols: np.ndarray,
           aborted: int | None, snaps: list[Snapshot], state: SimState | None) -> Trace:
    terms = dict(zip(SAMPLE_TERMS, cols.T))
    return Trace(
        params=params, disc=disc, times=times, **terms,
        total=terms["kinetic"] + terms["elastic"] + terms["memory"] + terms["delay"],
        snapshots=snaps, aborted_step=aborted, final_state=state,
    )


# -- dissipativity spot check ---------------------------------------------------

@dataclass(frozen=True)
class SpotCheckReport:
    max_quotient: float
    c_shift: float
    trials: int
    passed: bool


def _edge_inner(w1: np.ndarray, w2: np.ndarray, dx: float) -> np.ndarray:
    """Edge-form pairing -<w1, L w2> along the last axis, one value per row."""
    d1 = np.diff(w1, prepend=0.0, append=0.0)
    d2 = np.diff(w2, prepend=0.0, append=0.0)
    return np.einsum("...i,...i->...", d1, d2) / dx


def dissipativity_spot_check(params: ModelParams, disc: Discretization,
                             trials: int = 16, c_shift: float = 0.0,
                             seed: int = 0) -> SpotCheckReport:
    """Max Rayleigh quotient of the semi-discrete generator over random states.

    The generator is ``_rhs`` in the eta-grid / rho-grid realization (the
    one whose state matches the abstract system) and the quotient is taken
    in the discrete energy inner product.  Components that cannot feed back
    into the dynamics are excluded: eta when the kernel is empty, z when
    k = 0 or tau = 0.  PASS means the maximum stays at or below ``c_shift``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    grid = replace(params, memory_realization="eta_grid", delay_realization="rho_grid")
    dx = disc.dx
    kernel = params.kernel
    use_eta = not kernel.is_empty
    use_z = disc.n_delay > 0 and params.k != 0.0
    mu_tilde = kernel.mu_tilde
    wmu = _kernel_on_grid(kernel, disc).w_mu if use_eta else None
    d_rho = 1.0 / disc.n_delay if use_z else 0.0

    def pairing(du, dv, deta, dz, u, v, eta, z) -> float:
        out = (1.0 - mu_tilde) * float(_edge_inner(du, u, dx)) + dx * float(dv @ v)
        if use_eta:
            out += float(wmu @ _edge_inner(deta, eta, dx))
        if use_z:
            out += d_rho * dx * float((dz * z).sum())
        return out

    worst = -math.inf
    for _ in range(trials):
        u = rng.standard_normal(disc.nx)
        v = rng.standard_normal(disc.nx)
        eta = rng.standard_normal((disc.ns - 1, disc.nx)) if use_eta else None
        z = rng.standard_normal((disc.n_delay, disc.nx)) if use_z else None
        x = (u, v, eta, z)
        quotient = pairing(*_rhs(grid, disc, None, *x, 0.0), *x) / pairing(*x, *x)
        worst = max(worst, quotient)
    return SpotCheckReport(
        max_quotient=worst, c_shift=c_shift, trials=trials, passed=worst <= c_shift
    )
