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
  gather per neighbour, at offsets the grid keeps (``node_steps``)
  (each a state's lag further back for the states of a ``Span``), reads
  either kind of row.  Both ring buffers and the span store rows nx + 2
  wide with +0.0 end columns, so eta comes out on such rows and its
  gradient is one flat pass.  This module alone knows which eta row reads
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
state keeps (nx,) fields and steps and samples on the same code; its
map step's matmul reads its inputs without a batch axis of one.  Only
the map path is batched; the grid realizations step one row at a time.

Time stepping is the classical 4-stage explicit scheme ``_rk4`` applied to
the one generator ``_rhs``, the only place the system is written down; it
reads no state, and ``_delay_stages`` forms its delayed velocity from two
delay-line rows.  The system is linear and its only spatial operator is the
Dirichlet Laplacian L, so with ``prony_modes`` memory and the ring-buffer
delay (or none) one step is a fixed map C0 + C1 L + C2 L^2 acting on
[u; v; q; two delay-line rows].  ``_step_map`` obtains its small scalar
coefficient matrices by running ``_rk4`` on unit rows that are polynomials
in L.  A call of ``step`` makes any number of steps: the state keeps the
map with the plan of buffers it steps by (``_map_plan``).  No table
outlives what it is derived from: the grid keeps its own (kernel values,
eta's node steps), and nothing is kept at module level between runs.
``run`` sizes a run once (``RunPlan``) and makes one call per span of up
to S sample intervals: the call keeps the u, v, delayed velocity and delay
integral of the span's sample steps in a ``Span`` as it passes them, and
``energy.sample_state`` forms all their samples, eta in tiles of up to T
states and every other term in one stacked pass, each state reading the
displacement history as many slots further back as steps have passed
since it was kept.  So a span reads no slot that has been overwritten:
where the displacement history is shorter than the run a span is one
interval, and no sample reads the delay line at all.
The map path (``_step_by_map``) takes a call's steps in chunks chained
through one block, so no field is copied from one step to the next, and
does per chunk, not per step, what reads or writes the ring buffers and
the finiteness screen.  Every row of it is nx + 2 wide, its end columns
the Dirichlet zeros, so each neighbour of a second difference comes in by
one flat add over a contiguous block; every interior entry gets the
additions of the unpadded form, in its order.  The ``eta_grid`` and
``rho_grid`` realizations carry (ns - 1) or n_delay extra field rows and
run ``_rk4`` on the fields themselves, step by step (``_step_by_stages``);
that path is also the reference the map is tested against.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property
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
# the smallest grid spacing whose step is finite: RK4 sums its four velocity
# stages with weights 1, 2, 2, 1 before it scales them by dt/6, and each stage
# carries u_xx's 1/dx^2, so below this dx that sum of 6/dx^2 overflows
DX_MIN = math.sqrt(6.0 / sys.float_info.max)
# the most bytes of map-step inputs a chunk of steps works in: 32 steps of a solo
# nx = 200 state with one memory term and a delay line
CHUNK_BYTES = 2 ** 18
# the most bytes a span's energy samples are formed in (``RunPlan``).  A tile
# of its states forms eta and its gradient within it, with the tile's kept u
# and v: 10 states of a solo nx = 200 state with ns = 64 and a modulated past.
# What the span keeps per state outside eta, its u, v and delayed velocity and
# the gradient of u, takes half of it: 162 states there
SPAN_BYTES = 2 ** 21

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


@dataclass(frozen=True)
class KernelOnGrid:
    """The kernel on the interior s-nodes (node 0 carries eta = 0)."""

    mu: np.ndarray          # mu(s_j)
    mu_prime: np.ndarray    # mu'(s_j)
    w_mu: np.ndarray        # w_j mu(s_j), the memory force quadrature
    w_mu_prime: np.ndarray  # w_j mu'(s_j), the memory identity's mu' moment


@dataclass(frozen=True, eq=False)
class Discretization:
    """Grid parameters; ``tau`` is the delay snapped to the step grid and
    ``kernel`` the kernel the s-grid was cut for.

    The tables derived from a grid's fields are formed on first use and
    kept with it, read-only because every run on the grid shares them; a
    grid made by ``replace`` starts with none.
    """

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
    kernel: MemoryKernel

    @property
    def ns(self) -> int:
        return int(self.s_nodes.size)

    def x_interior(self) -> np.ndarray:
        return self.dx * np.arange(1, self.nx + 1)

    @cached_property
    def kernel_on_grid(self) -> KernelOnGrid:
        """The kernel's values on the interior s-nodes."""
        s, w = self.s_nodes[1:], self.s_weights[1:]
        mu, mu_prime = self.kernel.value(s), self.kernel.derivative(s)
        return KernelOnGrid(*_read_only(mu, mu_prime, w * mu, w * mu_prime))

    @cached_property
    def node_steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where eta's row j reads the displacement history, s_j / dt steps back:
        (newer, older, frac) = (floor, floor + 1 or floor itself at a whole
        step, s_j / dt - floor)."""
        steps = self.s_nodes[1:] / self.dt
        newer = np.floor(steps).astype(np.intp)
        frac = steps - newer
        return _read_only(newer, newer + (frac > 0.0), frac)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _steps_in(span: float, dt: float, name: str, remedy: str) -> float:
    """span / dt, refused when it overflows a double: no step count is that large."""
    ratio = span / dt
    if not math.isfinite(ratio):
        raise SolverError(f"{name}/dt = {span!r}/{dt!r} overflows a double, too many "
                          f"steps to count; {remedy}")
    return ratio


def _refuse_stiff(dt: float, rate: float, name: str, remedy: str) -> None:
    """Refuse dt*rate past RK4's real-axis limit: its blow-up would read as growth."""
    if dt * rate > RK4_REAL_AXIS_LIMIT:
        raise CflViolation(f"dt*{name} = {dt * rate:.4g} exceeds the RK4 stability limit "
                           f"{RK4_REAL_AXIS_LIMIT} on the real axis (dt={dt:.4g}); {remedy}")


def refuse_stiff_damping(params: ModelParams, disc: Discretization,
                         ks: list[float] | None) -> None:
    """Refuse each row's velocity damping d past RK4's limit (params.k's row if ks is None):
    theta |k| e^tau in auxiliary mode, plus k where tau = 0 folds the delay onto v."""
    for k in (params.k,) if ks is None else ks:
        d = extra_damping(replace(params, k=k), disc) + (k if disc.n_delay == 0 else 0.0)
        _refuse_stiff(disc.dt, d, f"d(k={k:g})", "refine the grid or lower |k| or theta")


def discretize(params: ModelParams, nx: int = 200, cfl: float = 0.25,
               ns: int = 64, tail_tol: float = 1e-8) -> Discretization:
    """Build the grids for ``params``; snaps tau to a whole number of steps."""
    if nx < 3:
        raise ValueError(f"nx must be at least 3, got {nx}")
    if not (0.0 < cfl <= 0.5):
        raise CflViolation(f"cfl must lie in (0, 0.5], got {cfl!r}")
    dx = params.length / (nx + 1)
    if dx < DX_MIN:
        raise SolverError(f"dx = {dx:.6g} is below {DX_MIN:.6g}, where a step's "
                          "6/dx^2 overflows; lengthen L or coarsen the grid")
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
            # q_i' = u - b_i q_i is explicit in q_i
            _refuse_stiff(dt, float(params.kernel.rates.max()), "max(b_i)",
                          "refine the grid or lower the kernel rates")
        # np.empty is the probe, not geometric_s_grid, whose ValueErrors are its
        # own checks (a negative ns among them)
        _reserve(lambda: np.empty(max(ns, 0)), (ns,), (), "the s-grid", f"ns={ns} nodes",
                 "lower ns", SolverError)
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
        kernel=params.kernel,
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
             what: str, dims: str, remedy: str, error: Callable[[str], Exception]) -> T:
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
    returns ``factor(p - pushed) * phi``, so a buffer that will see
    ``steps`` pushes needs no more than ``steps`` slots.  phi is kept in
    one more slot after the ``capacity`` ring slots, broadcast over the
    batch rows, so every read beyond the pushes is a read of that slot.
    ``back_interp_rows`` is the one gather of such reads, and interpolates
    between two, at neighbour offsets its caller fixes.  On such a buffer a
    read ``capacity <= p < pushed`` raises ``SolverError``: its slot has
    been overwritten.  A buffer with no past has no such slot and reads by
    wrap-around (the delay line reads slots ``n_delay`` and ``n_delay - 1``).

    The slots live in ``padded``, rows nx + 2 wide whose end columns are
    the Dirichlet zeros; ``data`` is the interior of the ring slots,
    (capacity,) + a slot's shape, which every push and read of one slot
    uses, so the end columns are never written, nor is phi's slot
    (``past``) after it is formed.  ``back_interp_rows`` gathers whole
    padded rows, so eta and its gradient are formed on flat contiguous
    rows.  ``push_rows`` and ``copy_rows`` write and read a run of
    consecutive slots by one slice copy, or two where the run wraps.  The
    ``Span`` of a run reads the displacement history at offsets a state's
    lag further back: ``back_interp_rows`` takes the lags of all its states
    at once.
    """

    __slots__ = ("padded", "data", "capacity", "head", "pushed", "past", "factor")

    def __init__(self, capacity: int, row_shape: int | tuple[int, ...],
                 past: np.ndarray | None = None,
                 factor: Callable[[np.ndarray], np.ndarray] | None = None):
        if isinstance(row_shape, int):
            row_shape = (row_shape,)
        slots = capacity + (past is not None)
        self.padded = np.zeros((slots, *row_shape[:-1], row_shape[-1] + 2))
        self.data = self.padded[:capacity, ..., 1:-1]
        self.capacity = capacity
        self.head = 0
        self.pushed = 0
        self.past = None  # phi's padded slot
        if past is not None:
            self.past = self.padded[capacity]
            self.past[..., 1:-1] = past
            self.past.flags.writeable = False
        self.factor = factor

    @property
    def nbytes(self) -> int:
        """Allocated bytes: the padded slots, phi's too."""
        return self.padded.nbytes

    def push(self, row: np.ndarray) -> None:
        self.head = (self.head - 1) % self.capacity
        self.pushed += 1
        self.data[self.head] = row

    def push_rows(self, newest_first: np.ndarray) -> None:
        """``push`` rows, at most ``capacity``, the last given first: after
        the call ``back(j)`` is ``newest_first[j]``.  One slice copy, or two
        where the slots wrap."""
        count = len(newest_first)
        self.head = (self.head - count) % self.capacity
        self.pushed += count
        _store_run(self.data, self.head, newest_first)

    def copy_rows(self, first: int, out: np.ndarray) -> None:
        """out[j] = back(first + j) for each row j of ``out``, from stored slots
        only.  One slice copy, or two where the slots wrap."""
        _load_run(self.data, (self.head + first) % self.capacity, out)

    def _refuse_overwritten(self, steps: int) -> None:
        raise SolverError(f"history offset {steps} is past the {self.capacity} slots of a "
                          f"buffer with {self.pushed} pushes: that slot was overwritten; "
                          "build the state with steps at least the steps it takes")

    def back(self, steps: int) -> np.ndarray:
        if self.past is not None:
            if steps >= self.pushed:
                phi = self.past[..., 1:-1]
                # one IEEE multiply per entry, as a stored factor * phi row had
                return phi if self.factor is None else (
                    self.factor(np.array([steps - self.pushed]))[0] * phi)
            if steps >= self.capacity:
                self._refuse_overwritten(steps)
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

    def back_interp_rows(self, newer: np.ndarray, older: np.ndarray, frac: np.ndarray,
                         lags: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """back(newer + lag) + frac * (back(older + lag) - back(newer + lag)) for
        each of the S ``lags`` and each of the n non-decreasing offsets in
        ``newer`` and ``older``, into ``out``, padded rows (contiguous, (S, n)
        + ``padded``'s slot shape); ``work``, shaped like ``out``, takes the
        gathered newer rows.  The end columns come out +0.0 or -0.0.

        Each neighbour is one gather of padded slots, phi's slot at every
        read past the pushes; a modulated past then scales those reads in
        place by their factors, from one ``factor`` call per neighbour, one
        multiply per state over the suffix of its nodes that reads the past.
        Where ``older`` is ``newer`` (frac 0) the difference is exactly 0.
        """
        for j, rows in ((newer, work), (older, out)):
            offsets = j + lags[:, None]
            slots = (self.head + offsets) % self.capacity
            if self.past is not None:
                past = offsets >= self.pushed
                deepest = offsets[~past].max(initial=-1)
                if deepest >= self.capacity:
                    self._refuse_overwritten(deepest)
                slots[past] = self.capacity
            # the slots are in range, so mode "clip" writes into ``rows``
            # directly; "raise" would buffer
            self.padded.take(slots.reshape(-1), axis=0, mode="clip",
                             out=rows.reshape((slots.size,) + self.padded.shape[1:]))
            if self.factor is None or not past.any():
                continue
            # each state's offsets do not decrease, so its past reads are a
            # suffix of its nodes: that suffix alone is scaled, one IEEE
            # multiply per entry, as a stored factor * phi row had
            scale = self.factor(offsets[past] - self.pushed)
            scale = scale.reshape(scale.shape + (1,) * (rows.ndim - 2))
            start = 0
            for state_rows, count in zip(rows, past.sum(axis=1).tolist()):
                if count:
                    suffix = state_rows[len(state_rows) - count:]
                    np.multiply(suffix, scale[start:start + count], out=suffix)
                    start += count
        np.subtract(out, work, out=out)
        # frac spread over a slot, so each state's multiply is one flat pass:
        # broadcast along a slot, the multiply took about twice as long
        spread = np.empty(out.shape[1:])
        spread[...] = frac.reshape(frac.shape + (1,) * (out.ndim - 2))
        np.multiply(spread, out, out=out)
        return np.add(work, out, out=out)


def _store_run(ring: np.ndarray, start: int, rows: np.ndarray) -> None:
    """ring[(start + j) % len(ring)] = rows[j] for each row j: one slice copy,
    or two where the run wraps."""
    wrap = start + len(rows) - len(ring)
    if wrap <= 0:
        ring[start:start + len(rows)] = rows
    else:
        ring[start:] = rows[:-wrap]
        ring[:wrap] = rows[-wrap:]


def _load_run(ring: np.ndarray, start: int, out: np.ndarray) -> None:
    """out[j] = ring[(start + j) % len(ring)] for each row j of ``out``: one
    slice copy, or two where the run wraps."""
    wrap = start + len(out) - len(ring)
    if wrap <= 0:
        out[...] = ring[start:start + len(out)]
    else:
        out[:-wrap] = ring[start:]
        out[-wrap:] = ring[:wrap]


class DelayLine(RingBuffer):
    """The delay line: a ``RingBuffer`` of the velocity's past, n_delay + 2
    slots and no prescribed past, which norms its rows and carries the
    delay integral of the energy

        R(t) = int_{t-tau}^t e^{-(t-s)} ||u_t(s)||^2 ds,

    one value per batch row (``integral``; one for a solo state).
    ``norms`` holds each slot's squared norm per batch row, indexed like
    ``data``.  Built, back(j) holds the past's velocity rate(-j dt) * u,
    and R is the trapezoid over slots 0..n_delay.  ``advance`` norms the
    rows pushed since its last call, at most n_delay of them, and carries
    R over their steps by the one-step recursion that trapezoid obeys,

        R_{j+1} = e^{-dt} R_j + (dt dx / 2) (y_{j+1} + e^{-dt} y_j
                  - e^{-N dt} y_{j+1-N} - e^{-(N+1) dt} y_{j-N}),

    N = n_delay and y_j the squared norm of the velocity at step j.  The
    increments are formed for the k steps at once, then R takes them one
    step at a time per row, so R at a step has the same bits however its
    steps were grouped into calls, chunks and advances, batched or not.
    """

    __slots__ = ("n_delay", "coeffs", "norms", "integral")

    def __init__(self, disc: Discretization, rate: Callable[[float], float], u: np.ndarray):
        self.n_delay = n = disc.n_delay
        dt = disc.dt
        super().__init__(n + 2, u.shape)
        rates = np.fromiter((rate(-j * dt) for j in range(n + 2)), float, n + 2)
        np.multiply.outer(rates, u, out=self.data)
        # dt dx / 2, e^{-dt}, e^{-N dt} and e^{-(N+1) dt}
        self.coeffs = (0.5 * dt * disc.dx, math.exp(-dt), math.exp(-n * dt),
                       math.exp(-(n + 1) * dt))
        # every einsum here reduces a row in the same order, so a slot's norm
        # is the same bits whichever call formed it, batched or not
        self.norms = np.einsum("i...j,i...j->i...", self.data, self.data)
        offsets = np.arange(n + 1)
        w = np.full(n + 1, dt)
        w[0] = w[-1] = 0.5 * dt
        # batch axes first, so each row's norms are contiguous; IEEE products commute
        y = np.take(self.norms.T, offsets, axis=-1) * disc.dx * np.exp(-dt * offsets)
        self.integral = np.vecdot(y, w).reshape(-1)

    @property
    def nbytes(self) -> int:
        """Allocated bytes: the padded slots and their norms."""
        return self.padded.nbytes + self.norms.nbytes

    def advance(self, k: int) -> list[list[float]]:
        """Norm the newest k <= n_delay rows, the pushes since the last
        advance, and carry R over their k steps.  Returns, per batch row, R
        after each of the steps, oldest first.

        With n the step of the last advance, the recursion reads y_n (slot
        k) and y_{n-N} .. y_{n+k-N} (slots N .. N + k, where k - 1 of them
        wrap onto the k new rows' slots).  Those slots' norms are not
        written until the new rows are normed, so they still hold the norms
        of the rows N + 2 steps older: k <= N keeps every one of them.
        """
        head, cap, norms = self.head, self.capacity, self.norms
        # y_{j-N} at the k + 1 steps j = n .. n + k, oldest first
        old, new = np.empty((2, k + 1) + norms.shape[1:])
        _load_run(norms, (head + self.n_delay) % cap, old[::-1])
        # the new rows' slots, one einsum, or two where they wrap
        for a, b in ((head, min(head + k, cap)), (0, head + k - cap)):
            if a < b:
                np.einsum("i...j,i...j->i...", self.data[a:b], self.data[a:b], out=norms[a:b])
        # y_n .. y_{n+k}, oldest first
        _load_run(norms, head, new[::-1])
        c, e, e_n, e_n1 = self.coeffs
        steps = c * (((new[1:] + e * new[:-1]) - e_n * old[1:]) - e_n1 * old[:-1])
        steps = steps.reshape(k, -1).T.tolist()
        for r, row in enumerate(steps):
            x = float(self.integral[r])
            steps[r] = [x := e * x + increment for increment in row]
            self.integral[r] = x
        return steps


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
    v_hist: DelayLine | None = None    # past u_t fields, with their norms and integral
    z_rho: np.ndarray | None = None    # (n_delay, nx) transported delay field
    ks: tuple[float, ...] | None = None  # each batch row's k; None for one row
    # per batch row (one for a solo state), the energy's delay factor
    # 0.5 theta |k| e^tau at the k it was built with, and which rows have a
    # delay term (k != 0 and tau > 0), None where all do; ``build`` forms both
    delay_factor: np.ndarray | float = 0.0
    delay_live: np.ndarray | None = None
    # the map step's plan of buffers (``_map_plan``)
    work: dict[str, np.ndarray | tuple] = field(default_factory=dict, repr=False,
                                                compare=False)

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

    def retire(self, rows: list[int]) -> None:
        """Zero batch ``rows``, their delay-line slots, norms and delay
        integral: a row that left the finite range goes on as the zero
        solution, which the other rows never read."""
        self.u[rows] = 0.0
        self.v[rows] = 0.0
        if self.q is not None:
            self.q[:, rows] = 0.0
        if self.v_hist is not None:
            self.v_hist.data[:, rows] = 0.0
            self.v_hist.norms[:, rows] = 0.0
            self.v_hist.integral[rows] = 0.0


class Span:
    """States of one run at its sample steps, kept as ``step`` passes them,
    so that ``energy.sample_state`` forms their samples together: eta a tile
    of up to ``tile_depth`` states at a time (``tiles``), every other term
    in one stacked pass.

    ``fields`` has room for the u, v and delayed velocity of ``depth``
    states, shape (3, depth) + batch + (nx + 2,): rows whose end columns are
    the Dirichlet zeros, the u rows of the kept states contiguous, so their
    gradient is one flat pass.  Only the interior is ever written.
    ``integral`` holds each kept state's delay integral per batch row
    (``DelayLine.integral``; 0 without a delay line), shape (depth, rows).
    ``steps`` and ``times`` hold the step index and time of each state kept
    since the last ``clear``, oldest first.  A call of ``step`` given a span
    keeps the state after each of its steps whose index is a multiple of
    ``every``, and after its last; the map path copies a chunk's kept
    states out of its block by one gather, their delayed velocities out
    of the delay line before the chunk's pushes, and sets their delay
    integrals when the line next advances (``settle``).  So no sample
    reads the delay line: only the displacement history is read at a kept
    state's ``lags``.  ``scratch`` hands out the memory the samples reuse:
    a run's span owns it, so it is not kept with the state, and its tiles
    share it.
    """

    __slots__ = ("fields", "integral", "every", "tile_depth", "steps", "times", "pool")

    def __init__(self, depth: int, row_shape: tuple[int, ...], every: int,
                 tile_depth: int | None = None):
        self.fields = np.zeros((3, depth) + row_shape[:-1] + (row_shape[-1] + 2,))
        self.integral = np.zeros((depth, math.prod(row_shape[:-1])))
        self.every = every
        self.tile_depth = depth if tile_depth is None else tile_depth
        self.steps: list[int] = []
        self.times: list[float] = []
        self.pool: dict[str, np.ndarray] = {}

    @classmethod
    def of(cls, state: SimState) -> "Span":
        """The state alone, at lag 0."""
        span = cls(1, state.u.shape, 1)
        span.keep(state)
        return span

    @property
    def u_padded(self) -> np.ndarray:
        return self.fields[0, :len(self.steps)]

    @property
    def u(self) -> np.ndarray:
        return self.fields[0, :len(self.steps), ..., 1:-1]

    @property
    def v(self) -> np.ndarray:
        return self.fields[1, :len(self.steps), ..., 1:-1]

    @property
    def delayed(self) -> np.ndarray:
        return self.fields[2, :len(self.steps), ..., 1:-1]

    def lags(self, state: SimState) -> np.ndarray:
        """How many steps before ``state`` each kept state was taken."""
        return state.step_index - np.array(self.steps, dtype=np.intp)

    def keep(self, state: SimState) -> None:
        """Keep the state as it is now."""
        i = len(self.steps)
        uvd = self.fields[:, i, ..., 1:-1]
        uvd[0] = state.u
        uvd[1] = state.v
        uvd[2] = _delayed_row(state)
        self.integral[i] = 0.0 if state.v_hist is None else state.v_hist.integral
        self.steps.append(state.step_index)
        self.times.append(state.t)

    def capture(self, block: np.ndarray, start: int, k: int, end: int, times: np.ndarray,
                line: DelayLine | None) -> None:
        """Keep the sample states among the k steps after step ``start`` of a
        call that ends at step ``end``: ``block[p]`` is (u, v) after step
        start + p, interior columns, and ``times[p]`` its time.  The delayed
        velocity of the state p steps in is the delay ``line``'s
        back(n_delay - p) before the chunk's pushes (v itself without a
        line); its delay integral is set by ``settle`` once the line has
        advanced over it."""
        first = (start // self.every + 1) * self.every
        p = list(range(first - start, k + 1, self.every))
        if start + k == end and end % self.every:
            p.append(k)
        if not p:
            return
        kept = len(self.steps)
        self.steps.extend(start + j for j in p)
        self.times.extend(times[p].tolist())
        p = np.array(p)
        fields = self.fields[:, kept:len(self.steps)]
        fields[:2, ..., 1:-1] = block[p].swapaxes(0, 1)
        if line is None:
            fields[2] = fields[1]
        else:
            # the slots are in range, so mode "clip" writes into the span directly
            line.padded.take((line.head + line.n_delay - p) % line.capacity, axis=0,
                             mode="clip", out=fields[2])

    def settle(self, start: int, integrals: list[list[float]]) -> None:
        """Set the delay integral of each state kept after step ``start``:
        ``integrals[r][j]`` is batch row r's after step start + 1 + j
        (``DelayLine.advance``)."""
        since = bisect.bisect_right(self.steps, start)
        if since < len(self.steps):
            cols = np.array(self.steps[since:]) - (start + 1)
            self.integral[since:len(self.steps)] = np.array(integrals)[:, cols].T

    def clear(self) -> None:
        self.steps.clear()
        self.times.clear()

    def tiles(self):
        """The kept states in runs of up to ``tile_depth``, oldest first, as
        (index of the run's first state, a span of those states alone): its
        fields are views of this span's, and it shares this span's scratch."""
        count = len(self.steps)
        for start in range(0, count, self.tile_depth):
            stop = min(start + self.tile_depth, count)
            tile = Span.__new__(Span)
            tile.fields, tile.every, tile.tile_depth = (self.fields[:, start:stop], self.every,
                                                        stop - start)
            tile.integral = self.integral[start:stop]
            tile.steps, tile.times = self.steps[start:stop], self.times[start:stop]
            tile.pool = self.pool
            yield start, tile

    def scratch(self, shape: tuple[int, ...], use: str) -> np.ndarray:
        """A float array of ``shape`` on memory reused for ``use``.

        A batch's sampling temporaries exceed malloc's mmap threshold, so
        fresh ones would cost new pages at every sample.  The memory grows
        to the largest shape asked for; what it holds is valid until the
        next call with the same ``use``.
        """
        size = math.prod(shape)
        buf = self.pool.get(use)
        if buf is None or buf.size < size:
            buf = self.pool[use] = np.empty(size)
        return buf[:size].reshape(shape)


def _steps_by_map(params: ModelParams, disc: Discretization) -> bool:
    """Whether ``build`` leaves no evolved eta or z field, so ``step`` uses the map."""
    eta = params.memory_realization == "eta_grid" and not params.kernel.is_empty
    z = params.delay_realization == "rho_grid" and disc.n_delay > 0
    return not (eta or z)


def build(params: ModelParams, init: InitialData, disc: Discretization,
          ks: list[float] | None = None, steps: int | None = None) -> SimState:
    """State at t = 0 with its history structures set from the prescribed past.

    The delay line and the evolved fields are filled; the displacement
    history stores phi alone, in one slot after its ring slots, and
    evaluates the past from it when it is read.  Given ``steps``, the
    number of steps the state will take, the displacement history has
    min(n_hist, steps) ring slots (at least 1), as a read from further
    back than the pushes is the past; without it, n_hist.  With
    ``ks`` the state is a batch of len(ks) copies, row r stepped with
    k = ks[r] (``params.k`` is not read).  Without it the fields are
    (nx,), and ``step`` and ``sample_state`` treat the state as a batch of
    one.  The delay line (``DelayLine``) has n_delay + 2 slots, filled from
    the past's velocity and normed, and its delay integral is the
    trapezoid over them.  Each row's delay factor of the energy is formed
    here, from ``params.theta``, its k and tau, for every sample to read.
    Both histories store rows nx + 2 wide (``RingBuffer.padded``), and a
    refusal to allocate one counts those bytes.
    """
    if disc.tau > 0.0 and params.tau <= 0.0:
        raise DelayUnresolvable("discretization carries a delay but params.tau is 0")
    if ks is not None and not ks:
        raise ValueError("a batch needs at least one k")
    if ks is not None and not _steps_by_map(params, disc):
        raise ValueError("the eta_grid and rho_grid realizations step one row at a time")
    refuse_stiff_damping(params, disc, ks)
    batch = () if ks is None else (len(ks),)
    x = _reserve(disc.x_interior, (disc.nx,), (), "the grid", f"nx={disc.nx} points",
                 "coarsen the grid", SolverError)
    phi = init.profile(x, params.length)
    u = np.broadcast_to(phi, batch + phi.shape).copy()
    v = u * init.history_rate(0.0)
    state = SimState(t=0.0, step_index=0, u=u, v=v, ks=None if ks is None else tuple(ks))
    k_abs = np.abs(params.k if ks is None else state.ks)
    with np.errstate(over="ignore"):  # an infinite factor is the sampler's to report
        state.delay_factor = 0.5 * (params.theta * k_abs * math.exp(disc.tau))
    live = (k_abs != 0.0) & (disc.tau > 0.0)
    state.delay_live = None if live.all() else live

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
                (capacity + 1,) + batch + (disc.nx + 2,), batch, "the displacement history",
                f"1 + {'n_hist' if capacity == disc.n_hist else 'steps'}={capacity} rows "
                f"x nx={disc.nx}", "raise the kernel rates, shorten T or coarsen the grid",
                HistoryTooLarge)
        else:
            state.eta = np.multiply.outer(
                [1.0 - init.history_factor(-s) for s in disc.s_nodes[1:]], phi
            )

    if disc.n_delay > 0:
        state.v_hist = vbuf = _reserve(
            lambda: DelayLine(disc, init.history_rate, u),
            (disc.n_delay + 2,) + batch + (disc.nx + 2,), batch, "the delay line",
            f"n_delay+2={disc.n_delay + 2} rows x nx={disc.nx}",
            "shorten the delay, raise cfl or coarsen the grid", HistoryTooLarge)
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


def _rhs(params: ModelParams, disc: Discretization, u: np.ndarray, v: np.ndarray,
         mem, z, vd: np.ndarray | None,
         lap: Callable[[np.ndarray, float], np.ndarray] = laplacian):
    """Stage derivative of (u, v, mem, z) given the stage's delayed velocity
    ``vd``, None where v (tau = 0) or z[-1] (``rho_grid``) is z(., 1).

    The one definition of the semi-discrete generator, reading no state:
    ``_rk4`` integrates it, ``_step_map`` runs it on polynomial fields with
    its own ``lap``, and ``dissipativity_spot_check`` takes its Rayleigh quotient.
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
        wmu = disc.kernel_on_grid.w_mu
        dv = lap((1.0 - mu_tilde) * u + wmu @ mem, disc.dx)
        gaps = np.diff(disc.s_nodes)
        upwind = mem.copy()
        upwind[1:] -= mem[:-1]
        dmem = v[None, :] - upwind / gaps[:, None]

    if params.k != 0.0:
        dv = dv - params.k * (vd if vd is not None else (v if z is None else z[-1]))
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


def _delay_stages(old: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, ...]:
    """The delayed velocity at RK4's stage offsets c = 0, 1/2, 1 from the delay-line
    rows old = v(t - tau) and new = v(t - tau + dt): the one statement of the
    rule, with the arithmetic of ``RingBuffer.back_interp(n_delay - c)``."""
    return old, new + 0.5 * (old - new), new


def _rk4(params: ModelParams, disc: Discretization, x0: tuple, delay: tuple | None,
         lap: Callable[[np.ndarray, float], np.ndarray] = laplacian) -> tuple:
    """One classical RK4 step of x0 = (u, v, mem, z) by four ``_rhs`` stages, to the
    new (u, v, mem, z); ``delay`` is ``_delay_stages``'s (old, new), or None."""
    vd0, vd_half, vd1 = (None,) * 3 if delay is None else _delay_stages(*delay)
    slopes = [_rhs(params, disc, *x0, vd0, lap)]
    for h, vd in ((0.5 * disc.dt, vd_half), (0.5 * disc.dt, vd_half), (disc.dt, vd1)):
        x = (None if y is None else y + h * d for y, d in zip(x0, slopes[-1]))
        slopes.append(_rhs(params, disc, *x, vd, lap))
    w = disc.dt / 6.0
    return tuple(None if y is None else y + w * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                 for y, d1, d2, d3, d4 in zip(x0, *slopes))


def _non_finite_rows(u: np.ndarray, v: np.ndarray) -> list[int]:
    """The batch rows (row 0 of a solo state) with a non-finite entry in u or v."""
    finite = np.isfinite(u).all(axis=-1) & np.isfinite(v).all(axis=-1)
    return np.flatnonzero(~finite).tolist()


# a blowing-up state overflows to inf/nan, which the finiteness check catches
@np.errstate(over="ignore", invalid="ignore")
def _step_by_stages(state: SimState, params: ModelParams, disc: Discretization,
                    n: int, span: Span | None = None) -> None:
    """``n`` ``_rk4`` steps of the state's own fields, each pushed and checked
    for finiteness on its own, and kept in ``span`` by its rule: the path of
    the evolved eta and z fields and the map's reference."""
    hist = state.v_hist if state.z_rho is None else None
    end = state.step_index + n
    for _ in range(n):
        delay = None if hist is None else (hist.back(disc.n_delay),
                                           hist.back(disc.n_delay - 1))
        x0 = (state.u, state.v, state.eta if state.q is None else state.q, state.z_rho)
        state.u, state.v, mem, state.z_rho = _rk4(params, disc, x0, delay)
        if state.q is None:
            state.eta = mem
        else:
            state.q = mem
        state.t += disc.dt
        state.step_index += 1
        if state.u_hist is not None:
            state.u_hist.push(state.u)
        if state.v_hist is not None:
            state.v_hist.push(state.v)
            state.v_hist.advance(1)
        bad = _non_finite_rows(state.u, state.v)
        if bad:
            raise NonFinite(state.step_index, None if state.ks is None else bad)
        if span is not None and (state.step_index % span.every == 0
                                 or state.step_index == end):
            span.keep(state)


def _step_map(params: ModelParams, disc: Discretization) -> np.ndarray:
    """One RK4 step without eta or z fields, as the map C0 + C1 L + C2 L^2.

    The map takes X = [u; v; q_1..q_m; v(t - tau); v(t - tau + dt)] (the
    delay rows only when k != 0 and tau > 0) to the next [u; v; q].  It is
    ``_rk4`` run on fields that are polynomials in D = dx^2 L: each field
    is a row of five blocks, the coefficients of D^0 .. D^4 acting on X, and
    the Laplacian moves a row up one block and divides it by dx^2.  The two
    delay inputs are unit rows, as ``_delay_stages`` reads them, and at
    tau = 0 ``_rhs`` folds -k v itself.  The generator is G0 + L G1 with
    scalar blocks; G1 maps u and q into the v row and reads no v, so
    G1 G1 = 0 and four stages reach at most L^2.  Returns C0, C1 / dx^2 and
    C2 / dx^4 stacked by rows, shape (3 (2 + m), rows of X), read-only.
    """
    nw = 2 + params.kernel.amplitudes.size
    delayed = params.k != 0.0 and disc.n_delay > 0
    n_in = nw + (2 if delayed else 0)
    unit = np.eye(n_in, 5 * n_in)  # row i: input i at degree 0

    def raise_degree(w: np.ndarray, dx: float) -> np.ndarray:
        out = np.zeros(w.shape)
        out[..., n_in:] = w[..., :-n_in] / (dx * dx)
        return out

    u, v, q, _ = _rk4(params, disc, (unit[0], unit[1], unit[2:nw] if nw > 2 else None, None),
                      (unit[nw], unit[nw + 1]) if delayed else None, raise_degree)
    fields = np.vstack([u, v] + ([] if q is None else [q]))
    coeffs = fields.reshape(nw, 5, n_in)[:, :3].swapaxes(0, 1).reshape(3 * nw, n_in)
    coeffs.flags.writeable = False
    return coeffs


def _stacked_maps(params: ModelParams, disc: Discretization,
                  ks: tuple[float, ...]) -> np.ndarray:
    """``_step_map`` of each row k in ``ks``, stacked, shape (R, 3 (2 + m), n_in).

    A row without delay inputs (k = 0) gets zero columns for them when
    another row has them.  Read-only.
    """
    maps = [_step_map(replace(params, k=k), disc) for k in ks]
    stacked = np.zeros((len(maps), maps[0].shape[0], max(c.shape[1] for c in maps)))
    for out, coeffs in zip(stacked, maps):
        out[:, :coeffs.shape[1]] = coeffs
    stacked.flags.writeable = False
    return stacked


def _chunk_bound(coeffs: np.ndarray, state: SimState, disc: Discretization) -> int:
    """The most steps one chunk of map steps takes: as many as the block of
    their inputs X fits in CHUNK_BYTES; with a delay line, at most n_delay,
    so no step of a chunk reads a delay-line slot that the chunk pushes and
    a chunk fits in one window of the delay integral's advance
    (``DelayLine.advance`` takes at most n_delay pushed rows); and at most
    the displacement history's capacity, so a chunk's pushes fill distinct
    slots."""
    n_in = coeffs.shape[-1]
    bounds = [CHUNK_BYTES // (8 * n_in * math.prod(state.u.shape[:-1]) * (disc.nx + 2))]
    bounds += [disc.n_delay] if state.v_hist is not None else []
    bounds += [state.u_hist.capacity] if state.u_hist is not None else []
    return max(1, min(bounds))


def _map_plan(params: ModelParams, state: SimState, disc: Discretization) -> tuple:
    """The map of a state's steps under ``params`` on ``disc`` and the memory
    they reuse, none of it handed out, for chunks of up to K =
    ``_chunk_bound`` steps.

    Every row is nx + 2 wide, its end columns the Dirichlet zeros, so a
    second difference adds each neighbour by one flat add over a whole
    contiguous block.  The block, (K + 1, n_in) + batch + (nx + 2,), holds
    step j's X in row j: the output [u; v; q] of step j - 1, then step j's
    delay inputs, so a chunk's k outputs are rows 1..k.  The matmul forms
    only the interior of the products C0 X, C1 X, C2 X, so the end columns
    of C0 X and C2 X stay -0.0.  It reads X as (n_in, nx) and writes the
    products as (3 (2 + m), nx) for a solo state, whose map is 2-D; a
    batch of R rows, its maps stacked, has them as (R, n_in, nx) and
    (R, 3 (2 + m), nx).

    The plan holds ``params``, ``disc``, the map (``_stacked_maps`` at the
    state's ``ks`` for a batch) and K; the [u; v; q] of every row of the
    block, the interior u, v and q of its first row, and the interior
    delay inputs of every row (None without them); per step j of a chunk,
    X as the matmul reads it and row j + 1's [u; v; q] flat, and shifted by
    one entry either way; the products as the matmul writes them, the 2 w
    of a second difference, the three products flat, C1 X and C2 X shifted
    either way, the end columns of C1 X, and the interior u and v of every
    row, where a ``Span`` finds a chunk's states.
    """
    coeffs = (_step_map(params, disc) if state.ks is None
              else _stacked_maps(params, disc, state.ks))
    n_out, n_in = coeffs.shape[-2:]
    nw = n_out // 3
    width = disc.nx + 2
    batch = state.u.shape[:-1]
    bound = _chunk_bound(coeffs, state, disc)
    block = np.full((bound + 1, n_in) + batch + (width,), -0.0)
    inner = block[..., 1:-1]
    outs = block[:, :nw]
    steps = [(np.moveaxis(x, 0, -2)[..., 1:-1], out, out[1:], out[:-1])
             for x, out in zip(block, (y.reshape(-1) for y in outs[1:]))]
    products = np.full((3, nw) + batch + (width,), -0.0)
    c0, c1, c2 = (level.reshape(-1) for level in products)
    return (params, disc, coeffs, bound, outs, inner[0, 0], inner[0, 1],
            inner[0, 2:nw] if nw > 2 else None, inner[:, nw:] if n_in > nw else None, steps,
            np.moveaxis(products.reshape((n_out,) + batch + (width,)), 0, -2)[..., 1:-1],
            np.empty(c1.shape), c0, c1, c2, c1[1:], c1[:-1], c2[:-1], c2[1:],
            products[1, ..., ::width - 1], inner[:, :2])


# as on the stage path, overflow to inf/nan is left to the finiteness screen
@np.errstate(over="ignore", invalid="ignore")
def _step_by_map(state: SimState, params: ModelParams, disc: Discretization,
                 n: int, span: Span | None = None) -> None:
    """``n`` map steps in chunks of up to K, chained through the block of the
    state's plan (``_map_plan``, rebuilt when ``params`` or ``disc`` is
    another object): step j of a chunk writes block row j + 1, and the
    chunk's last row is copied into row 0 for the next.  Per chunk, the
    delay inputs are copied in, one sum of squares of the last row screens
    the chunk, the ``span``'s states among its steps are copied out of the
    block and its u and v rows are pushed.  Where the sum is not finite,
    the first row whose u or v holds a non-finite entry (``_non_finite_rows``)
    ends the call there, its rows pushed and the states before it kept; with
    no such row the chunk is kept whole.  The delay line's integral is
    carried over the pushed steps (``_carry``) at the end of the call, before
    it raises ``NonFinite``, and before a chunk that would take the steps
    pushed since the last advance past n_delay.  The state's fields become
    interior views of a fresh copy of the last row.  The call's step times
    are one running sum of dt from ``state.t``.  It takes the arguments of
    ``_step_by_stages``, so ``step`` calls either alike.
    """
    if n < 1:
        return
    plan = state.work.get("map_plan")
    if plan is None or plan[0] is not params or plan[1] is not disc:
        plan = state.work["map_plan"] = _map_plan(params, state, disc)
    (_, _, coeffs, bound, outs, x_u, x_v, x_q, delayed, steps, products, twice, c0, c1, c2,
     c1_hi, c1_lo, c2_lo, c2_hi, c1_ends, states) = plan
    origin = carried = state.step_index
    end = origin + n
    # times[j] is the time after step origin + j, each dt added as a step adds it
    times = np.full(n + 1, disc.dt)
    times[0] = state.t
    np.add.accumulate(times, out=times)
    u_hist, v_hist = state.u_hist, state.v_hist
    # a step is ten calls on a few thousand entries, whose cost is the call:
    # bound once, each output passed by position, not as ``out=``
    matmul, subtract, add, fill_ends = np.matmul, np.subtract, np.add, c1_ends.fill
    x_u[...] = state.u
    x_v[...] = state.v
    if x_q is not None:
        x_q[...] = state.q
    left = n
    while True:
        k = min(left, bound)
        if v_hist is not None and state.step_index + k - carried > v_hist.n_delay:
            _carry(v_hist, carried, state.step_index, span)
            carried = state.step_index
        if delayed is not None:
            # step j's delay inputs v(t - tau), v(t - tau + dt) are
            # back(n_delay - j) and back(n_delay - 1 - j) as the chunk begins
            v_hist.copy_rows(v_hist.n_delay + 1 - k, delayed[k - 1::-1, 0])
            v_hist.copy_rows(v_hist.n_delay - k, delayed[k - 1::-1, 1])
        for x, out, out_hi, out_lo in steps[:k]:
            # each row's X multiplied by its own map; a column of X reaches only
            # the same column of the products, so only the interior is formed
            matmul(coeffs, x, products)
            # Horner, C0 X + L (C1 X + L C2 X), each level (t - 2 w) + w[i-1] +
            # w[i+1] as ``_add_second_difference`` forms it.  2 w is w + w: both
            # round the exact 2 w once, so they agree on every double, inf, nan
            # and signed zero.  The end columns a level adds are -0.0, which
            # added to any double, -0.0 too, leaves it as no add at all would;
            # C2 X's stay so from the plan on.
            subtract(c1, add(c2, c2, twice), c1)
            add(c1_hi, c2_lo, c1_hi)
            add(c1_lo, c2_hi, c1_lo)
            fill_ends(-0.0)
            subtract(c0, add(c1, c1, twice), out)
            add(out_hi, c1_lo, out_hi)
            add(out_lo, c1_hi, out_lo)
        # a non-finite entry of any step's [u; v; q] leaves its entry of every
        # later step non-finite (the map's diagonal is 1 on u and RK4's
        # stability polynomial, which has no real root, on v and q), so the
        # last step's outputs, ``out``, screen the chunk: their sum of squares
        # is finite when every entry is, unless huge finite entries overflow
        # it.  einsum's own loop, not BLAS: OpenBLAS threads a long ddot, and
        # its threads would compete with a sweep's worker processes for the
        # cores
        bad = []
        if not math.isfinite(np.einsum("i,i->", out, out)):
            # the first step whose u or v is not finite ends the call; with
            # none (a non-finite q alone, or an overflowing sum) the chunk is kept
            for j in range(1, k + 1):
                bad = _non_finite_rows(*states[j])
                if bad:
                    k = j
                    break
        if span is not None:
            span.capture(states, state.step_index, k - 1 if bad else k, end,
                         times[state.step_index - origin:], v_hist)
        if u_hist is not None:
            u_hist.push_rows(states[k:0:-1, 0])
        if v_hist is not None:
            v_hist.push_rows(states[k:0:-1, 1])
        state.step_index += k
        left -= k
        if bad or not left:
            break
        outs[0] = outs[k]
    state.t = float(times[state.step_index - origin])
    fields = outs[k].copy()
    state.u, state.v = fields[0, ..., 1:-1], fields[1, ..., 1:-1]
    if x_q is not None:
        state.q = fields[2:, ..., 1:-1]
    if v_hist is not None:
        _carry(v_hist, carried, state.step_index, span)
    if bad:
        raise NonFinite(state.step_index, None if state.ks is None else bad)


def _carry(line: DelayLine, start: int, stop: int, span: Span | None) -> None:
    """Advance the delay ``line`` over the steps after ``start`` up to ``stop``,
    pushed, and set the delay integral of the ``span``'s states among them."""
    integrals = line.advance(stop - start)
    if span is not None:
        span.settle(start, integrals)


def step(state: SimState, params: ModelParams, disc: Discretization, n: int = 1,
         span: Span | None = None) -> SimState:
    """Advance ``n`` steps of dt by the classical 4-stage explicit scheme (in place).

    A state with no evolved eta or z fields advances by ``_step_map``, kept
    in the state's plan, in chunks of up to ``_chunk_bound`` steps
    (``_step_by_map``): the delay inputs, the history pushes and the
    finiteness screen are done once per chunk, the screen on the chunk's
    last outputs alone, as a non-finite entry stays so through every later
    step; where its sum of squares is not finite, the chunk's rows are
    checked one by one.  The ``eta_grid`` and ``rho_grid`` realizations run
    the four ``_rhs`` stages and the check step by step.  Each step does
    the same arithmetic whatever ``n`` is, so a call leaves the bits of
    ``n`` calls of one step.
    The fields a call leaves in the state are fresh arrays that later calls
    do not write.  A step whose u or v holds a non-finite entry raises
    ``NonFinite``, the state left at that step, pushed; for a batch it names
    the rows that went non-finite, and the others have advanced.  Given a
    ``Span``, the call keeps the state after each of its steps whose index
    is a multiple of ``span.every`` and after its last (not after a step
    that raises): on the map path by one gather per chunk out of the
    chunk's block.
    """
    advance = _step_by_map if _steps_by_map(params, disc) else _step_by_stages
    advance(state, params, disc, n, span)
    return state


def delayed_velocity(state: SimState, params: ModelParams, disc: Discretization) -> np.ndarray:
    """z(., 1, t) at a whole-step time: z[-1] (``rho_grid``), delay-line slot
    n_delay, or v (tau = 0).  A ``Span`` keeps it for each of its states."""
    return _delayed_row(state)


def _delayed_row(state: SimState) -> np.ndarray:
    """``delayed_velocity``: the state's fields tell its realization."""
    if state.z_rho is not None:
        return state.z_rho[-1]
    return state.v if state.v_hist is None else state.v_hist.back(state.v_hist.n_delay)


def _distinct_eta_rows(state: SimState, params: ModelParams, disc: Discretization) -> int:
    """How many leading rows of ``eta_field`` can differ; every later row
    repeats the last of them.

    With a frozen past, every row from the first whose newer slot reaches
    back past the pushes reads phi alone and is u - phi.  A modulated past
    or an evolved eta has ns - 1 distinct rows.  A state kept by a ``Span``
    saw fewer pushes, so the count at the current state bounds theirs.
    """
    hist = state.u_hist
    if hist is None or hist.past is None or hist.factor is not None:
        return disc.ns - 1
    return _frozen_distinct_rows(disc, hist.pushed)


def _frozen_distinct_rows(disc: Discretization, pushed: int) -> int:
    """``_distinct_eta_rows`` of a frozen past after ``pushed`` pushes."""
    return min(int(np.searchsorted(disc.node_steps[0], pushed)) + 1, disc.ns - 1)


def eta_field(state: SimState, params: ModelParams, disc: Discretization,
              out: np.ndarray | None = None, rows: int | None = None,
              span: Span | None = None) -> np.ndarray:
    """History field eta(x, s_j) on the interior s-nodes, shape (ns-1, nx),
    or (ns-1, R, nx) for a batch.  Given ``rows``, only the first ``rows``
    s-nodes, each row bitwise as in the full field.  Given ``span``, the
    field of each of its S states, stacked (S, ns-1) + ..., each bitwise as
    at its own step.  The field is formed on rows nx + 2 wide with +0.0 end
    columns, in ``out`` when given (contiguous, those rows); the interior
    view is returned.

    For the prony_modes realization this is the exact characteristics
    solution eta(s) = u(t) - u(t - s) read off the u ring buffer, by one
    gather per neighbour of the padded rows of every s-node at every state,
    a read from before t = 0 reading phi's slot (``back_interp_rows`` at
    the grid's ``node_steps``, each state's lag further back), then one
    subtraction from the span's padded u rows;
    for eta_grid it is the evolved array itself, copied in, at the state's
    own step only.  Which rows read stored slots and which the past is
    known to this module alone: ``_distinct_eta_rows`` tells a caller how
    many differ.
    """
    one = span is None
    if one:
        span = Span.of(state)
        out = None if out is None else out[None]
    lags = span.lags(state)
    m = 0 if params.kernel.is_empty else disc.ns - 1
    if rows is not None:
        m = min(m, rows)
    shape = (lags.size, m) + state.u.shape[:-1] + (disc.nx + 2,)
    eta = np.empty(shape) if out is None else out
    if state.eta is not None and m:
        if lags.any():
            raise ValueError("an evolved eta is at the state's own step only")
        eta[0, ..., 1:-1] = state.eta[:m]
        eta[..., ::disc.nx + 1] = 0.0  # ``out``'s end columns may hold anything
    elif m:
        newer, older, frac = (arr[:m] for arr in disc.node_steps)
        u_past = state.u_hist.back_interp_rows(newer, older, frac, lags, eta,
                                               span.scratch(shape, "work"))
        # the span's u rows end in +0.0, and +0.0 minus either zero is +0.0
        np.subtract(span.u_padded[:, None], u_past, out=eta)
    eta = eta[..., 1:-1]
    return eta[0] if one else eta


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


@dataclass(frozen=True)
class RunPlan:
    """How ``run`` sizes a run, formed before anything is allocated: its
    ``n_steps`` steps, sampled every ``every`` into a table of
    ``sample_rows`` rows, in spans of up to ``span_depth`` sample intervals
    S, one ``step`` call each, whose samples form eta in tiles of up to
    ``tile_depth`` states T, of ``eta_rows`` rows each."""

    n_steps: int
    every: int
    sample_rows: int
    span_depth: int
    tile_depth: int
    eta_rows: int

    @classmethod
    def of(cls, params: ModelParams, init: InitialData, disc: Discretization,
           horizon: float, sample_every: int = 0, snapshots: bool = False,
           batch: tuple[int, ...] = ()) -> "RunPlan":
        """The plan of ``run`` for these arguments and a batch of ``batch`` rows.

        ``sample_every = 0`` picks a cadence of about 1000 samples.  A sample
        forms the ``_distinct_eta_rows`` of the last step, or all ns - 1 for a
        snapshot.  A span holds one interval on the grid realizations, whose
        evolved fields exist at the current step only, and where the
        displacement history is shorter than the run, whose slots a lagged
        read could find overwritten.  SPAN_BYTES, read at each call, bounds
        both depths: T states' u and v and eta rows and their gradient fit in
        it, and S states' u, v and delayed velocity and the gradient of u in
        half of it, with S >= T, as a span is one or more tiles.
        """
        n_steps = int(round(_steps_in(horizon, disc.dt, "T", "shorten T or raise cfl")))
        every = sample_every if sample_every > 0 else max(1, n_steps // 1000)
        if params.kernel.is_empty:
            eta_rows = 0
        elif init.history == "frozen" and not snapshots:
            eta_rows = _frozen_distinct_rows(disc, n_steps)
        else:
            eta_rows = disc.ns - 1
        if not _steps_by_map(params, disc) or (
                not params.kernel.is_empty and disc.n_hist < n_steps):
            intervals = 1
        else:
            intervals = -(-n_steps // every)
        row = 8 * math.prod(batch) * (disc.nx + 2)
        tile = max(1, min(SPAN_BYTES // row // (2 * eta_rows + 2), intervals))
        depth = max(tile, min(SPAN_BYTES // 2 // (4 * row), intervals))
        return cls(n_steps, every, 2 + n_steps // every, depth, tile, eta_rows)


def run(params: ModelParams, init: InitialData, disc: Discretization,
        horizon: float, sample_every: int = 0, snapshots: bool = False,
        ks: list[float] | None = None) -> Trace | list[Trace]:
    """Integrate to ``horizon`` sampling the energy every ``sample_every`` steps.

    ``sample_every = 0`` picks a cadence of about 1000 samples.  A
    non-finite state aborts the run; the partial trace is still returned
    with ``aborted_step`` set.

    The run goes in spans of S sample intervals (``RunPlan``), one
    ``step`` call each: the call keeps the span's sample states in a
    ``Span``, and one ``sample_state`` call forms all their samples, eta in
    tiles of T states and every other term once per span.

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
        if not ks:
            raise ValueError("a batch needs at least one k")
        rows = [replace(params, k=k) for k in ks]
        if snapshots:
            raise ValueError("snapshots are kept for solo runs only, not for a batch")
        if not _steps_by_map(params, disc):
            # the grid realizations step their fields through _rhs, one k at a time
            return [run(row, init, disc, horizon, sample_every) for row in rows]
    batch = () if ks is None else (len(ks),)
    plan = RunPlan.of(params, init, disc, horizon, sample_every, snapshots, batch)
    state = build(params, init, disc, ks=ks, steps=plan.n_steps)
    span = Span(plan.span_depth, state.u.shape, plan.every, plan.tile_depth)
    # the memory of a full tile's largest eta from the start, so it never grows
    eta_shape = (plan.tile_depth, plan.eta_rows) + batch + (disc.nx + 2,)
    span.scratch(eta_shape, "eta")
    span.scratch(eta_shape, "work")
    times = []
    # per sample the SAMPLE_TERMS, then the batch axis
    shape = (plan.sample_rows, len(SAMPLE_TERMS)) + batch
    cols = _reserve(lambda: np.empty(shape), shape, batch, "the sample table",
                    f"{shape[0]} rows x {shape[1]} terms", "raise sample_every or shorten T",
                    SolverError)
    snaps = []

    def take_samples():
        count = len(span.steps)
        if not count:
            return
        # a snapshot's two moments come from its sample's eta, formed once
        moments = [] if snapshots else None
        r = sample_state(state, params, disc, moments, span=span)
        for i, name in enumerate(SAMPLE_TERMS):
            cols[len(times):len(times) + count, i] = getattr(r, name)
        times.extend(span.times)
        if snapshots:
            for i, (t, (mu_eta, mu_prime_eta)) in enumerate(zip(span.times, moments)):
                snaps.append(Snapshot(
                    t=t, u=span.u[i].copy(), v=span.v[i].copy(),
                    v_delayed=span.delayed[i].copy(),
                    int_mu_eta=mu_eta, int_mu_prime_eta=mu_prime_eta,
                ))
        span.clear()

    span.keep(state)
    take_samples()
    # per row: the step it aborted at, and how many samples it kept
    aborted = [None] * (1 if ks is None else len(ks))
    kept = [None] * len(aborted)
    # one step call per span, spans on a grid of depth intervals, and one more
    # call to finish a span where rows went non-finite and others live on
    span_steps = plan.span_depth * plan.every
    while state.step_index < plan.n_steps:
        end = min((state.step_index // span_steps + 1) * span_steps, plan.n_steps)
        try:
            step(state, params, disc, end - state.step_index, span=span)
        except NonFinite as err:
            # the states before the abort, sampled before retire zeroes the
            # aborted rows' delay line
            take_samples()
            for r in err.rows or [0]:
                aborted[r], kept[r] = err.step_index, len(times)
            if None not in aborted:
                break
            state.retire(err.rows)
            if state.step_index % plan.every == 0 or state.step_index == plan.n_steps:
                span.keep(state)
        take_samples()

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
    wmu = disc.kernel_on_grid.w_mu if use_eta else None
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
        quotient = pairing(*_rhs(grid, disc, *x, None), *x) / pairing(*x, *x)
        worst = max(worst, quotient)
    return SpotCheckReport(
        max_quotient=worst, c_shift=c_shift, trials=trials, passed=worst <= c_shift
    )
