import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from viscodelay import solver
from viscodelay.energy import sample_state
from viscodelay.kernel import MemoryKernel, quadrature_weights
from viscodelay.solver import (
    CflViolation,
    DelayUnresolvable,
    HistoryTooLarge,
    InitialData,
    ModelParams,
    NonFinite,
    SolverError,
    build,
    delayed_velocity,
    discretize,
    dissipativity_spot_check,
    eta_field,
    geometric_s_grid,
    run,
    step,
)

KERNEL = MemoryKernel.from_terms([(1.0, 2.0)])


def advance(state, params, disc, horizon):
    for _ in range(int(round(horizon / disc.dt))):
        step(state, params, disc)
    return state


# -- discretization ---------------------------------------------------------------

def test_geometric_grid_shape():
    nodes = geometric_s_grid(9.2, 64, 0.005)
    assert nodes[0] == 0.0
    assert nodes[-1] == 9.2
    gaps = np.diff(nodes)
    assert np.all(gaps > 0.0)
    assert np.all(np.diff(gaps) > -1e-15)          # non-decreasing spacing
    assert gaps[0] == pytest.approx(0.005, rel=1e-9)
    assert np.all(gaps[1:] / gaps[:-1] <= 1.15 + 1e-12)


def test_geometric_grid_uniform_fallback():
    nodes = geometric_s_grid(0.1, 11, 0.05)
    np.testing.assert_allclose(nodes, np.linspace(0.0, 0.1, 11), rtol=1e-14)


def test_geometric_grid_ratio_cap_widens_first_interval():
    # too few nodes to span s_max from the requested first interval at the
    # capped ratio: the first interval widens, the cap holds
    nodes = geometric_s_grid(9.21, 8, 0.005, max_ratio=1.15)
    gaps = np.diff(nodes)
    assert nodes[-1] == 9.21
    assert gaps[0] > 0.005
    np.testing.assert_allclose(gaps[1:] / gaps[:-1], 1.15, rtol=1e-9)


def test_tau_snapping():
    params = ModelParams(tau=0.333, kernel=KERNEL)
    disc = discretize(params, nx=200)
    assert abs(disc.n_delay * disc.dt - 0.333) <= disc.dt / 2
    assert disc.tau == disc.n_delay * disc.dt


def test_cfl_guard():
    with pytest.raises(CflViolation):
        discretize(ModelParams(), cfl=0.6)
    with pytest.raises(CflViolation):
        discretize(ModelParams(), cfl=0.0)


def test_stiff_velocity_damping_refused_by_build_for_each_row():
    # dt*k = 3.049 at nx = 40 and tau = 0, where the delay folds to -k v: RK4
    # cannot resolve that decay. The grid does not depend on k, so discretize
    # accepts it, and a batch is refused for its own rows' k only.
    params = ModelParams(tau=0.0, k=500.0)
    disc = discretize(params, nx=40)
    with pytest.raises(CflViolation, match=r"dt\*d\(k=500\) = 3\.049 exceeds .* 2\.785"):
        run(params, InitialData(), disc, 1.0)
    with pytest.raises(CflViolation, match=r"dt\*d\(k=1000\) = 6\.098"):
        build(params, InitialData(), disc, ks=[1.0, 100.0, 1000.0])
    traces = run(params, InitialData(), disc, 1.0, ks=[1.0, 100.0])
    assert [trace.aborted_step for trace in traces] == [None, None]


def test_delay_unresolvable():
    params = ModelParams(tau=1e-5, kernel=KERNEL)
    with pytest.raises(DelayUnresolvable):
        discretize(params, nx=50)


# -- build -------------------------------------------------------------------------

def test_frozen_history_kills_history_terms():
    params = ModelParams(tau=0.5, k=0.1, kernel=KERNEL)
    disc = discretize(params, nx=60)
    state = build(params, InitialData(history="frozen"), disc)
    assert np.all(eta_field(state, params, disc) == 0.0)
    assert np.all(state.v_hist.data == 0.0)
    assert np.all(state.v == 0.0)


def test_modulated_history_closed_forms():
    omega = 2.0
    init = InitialData(history="modulated", omega=omega)
    params = ModelParams(tau=0.5, k=0.1, kernel=KERNEL)
    disc = discretize(params, nx=60)
    state = build(params, init, disc)
    x = disc.x_interior()
    phi = np.sin(np.pi * x)
    # velocity history slots: d/dt [phi cos(omega t)] at t = -j dt
    for j in (0, 1, 5, disc.n_delay):
        expected = phi * omega * math.sin(omega * j * disc.dt)
        np.testing.assert_allclose(state.v_hist.back(j), expected, atol=1e-14)
    # memory modes: phi * b / (b^2 + omega^2)
    np.testing.assert_allclose(state.q[0], phi * 2.0 / (4.0 + omega ** 2), rtol=1e-14)
    # history field eta(s) = phi (1 - cos(omega s)); the reconstruction
    # interpolates the stored past linearly, an O((omega dt)^2) error
    eta = eta_field(state, params, disc)
    s_inner = disc.s_nodes[1:]
    interp_tol = (omega * disc.dt) ** 2
    for row in (0, 10, len(s_inner) - 1):
        expected = phi * (1.0 - math.cos(omega * s_inner[row]))
        np.testing.assert_allclose(eta[row], expected, atol=interp_tol)


def test_eta_grid_initialization_matches_reconstruction():
    init = InitialData(history="modulated", omega=1.3)
    pa = ModelParams(kernel=KERNEL, memory_realization="prony_modes")
    pb = ModelParams(kernel=KERNEL, memory_realization="eta_grid")
    disc = discretize(pa, nx=40, ns=24)
    sa = build(pa, init, disc)
    sb = build(pb, init, disc)
    np.testing.assert_allclose(
        eta_field(sa, pa, disc), eta_field(sb, pb, disc),
        atol=(1.3 * disc.dt) ** 2,
    )


def test_zero_state_is_equilibrium():
    params = ModelParams(tau=0.5, k=-0.3, theta=2.0, kernel=KERNEL, mode="auxiliary")
    disc = discretize(params, nx=40)
    state = build(params, InitialData(shape="zero"), disc)
    advance(state, params, disc, 0.2)
    assert np.all(state.u == 0.0)
    assert np.all(state.v == 0.0)
    assert np.all(state.q == 0.0)


@pytest.mark.parametrize("term", [(1e-8, 1e-7), (1e-12, 1e-11)])
def test_unmappable_history_is_refused_with_its_size(term):
    # (1e-8, 1e-7): n_hist = 737 564 056 990 rows x nx = 1000, 5.24 PiB, beyond
    # a 47-bit address space, so the reservation fails at once under any
    # overcommit mode; (1e-12, 1e-11): more bytes than numpy can index
    params = ModelParams(kernel=MemoryKernel.from_terms([term]))
    disc = discretize(params, nx=1000)
    with pytest.raises(HistoryTooLarge) as err:
        build(params, InitialData(), disc)
    assert isinstance(err.value, SolverError)
    message = str(err.value)
    assert f"n_hist={disc.n_hist}" in message and "nx=1000" in message
    assert f"{8 * (disc.n_hist + 1) * 1002} bytes" in message


@pytest.mark.parametrize("horizon", [1.0, 10.0])  # 84 and 840 steps; n_hist = 776
def test_history_is_sized_to_the_run(horizon):
    params = ModelParams(tau=0.3, k=0.05, kernel=KERNEL)
    init = InitialData(shape="gaussian", history="modulated", omega=2.0)
    disc = discretize(params, nx=20)
    n_steps = int(round(horizon / disc.dt))
    sized = run(params, init, disc, horizon).final_state
    assert sized.u_hist.capacity == min(disc.n_hist, n_steps)
    # a history of all n_hist rows reads the same bits
    full = advance(build(params, init, disc), params, disc, horizon)
    assert full.u_hist.capacity == disc.n_hist
    assert np.array_equal(eta_field(sized, params, disc), eta_field(full, params, disc))
    assert sample_state(sized, params, disc) == sample_state(full, params, disc)


# -- step invariants ----------------------------------------------------------------

def test_boundary_values_stay_zero():
    params = ModelParams(tau=0.3, k=0.05, kernel=KERNEL)
    disc = discretize(params, nx=50)
    state = build(params, InitialData(), disc)
    advance(state, params, disc, 1.0)
    full_u = state.full_grid(state.u)
    full_v = state.full_grid(state.v)
    assert full_u[0] == 0.0 and full_u[-1] == 0.0
    assert full_v[0] == 0.0 and full_v[-1] == 0.0


def test_eta_inflow_stays_zero():
    params = ModelParams(kernel=KERNEL)
    disc = discretize(params, nx=50)
    state = build(params, InitialData(), disc)
    advance(state, params, disc, 1.0)
    # node s = 0: u(t) - u(t - 0) from the newest history slot, bitwise zero
    assert np.all(state.u - state.u_hist.back(0) == 0.0)


def test_delay_lookup_bit_identical():
    params = ModelParams(tau=0.5, k=0.1, kernel=KERNEL)
    disc = discretize(params, nx=30)
    state = build(params, InitialData(history="modulated", omega=2.0), disc)
    stored = []
    for _ in range(disc.n_delay + 5):
        stored.append(state.v.copy())
        step(state, params, disc)
    expected = stored[len(stored) - disc.n_delay]
    assert np.array_equal(delayed_velocity(state, params, disc), expected)


def test_pure_wave_matches_exact_solution_second_order():
    errors = []
    for nx in (24, 49, 99):
        params = ModelParams()
        disc = discretize(params, nx=nx)
        state = build(params, InitialData(), disc)
        advance(state, params, disc, 1.7)
        x = disc.x_interior()
        exact = np.sin(np.pi * x) * math.cos(math.pi * state.t)
        errors.append(float(np.abs(state.u - exact).max()))
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5


def test_memory_realizations_cross_validate():
    # eta_grid transport is first order in the s-grid: the gap to the exact
    # prony realization must shrink with ns and stay within its own
    # Richardson-style truncation estimate
    diffs = {}
    for ns in (48, 96):
        fields = {}
        for mr in ("prony_modes", "eta_grid"):
            params = ModelParams(kernel=KERNEL, memory_realization=mr)
            disc = discretize(params, nx=80, ns=ns)
            state = build(params, InitialData(), disc)
            advance(state, params, disc, 4.0)
            fields[mr] = state.u.copy()
        diffs[ns] = float(np.abs(fields["prony_modes"] - fields["eta_grid"]).max())
    assert diffs[96] < diffs[48]
    estimate = diffs[48] - diffs[96]  # ~ half the coarse truncation error
    assert diffs[48] <= 10.0 * 2.0 * estimate


def test_delay_realizations_cross_validate():
    common = dict(tau=0.5, k=0.2, theta=2.0, kernel=KERNEL)
    results = {}
    for cfl in (0.25, 0.125):
        for realization in ("ring_buffer", "rho_grid"):
            params = ModelParams(delay_realization=realization, **common)
            disc = discretize(params, nx=50, cfl=cfl)
            state = build(params, InitialData(), disc)
            advance(state, params, disc, 5.0)
            results[(realization, cfl)] = state.u.copy()
    gap = float(np.abs(results[("ring_buffer", 0.25)]
                       - results[("rho_grid", 0.25)]).max())
    refined = float(np.abs(results[("rho_grid", 0.25)]
                           - results[("rho_grid", 0.125)]).max())
    # first-order rho-grid: the coarse-fine gap is about half its error
    assert gap <= 10.0 * 2.0 * refined


def test_empty_kernel_drops_memory_state():
    lean = build(ModelParams(), InitialData(), discretize(ModelParams(), nx=80))
    assert lean.q is None and lean.eta is None and lean.u_hist is None
    params = ModelParams(kernel=KERNEL)
    full = build(params, InitialData(), discretize(params, nx=80))
    assert full.nbytes() > 4 * lean.nbytes()


def test_nonfinite_reports_step_index():
    params = ModelParams(tau=0.0, k=-1000.0)
    disc = discretize(params, nx=40)
    state = build(params, InitialData(), disc)
    with pytest.raises(NonFinite) as err:
        for _ in range(100000):
            step(state, params, disc)
    assert err.value.step_index == state.step_index

    trace = run(params, InitialData(), disc, 10.0, sample_every=50)
    assert trace.aborted_step == err.value.step_index


# -- run ---------------------------------------------------------------------------

def test_run_zero_horizon_single_sample():
    params = ModelParams(kernel=KERNEL)
    disc = discretize(params, nx=40)
    trace = run(params, InitialData(), disc, 0.0)
    assert trace.times.size == 1
    assert trace.times[0] == 0.0
    assert trace.aborted_step is None


def test_snapshot_samples_reconstruct_eta_once(monkeypatch):
    # the time of every sample whose eta a call forms: a call of a span forms
    # all of its samples' eta at once
    formed = []
    original = solver.eta_field

    def counted(state, params, disc, out=None, rows=None, span=None):
        formed.extend([state.t] if span is None else span.times)
        return original(state, params, disc, out, rows, span)

    monkeypatch.setattr(solver, "eta_field", counted)
    params = ModelParams(kernel=KERNEL)
    disc = discretize(params, nx=40)
    init = InitialData(history="modulated", omega=2.0)
    trace = run(params, init, disc, 0.5, sample_every=10, snapshots=True)
    # each sample's eta is formed once, and its snapshot shares it
    assert formed == trace.times.tolist() == [snap.t for snap in trace.snapshots]
    plain = run(params, init, disc, 0.5, sample_every=10)
    np.testing.assert_array_equal(trace.memory, plain.memory)
    np.testing.assert_array_equal(trace.mu_prime_eta, plain.mu_prime_eta)


def test_nothing_outlives_a_run():
    # the tables a run reads belong to its grid and its state, so once the
    # caller drops a run's results no module holds its grid, params or state
    params = ModelParams(tau=0.2, k=0.1, kernel=KERNEL, mode="auxiliary")
    disc = discretize(params, nx=20)
    init = InitialData(history="modulated", omega=2.0)
    trace = run(params, init, disc, 0.5, sample_every=5, snapshots=True)
    batch = run(params, init, disc, 0.5, sample_every=5, ks=[0.1, -0.2])
    assert trace.aborted_step is None and len(batch) == 2
    alive = [weakref.ref(obj) for obj in (disc, params, trace.final_state)]
    del params, disc, trace, batch
    gc.collect()
    assert [ref() for ref in alive] == [None] * 3
    # a grid made by replace forms its tables from its own fields
    base = discretize(ModelParams(kernel=KERNEL), nx=20)
    assert base.kernel_on_grid.mu.size == base.ns - 1
    nodes = base.dt * np.array([0.0, 1.0, 2.0, 4.0, 8.0])
    grid = replace(base, s_nodes=nodes, s_weights=quadrature_weights(nodes))
    np.testing.assert_array_equal(grid.kernel_on_grid.mu, KERNEL.value(nodes[1:]))
    np.testing.assert_array_equal(base.kernel_on_grid.mu, KERNEL.value(base.s_nodes[1:]))
    assert grid.node_steps[0].tolist() == [1, 2, 4, 8]


@pytest.mark.parametrize("history", ["frozen", "modulated"])
def test_snapshots_change_no_energy_term(history):
    # sampled every 3 steps, several samples to a span; with snapshots every
    # sample forms all ns - 1 rows of eta, without only the distinct ones
    params = ModelParams(tau=0.2, k=0.3, kernel=KERNEL, mode="auxiliary")
    init = InitialData(shape="gaussian", history=history, omega=2.0)
    disc = discretize(params, nx=40)
    assert solver._span_depth(params, init, disc, (), round(1.0 / disc.dt), 3) > 1
    with_snapshots = run(params, init, disc, 1.0, sample_every=3, snapshots=True)
    plain = run(params, init, disc, 1.0, sample_every=3)
    assert len(with_snapshots.snapshots) == plain.times.size > 50
    assert with_snapshots.times.tobytes() == plain.times.tobytes()
    for name in solver.SAMPLE_TERMS:
        assert getattr(with_snapshots, name).tobytes() == getattr(plain, name).tobytes(), name


def test_memory_only_run_decays():
    params = ModelParams(kernel=KERNEL)
    disc = discretize(params, nx=80)
    trace = run(params, InitialData(), disc, 20.0, sample_every=100)
    assert np.all(trace.total > 0.0)
    assert trace.total[-1] < 1e-4 * trace.total[0]


def test_antidamping_energy_grows_monotonically():
    params = ModelParams(tau=0.0, k=-0.5)
    disc = discretize(params, nx=80)
    trace = run(params, InitialData(), disc, 10.0, sample_every=50)
    growth = np.diff(trace.total)
    assert np.all(growth > -1e-9 * trace.total[:-1])
    assert trace.total[-1] > 10.0 * trace.total[0]


def test_auxiliary_damping_dissipates_faster():
    common = dict(tau=0.5, k=0.05, theta=2.0, kernel=KERNEL)
    traces = {}
    for mode in ("original", "auxiliary"):
        params = ModelParams(mode=mode, **common)
        disc = discretize(params, nx=60)
        traces[mode] = run(params, InitialData(), disc, 10.0, sample_every=100)
    assert traces["auxiliary"].total[-1] < traces["original"].total[-1]


# -- dissipativity spot check --------------------------------------------------------

def test_spot_check_dissipative_without_delay_coupling():
    params = ModelParams(tau=1.0, k=0.0, theta=2.0, kernel=KERNEL,
                         memory_realization="eta_grid")
    disc = discretize(params, nx=40, ns=24)
    report = dissipativity_spot_check(params, disc, trials=10, c_shift=1e-8, seed=3)
    assert report.passed
    assert report.max_quotient <= 1e-8


def test_spot_check_catches_antidamping():
    params = ModelParams(tau=0.0, k=-0.5)
    disc = discretize(params, nx=40)
    report = dissipativity_spot_check(params, disc, trials=6, c_shift=0.0, seed=3)
    assert report.max_quotient > 0.0
    assert not report.passed
    # constructed witness: u = 0, v = constant sign gives <A U, U> = -k ||v||^2 > 0
    v = np.ones(disc.nx)
    quotient = -params.k * disc.dx * float(v @ v) / (disc.dx * float(v @ v))
    assert quotient > 0.0


def test_spot_check_matches_energy_derivative_oracle():
    # forward-Euler energy increment at t=0 must agree with the quotient sign
    params = ModelParams(tau=1.0, k=0.0, theta=2.0, kernel=KERNEL,
                         memory_realization="eta_grid")
    disc = discretize(params, nx=30, ns=16)
    report = dissipativity_spot_check(params, disc, trials=5, c_shift=1e-8, seed=11)
    assert report.max_quotient <= 1e-8


# values recorded from the solver before the spot check shared ``_rhs``
PINNED_TOTALS = {
    ("prony_modes", "ring_buffer"): [1.9753382674777589, 1.702463135787011,
                                     1.5406974262372652, 1.2723399576826178,
                                     0.9107341872410754],
    ("prony_modes", "rho_grid"): [1.9753382674777589, 1.702451337317248,
                                  1.5405512403416866, 1.272270090690986,
                                  0.9108467714837146],
    ("eta_grid", "ring_buffer"): [1.975351172035098, 1.681798038344521,
                                  1.5109872582303963, 1.2414280210472028,
                                  0.8939943090703745],
    ("eta_grid", "rho_grid"): [1.975351172035098, 1.6817860922020702,
                               1.5108335845148417, 1.2413440310422152,
                               0.8941151095869054],
}


@pytest.mark.parametrize("memory, delay", sorted(PINNED_TOTALS))
def test_generator_pinned_energy_trace(memory, delay):
    params = ModelParams(tau=0.5, k=0.03, theta=2.0, kernel=KERNEL, mode="auxiliary",
                         memory_realization=memory, delay_realization=delay)
    disc = discretize(params, nx=24, ns=16)
    trace = run(params, InitialData(history="modulated", omega=2.0), disc, 1.0,
                sample_every=25)
    np.testing.assert_allclose(trace.total, PINNED_TOTALS[(memory, delay)],
                               rtol=1e-12, atol=0.0)


def test_spot_check_pinned_with_delay_coupling():
    # k != 0 and tau > 0: the quotient includes the rho-grid delay field z
    params = ModelParams(tau=0.5, k=0.3, theta=2.0, kernel=KERNEL, mode="auxiliary",
                         memory_realization="eta_grid")
    disc = discretize(params, nx=24, ns=16)
    report = dissipativity_spot_check(params, disc, trials=4, seed=5)
    assert report.max_quotient == pytest.approx(-1.6118290294797233, rel=1e-12)


def test_spot_check_rejects_no_trials():
    params = ModelParams(kernel=KERNEL, memory_realization="eta_grid")
    disc = discretize(params, nx=30, ns=16)
    with pytest.raises(ValueError):
        dissipativity_spot_check(params, disc, trials=0)


# -- parameter validation -------------------------------------------------------------

def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(length=0.0)
    with pytest.raises(ValueError):
        ModelParams(tau=-0.1)
    with pytest.raises(ValueError):
        ModelParams(theta=0.0)
    with pytest.raises(ValueError):
        ModelParams(mode="wrong")
    with pytest.raises(ValueError):
        ModelParams(delay_realization="wrong")
    with pytest.raises(ValueError):
        ModelParams(memory_realization="wrong")


def test_initial_data_validation():
    with pytest.raises(ValueError):
        InitialData(shape="bad")
    with pytest.raises(ValueError):
        InitialData(shape="sine", mode_index=0)
    with pytest.raises(ValueError):
        InitialData(shape="gaussian", width=0.0)
    with pytest.raises(ValueError):
        InitialData(history="bad")


# -- refusals of malformed calls ---------------------------------------------------

def test_model_params_refuse_non_finite_k():
    with pytest.raises(ValueError, match="k must be finite"):
        ModelParams(k=math.inf)


def test_geometric_grid_refuses_too_few_nodes_and_no_span():
    with pytest.raises(ValueError, match="ns must be at least 2"):
        geometric_s_grid(1.0, 1, 0.1)
    with pytest.raises(ValueError, match="s_max must be positive"):
        geometric_s_grid(0.0, 8, 0.1)


def test_discretize_refuses_fewer_than_three_points():
    with pytest.raises(ValueError, match="nx must be at least 3"):
        discretize(ModelParams(), nx=2)


def test_build_refuses_a_delay_grid_without_a_delay():
    disc = discretize(ModelParams(tau=0.5), nx=20)
    with pytest.raises(DelayUnresolvable, match="params.tau is 0"):
        build(ModelParams(), InitialData(), disc)


@pytest.mark.parametrize("realization", [{"memory_realization": "eta_grid"},
                                         {"delay_realization": "rho_grid"}])
def test_build_refuses_a_batch_on_a_grid_realization(realization):
    params = ModelParams(tau=0.2, kernel=KERNEL, **realization)
    disc = discretize(params, nx=20, ns=16)
    with pytest.raises(ValueError, match="step one row at a time"):
        build(params, InitialData(), disc, ks=[0.0, 0.1])


def test_run_refuses_a_negative_horizon_and_batch_snapshots():
    params = ModelParams(kernel=KERNEL)
    disc = discretize(params, nx=20, ns=16)
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        run(params, InitialData(), disc, -1.0)
    with pytest.raises(ValueError, match="solo runs only"):
        run(params, InitialData(), disc, 0.1, snapshots=True, ks=[0.0, 0.1])
