"""Property: every admissible kernel is refused before stepping or runs finite."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viscodelay.kernel import MemoryKernel
from viscodelay.solver import InitialData, ModelParams, SolverError, discretize, run

RATES = st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e)  # b in [1e-2, 1e4]


@st.composite
def kernels(draw):
    """1-4 Prony terms with total mass mu_tilde in [0.05, 0.95]."""
    shares = draw(st.lists(st.tuples(st.floats(0.05, 1.0), RATES), min_size=1, max_size=4))
    mass = draw(st.floats(0.05, 0.95))
    total = sum(share for share, _ in shares)
    return MemoryKernel.from_terms([(mass * share / total * b, b) for share, b in shares])


@pytest.mark.parametrize("memory_realization", ["prony_modes", "eta_grid"])
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(kernel=kernels())
def test_admissible_kernel_refused_or_runs_finite(kernel, memory_realization):
    params = ModelParams(kernel=kernel, memory_realization=memory_realization)
    try:
        disc = discretize(params, nx=20)
    except SolverError:
        return
    trace = run(params, InitialData(shape="gaussian"), disc, 0.5)
    assert trace.aborted_step is None
    assert np.isfinite(trace.total).all()
