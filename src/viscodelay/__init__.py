"""Simulation and certification toolkit for the 1-D viscoelastic wave
equation with a time-delayed damping or anti-damping term."""

from .kernel import (
    KernelInvalid,
    KernelReport,
    MemoryKernel,
    quadrature_weights,
    validate_kernel,
)
from .certificate import (
    CertificateInputs,
    ConstantsReport,
    InvalidInputs,
    NoConvergence,
    ThetaOutOfRange,
    amplitude_budget,
    compute_constants,
    explicit_lower_bound,
    khat_fixed_point,
    nodelay_threshold,
    poincare_constant_interval,
)
from .solver import (
    CflViolation,
    DelayUnresolvable,
    Discretization,
    InitialData,
    ModelParams,
    NonFinite,
    SimState,
    Trace,
    build,
    delayed_velocity,
    discretize,
    dissipativity_spot_check,
    eta_field,
    run,
    step,
)
from .energy import (
    DissipationReport,
    SampleRow,
    WrongMode,
    check_dissipation,
    sample_state,
)
from .analysis import (
    DecayFit,
    HorizonTooShort,
    InsufficientData,
    SnapshotsMissing,
    SweepRow,
    check_integral_inequality,
    check_memory_identity,
    check_theorem_bound,
    classify,
    fit_decay_rate,
)

__version__ = "0.1.0"
