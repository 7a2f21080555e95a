"""Simulate non-unitary linear dynamics du/dt = -A(t) u as a weighted
combination of unitary evolutions.

The generator is split as A = L + iH with Hermitian L, H. When L is positive
semidefinite (a builder shifts L by its deficit when it is not), the
propagator is an integral over k of g(k) times the unitary evolution
generated by k L + H, where the weight g comes from an analytic, decaying,
normalized kernel. This package discretizes that integral with composite
Gauss-Legendre quadrature or Monte Carlo sampling, applies the resulting
unitary sum, and checks it against a direct-integration oracle.
"""

from .errors import (
    BuildError,
    ConfigError,
    DimensionError,
    FitError,
    HermiticityError,
    LchsError,
    PreconditionError,
    PropagationError,
    QuadratureError,
    RangeError,
)
from .linalg import (
    HermitianPair,
    TimeSchedule,
    hermitian_split,
    matrix_exponential,
    spectral_shift,
)
from .kernels import (
    KernelSpec,
    TruncationChoice,
    check_normalization,
    choose_truncation,
    make_kernel,
    tail_mass,
    weight_g,
)
from .sampling import (
    SamplingPlan,
    composite_plan,
    gauss_legendre,
    mc_plan,
    mc_size_from_accuracy,
    plan_from_accuracy,
)
from .evolve import (
    ProblemInstance,
    SolveReport,
    lchs_apply,
    oracle_solve,
    residual_lemma_check,
    solve,
)
from .problems import (
    LindbladSpec,
    build_blackhole,
    build_cap_schrodinger,
    build_lindblad,
    build_mm1,
    build_mmc,
    build_parabolic_1d,
)
from .harness import RunConfig, SweepResult, fit_scaling, run_convergence, run_solve

__version__ = "0.1.0"

__all__ = [
    "BuildError", "ConfigError", "DimensionError",
    "FitError", "HermiticityError", "LchsError",
    "PreconditionError", "PropagationError", "QuadratureError", "RangeError",
    "HermitianPair", "TimeSchedule", "hermitian_split", "matrix_exponential", "spectral_shift",
    "KernelSpec", "TruncationChoice", "check_normalization",
    "choose_truncation", "make_kernel", "tail_mass", "weight_g",
    "SamplingPlan", "composite_plan", "gauss_legendre", "mc_plan",
    "mc_size_from_accuracy", "plan_from_accuracy",
    "ProblemInstance", "SolveReport", "lchs_apply", "oracle_solve",
    "residual_lemma_check", "solve",
    "LindbladSpec", "build_blackhole", "build_cap_schrodinger", "build_lindblad",
    "build_mm1", "build_mmc", "build_parabolic_1d",
    "RunConfig", "SweepResult", "fit_scaling", "run_convergence", "run_solve",
]
