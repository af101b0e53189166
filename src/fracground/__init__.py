"""Spectral Liouville-Weyl fractional operators and ground states on the line.

The package discretizes the real line by a periodic interval, realizes the
one-sided fractional derivatives and integrals as Fourier multipliers with an
independent difference-quotient oracle, and computes ground states of

    (right-derivative o left-derivative of order alpha) u + u = f(t, u)

by constrained fiber projection and preconditioned descent, with a
mountain-pass path deformation as a cross-check on the critical level.
"""

from .errors import (
    DivergedError,
    EndpointNotNegativeError,
    FracgroundError,
    NoPositivePartError,
    SpectralTailError,
    SpectralTailWarning,
    ZeroModeSingularError,
)
from .grid import (
    Grid1D,
    SpectralField,
    field_from_csv,
    field_from_json,
    field_to_csv,
    field_to_json,
    gaussian_field,
    inner,
    lp_norm,
    make_grid,
    shift_cells,
    spectral_l2_norm,
    translate,
)
from .nonlinearity import (
    HypothesisCheck,
    HypothesisReport,
    NonlinearitySpec,
    Perturbation,
    SampleBox,
    eval_F,
    eval_df,
    eval_f,
    growth_constant,
    validate_hypotheses,
)
from .operators import (
    HAlphaNorm,
    composed_operator,
    fractional_derivative,
    fractional_integral,
    gl_oracle,
    h_alpha_norm,
    h_alpha_norm_sq,
    multiplier_symbol,
    sobolev_embedding_probe,
    validate_order,
)
from .solver import (
    InitSpec,
    LevelComparison,
    MountainPassReport,
    SolveConfig,
    SolveReport,
    VanishingProfile,
    compare_levels,
    mountain_pass_path,
    solve_ground_state,
    vanishing_diagnostic,
)
from .variational import (
    EnergyBreakdown,
    FiberScan,
    GradientResult,
    LevelEstimate,
    NehariResult,
    energy,
    estimate_level,
    fiber_map,
    gradient,
    nehari_project,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FracgroundError",
    "ZeroModeSingularError",
    "NoPositivePartError",
    "DivergedError",
    "EndpointNotNegativeError",
    "SpectralTailError",
    "SpectralTailWarning",
    # grid / fields
    "Grid1D",
    "SpectralField",
    "make_grid",
    "lp_norm",
    "spectral_l2_norm",
    "inner",
    "gaussian_field",
    "shift_cells",
    "translate",
    "field_to_csv",
    "field_from_csv",
    "field_to_json",
    "field_from_json",
    # operators
    "validate_order",
    "multiplier_symbol",
    "fractional_derivative",
    "fractional_integral",
    "composed_operator",
    "gl_oracle",
    "HAlphaNorm",
    "h_alpha_norm",
    "h_alpha_norm_sq",
    "sobolev_embedding_probe",
    # nonlinearity
    "Perturbation",
    "NonlinearitySpec",
    "SampleBox",
    "HypothesisCheck",
    "HypothesisReport",
    "eval_f",
    "eval_F",
    "eval_df",
    "growth_constant",
    "validate_hypotheses",
    # variational
    "EnergyBreakdown",
    "GradientResult",
    "FiberScan",
    "NehariResult",
    "LevelEstimate",
    "energy",
    "gradient",
    "fiber_map",
    "nehari_project",
    "estimate_level",
    # solver
    "InitSpec",
    "SolveConfig",
    "SolveReport",
    "VanishingProfile",
    "MountainPassReport",
    "LevelComparison",
    "solve_ground_state",
    "mountain_pass_path",
    "vanishing_diagnostic",
    "compare_levels",
]
