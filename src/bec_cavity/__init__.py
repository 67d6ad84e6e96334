"""Mean-field steady states, fluctuation spectra and cavity-noise
depletion of a Bose-Einstein condensate in a driven lossy cavity."""

from .depletion import (
    DepletionResult,
    OracleSingularError,
    StabilityError,
    PointAnalysis,
    SteadyDepletion,
    analyze_point,
    depletion_at_times,
    finite_time_kernel,
    lyapunov_oracle,
    mode_projector,
    relaxation_time,
    solve_depletion_point,
    steady_state_depletion,
)
from .fluctuation import FluctuationMatrix, build_matrix, symmetry_defect
from .grid import Grid, integrate, kinetic_matrix, make_grid, potential_profile
from .meanfield import ConvergenceError, MeanFieldState, solve_ground_state, steady_alpha
from .params import ParameterError, SystemParams, validate
from .spectral import (
    DecompositionError,
    ModeDecomposition,
    StabilityReport,
    classify_stability,
    decompose,
    petermann_raw,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DecompositionError",
    "DepletionResult",
    "FluctuationMatrix",
    "Grid",
    "MeanFieldState",
    "ModeDecomposition",
    "OracleSingularError",
    "ParameterError",
    "PointAnalysis",
    "StabilityError",
    "StabilityReport",
    "SteadyDepletion",
    "SystemParams",
    "analyze_point",
    "build_matrix",
    "classify_stability",
    "decompose",
    "depletion_at_times",
    "finite_time_kernel",
    "integrate",
    "kinetic_matrix",
    "lyapunov_oracle",
    "make_grid",
    "mode_projector",
    "petermann_raw",
    "potential_profile",
    "relaxation_time",
    "solve_depletion_point",
    "solve_ground_state",
    "steady_alpha",
    "steady_state_depletion",
    "symmetry_defect",
    "validate",
    "__version__",
]
