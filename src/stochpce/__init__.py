"""stochpce: polynomial-chaos propagation of stochastically driven quantum systems.

The pipeline: decompose a stationary Gaussian noise process into
Karhunen-Loeve modes (kle), rank the modes by how strongly they drive the
system and keep the top S, expand the density matrix in Hermite polynomials
of the mode amplitudes truncated at total degree P, and integrate the
resulting coupled operator hierarchy (hierarchy).  A trajectory-sampling
Monte Carlo solver (montecarlo) provides the reference answer and error
bars.  The cli module ties it together behind config files and CSV output.
"""

__version__ = "1.0.0"

from .errors import (
    CapacityError,
    ConfigError,
    CorruptedStateError,
    DimensionMismatchError,
    InvalidOperatorError,
    KernelNotPositiveError,
    NumericalConsistencyError,
    PropagationDivergedError,
    StochPCEError,
)
from .hierarchy import (
    GalerkinCouplings,
    MultiIndexSet,
    PCEState,
    build_couplings,
    enumerate_indices,
    initial_pce_state,
    mean_state,
    min_eigenvalue,
    observable_mean,
    observable_variance,
    propagate,
)
from .kle import (
    KLMode,
    ModeRecord,
    OrnsteinUhlenbeckKernel,
    QuadratureGrid,
    TabulatedKernel,
    TruncatedKLE,
    cumulative_rates,
    default_candidate_count,
    ou_modes,
    select_modes,
    solve_fredholm,
)
from .montecarlo import (
    MCConfig,
    MCEnsemble,
    mc_average,
    sample_ou_path,
)
from .operators import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    StochasticModel,
    expectation,
    frame_rotations,
    rotating_frame_potential,
    validate_density_matrix,
)
from .config import RunConfig, emit_config, load_config, parse_config

__all__ = [
    "__version__",
    # errors
    "StochPCEError", "InvalidOperatorError", "DimensionMismatchError",
    "NumericalConsistencyError", "KernelNotPositiveError",
    "CapacityError", "PropagationDivergedError", "CorruptedStateError",
    "ConfigError",
    # operators
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "IDENTITY", "StochasticModel",
    "frame_rotations", "rotating_frame_potential", "expectation",
    "validate_density_matrix",
    # kle
    "OrnsteinUhlenbeckKernel", "TabulatedKernel", "QuadratureGrid", "KLMode",
    "TruncatedKLE", "ModeRecord", "solve_fredholm", "ou_modes",
    "cumulative_rates", "select_modes", "default_candidate_count",
    # hierarchy
    "MultiIndexSet", "GalerkinCouplings", "PCEState", "enumerate_indices",
    "build_couplings", "initial_pce_state", "propagate",
    "mean_state", "observable_mean", "observable_variance", "min_eigenvalue",
    # monte carlo
    "MCConfig", "MCEnsemble", "sample_ou_path", "mc_average",
    # config
    "RunConfig", "parse_config", "emit_config", "load_config",
]
