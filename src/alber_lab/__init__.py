"""alber-lab: simulation and stability analysis for mixed-state cubic
NLS dynamics on the one-dimensional torus."""

__version__ = "0.1.0"

from .spectral import (
    SpectralGrid,
    bessel_constant,
    diagonal_sums,
    lp_norm,
    sobolev_norm,
    toeplitz,
)
from .states import (
    BackgroundSymbol,
    GramError,
    MixedState,
    NotNonNegativeError,
    NumericalError,
    OperatorMatrix,
    TruncationError,
    background_to_matrix,
    background_to_state,
    density_samples,
    eigendecompose,
    energy,
    galerkin_truncate,
    hs1_norm_nonneg,
    kinetic_energy,
    mass,
    reorthonormalized,
    schatten_norm,
    sobolev_schatten_norm,
    state_from_dict,
    state_to_dict,
    to_matrix,
    ybar_bound,
)
from .dynamics import (
    DivergenceError,
    EvolveConfig,
    NoContractionError,
    TrajectoryRecord,
    convergence_study,
    evolve,
    free_step,
    linearized_evolve,
    picard_solve,
    potential_step,
    strang_step,
)
from .penrose import (
    PenroseReport,
    PropagatorConstants,
    UnstableBackgroundError,
    dispersion,
    free_density,
    laplace_symbol,
    margin_report,
    penrose_margins,
    perturbation_run,
    propagator_constants,
    volterra_kernel,
    volterra_solve,
)
from .inequalities import CheckResult, EnsembleConfig, run_checks
from .presets import (
    background_preset,
    random_hermitian_perturbation,
    random_smooth_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
