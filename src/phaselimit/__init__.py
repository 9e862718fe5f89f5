"""Numerical bounds, optimization, and measurement simulation for phase
estimation of completely unknown phase shifts."""

from .errors import ConvergenceError, ValidationError
from .fock import (
    GeneratorSpec,
    ProbeState,
    generator_eigenvalue,
    make_state,
    mean_number,
    number_entropy,
    reduce_to_single_mode,
    thermal_entropy,
)
from .phasedist import (
    PhaseDistribution,
    canonical_distribution,
    differential_entropy,
    holevo_variance,
    mean_square_deviation,
)
from .bounds import (
    BoundReport,
    airy_first_zero,
    conjectured_bound,
    entropy_chain_report,
    heisenberg_bound,
    k_A,
    k_C,
)
from .optimizer import (
    CostKind,
    OptimizationResult,
    SymmetricBand,
    cost_matrix,
    figure2_curve,
    min_eigenpair,
    optimize_at_mean,
    solve_at_multiplier,
)
from .povm import (
    EstimatePOM,
    average_distribution,
    conditional_probability,
    kphase_construction,
    per_phase_variance,
    wrap_angle,
)

__version__ = "0.1.0"
