"""Singularity analysis of self-consistent densities of states.

Given a symmetric, entrywise non-negative variance profile, this package
classifies the zero-energy singularity of the associated density of states
exactly (support class, atom mass, per-block power-law exponents,
singularity degree), solves the self-consistent equations numerically to
verify the predicted power laws, and reproduces the smallest-singular-value
finite-size scaling by Monte Carlo sampling.
"""

from .dyson import (
    AtomMass,
    AxisSolution,
    DensityCurve,
    PlaneSolution,
    QuantileFit,
    RescaledData,
    RescaledResiduals,
    ScalingFit,
    atom_mass_estimate,
    density_profile,
    empirical_exponents,
    limit_weights,
    quantile,
    rescaled_profile,
    rescaled_residuals,
    solve_imaginary_axis,
    solve_upper_half_plane,
    variational_value,
)
from .errors import (
    BadBoundaryError,
    CyclicRelationError,
    EigFailureError,
    GridTooCoarseError,
    HasSupportError,
    ImaginarySignLostError,
    InfeasibleError,
    NegativeEntryError,
    NonConvergenceError,
    NonPositiveInputError,
    NoSupportError,
    NotDAGError,
    NotSymmetricError,
    PreconditionViolatedError,
    SelfCheckError,
    SingularMatrixError,
    SpecdensError,
    StructureViolationError,
    TooLargeError,
    ZeroRowError,
)
from .minmax import (
    Analysis,
    BoundaryProblem,
    ExponentSolution,
    IndexExponents,
    StabilityReport,
    analyze,
    fixed_point_oracle,
    index_exponents,
    relation_problem,
    solve_min_max,
    stability_check,
    verify_solution,
)
from .montecarlo import (
    EnsembleConfig,
    SweepReport,
    condition_number,
    run_sweep,
    sample_block_hermitian,
    smallest_singular_value,
)
from .normal_form import (
    BlockRelation,
    ChainResult,
    NormalForm,
    NoSupportForm,
    VarianceProfile,
    as_profile,
    build_relation,
    longest_chain,
    no_support_normal_form,
    pattern_of,
    symmetric_normal_form,
    verify_normal_form,
)
from .patterns import (
    MatchingResult,
    SkeletonResult,
    SupportClass,
    ZeroPattern,
    brute_force_oracle,
    fid_skeleton,
    has_support,
    has_total_support,
    is_fully_indecomposable,
    max_bipartite_matching,
    maximal_zero_submatrix,
)
from .report import (
    canonical_json,
    classification_document,
    density_csv,
    fraction_str,
    parse_profile_text,
    scaling_table_csv,
    sweep_csv,
)

__version__ = "0.1.0"
