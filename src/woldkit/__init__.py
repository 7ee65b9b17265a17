"""woldkit: Wold-type decompositions for band operators on sequence lattices.

Build left-invertible operators (weighted shifts, weighted translations,
block quasinormal operators, double-commuting tensor pairs, direct sums) as
exact band operators, diagnose how far they are from isometries and whether
their canonical left inverses are compatible with powers, and compute the
decomposition of any finitely supported vector into its shift-invariant
limit part and defect-series components, with certified residuals and an
independent dense oracle for cross-validation.
"""

__version__ = "0.1.0"

from .bandop import (
    GRAM_TOL,
    BandOp,
    Lattice,
    LatticeMismatch,
    NoConvergence,
    UnionLattice,
    Weight,
    bergman,
    constant,
    dirichlet,
    identity,
    left_inverse_apply,
    lower_bound_estimate,
    power_ratio,
    solve_gram,
    table,
    union,
)
from .classd import (
    CheckReport,
    classd_residual,
    default_probes,
    double_commuting_residual,
    isometry_residual,
    product_closure_check,
    quasinormal_residual,
)
from .seqspace import (
    FinVec,
    RankMismatch,
    unit,
    zero,
)
from .wold import (
    InputNotInHInfinity,
    NoStrongConvergence,
    WoldResult,
    analytic_criterion,
    decompose,
    defect_project,
    nested_project,
    reducing_residual,
    series_component,
    shift_limit_project,
    surjectivity_witness,
    wandering_basis,
)
from .oracle import SeriesNotConverged
from .wold2d import FourfoldResult, fourfold
from .zoo import (
    IncommensurateStep,
    PhiFamily,
    bergman_shift,
    bilateral_shift,
    direct_sum,
    dirichlet_shift,
    embed_summand,
    identity_on,
    quasinormal_block,
    summand_part,
    tensor_pair,
    unilateral_shift,
    weighted_shift,
    weighted_translation,
)
