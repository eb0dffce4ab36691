"""dsfmin: dynamical structure functions and their minimal realizations.

The library computes the dynamical structure function [Q, P] of a
partitioned linear time-invariant system and, given such a pair,
constructs minimal-order state-space realizations consistent with it,
reporting the minimal number of hidden states.
"""

from .dsf import (
    DSF,
    BooleanStructure,
    StructureLimits,
    boolean_structure,
    compute_dsf,
    compute_wv,
    consistency_check,
    dsf_to_transfer,
    structure_limits,
)
from .minreal import (
    CliqueResult,
    CompatGraph,
    GilbertData,
    MinimalOrder,
    PipelineResult,
    RStar,
    cancellation_check,
    compatibility_graph,
    construct_rstar,
    extract_modes,
    maximum_cliques,
    minimal_order,
    minreal_pipeline,
    realize,
)
from .ratcore import (
    PoleResidueForm,
    Polynomial,
    RationalFunction,
    RationalMatrix,
    from_pole_residue,
    limit_at_infinity,
    poly_mul,
    rat_reduce,
    residue_at,
    rmat_equal,
    rmat_eval,
    rmat_inverse,
    rmat_poles,
    to_pole_residue,
)
from .sslib import (
    PartitionedRealization,
    StateSpace,
    gilbert_realization,
    is_invariant_zero,
    kalman_reduce,
    mcmillan_degree,
    normal_rank,
    output_normal_form,
    transfer_function,
)

__version__ = "0.1.0"
