"""Desk-scale lab for two-bidder binary-XOS combinatorial auctions."""

from .itemsets import ItemSet, UniverseMismatch, part_cells, part_profile
from .rng import STREAM_VERSION, RngStream
from .sampling import (
    InvalidParameter,
    PartitionParameter,
    expected_intersection,
    pc_ally_avoidance_probability,
    pc_avoidance_probability,
    refine_masks,
    refine_sample,
)
from .construction import (
    Basis,
    ConstantVectors,
    ConstructionError,
    Instance,
    constant_vectors,
    generalized_deltas,
    is_clause,
    is_clause_pair,
    is_compatible,
    is_special_pair,
    optimal_block_ratio,
    reference_configuration,
    reference_instance,
    sample_basis,
    sample_clause_pair,
    sample_clause_pairs,
    sample_compatible,
    sample_instance,
    sample_special_pair,
)
from .valuations import (
    Allocation,
    BXOSValuation,
    RECOVER_AMBIGUOUS,
    RECOVER_NONE,
    build_valuations,
    opt_bruteforce,
    opt_clause_pair,
    oracle_allocation,
    recover_theta,
)
from .protocols import (
    PROTOCOL_NAMES,
    Message,
    Protocol,
    ProtocolError,
    ProtocolOutcome,
    approx_ratio,
    check_truthful,
    execute,
)
from .infotheory import JointDistribution, divergences, verify_identities
from .lab import (
    ExperimentConfig,
    instance_from_json,
    instance_to_json,
    run_protocol_experiment,
    verify_concentration,
    verify_info,
    verify_nu_equivalence,
    verify_theta_recovery,
)

__version__ = "0.1.0"
