"""Spectral potentials of weighted shifts and t-entropy on finite systems.

The library works on finite measure spaces carrying a self-map: it computes
exact L1 operator norms and the spectral potential of weighted shift
operators, the t-entropy of functionals by a direct (partition) route and a
dual (variational) route, and certifies the inequalities tying the two
together, up to the hitting-mass estimates for empirical measures.
"""

from .entropy import (
    InnerProblem,
    InnerSolution,
    TauResult,
    certificate_sup,
    inner_objective,
    inner_problem,
    local_young_check,
    maximize_inner,
    near_minimizer,
    near_minimizer_bounds,
    oscillation_partition,
    tau_direct,
    tau_dual,
    tau_n,
)
from .entstat import (
    EmpiricalMeasure,
    EstimateReport,
    GrowthConstant,
    HalfspaceNeighborhood,
    build_neighborhood,
    empirical,
    estimate_lhs,
    estimate_lhs_general,
    growth_constant,
    hitting_set,
    verify_estimate,
)
from .io import (
    FormatError,
    dump_report,
    load_functional,
    load_partition,
    load_potential,
    load_system,
    save_functional,
    save_partition,
    save_potential,
    save_report,
    save_system,
)
from .spectral import (
    L1Vector,
    PotentialProperties,
    PowerGap,
    SpectralResult,
    apply,
    iterate,
    l1_norm,
    l1_vector,
    log_spectral_radius,
    log_spectral_radius_batch,
    norm_log_sequence,
    op_norm,
    op_norm_log,
    op_norm_log_pow,
    power_gap,
    power_system,
    property_residuals,
    spectral_potential,
)
from .system import (
    ESSENTIAL,
    FULL,
    CycleDecomposition,
    FiniteSystem,
    Functional,
    InvalidSystemError,
    PartitionOfUnity,
    ValidationReport,
    alpha_power,
    atomic_partition,
    birkhoff,
    cycle_means,
    cycle_measure,
    effective_weights,
    functional,
    invariant_vertices,
    is_invariant,
    log_preimage_mass,
    make_system,
    orbit_sums,
    pair,
    preimage_mass,
    require_valid,
    restrict_to_support,
    trivial_partition,
    validate,
)
from .varprin import (
    DivergenceWitness,
    NoDefectError,
    NullChargeReport,
    SubgradientResult,
    VPCertificate,
    YoungResult,
    divergence_witness,
    null_charge_divergence,
    subgradient,
    variational_principle,
    young_check,
)

__version__ = "0.1.0"
