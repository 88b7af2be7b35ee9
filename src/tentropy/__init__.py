"""Spectral potentials of weighted shifts and t-entropy on finite systems.

The library works on finite measure spaces carrying a self-map: it computes
exact L1 operator norms and the spectral potential of weighted shift
operators, the t-entropy of functionals by a direct (partition) route and a
dual (variational) route, and certifies the inequalities tying the two
together, up to the hitting-mass estimates for empirical measures.
"""

from .claims import CertificateError
from .entropy import (
    InnerProblem,
    InnerSolution,
    TauResult,
    certificate_sup,
    hull_means,
    inner_objective,
    inner_problem,
    inner_problems,
    local_young_check,
    local_young_checks,
    maximize_inner,
    maximize_inner_batch,
    near_minimizer_bounds,
    near_minimizer_checks,
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
    empirical_weights,
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
    load_potential,
    load_system,
    save_functional,
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
    power_gap,
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
    invariance,
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
    divergence_witnesses,
    null_charge_divergence,
    subgradient,
    variational_principle,
    young_check,
    young_checks,
)

__version__ = "0.1.0"
