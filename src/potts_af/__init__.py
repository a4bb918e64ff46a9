"""Antiferromagnetic q-state Potts model on the Poissonian Erdos-Renyi graph.

Exact small-N quenched pressures with certified error budgets, closed-form
phase boundaries, replica-symmetric and cascade (RSB) upper bounds, and
the constrained second-moment certification machinery.
"""

from .bounds import (
    PhaseRegion,
    PhaseThresholds,
    annealed_entropy,
    annealed_pressure,
    beta_1,
    beta_ent,
    beta_rs_loc,
    classify,
    thresholds,
    x_param,
)
from .cascade import (
    AtomSet,
    CascadeSpec,
    SpinHierarchySpec,
    StabilityReport,
    annealed_spec,
    cavity_g1,
    cavity_g2,
    one_rsb_spec,
    rs_spec,
    rsb_upper_bound,
    sample_pd_atoms,
    stability_test,
    symmetric_t_hierarchy,
    uniform_hierarchy,
)
from .disorder import (
    QuenchedEstimate,
    balanced_count,
    conditional_moments_balanced,
    quenched_pressure_exact,
    quenched_pressure_mc,
    restricted_partition_balanced,
    sample_couplings,
    sum_rule_deficit,
)
from .model import (
    DEFAULT_ENUM_BUDGET,
    ModelParams,
    all_energies,
    empirical_measure,
    entropy_density,
    gibbs_replica_expectation,
    gibbs_weights,
    hamiltonian,
    log_partition,
    pressure_density,
)
from .replica import (
    RsEvaluation,
    g1,
    g2,
    instability,
    quartic_coefficients,
    rs_bound,
    scan_rs_bound,
    t_grid,
)
from .second_moment import (
    OverlapMeasure,
    SecondMomentResult,
    Phi2_kt,
    in_guaranteed_region,
    ising_gap,
    mu_kt,
    optimize,
    phi2,
    rescale,
    rescale_multiplier,
    uniform_overlap,
    zero_t_connectivity,
)
from .util import BudgetExceededError

__version__ = "0.1.0"
