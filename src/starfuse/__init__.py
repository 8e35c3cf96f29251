"""Bayesian decision fusion in star networks of selfish agents whose beliefs
about the prior may be wrong — exact risk computation, belief optimization,
Prelec reweighting fits, many-agent phase regions, and risk exponents."""

from .asymptotics import (
    ExponentReport,
    PhaseClassification,
    PhaseRegion,
    SStarComparison,
    chernoff_bernoulli,
    classify_phase,
    exponent_curve,
    exponent_objective,
    optimal_exponent,
    s_star_comparison,
)
from .montecarlo import (
    ExponentFit,
    SimulationResult,
    SimulationSpec,
    estimate_exponent,
    simulate,
)
from .network import (
    CountDistribution,
    NetworkConfig,
    NetworkTemplate,
    RiskReport,
    conditional_fusion_errors,
    count_distribution,
    exact_risk,
    exact_risk_bruteforce,
    fusion_decide,
    fusion_log_odds,
    local_error_probs,
    perceived_local_probs,
    perceived_log_ratios,
    pinned_fusion_errors,
    update_belief,
    update_belief_count,
)
from .observation import (
    BELIEF_EPS,
    CostPair,
    ObservationModel,
    belief_from_threshold,
    clamp_belief,
    error_probs,
    from_log_odds,
    gaussian_q,
    log_odds,
    threshold_from_belief,
    threshold_from_log_odds,
)
from .optimize import (
    OptimizationResult,
    OptimizerSettings,
    SweepPoint,
    exact_coordinate_update,
    golden_section,
    grid_search,
    minimize_fusion_belief,
    monotone_rhs_check,
    optimal_belief_sweep,
    pbpo,
    pbpo_exact,
    stationarity_residual,
)
from .prospect import (
    IDENTITY_PARAMS,
    PrelecGapPoint,
    PrelecParams,
    Q0_STRATEGIES,
    default_pi0_grid,
    fit_prelec_minimax,
    prelec,
    prelec_risk_gap,
)

__version__ = "0.1.0"
