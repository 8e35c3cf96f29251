"""Bayesian decision fusion in star networks of selfish agents whose beliefs
about the prior may be wrong — exact risk computation, belief optimization,
Prelec reweighting fits, many-agent phase regions, and risk exponents."""

from .asymptotics import (
    ExponentReport,
    PhaseClassification,
    PhaseRegion,
    chernoff_bernoulli,
    classify_phase,
    exponent_curve,
    optimal_exponent,
    phase_map,
)
from .montecarlo import (
    ExponentFit,
    SimulationResult,
    SimulationSpec,
    estimate_exponent,
    simulate,
)
from .network import (
    NetworkConfig,
    NetworkTemplate,
    RiskReport,
    batch_risk,
    exact_risk,
    exact_risk_bruteforce,
    fusion_log_odds,
    pinned_fusion_errors,
    update_belief_count,
)
from .observation import (
    BELIEF_EPS,
    CostPair,
    ObservationModel,
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
    grid_search,
    minimize_fusion_belief,
    optimal_belief_sweep,
    pbpo,
    pbpo_exact,
    stationarity_residual,
)
from .prospect import (
    PrelecGapPoint,
    PrelecParams,
    Q0_STRATEGIES,
    fit_prelec_minimax,
    prelec,
    prelec_risk_gap,
)

__version__ = "0.1.0"
