"""Many-agent behavior: phase regions of the limiting fusion risk and the
optimal risk exponent.

With identical local beliefs, the fusion agent's updated belief polarizes to
0 or 1 as the network grows; which way it goes under each hypothesis is
decided by the local decision rates and two per-decision odds factors (from
``fusion_log_factors``), partitioning the belief plane into three regions
(the fourth sign combination is infeasible). Convergence to the regional
limit is exponential, and the best achievable exponent is the Chernoff
information of the local decision channel at the best threshold.

``classify_phase`` classifies one belief pair. ``phase_map`` classifies a
grid: the local rates depend on the local belief only and the fusion odds
factors on the fusion belief only, so it computes each once per axis value
and applies the one sign rule to all pairs by broadcasting, with the same
floating-point operations as the scalar call. The exponent layer is closed
form: the minimum over the mixing weight of a two-term log-sum-exp has an
explicit minimizer, and the optimal threshold of the Gaussian channel is 1/2.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .observation import (
    CostPair,
    ObservationModel,
    check_prior,
    decision_one_log_tails,
    decision_tails,
    error_probs,
    fusion_log_factors,
    log_odds,
    threshold_from_belief,
)


class PhaseRegion(enum.Enum):
    """Limiting value of the fusion risk as the network grows."""

    RISK_VANISHES = "Case1"
    FALSE_ALARM_FLOOR = "Case2"
    MISSED_DETECTION_FLOOR = "Case3"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class PhaseClassification:
    z1: float
    z2: float
    t0: float
    t1: float
    region: PhaseRegion
    limit_risk: float | None
    log_g0: float
    log_g1: float


# Points whose region exponent g0 or g1 lies within this of zero are BOUNDARY.
BOUNDARY_TOL = 1e-12

# Regions by the index ``_region_of`` gives a sign pattern.
_REGIONS = np.array([PhaseRegion.RISK_VANISHES, PhaseRegion.FALSE_ALARM_FLOOR,
                     PhaseRegion.MISSED_DETECTION_FLOOR, PhaseRegion.BOUNDARY], dtype=object)


def _region_of(g0, g1):
    """Region of the sign pattern of the region exponents (g0, g1).

    Written with operators only, so it takes Python floats (one call of
    ``classify_phase``, at no numpy call overhead) and broadcast arrays
    (``phase_map``, elementwise) alike. A pattern that fits no region,
    g0 < 0 < g1 or a nan, gets index 4, past the end of ``_REGIONS``.
    """
    vanishes = (g0 > 0.0) & (g1 < 0.0)
    false_alarm_floor = (g0 < 0.0) & (g1 < 0.0)
    missed_detection_floor = (g0 > 0.0) & (g1 > 0.0)
    index = 4 - 4 * vanishes - 3 * false_alarm_floor - 2 * missed_detection_floor
    # Near a sign change the point is BOUNDARY (index 3), whatever its pattern.
    on_boundary = (abs(g0) <= BOUNDARY_TOL) | (abs(g1) <= BOUNDARY_TOL)
    index = index + (3 - index) * on_boundary
    try:
        return _REGIONS[index]
    except IndexError:
        # g0 < 0 < g1 needs z2 >= 1, which the ROC ordering rules out.
        raise AssertionError("infeasible sign pattern: increasing count evidence") from None


def _fusion_log_factors(model: ObservationModel, costs: CostPair, q0: float):
    """(log z1, log z2) = (l_zero, l_one - l_zero) at fusion belief q0; raises
    ``FloatingPointError`` where one is not finite and the region undefined."""
    l_zero, l_one = fusion_log_factors(model, costs, log_odds(q0))
    log_z1, log_z2 = float(l_zero), float(l_one) - float(l_zero)
    if not (math.isfinite(log_z1) and math.isfinite(log_z2)):
        raise FloatingPointError(
            f"fusion belief q0={q0!r} at sigma={model.sigma!r}: a Gaussian tail of its "
            f"threshold underflows, so the fusion log factors are not finite")
    return log_z1, log_z2


def classify_phase(model: ObservationModel, costs: CostPair, q0: float, q1: float,
                   pi0: float | None = None) -> PhaseClassification:
    """Classify which limit the fusion risk approaches for beliefs (q0, q1).

    ``t0 < t1`` are the true per-agent rates of deciding 1; ``z1`` and ``z2``
    are the fusion agent's perceived per-decision odds factors. The signs of
    log(z1 * z2**t0) and log(z1 * z2**t1) pick the region. Points within
    ``BOUNDARY_TOL`` of a sign change are reported as BOUNDARY rather than
    forced into a region. ``limit_risk`` is filled when the true prior is
    supplied (None on a boundary).
    """
    t0, t1 = decision_tails(model, threshold_from_belief(model, costs, q1))[:2]
    log_z1, log_z2 = _fusion_log_factors(model, costs, q0)
    g0 = log_z1 + t0 * log_z2
    g1 = log_z1 + t1 * log_z2
    region = _region_of(g0, g1)

    limit_risk = None
    if pi0 is not None and region is not PhaseRegion.BOUNDARY:
        check_prior(pi0)
        limit_risk = {
            PhaseRegion.RISK_VANISHES: 0.0,
            PhaseRegion.FALSE_ALARM_FLOOR: costs.c_fa * pi0,
            PhaseRegion.MISSED_DETECTION_FLOOR: costs.c_md * (1.0 - pi0),
        }[region]
    return PhaseClassification(
        z1=math.exp(log_z1), z2=math.exp(log_z2), t0=t0, t1=t1,
        region=region, limit_risk=limit_risk, log_g0=g0, log_g1=g1,
    )


def phase_map(model: ObservationModel, costs: CostPair, q0_axis, q1_axis) -> np.ndarray:
    """Regions of every belief pair on a grid: an object array whose entry
    [i, j] is ``classify_phase(model, costs, q0_axis[i], q1_axis[j]).region``.

    The local rates depend on q1 only and the fusion log factors on q0 only,
    so each is computed once per axis value, by the same scalar arithmetic as
    ``classify_phase``; the region exponents of all pairs then take one
    broadcast multiply and add each, so every region equals the scalar
    classification bit for bit.
    """
    rates = np.array([decision_tails(model, threshold_from_belief(model, costs, float(q1)))[:2]
                      for q1 in q1_axis]).reshape(-1, 2)
    log_z = np.array([_fusion_log_factors(model, costs, float(q0)) for q0 in q0_axis]).reshape(-1, 2)
    t0, t1 = rates[:, 0], rates[:, 1]
    log_z1, log_z2 = log_z[:, :1], log_z[:, 1:]
    return _region_of(log_z1 + t0 * log_z2, log_z1 + t1 * log_z2)


def exponent_objective(model: ObservationModel, lam, s):
    """log of the s-mixed overlap of the local decision channel at threshold
    ``lam``: log(a**(1-s) (1-b)**s + (1-a)**(1-s) b**s) with a = P(0|0),
    b = P(1|1). Convex in ``s``; its negated minimum is the exponent."""
    out = _mix(decision_one_log_tails(model, lam), s)
    return float(out) if out.ndim == 0 else out


def _mix(tails, s):
    """The exponent objective at mixing weight ``s`` from the four decision
    log tails of ``decision_one_log_tails``."""
    lp10, lp11, lp00, lp01 = tails
    s = np.asarray(s, dtype=float)
    term_zero = (1.0 - s) * lp00 + s * lp01
    term_one = (1.0 - s) * lp10 + s * lp11
    return np.logaddexp(term_zero, term_one)


def _min_mix(tails):
    """Minimum over s in [0, 1] of ``_mix(tails, s)``, for arrays and floats.

    The two log-sum-exp terms have slopes d0 = lp01 - lp00 and
    d1 = lp11 - lp10 in s, of opposite signs for any threshold test or pair
    of Bernoulli laws; the derivative vanishes where their weighted slopes
    cancel, at s = (lp00 - lp10 + log|d0| - log|d1|) / (d1 - d0), clipped to
    [0, 1]. Where that is not finite the channel is uninformative and every
    s minimizes; s = 1/2 is taken.
    """
    lp10, lp11, lp00, lp01 = tails
    d0, d1 = lp01 - lp00, lp11 - lp10
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (lp00 - lp10 + np.log(np.abs(d0)) - np.log(np.abs(d1))) / (d1 - d0)
    return _mix(tails, np.where(np.isfinite(s), np.clip(s, 0.0, 1.0), 0.5))


def exponent_curve(model: ObservationModel, lam_values):
    """min over s of the exponent objective, for each threshold in ``lam_values``."""
    values = _min_mix(decision_one_log_tails(model, lam_values))
    return float(values) if np.ndim(lam_values) == 0 else values


@dataclass(frozen=True)
class ExponentReport:
    lambda_star: float
    s_star: float
    beta_star: float
    fa_at_opt: float
    md_at_opt: float
    q_star: float
    variance_proxy: float


def optimal_exponent(model: ObservationModel, costs: CostPair | None = None) -> ExponentReport:
    """Best achievable risk exponent over identical local thresholds.

    The channel at threshold lam mirrors the one at 1 - lam (swap hypotheses
    and decisions); the optimum is lam* = 1/2 (Tsitsiklis 1988), where it is
    binary symmetric with crossover p = Q(1/(2 sigma)), and s* = 1/2
    (Chernoff 1952): beta* = -log(4 p (1 - p)) / 2. With 1 - 2p = erf(u),
    u = 1/(2 sigma sqrt 2), that is -log1p(-erf(u)**2) / 2, exact to an ulp
    for a small beta*; where erf(u) nears 1 it is the negated objective at
    (1/2, 1/2), whose ``log_ndtr`` tails stay finite at any sigma. The belief
    whose threshold is 1/2 is ``costs.neutral_belief``.
    """
    if costs is None:
        costs = CostPair()
    gap = math.erf(0.5 / (model.sigma * math.sqrt(2.0)))
    if gap < 0.5:
        beta_star = -0.5 * math.log1p(-gap * gap)
    else:
        beta_star = -exponent_objective(model, 0.5, 0.5)
    fa, md = error_probs(model, 0.5)
    return ExponentReport(
        lambda_star=0.5,
        s_star=0.5,
        beta_star=beta_star,
        fa_at_opt=float(fa),
        md_at_opt=float(md),
        q_star=costs.neutral_belief,
        variance_proxy=model.variance_proxy,
    )


def chernoff_bernoulli(p1: float, p2: float) -> float:
    """Chernoff information between Bernoulli(p1) and Bernoulli(p2).

    The minimized log-sum-exp is the exponent objective of a channel whose
    (log p(1|0), log p(1|1), log p(0|0), log p(0|1)) are
    (log(1-p2), log(1-p1), log p2, log p1).
    """
    if not (0.0 < p1 < 1.0 and 0.0 < p2 < 1.0):
        raise ValueError("Bernoulli parameters must lie strictly inside (0, 1)")
    tails = (math.log1p(-p2), math.log1p(-p1), math.log(p2), math.log(p1))
    return max(0.0, -float(_min_mix(tails)))
