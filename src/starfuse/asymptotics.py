"""Many-agent behavior: phase regions of the limiting fusion risk and the
optimal risk exponent.

With identical local beliefs, the fusion agent's updated belief polarizes to
0 or 1 as the network grows; which way it goes under each hypothesis is
decided by two per-decision odds factors, partitioning the belief plane into
three regions (the fourth sign combination is infeasible). Convergence to
the regional limit is exponential, and the best achievable exponent is the
Chernoff information of the local decision channel at the best threshold.

``classify_phase`` classifies one belief pair. ``phase_map`` classifies a
grid: the local rates depend on the local belief only and the fusion odds
factors on the fusion belief only, so it computes each once per axis value
and applies the one sign rule to all pairs by broadcasting, with the same
floating-point operations as the scalar call. The exponent searches compute
the four Gaussian log tails once per threshold and run the ternary search
over the mixing weight on the cheap log-sum-exp mix alone: on arrays for the
``exponent_curve`` grid, on Python floats for each golden-section probe of
``optimal_exponent`` and for ``chernoff_bernoulli``. Both searches make the
same IEEE operations, so they agree bit for bit, and both stop once an
iteration leaves the bracket unchanged, from where it stays fixed.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .observation import (
    CostPair,
    ObservationModel,
    belief_from_threshold,
    check_prior,
    decision_one_log_tails,
    gaussian_q,
    threshold_from_belief,
)
from .optimize import golden_section


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

# Threshold grid step and golden-section tolerance of ``optimal_exponent``.
EXPONENT_GRID_STEP = 1e-3
EXPONENT_REFINE_TOL = 1e-9

# Log of the smallest normal double: a decision tail below it has lost
# relative precision (or underflowed to 0), and so has the exponent.
_LOG_TINY = math.log(np.finfo(float).tiny)

# Ternary-search iterations over the mixing weight s; both searches stop
# earlier once the bracket is at its fixed point.
_TERNARY_ITERS = 120

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


def _local_rates(model: ObservationModel, costs: CostPair, q1: float):
    """(t0, t1): true per-agent rates of deciding 1 under H0 and H1 at local belief q1."""
    lam1 = threshold_from_belief(model, costs, q1)
    return gaussian_q(lam1 / model.sigma), gaussian_q((lam1 - 1.0) / model.sigma)


def _fusion_log_factors(model: ObservationModel, costs: CostPair, q0: float):
    """(log z1, log z2): the fusion agent's perceived per-decision log odds
    factors at fusion belief q0.

    Raises ``FloatingPointError`` when a Gaussian tail of the fusion threshold
    underflows, which leaves a factor non-finite and the region undefined.
    """
    lam0 = threshold_from_belief(model, costs, q0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lp10, lp11, lp00, lp01 = decision_one_log_tails(model, lam0)
        log_z1, log_z2 = float(lp00 - lp01), float((lp01 - lp00) + (lp10 - lp11))
    if not (math.isfinite(log_z1) and math.isfinite(log_z2)):
        raise FloatingPointError(
            f"fusion belief q0={q0!r} at sigma={model.sigma!r}: a Gaussian tail of its "
            f"threshold {lam0!r} underflows, so the fusion log factors are not finite")
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
    t0, t1 = _local_rates(model, costs, q1)
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
    rates = np.array([_local_rates(model, costs, float(q1)) for q1 in q1_axis]).reshape(-1, 2)
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


def _ternary_min_s(f, m: int, iters: int = _TERNARY_ITERS):
    """Vectorized ternary search of a per-component convex function on [0,1].

    An iteration is a fixed map of the brackets (lo, hi), so once it leaves
    every bracket unchanged all later ones would too, and the search stops.
    """
    lo = np.zeros(m)
    hi = np.ones(m)
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        take_left = f(m1) <= f(m2)
        new_lo = np.where(take_left, lo, m1)
        new_hi = np.where(take_left, m2, hi)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def _scalar_min_s(tails, iters: int = _TERNARY_ITERS):
    """(minimizing s, minimum) of the exponent objective of one threshold,
    from its four decision log tails as Python floats.

    The ternary search of ``_ternary_min_s`` and the mix of ``_mix`` on
    floats: each step makes the same IEEE operations and the same
    ``np.logaddexp`` call, so the result equals the length-1 array search
    bit for bit, without some twenty numpy calls per iteration.
    """
    lp10, lp11, lp00, lp01 = tails

    def mix(s):
        return np.logaddexp((1.0 - s) * lp00 + s * lp01, (1.0 - s) * lp10 + s * lp11)

    lo, hi = 0.0, 1.0
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        new_lo, new_hi = (lo, m2) if mix(m1) <= mix(m2) else (m1, hi)
        if new_lo == lo and new_hi == hi:
            break
        lo, hi = new_lo, new_hi
    s = 0.5 * (lo + hi)
    return s, float(mix(s))


def _threshold_tails(model: ObservationModel, lam: float):
    """The four decision log tails at one threshold, as Python floats."""
    return tuple(float(t[0]) for t in decision_one_log_tails(model, np.array([lam])))


def _min_over_s(model: ObservationModel, lam: np.ndarray):
    """(minimizing s, minimum) of the exponent objective for each threshold
    of the 1-D array ``lam``. The tails do not depend on s, so they are
    computed once and the ternary search runs on the mix alone."""
    tails = decision_one_log_tails(model, lam)
    s_best = _ternary_min_s(lambda s: _mix(tails, s), lam.shape[0])
    return s_best, _mix(tails, s_best)


def exponent_curve(model: ObservationModel, lam_values):
    """min over s of the exponent objective, for each threshold in ``lam_values``."""
    values = _min_over_s(model, np.atleast_1d(np.asarray(lam_values, dtype=float)))[1]
    return float(values[0]) if np.ndim(lam_values) == 0 else values


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

    Dense threshold grid over [-3 sigma, 1 + 3 sigma] with the convex inner
    minimization done by one array ternary search, then golden-section
    refinement of the outer threshold around the grid winner. Each probe
    computes its four log tails once and runs the ternary search over s on
    Python floats (``_scalar_min_s``), bit for bit the array search on a
    length-1 array; the final ``s_star`` comes from the same search. Also
    reports the identical belief that realizes the optimal threshold under
    the given costs.

    Raises ``FloatingPointError`` when a decision log tail at the optimal
    threshold is below the log of the smallest normal double (about -708.4)
    or has underflowed to -inf: the exponent is then not accurate (at
    sigma=0.01 it would read 719 against 627). This happens for sigma below
    about 0.017.
    """
    if costs is None:
        costs = CostPair()
    s = model.sigma
    step = EXPONENT_GRID_STEP
    grid = np.round(np.arange(-3.0 * s, 1.0 + 3.0 * s + step / 2.0, step), 12)
    # Underflowed tails are -inf, not errors: the check at lambda_star decides.
    with np.errstate(divide="ignore"):
        values = exponent_curve(model, grid)
        i = int(np.argmin(values))
        lam_star = golden_section(lambda lam: _scalar_min_s(_threshold_tails(model, lam))[1],
                                  grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)],
                                  EXPONENT_REFINE_TOL)
        tails = _threshold_tails(model, lam_star)
    if min(tails) < _LOG_TINY:
        raise FloatingPointError(
            f"optimal exponent at sigma={model.sigma!r}: a Gaussian tail of the optimal "
            f"threshold lambda_star={lam_star!r} underflows (log tail {min(tails)!r}), "
            f"so the exponent is not accurate")
    s_star = _scalar_min_s(tails)[0]
    beta_star = -float(exponent_objective(model, lam_star, s_star))
    fa = float(gaussian_q(lam_star / model.sigma))
    md = float(gaussian_q(-(lam_star - 1.0) / model.sigma))
    return ExponentReport(
        lambda_star=float(lam_star),
        s_star=s_star,
        beta_star=max(beta_star, 0.0),
        fa_at_opt=fa,
        md_at_opt=md,
        q_star=belief_from_threshold(model, costs, float(lam_star)),
        variance_proxy=model.variance_proxy,
    )


def chernoff_bernoulli(p1: float, p2: float, iters: int = _TERNARY_ITERS) -> float:
    """Chernoff information between Bernoulli(p1) and Bernoulli(p2).

    The minimized log-sum-exp is the exponent objective of a channel whose
    (log p(1|0), log p(1|1), log p(0|0), log p(0|1)) are
    (log(1-p2), log(1-p1), log p2, log p1).
    """
    if not (0.0 < p1 < 1.0 and 0.0 < p2 < 1.0):
        raise ValueError("Bernoulli parameters must lie strictly inside (0, 1)")
    tails = (math.log1p(-p2), math.log1p(-p1), math.log(p2), math.log(p1))
    return max(0.0, -_scalar_min_s(tails, iters)[1])
