"""Prelec probability reweighting and what it costs the fusion agent.

The optimal local-belief curve (as a function of the true prior) closely
resembles a Prelec reweighting of the prior. This module fits the curve in
the sup-norm sense and measures the extra risk incurred when local agents
are constrained to the fitted reweighting.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .network import NetworkTemplate, exact_risk
from .observation import BELIEF_EPS
from .optimize import SweepPoint, minimize_fusion_belief

Q0_STRATEGIES = ("keep-optimal-q0", "reoptimize-q0")

# Log-spaced range and points per axis of the coarse (alpha, beta_w) grid
# that seeds the Prelec fit's Nelder-Mead refinement.
FIT_BOUNDS = (0.2, 3.0)
FIT_COARSE_POINTS = 25


@dataclass(frozen=True)
class PrelecParams:
    """Reweighting parameters; ``beta_w`` is the elevation exponent (named to
    stay clear of the asymptotic risk exponent used elsewhere)."""

    alpha: float
    beta_w: float

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta_w", self.beta_w)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name}={value!r} must be strictly positive and finite")


def prelec(p, params: PrelecParams):
    """w(p) = exp(-beta_w * (-log p) ** alpha) on [0, 1].

    Endpoints by continuous extension: w(0) = 0, w(1) = 1. Strictly
    increasing in between.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        neg_log = -np.log(arr)
    out = np.exp(-params.beta_w * np.abs(neg_log) ** params.alpha)
    return float(out) if np.ndim(p) == 0 else out


def fit_prelec_minimax(pi0_values, q1_values) -> tuple[PrelecParams, float]:
    """Sup-norm Prelec fit of a sampled belief curve.

    A coarse log-spaced grid over (alpha, beta_w) in ``FIT_BOUNDS`` squared seeds
    a Nelder-Mead refinement of the L-infinity objective in log-parameter
    space. Returns the fitted parameters and the achieved sup error, both
    evaluated on the given sample points only (no interpolation).
    """
    # Imported here, where it is used: scipy.optimize is the slowest import
    # of the package, and no other function needs it.
    from scipy import optimize as sciopt

    x = np.asarray(pi0_values, dtype=float)
    y = np.asarray(q1_values, dtype=float)
    if x.size == 0 or x.shape != y.shape:
        raise ValueError("curve must supply matching, non-empty pi0 and belief samples")

    def objective(log_params):
        params = PrelecParams(math.exp(log_params[0]), math.exp(log_params[1]))
        return float(np.max(np.abs(prelec(x, params) - y)))

    log_grid = np.linspace(math.log(FIT_BOUNDS[0]), math.log(FIT_BOUNDS[1]), FIT_COARSE_POINTS)
    best = None
    for la in log_grid:
        for lb in log_grid:
            value = objective((la, lb))
            if best is None or value < best[0]:
                best = (value, la, lb)
    refined = sciopt.minimize(
        objective,
        x0=np.array([best[1], best[2]]),
        method="Nelder-Mead",
        options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 4000},
    )
    params = PrelecParams(float(np.exp(refined.x[0])), float(np.exp(refined.x[1])))
    return params, float(refined.fun)


@dataclass(frozen=True)
class PrelecGapPoint:
    pi0: float
    q1_opt: float
    q1_prelec: float
    q0_used: float
    risk_opt: float
    risk_prelec: float

    @property
    def gap(self) -> float:
        return self.risk_prelec - self.risk_opt


def prelec_risk_gap(template: NetworkTemplate, params: PrelecParams, q0_strategy: str,
                    sweep: list[SweepPoint]) -> list[PrelecGapPoint]:
    """Risk cost of constraining the locals to a Prelec-reweighted prior.

    For every point of ``sweep``, an optimal belief sweep such as
    ``optimal_belief_sweep`` returns, the local beliefs are set to w(pi0)
    while the fusion belief either stays at the point's unconstrained optimum
    ("keep-optimal-q0") or is re-minimized against the constrained locals
    ("reoptimize-q0"). Rows come back in sweep order with both the optimal
    and the constrained risk.
    """
    if q0_strategy not in Q0_STRATEGIES:
        raise ValueError(f"q0_strategy must be one of {Q0_STRATEGIES}")
    points = []
    for item in sweep:
        w = prelec(item.pi0, params)
        w = min(max(float(w), BELIEF_EPS), 1.0 - BELIEF_EPS)
        local_template = dataclasses.replace(template, pi0=item.pi0)
        if q0_strategy == "keep-optimal-q0":
            q0_used = item.q0_opt
        else:
            q0_used = minimize_fusion_belief(local_template, (w,) * template.n_local)
        risk_prelec = exact_risk(local_template.tied(q0_used, w)).r0
        points.append(PrelecGapPoint(
            pi0=item.pi0,
            q1_opt=item.q1_opt,
            q1_prelec=w,
            q0_used=q0_used,
            risk_opt=item.risk_opt,
            risk_prelec=risk_prelec,
        ))
    return points
