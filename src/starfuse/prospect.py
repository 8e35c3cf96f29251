"""Prelec probability reweighting and what it costs the fusion agent.

The optimal local-belief curve (as a function of the true prior) closely
resembles a Prelec reweighting of the prior. This module fits the curve in
the sup-norm sense, a coarse grid refined by ``optimize.nelder_mead``, and
measures the extra risk incurred when local agents are constrained to the
fitted reweighting.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .network import NetworkTemplate, exact_risk
from .observation import check_real, clamp
from .optimize import FusionLineSearch, SweepPoint, nelder_mead, risk_not_finite

Q0_STRATEGIES = ("keep-optimal-q0", "reoptimize-q0")

# Log-spaced range and points per axis of the coarse (alpha, beta_w) grid
# whose best point starts the Prelec fit's ``nelder_mead`` refinement.
FIT_BOUNDS = (0.2, 3.0)
FIT_COARSE_POINTS = 25


@dataclass(frozen=True)
class PrelecParams:
    """Reweighting parameters; ``beta_w`` is the elevation exponent (named to
    stay clear of the asymptotic risk exponent used elsewhere)."""

    alpha: float
    beta_w: float

    def __post_init__(self):
        for name in ("alpha", "beta_w"):
            value = check_real(name, getattr(self, name))
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name}={value!r} must be strictly positive and finite")
            object.__setattr__(self, name, value)


def prelec(p, params: PrelecParams):
    """w(p) = exp(-beta_w * (-log p) ** alpha) on [0, 1].

    Endpoints by continuous extension: w(0) = 0, w(1) = 1. Strictly
    increasing in between.
    """
    out = _prelec_weights(p, params.alpha, params.beta_w)
    return float(out) if np.ndim(p) == 0 else out


def _prelec_weights(p, alpha, beta_w):
    """``prelec``'s w(p) as an array, with ``alpha`` and ``beta_w`` floats
    or arrays that broadcast against ``p``: the one form of the formula, so
    the fit's coarse grid gives each of its points ``prelec``'s doubles."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        neg_log = -np.log(arr)
    return np.exp(-beta_w * np.abs(neg_log) ** alpha)


def fit_prelec_minimax(pi0_values, q1_values) -> tuple[PrelecParams, float]:
    """Sup-norm Prelec fit of a sampled belief curve.

    A coarse log-spaced grid over (alpha, beta_w) in ``FIT_BOUNDS`` squared,
    evaluated in one array pass with the objective's doubles, seeds
    ``optimize.nelder_mead``'s refinement of the L-infinity objective in
    log-parameter space (``xatol`` 1e-7, ``fatol`` 1e-12, 4,000 iterations:
    scipy's Nelder-Mead with these options gives the same doubles). Returns
    the fitted parameters and their sup error, both evaluated on the given
    sample points only (no interpolation), so the error is ``max
    |prelec(pi0_values, params) - q1_values|`` to the last bit. Fewer than 3
    samples raise ``ValueError``: the two parameters fit so few points
    whatever the curve; so does a sample that is not finite.
    """
    x = np.asarray(pi0_values, dtype=float)
    y = np.asarray(q1_values, dtype=float)
    if x.size == 0 or x.shape != y.shape:
        raise ValueError("curve must supply matching, non-empty pi0 and belief samples")
    if x.size < 3:
        raise ValueError(f"a Prelec fit of 2 parameters needs at least 3 samples, got {x.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("a Prelec fit needs finite pi0 and belief samples")

    def objective(log_params):
        params = PrelecParams(math.exp(log_params[0]), math.exp(log_params[1]))
        return float(np.max(np.abs(prelec(x, params) - y)))

    log_grid = np.linspace(math.log(FIT_BOUNDS[0]), math.log(FIT_BOUNDS[1]), FIT_COARSE_POINTS)
    grid = np.array([math.exp(v) for v in log_grid.tolist()])  # the objective's doubles
    # The sup error of every (alpha, beta_w) of the grid, alpha on the first
    # axis, over the samples 1,024 at a time, so a long curve holds at most
    # 1,024 weights a grid point at once.
    sup = np.zeros((FIT_COARSE_POINTS, FIT_COARSE_POINTS))
    for start in range(0, x.size, 1024):
        weights = _prelec_weights(x.flat[start:start + 1024], grid[:, None, None], grid[:, None])
        sup = np.maximum(sup, np.max(np.abs(weights - y.flat[start:start + 1024]), axis=-1))
    i, j = divmod(int(np.argmin(sup)), FIT_COARSE_POINTS)  # the first minimum, row by row
    x_best, sup_error = nelder_mead(objective, log_grid[[i, j]],
                                    xatol=1e-7, fatol=1e-12, max_iters=4000)
    params = PrelecParams(math.exp(x_best[0]), math.exp(x_best[1]))
    return params, float(sup_error)


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
    and the constrained risk; ``FloatingPointError`` at the first point whose
    constrained risk is not finite, as ``optimize`` words it.

    Each re-minimization is ``minimize_fusion_belief`` at the point's prior,
    with the same doubles and errors; its bracketing scan's fusion error
    table depends on no prior, so one ``FusionLineSearch`` table serves
    every point of the call.
    """
    if q0_strategy not in Q0_STRATEGIES:
        raise ValueError(f"q0_strategy must be one of {Q0_STRATEGIES}")
    search = FusionLineSearch(template) if q0_strategy == "reoptimize-q0" else None
    points = []
    for item in sweep:
        w = prelec(item.pi0, params)
        w = clamp(float(w))
        local_template = dataclasses.replace(template, pi0=item.pi0)
        if q0_strategy == "keep-optimal-q0":
            q0_used = item.q0_opt
        else:
            q0_used = search.at_prior(item.pi0)((w,) * template.n_local)
        risk_prelec = exact_risk(local_template.tied(q0_used, w)).r0
        if not math.isfinite(risk_prelec):
            raise risk_not_finite(q0_used, template.model.sigma)
        points.append(PrelecGapPoint(
            pi0=item.pi0,
            q1_opt=item.q1_opt,
            q1_prelec=w,
            q0_used=q0_used,
            risk_opt=item.risk_opt,
            risk_prelec=risk_prelec,
        ))
    return points
