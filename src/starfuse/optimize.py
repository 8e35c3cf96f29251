"""Belief-tuple optimizers for the fusion agent's true risk.

Three routes to the minimum: exhaustive multi-resolution grid search (the
global oracle), cyclic fixed-step coordinate descent, and an exact-coordinate
variant that solves each local agent's stationarity condition directly and
line-searches the fusion belief.

The risk itself comes from ``network``: ``batch_risk`` evaluates grids and
bracketing scans as an axis of fusion beliefs against rows of local beliefs
(a grid's local rows are the product of its local axes, or one axis
repeated when the locals are tied). The loops that move one belief at a
time use ``_risk_evaluator``, a pure-Python scalar copy of the same formula,
built once per descent run or line search, that memoizes per-belief tails;
tests pin it to ``exact_risk``.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .network import (
    NetworkConfig,
    NetworkTemplate,
    batch_risk,
    exact_risk,
    pinned_fusion_errors,
)
from .observation import BELIEF_EPS, from_log_odds, log_odds

# Search grids stay strictly inside (0, 1); beliefs at the very edge are
# handled by the uniform clamp anyway.
GRID_LO = 1e-6
GRID_HI = 1.0 - 1e-6

COARSE_RESOLUTION = 0.02

# Points of the scan that brackets the fusion belief's global basin.
FUSION_SCAN_POINTS = 193

# Seed for the multi-restart initializations; fixed so reruns are identical.
RESTART_SEED = 1729

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class OptimizerSettings:
    step: float = 5e-4
    eps: float = 1e-4
    max_iters: int = 2000
    restarts: int = 8
    grid_resolution: float = 2e-4
    tie_local_beliefs: bool = False

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be positive integers")
        if not 0.0 < self.grid_resolution < 0.5:
            raise ValueError("grid_resolution must lie in (0, 0.5)")


@dataclass(frozen=True)
class OptimizationResult:
    beliefs: tuple[float, ...]
    risk: float
    iterations: int
    converged: bool
    stationarity_residual: float
    trace: tuple[tuple[float, ...], ...] | None = None


def _risk_evaluator(template: NetworkTemplate):
    """Scalar exact risk of belief tuples for one optimizer run.

    Returns ``risk(beliefs)`` with the fusion belief first. The descent loops
    call it tens of thousands of times with tiny networks, where numpy array
    overhead would dominate, and between two calls usually only one belief
    moves. So the closure memoizes, keyed by the exact float value of a
    belief, each local belief's decide-1 tails and each fusion belief's
    per-count fusion error probabilities; the count DP and the final mix are
    recomputed on every call. Agrees with ``exact_risk`` to machine precision.

    Raises ``ValueError`` naming the fusion belief and sigma when a Gaussian
    tail of the fusion threshold underflows to 0, since the fusion
    log-likelihood ratios are then undefined.
    """
    model, costs = template.model, template.costs
    s = model.sigma
    v = model.variance_proxy
    logc = costs.log_ratio
    n = template.n_local
    weight_fa = costs.c_fa * template.pi0
    weight_md = costs.c_md * (1.0 - template.pi0)
    local_tails = {}
    fusion_errors = {}

    def lodds(q):
        q = min(max(q, BELIEF_EPS), 1.0 - BELIEF_EPS)
        return math.log(q) - math.log1p(-q)

    def q_tail(x):
        return 0.5 * math.erfc(x / _SQRT2)

    def tails_of(q):
        lam = 0.5 + v * (logc + lodds(q))
        return q_tail(lam / s), q_tail((lam - 1.0) / s)

    def errors_of(q0):
        ell0 = lodds(q0)
        lam_f = 0.5 + v * (logc + ell0)
        tails = (q_tail(-lam_f / s), q_tail(-(lam_f - 1.0) / s),
                 q_tail(lam_f / s), q_tail((lam_f - 1.0) / s))
        if min(tails) == 0.0:
            raise ValueError(f"fusion belief {q0!r} at sigma={s!r}: a Gaussian tail of its "
                             f"threshold {lam_f!r} underflows to 0, so the fusion "
                             f"log-likelihood ratios are undefined")
        l_zero = math.log(tails[0]) - math.log(tails[1])
        l_one = math.log(tails[2]) - math.log(tails[3])
        fa, md = [], []
        for k in range(n + 1):
            lam = 0.5 + v * (logc + ell0 + (n - k) * l_zero + k * l_one)
            fa.append(q_tail(lam / s))
            md.append(q_tail(-(lam - 1.0) / s))
        return fa, md

    def risk(beliefs) -> float:
        pmf0 = [1.0] + [0.0] * n
        pmf1 = [1.0] + [0.0] * n
        for i in range(n):
            q = beliefs[1 + i]
            t = local_tails.get(q)
            if t is None:
                t = local_tails[q] = tails_of(q)
            t0, t1 = t
            for k in range(i + 1, 0, -1):
                pmf0[k] = pmf0[k] * (1.0 - t0) + pmf0[k - 1] * t0
                pmf1[k] = pmf1[k] * (1.0 - t1) + pmf1[k - 1] * t1
            pmf0[0] *= 1.0 - t0
            pmf1[0] *= 1.0 - t1

        q0 = beliefs[0]
        errors = fusion_errors.get(q0)
        if errors is None:
            errors = fusion_errors[q0] = errors_of(q0)
        fa, md = errors
        p_fa0 = 0.0
        p_md0 = 0.0
        for k in range(n + 1):
            p_fa0 += pmf0[k] * fa[k]
            p_md0 += pmf1[k] * md[k]
        return weight_fa * p_fa0 + weight_md * p_md0

    return risk


def _axis(lo: float, hi: float, res: float) -> np.ndarray:
    lo = max(lo, GRID_LO)
    hi = min(hi, GRID_HI)
    axis = np.round(np.arange(lo, hi + res / 2.0, res), 12)
    # The half-step stop overshoots a window clipped at GRID_HI, up to 1.0.
    return axis[axis <= GRID_HI]


def _expand(row: np.ndarray, tie: bool, n_local: int) -> tuple[float, ...]:
    if tie:
        return (float(row[0]),) + (float(row[1]),) * n_local
    return tuple(float(x) for x in row)


def grid_search(template: NetworkTemplate, settings: OptimizerSettings) -> OptimizationResult:
    """Exhaustive grid minimization of the exact risk.

    Multi-resolution: a coarse pass over the full interval followed by
    tenfold refinements of a window around the incumbent, down to
    ``settings.grid_resolution``. The reduction is a first-minimum argmin
    over row-major enumeration, so ties break deterministically to the
    lexicographically smallest belief tuple.

    Without ``tie_local_beliefs`` the full (N+1)-dimensional product grid is
    searched, which is only allowed for N <= 3.
    """
    if 1.0 / settings.grid_resolution > 1e4:
        raise ValueError("grid_resolution finer than 1e-4 (more than 10^4 points per axis)")
    tie = settings.tie_local_beliefs
    if not tie and template.n_local > 3:
        raise ValueError("full grid search is limited to N <= 3; set tie_local_beliefs for larger networks")
    ndim = 2 if tie else template.n_local + 1

    resolutions = [max(COARSE_RESOLUTION, settings.grid_resolution)]
    while resolutions[-1] > settings.grid_resolution:
        resolutions.append(max(resolutions[-1] / 10.0, settings.grid_resolution))

    coarse = resolutions[0]
    axes = [_axis(coarse, 1.0 - coarse, coarse)] * ndim
    evaluated = 0
    best_row = None
    for stage, res in enumerate(resolutions):
        if stage > 0:
            window = 2.0 * resolutions[stage - 1]
            axes = [_axis(c - window, c + window, res) for c in best_row]
        # Row-major over (q0, local axes...), so the first-minimum argmin
        # breaks ties as a scan of the full product grid would.
        local = np.stack([m.ravel() for m in np.meshgrid(*axes[1:], indexing="ij")], axis=1)
        q_local = np.repeat(local, template.n_local, axis=1) if tie else local
        risks = batch_risk(template, axes[0], q_local)
        evaluated += risks.size
        i, j = np.unravel_index(int(np.argmin(risks)), risks.shape)
        best_row = np.concatenate(([axes[0][i]], local[j]))

    beliefs = _expand(best_row, tie, template.n_local)
    config = template.config(beliefs[0], beliefs[1:])
    return OptimizationResult(
        beliefs=beliefs,
        risk=exact_risk(config).r0,
        iterations=evaluated,
        converged=True,
        stationarity_residual=stationarity_residual(config),
    )


def golden_section(f, lo: float, hi: float, tol: float) -> float:
    """Minimize a unimodal scalar function on [lo, hi] to within ``tol``."""
    a, b = float(lo), float(hi)
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = f(d)
    return 0.5 * (a + b)


def minimize_fusion_belief(template: NetworkTemplate, q_local, tol: float = 1e-6) -> float:
    """Best fusion belief against fixed local beliefs.

    The risk along the fusion-belief axis can grow a shallow secondary dip
    near the interval edges, so a coarse scan brackets the global basin
    before golden-section refinement.
    """
    q_local = tuple(q_local)
    grid = np.linspace(0.02, 0.98, FUSION_SCAN_POINTS)
    risks = batch_risk(template, grid, [q_local])[:, 0]
    i = int(np.argmin(risks))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    risk = _risk_evaluator(template)
    return golden_section(lambda q0: risk((q0,) + q_local), lo, hi, tol)


def pbpo(template: NetworkTemplate, settings: OptimizerSettings,
         init=None, seed: int = RESTART_SEED) -> OptimizationResult:
    """Cyclic fixed-step coordinate descent on the belief tuple.

    Each sweep visits the fusion belief then every local belief, compares the
    risk one ``step`` up against one ``step`` down, and moves to the better
    side; a coordinate stays put when neither side improves on the current
    value, which keeps the per-sweep risk trace non-increasing all the way to
    the quantized floor. Stops when the tuple's 2-norm change over a sweep is
    at most ``eps``, or after ``max_iters`` sweeps (reported via
    ``converged=False``, not an exception).

    Each run evaluates the risk through one ``_risk_evaluator``, so a probe
    recomputes only the tails of beliefs it has not seen in that run.
    Raises ``ValueError`` naming the fusion belief and sigma when the fusion
    belief reaches a value (typically the clamp edge) where a Gaussian tail
    of its threshold underflows.

    With ``init=None`` the best of ``settings.restarts`` runs from seeded
    uniform-random initializations is returned.
    """
    return _multi_start(_pbpo_run, template, settings, init, seed)


def pbpo_exact(template: NetworkTemplate, settings: OptimizerSettings,
               init=None, seed: int = RESTART_SEED) -> OptimizationResult:
    """Coordinate descent with exact per-coordinate minimization.

    The fusion belief is line-searched (bracketing scan plus golden section,
    tolerance ``eps/10``); each local belief jumps straight to the solution
    of its stationarity balance, which is the coordinate minimizer. Far fewer
    sweeps than the fixed-step variant for the same answer.
    """
    return _multi_start(_pbpo_exact_run, template, settings, init, seed)


def _multi_start(run, template, settings, init, seed):
    if init is not None:
        return run(template, settings, tuple(float(q) for q in init))
    rng = np.random.default_rng(seed)
    inits = rng.uniform(0.02, 0.98, size=(settings.restarts, template.n_local + 1))
    best = None
    for row in inits:
        result = run(template, settings, tuple(row))
        if best is None or result.risk < best.risk:
            best = result
    return best


def _pbpo_run(template, settings, init):
    if len(init) != template.n_local + 1:
        raise ValueError(f"init must have {template.n_local + 1} beliefs")
    step = settings.step
    lo, hi = BELIEF_EPS, 1.0 - BELIEF_EPS
    risk_of = _risk_evaluator(template)
    q = [float(x) for x in init]
    risk = risk_of(q)
    trace = [tuple(q) + (risk,)]
    converged = False
    sweeps = 0
    for sweeps in range(1, settings.max_iters + 1):
        previous = q  # moves rebind q to a new list, never mutate it
        for i in range(len(q)):
            qi = q[i]
            up = q[:i] + [min(qi + step, hi)] + q[i + 1:]
            down = q[:i] + [max(qi - step, lo)] + q[i + 1:]
            r_up = risk_of(up)
            r_down = risk_of(down)
            if min(r_up, r_down) < risk:
                if r_up < r_down:
                    q, risk = up, r_up
                else:
                    q, risk = down, r_down
        trace.append(tuple(q) + (risk,))
        if trace[-1][-1] > trace[-2][-1] + 1e-15:
            raise AssertionError("risk increased across a sweep")
        if math.dist(q, previous) <= settings.eps:
            converged = True
            break
    return _finish(template, q, sweeps, converged, trace)


def _pbpo_exact_run(template, settings, init):
    if len(init) != template.n_local + 1:
        raise ValueError(f"init must have {template.n_local + 1} beliefs")
    risk_of = _risk_evaluator(template)
    q = [float(x) for x in init]
    trace = [tuple(q) + (risk_of(q),)]
    converged = False
    sweeps = 0
    for sweeps in range(1, settings.max_iters + 1):
        previous = list(q)
        q[0] = minimize_fusion_belief(template, q[1:], tol=settings.eps / 10.0)
        for j in range(1, len(q)):
            config = template.config(q[0], q[1:])
            q[j], _ = exact_coordinate_update(config, j)
        trace.append(tuple(q) + (risk_of(q),))
        if math.dist(q, previous) <= settings.eps:
            converged = True
            break
    return _finish(template, q, sweeps, converged, trace)


def _finish(template, q, sweeps, converged, trace):
    config = template.config(q[0], q[1:])
    return OptimizationResult(
        beliefs=tuple(float(x) for x in q),
        risk=exact_risk(config).r0,
        iterations=sweeps,
        converged=converged,
        stationarity_residual=stationarity_residual(config),
        trace=tuple(trace),
    )


def _pinned_differences(config: NetworkConfig):
    """Per-agent bracketed differences of the stationarity balance: the rise
    in fusion false alarms and the fall in fusion misses when each agent's
    decision flips from 0 to 1, as two length-N arrays."""
    fa, md = pinned_fusion_errors(config)
    return fa[1] - fa[0], md[0] - md[1]


def exact_coordinate_update(config: NetworkConfig, j: int):
    """Solve the stationarity balance for local agent ``j`` directly.

    The balance equates agent ``j``'s belief odds to the prior odds scaled by
    the ratio of fusion error-probability changes between the agent's two
    possible decisions; that ratio does not depend on ``q_j`` itself, so the
    coordinate minimizer comes out in closed form.

    Returns ``(belief, degenerate)``. ``degenerate`` is True when pinning the
    agent's decision cannot move the fusion outcome (a non-positive
    bracketed difference); the belief is then returned unchanged. Raises
    ``ValueError`` when a bracketed difference is not finite (the fusion
    error probabilities underflowed), since no belief would be meaningful.
    """
    if not 1 <= j <= config.n_local:
        raise IndexError(f"local agent index {j} out of range 1..{config.n_local}")
    d_fa, d_md = (float(d[j - 1]) for d in _pinned_differences(config))
    if not (math.isfinite(d_fa) and math.isfinite(d_md)):
        raise ValueError(f"pinned fusion error differences for agent {j} are not finite "
                         f"({d_fa!r}, {d_md!r})")
    if d_fa <= 0.0 or d_md <= 0.0:
        return config.q_local[j - 1], True
    ell = log_odds(config.pi0) + math.log(d_fa) - math.log(d_md)
    q = float(from_log_odds(ell))
    return min(max(q, BELIEF_EPS), 1.0 - BELIEF_EPS), False


def stationarity_residual(config: NetworkConfig) -> float:
    """Largest per-agent violation of the stationarity balance, in log-odds.

    Zero at any interior stationary point; ``inf`` when some bracketed
    error-probability difference is non-positive (degenerate pinning);
    ``nan`` when some difference is not finite. Every agent's pinned fusion
    errors come from one ``pinned_fusion_errors`` call, so the whole
    residual costs O(N^2).
    """
    d_fa, d_md = _pinned_differences(config)
    if not (np.isfinite(d_fa).all() and np.isfinite(d_md).all()):
        return math.nan
    if (d_fa <= 0.0).any() or (d_md <= 0.0).any():
        return math.inf
    prior = log_odds(config.pi0)
    return max(abs(log_odds(q) - prior - (math.log(a) - math.log(b)))
               for q, a, b in zip(config.q_local, d_fa, d_md))


@dataclass(frozen=True)
class SweepPoint:
    pi0: float
    q0_opt: float
    q1_opt: float
    risk_opt: float


def optimal_belief_sweep(template: NetworkTemplate, pi0_values,
                         settings: OptimizerSettings | None = None) -> list[SweepPoint]:
    """Tied-belief grid optimum for every prior in ``pi0_values``."""
    if settings is None:
        settings = OptimizerSettings(tie_local_beliefs=True)
    elif not settings.tie_local_beliefs:
        settings = dataclasses.replace(settings, tie_local_beliefs=True)
    points = []
    for pi0 in pi0_values:
        result = grid_search(dataclasses.replace(template, pi0=float(pi0)), settings)
        points.append(SweepPoint(float(pi0), result.beliefs[0], result.beliefs[1], result.risk))
    return points
