"""Belief-tuple optimizers for the fusion agent's true risk.

Three routes to the minimum: exhaustive multi-resolution grid search (the
global oracle), cyclic fixed-step coordinate descent, and an exact-coordinate
variant that solves each local agent's stationarity condition directly and
line-searches the fusion belief.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .network import (
    NetworkConfig,
    NetworkTemplate,
    exact_risk,
    pinned_fusion_errors,
)
from .observation import BELIEF_EPS, from_log_odds, gaussian_q, log_odds

# Search grids stay strictly inside (0, 1); beliefs at the very edge are
# handled by the uniform clamp anyway.
GRID_LO = 1e-6
GRID_HI = 1.0 - 1e-6

COARSE_RESOLUTION = 0.02

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


def _batch_risk(template: NetworkTemplate, beliefs, chunk_size: int = 200_000) -> np.ndarray:
    """Exact risks for many belief tuples at once.

    ``beliefs`` has one row per candidate: column 0 the fusion belief, the
    remaining ``n_local`` columns the local beliefs. Rows are independent, so
    the output is identical for any ``chunk_size``.
    """
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    if beliefs.shape[1] != template.n_local + 1:
        raise ValueError(f"expected {template.n_local + 1} belief columns, got {beliefs.shape[1]}")
    out = np.empty(beliefs.shape[0])
    for start in range(0, beliefs.shape[0], chunk_size):
        stop = min(start + chunk_size, beliefs.shape[0])
        out[start:stop] = _batch_risk_chunk(template, beliefs[start:stop])
    return out


def _batch_risk_chunk(template: NetworkTemplate, beliefs: np.ndarray) -> np.ndarray:
    model, costs = template.model, template.costs
    s = model.sigma
    v = model.variance_proxy
    logc = costs.log_ratio
    n = template.n_local

    q = np.clip(beliefs, BELIEF_EPS, 1.0 - BELIEF_EPS)
    lo = np.log(q) - np.log1p(-q)

    lam_local = 0.5 + v * (logc + lo[:, 1:])
    t0 = gaussian_q(lam_local / s)
    t1 = gaussian_q((lam_local - 1.0) / s)
    m = beliefs.shape[0]
    pmf0 = np.zeros((m, n + 1))
    pmf1 = np.zeros((m, n + 1))
    pmf0[:, 0] = 1.0
    pmf1[:, 0] = 1.0
    for i in range(n):
        p0 = t0[:, i : i + 1]
        p1 = t1[:, i : i + 1]
        pmf0[:, 1:] = pmf0[:, 1:] * (1.0 - p0) + pmf0[:, :-1] * p0
        pmf0[:, 0] *= 1.0 - p0[:, 0]
        pmf1[:, 1:] = pmf1[:, 1:] * (1.0 - p1) + pmf1[:, :-1] * p1
        pmf1[:, 0] *= 1.0 - p1[:, 0]

    lam_f = 0.5 + v * (logc + lo[:, 0])
    l_zero = np.log(gaussian_q(-lam_f / s)) - np.log(gaussian_q(-(lam_f - 1.0) / s))
    l_one = np.log(gaussian_q(lam_f / s)) - np.log(gaussian_q((lam_f - 1.0) / s))
    k = np.arange(n + 1)
    ell = lo[:, :1] + (n - k)[None, :] * l_zero[:, None] + k[None, :] * l_one[:, None]
    lam = 0.5 + v * (logc + ell)
    fa = gaussian_q(lam / s)
    md = gaussian_q(-(lam - 1.0) / s)
    p_fa0 = np.sum(pmf0 * fa, axis=1)
    p_md0 = np.sum(pmf1 * md, axis=1)
    return costs.c_fa * template.pi0 * p_fa0 + costs.c_md * (1.0 - template.pi0) * p_md0


def _risk_of(template: NetworkTemplate, beliefs) -> float:
    """Scalar exact risk on a pure-Python fast path.

    The descent loops call this tens of thousands of times with tiny
    networks, where numpy array overhead would dominate; agrees with
    ``exact_risk`` to machine precision.
    """
    model, costs = template.model, template.costs
    s = model.sigma
    v = model.variance_proxy
    logc = costs.log_ratio
    n = template.n_local

    def lodds(q):
        q = min(max(q, BELIEF_EPS), 1.0 - BELIEF_EPS)
        return math.log(q) - math.log1p(-q)

    def q_tail(x):
        return 0.5 * math.erfc(x / _SQRT2)

    pmf0 = [1.0] + [0.0] * n
    pmf1 = [1.0] + [0.0] * n
    for i in range(n):
        lam = 0.5 + v * (logc + lodds(beliefs[1 + i]))
        t0 = q_tail(lam / s)
        t1 = q_tail((lam - 1.0) / s)
        for k in range(i + 1, 0, -1):
            pmf0[k] = pmf0[k] * (1.0 - t0) + pmf0[k - 1] * t0
            pmf1[k] = pmf1[k] * (1.0 - t1) + pmf1[k - 1] * t1
        pmf0[0] *= 1.0 - t0
        pmf1[0] *= 1.0 - t1

    ell0 = lodds(beliefs[0])
    lam_f = 0.5 + v * (logc + ell0)
    l_zero = math.log(q_tail(-lam_f / s)) - math.log(q_tail(-(lam_f - 1.0) / s))
    l_one = math.log(q_tail(lam_f / s)) - math.log(q_tail((lam_f - 1.0) / s))
    p_fa0 = 0.0
    p_md0 = 0.0
    for k in range(n + 1):
        lam = 0.5 + v * (logc + ell0 + (n - k) * l_zero + k * l_one)
        p_fa0 += pmf0[k] * q_tail(lam / s)
        p_md0 += pmf1[k] * q_tail(-(lam - 1.0) / s)
    return costs.c_fa * template.pi0 * p_fa0 + costs.c_md * (1.0 - template.pi0) * p_md0


def _axis(lo: float, hi: float, res: float) -> np.ndarray:
    lo = max(lo, GRID_LO)
    hi = min(hi, GRID_HI)
    return np.round(np.arange(lo, hi + res / 2.0, res), 12)


def _expand(row: np.ndarray, tie: bool, n_local: int) -> tuple[float, ...]:
    if tie:
        return (float(row[0]),) + (float(row[1]),) * n_local
    return tuple(float(x) for x in row)


def grid_search(template: NetworkTemplate, settings: OptimizerSettings,
                chunk_size: int = 200_000) -> OptimizationResult:
    """Exhaustive grid minimization of the exact risk.

    Multi-resolution: a coarse pass over the full interval followed by
    tenfold refinements of a window around the incumbent, down to
    ``settings.grid_resolution``. The reduction is a first-minimum argmin
    over row-major enumeration, so ties break deterministically to the
    lexicographically smallest belief tuple and the result is independent of
    evaluation chunking.

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
        mesh = np.meshgrid(*axes, indexing="ij")
        rows = np.stack([m.ravel() for m in mesh], axis=1)
        risks = _batch_risk(template, _tie_columns(rows, tie, template.n_local), chunk_size)
        evaluated += rows.shape[0]
        best_row = rows[int(np.argmin(risks))]

    beliefs = _expand(best_row, tie, template.n_local)
    config = template.config(beliefs[0], beliefs[1:])
    return OptimizationResult(
        beliefs=beliefs,
        risk=exact_risk(config).r0,
        iterations=evaluated,
        converged=True,
        stationarity_residual=stationarity_residual(config),
    )


def _tie_columns(rows: np.ndarray, tie: bool, n_local: int) -> np.ndarray:
    if not tie:
        return rows
    return np.column_stack([rows[:, 0]] + [rows[:, 1]] * n_local)


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


def minimize_fusion_belief(template: NetworkTemplate, q_local, tol: float = 1e-6,
                           scan_points: int = 193) -> float:
    """Best fusion belief against fixed local beliefs.

    The risk along the fusion-belief axis can grow a shallow secondary dip
    near the interval edges, so a coarse scan brackets the global basin
    before golden-section refinement.
    """
    q_local = tuple(q_local)
    grid = np.linspace(0.02, 0.98, scan_points)
    rows = np.column_stack([grid] + [np.full_like(grid, q) for q in q_local])
    risks = _batch_risk(template, rows)
    i = int(np.argmin(risks))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    return golden_section(lambda q0: _risk_of(template, (q0,) + q_local), lo, hi, tol)


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
    q = np.array(init, dtype=float)
    risk = _risk_of(template, q)
    trace = [tuple(q) + (risk,)]
    converged = False
    sweeps = 0
    for sweeps in range(1, settings.max_iters + 1):
        previous = q.copy()
        for i in range(len(q)):
            up = q.copy()
            up[i] = min(q[i] + step, hi)
            down = q.copy()
            down[i] = max(q[i] - step, lo)
            r_up = _risk_of(template, up)
            r_down = _risk_of(template, down)
            if min(r_up, r_down) < risk:
                if r_up < r_down:
                    q, risk = up, r_up
                else:
                    q, risk = down, r_down
        trace.append(tuple(q) + (risk,))
        if trace[-1][-1] > trace[-2][-1] + 1e-15:
            raise AssertionError("risk increased across a sweep")
        if float(np.linalg.norm(q - previous)) <= settings.eps:
            converged = True
            break
    return _finish(template, q, sweeps, converged, trace)


def _pbpo_exact_run(template, settings, init):
    if len(init) != template.n_local + 1:
        raise ValueError(f"init must have {template.n_local + 1} beliefs")
    q = np.array(init, dtype=float)
    trace = [tuple(q) + (_risk_of(template, q),)]
    converged = False
    sweeps = 0
    for sweeps in range(1, settings.max_iters + 1):
        previous = q.copy()
        q[0] = minimize_fusion_belief(template, q[1:], tol=settings.eps / 10.0)
        for j in range(1, len(q)):
            config = template.config(q[0], q[1:])
            q[j], _ = exact_coordinate_update(config, j)
        trace.append(tuple(q) + (_risk_of(template, q),))
        if float(np.linalg.norm(q - previous)) <= settings.eps:
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


def _check_agent(config: NetworkConfig, j: int) -> None:
    if not 1 <= j <= config.n_local:
        raise IndexError(f"local agent index {j} out of range 1..{config.n_local}")


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
    _check_agent(config, j)
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


def monotone_rhs_check(config: NetworkConfig, j: int, i: int, grid=None) -> bool:
    """True when the stationarity balance's right side is strictly decreasing
    along ``grid`` substituted for local belief ``i`` (1-based, i != j).

    Exposed for the property suite; the order of ``grid`` is respected, so a
    reversed grid flags the increase.
    """
    if i == j:
        raise ValueError("indices i and j must differ")
    _check_agent(config, i)
    _check_agent(config, j)
    if grid is None:
        grid = np.round(np.arange(0.05, 0.951, 0.05), 10)
    values = []
    for qi in grid:
        q_local = list(config.q_local)
        q_local[i - 1] = float(qi)
        probe = dataclasses.replace(config, q_local=tuple(q_local))
        d_fa, d_md = (float(d[j - 1]) for d in _pinned_differences(probe))
        if d_fa <= 0.0 or d_md <= 0.0:
            return False
        values.append(math.log(d_fa) - math.log(d_md))
    return all(b < a for a, b in zip(values, values[1:]))


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
