"""Belief-tuple optimizers for the fusion agent's true risk.

Three routes to the minimum: exhaustive multi-resolution grid search (the
global oracle), cyclic fixed-step coordinate descent, and an exact-coordinate
variant that solves each local agent's stationarity condition directly and
line-searches the fusion belief.

The risk itself comes from ``network``. Grid stages take
``fusion_error_rates``, the fusion error probabilities of an axis of fusion
beliefs against rows of local beliefs (a grid's local rows are the product
of its local axes, or one axis repeated when the locals are tied), and
weight them with ``bayes_risk``: the true prior enters only that final
weighting, so ``optimal_belief_sweep`` builds the coarse grid's tables once
for every prior, and each finer stage builds many priors' windows in one
call; ``grid_search`` is the one-prior case of the same stage loop.
The loops that move one belief at a time use ``_RiskEvaluator``, a
pure-Python scalar copy of the same formula that memoizes per-belief tails;
tests pin it to ``exact_risk``. It exposes the formula's two steps, folding
one local into the count pmfs and mixing the pmfs with a fusion belief's
per-count errors, so each loop redoes only what a probe changes:

- ``pbpo`` keeps the prefix count pmfs of the current tuple, with one
  evaluator per run. A fusion probe is one O(N) mix; a probe of local i
  refolds locals i..N only.
- ``FusionLineSearch`` is the fusion-belief line search, built once per
  public call that searches: its bracketing scan's fusion error table
  (``network.fusion_error_table``, which depends only on sigma, the costs
  and N) and one evaluator memo serve every search of that call. A search
  mixes the table with its locals' count pmfs (``network.mix_fusion_table``,
  the risks ``batch_risk`` gives), folds its fixed locals once and makes
  each golden-section probe one mix. ``minimize_fusion_belief`` is a
  one-shot search; ``pbpo_exact`` shares one search across all its sweeps
  and restarts, and ``prospect.prelec_risk_gap`` one table across its
  priors. Nothing outlives the public call.
- ``pbpo_exact`` updates every local of a sweep from one
  ``network.pinned_fusion_sweep``, O(N^2) per sweep, and hands each pass
  the locals' rate columns of the one before, so a local's rates are
  formed once per belief value.

Each gives the same doubles as recomputing the risk from scratch, which
``tests/test_descent_reference.py`` checks against reference copies.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .network import (
    BATCH_CHUNK_ROWS,
    NetworkConfig,
    NetworkTemplate,
    batch_risk,
    bayes_risk,
    exact_risk,
    fusion_error_rates,
    fusion_error_table,
    mix_fusion_table,
    pinned_fusion_errors,
    pinned_fusion_sweep,
)
from .observation import BELIEF_EPS, check_prior, from_log_odds, fusion_log_factors, log_odds

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


class _RiskEvaluator:
    """Scalar exact risk of belief tuples for one optimizer run, in two steps.

    ``fold(pmfs, q)`` folds one more local agent, with belief ``q``, into a
    pair of count pmfs (under H0, under H1) and returns the longer pair; the
    pmfs of no agents are ``EMPTY``. ``mix(pmfs, q0)`` mixes the count pmfs
    of all N locals with fusion belief ``q0``'s per-count fusion errors and
    returns the risk. Calling the evaluator with a belief tuple, fusion
    belief first, composes the two. The descent loops call these tens of
    thousands of times with tiny networks, where numpy array overhead would
    dominate, and a probe usually moves one belief. So the evaluator
    memoizes, keyed by the exact float value of a belief, each local
    belief's four decision tails and each fusion belief's per-count fusion
    error probabilities, and the loops keep the prefix pmfs a probe does not
    change. Agrees with ``exact_risk`` to machine precision.

    ``mix`` raises ``FloatingPointError`` naming the fusion belief and sigma
    when its ``fusion_log_factors`` are not finite, which only a sigma
    outside about [1e-154, 1e152] brings about.

    Its tails come from ``math.erfc``, the one Gaussian tail kernel outside
    ``observation``; scipy's ``erfc``, which ``observation`` uses, differs
    from it in the last bit on many inputs. The descent's doubles are pinned
    as ``math.erfc`` gives them: ``tests/test_descent_reference.py``'s
    reference copies use it, and with scipy's kernel the last trace risk of
    ``pbpo``'s benchmark run moves by an ulp. It also costs about half of a
    scalar ``special.erfc`` call, in the loop that calls it most.
    """

    EMPTY = ((1.0,), (1.0,))

    def __init__(self, template: NetworkTemplate):
        model, costs = template.model, template.costs
        s = model.sigma
        v = model.variance_proxy
        logc = costs.log_ratio
        n = template.n_local
        weight_fa = costs.c_fa * template.pi0
        weight_md = costs.c_md * (1.0 - template.pi0)
        local_tails = {}
        fusion_errors = {}
        erfc = math.erfc
        # The steps are closures over these locals, not methods: in the
        # descent loops a cell lookup is cheaper than an attribute lookup.

        def lodds(q):
            q = min(max(q, BELIEF_EPS), 1.0 - BELIEF_EPS)
            return math.log(q) - math.log1p(-q)

        def q_tail(x):
            return 0.5 * erfc(x / _SQRT2)

        def errors_of(q0):
            ell0 = lodds(q0)
            l_zero, l_one = fusion_log_factors(model, costs, ell0)
            if not (math.isfinite(l_zero) and math.isfinite(l_one)):
                raise FloatingPointError(f"fusion belief {q0!r} at sigma={s!r}: its fusion log "
                                         f"factors ({l_zero!r}, {l_one!r}) are not finite")
            fa, md = [], []
            for k in range(n + 1):
                lam = 0.5 + v * (logc + ell0 + (n - k) * l_zero + k * l_one)
                fa.append(q_tail(lam / s))
                md.append(q_tail(-(lam - 1.0) / s))
            return fa, md

        def fold(pmfs, q):
            t = local_tails.get(q)
            if t is None:
                lam = 0.5 + v * (logc + lodds(q))
                x0, x1 = lam / s / _SQRT2, (lam - 1.0) / s / _SQRT2  # q_tail, inline
                t = local_tails[q] = (0.5 * erfc(x0), 0.5 * erfc(x1),
                                      0.5 * erfc(-x0), 0.5 * erfc(-x1))
            t0, t1, s0, s1 = t
            pmf0, pmf1 = pmfs
            # Count k keeps its mass at decide-0 rate s or takes count k-1's at
            # rate t; the new top is old top * t (in place: 0.0 * s + top * t).
            new0, new1 = [pmf0[0] * s0], [pmf1[0] * s1]
            for k in range(1, len(pmf0)):
                new0.append(pmf0[k] * s0 + pmf0[k - 1] * t0)
                new1.append(pmf1[k] * s1 + pmf1[k - 1] * t1)
            new0.append(pmf0[-1] * t0)
            new1.append(pmf1[-1] * t1)
            return new0, new1

        def mix(pmfs, q0):
            errors = fusion_errors.get(q0)
            if errors is None:
                errors = fusion_errors[q0] = errors_of(q0)
            fa, md = errors
            pmf0, pmf1 = pmfs
            p_fa0 = 0.0
            p_md0 = 0.0
            for k in range(n + 1):
                p_fa0 += pmf0[k] * fa[k]
                p_md0 += pmf1[k] * md[k]
            return weight_fa * p_fa0 + weight_md * p_md0

        self.fold = fold
        self.mix = mix

    def prefixes(self, q_local) -> list:
        """Count pmfs of the first 0, 1, ..., N locals of ``q_local``."""
        out = [self.EMPTY]
        for q in q_local:
            out.append(self.fold(out[-1], q))
        return out

    def __call__(self, beliefs) -> float:
        return self.mix(self.prefixes(beliefs[1:])[-1], beliefs[0])


def _axis(lo: float, hi: float, res: float) -> np.ndarray:
    lo = max(lo, GRID_LO)
    hi = min(hi, GRID_HI)
    axis = np.round(np.arange(lo, hi + res / 2.0, res), 12)
    # The half-step stop overshoots a window clipped at GRID_HI, up to 1.0.
    return axis[axis <= GRID_HI]


def _risk_not_finite(q0: float, sigma: float) -> FloatingPointError:
    return FloatingPointError(f"fusion belief q0={q0!r} at sigma={sigma!r}: its risk is not finite")


def _finite_rows(risks: np.ndarray, q0, sigma: float) -> np.ndarray:
    """``risks``, one row per fusion belief of ``q0``, raising
    ``FloatingPointError`` at the first row that is not finite."""
    if not np.isfinite(risks).all():
        raise _risk_not_finite(float(q0[np.argmin(np.isfinite(risks).all(axis=1))]), sigma)
    return risks


def checked_risks(template: NetworkTemplate, q0, q_local) -> np.ndarray:
    """``batch_risk``, raising ``FloatingPointError`` at the first non-finite risk row."""
    return _finite_rows(batch_risk(template, q0, q_local), q0, template.model.sigma)


def _expand(row: np.ndarray, tie: bool, n_local: int) -> tuple[float, ...]:
    if tie:
        return (float(row[0]),) + (float(row[1]),) * n_local
    return tuple(float(x) for x in row)


def _passes(grids, n_local: int):
    """The ``(priors, q0 axis, local rows, first row)`` blocks of a stage's
    ``(priors, q0 axis, local rows)`` grids, in lists for one
    ``fusion_error_rates`` call each. A block holds at most
    ``BATCH_CHUNK_ROWS`` (fusion belief, local row) pairs, as a pass of
    ``batch_risk`` does; a list takes blocks while their fusion beliefs and
    rows, N + 1 counts each, hold at most ``BATCH_CHUNK_ROWS`` table entries,
    so its tables do not grow with the number of priors."""
    batch, size = [], 0
    for priors, q0, local in grids:
        step = max(1, BATCH_CHUNK_ROWS // len(q0))
        for start in range(0, len(local), step):
            rows = local[start:start + step]
            cost = (len(q0) + len(rows)) * (n_local + 1)
            if batch and size + cost > BATCH_CHUNK_ROWS:
                yield batch
                batch, size = [], 0
            batch.append((priors, q0, rows, start))
            size += cost
    if batch:
        yield batch


def _grid_minima(template: NetworkTemplate, pi0_values: list, settings: OptimizerSettings) -> list:
    """``grid_search``'s best grid row (fusion belief, then the local axes)
    and its count of grid points, for the template at each prior of
    ``pi0_values``, with one stage loop for all of them.

    No prior enters ``fusion_error_rates``, so the coarse grid's rates are
    built once and each prior applies only its ``bayes_risk`` weights. A
    finer stage's windows differ by prior; the rates of many priors' windows
    come from one call. Each prior's stages, risks and first-minimum
    argmin are those of a search of its own. Raises the
    ``FloatingPointError`` of the first prior whose search meets a risk that
    is not finite.
    """
    if 1.0 / settings.grid_resolution > 1e4:
        raise ValueError("grid_resolution finer than 1e-4 (more than 10^4 points per axis)")
    tie = settings.tie_local_beliefs
    n = template.n_local
    if not tie and n > 3:
        raise ValueError("full grid search is limited to N <= 3; set tie_local_beliefs for larger networks")
    ndim = 2 if tie else n + 1

    resolutions = [max(COARSE_RESOLUTION, settings.grid_resolution)]
    while resolutions[-1] > settings.grid_resolution:
        resolutions.append(max(resolutions[-1] / 10.0, settings.grid_resolution))

    model, costs = template.model, template.costs
    coarse = resolutions[0]
    # (priors, axes) per grid: the coarse grid serves every prior.
    searches = [(range(len(pi0_values)), [_axis(coarse, 1.0 - coarse, coarse)] * ndim)]
    evaluated = [0] * len(pi0_values)
    failures = {}
    for stage, res in enumerate(resolutions):
        if stage > 0:
            window = 2.0 * resolutions[stage - 1]
            searches = [((p,), [_axis(c - window, c + window, res) for c in row])
                        for p, row in best.items()]
        # Row-major over (q0, local axes...), so the first-minimum argmin
        # breaks ties as a scan of the full product grid would.
        grids = [(priors, axes[0],
                  np.stack([m.ravel() for m in np.meshgrid(*axes[1:], indexing="ij")], axis=1))
                 for priors, axes in searches]
        minima, first_bad = {}, {}  # per prior: (risk, i, j) and the first non-finite q0 row
        for batch in _passes(grids, n):
            # A view, so that network forms a tied row's rates once, not n times.
            blocks = [(q0, np.broadcast_to(rows, (len(rows), n)) if tie else rows)
                      for _, q0, rows, _ in batch]
            rates_of = fusion_error_rates(model, costs, blocks)
            for (priors, q0, _, start), rates in zip(batch, rates_of):
                for p in priors:
                    risks = bayes_risk(pi0_values[p], costs, *rates)
                    evaluated[p] += risks.size
                    if not np.isfinite(risks).all():
                        bad = int(np.argmin(np.isfinite(risks).all(axis=1)))
                        first_bad[p] = min(first_bad.get(p, bad), bad)
                    i, j = np.unravel_index(int(np.argmin(risks)), risks.shape)
                    # Blocks split a grid's rows only; the least (risk, i, j)
                    # over them is the grid's row-major first minimum.
                    found = (float(risks[i, j]), int(i), start + int(j))
                    if p not in minima or found < minima[p]:
                        minima[p] = found
        best = {}
        for priors, q0, local in grids:
            for p in priors:
                if p in first_bad:
                    failures[p] = _risk_not_finite(float(q0[first_bad[p]]), model.sigma)
                else:
                    _, i, j = minima[p]
                    best[p] = np.concatenate(([q0[i]], local[j]))
    if failures:
        raise failures[min(failures)]
    return [(best[p], evaluated[p]) for p in range(len(pi0_values))]


def grid_search(template: NetworkTemplate, settings: OptimizerSettings) -> OptimizationResult:
    """Exhaustive grid minimization of the exact risk.

    Multi-resolution: a coarse pass over the full interval followed by
    tenfold refinements of a window around the incumbent, down to
    ``settings.grid_resolution``. The reduction is a first-minimum argmin
    over row-major enumeration, so ties break deterministically to the
    lexicographically smallest belief tuple. Each stage weights the
    prior-free ``network.fusion_error_rates`` of its grid at the template's
    prior; ``optimal_belief_sweep`` runs the same stages for many priors.

    Without ``tie_local_beliefs`` the full (N+1)-dimensional product grid is
    searched, which is only allowed for N <= 3. Raises ``FloatingPointError``
    when a grid point's risk is not finite.
    """
    [(row, evaluated)] = _grid_minima(template, [template.pi0], settings)
    beliefs = _expand(row, settings.tie_local_beliefs, template.n_local)
    config = template.config(beliefs[0], beliefs[1:])
    return OptimizationResult(
        beliefs=beliefs,
        risk=exact_risk(config).r0,
        iterations=evaluated,
        converged=True,
        stationarity_residual=stationarity_residual(config),
    )


def golden_section(f, lo: float, hi: float, tol: float) -> float:
    """Minimize a unimodal scalar function on [lo, hi] to within ``tol``.

    Also stops once the search can no longer narrow [a, b]: with ``tol``
    below the float spacing of the bracket, the probes land on the interval
    ends and the iteration would cycle through the same states for ever.
    A state is recorded each time an iteration fails to shrink b - a, and
    a repeat ends the search; the iteration is deterministic, so a run that
    repeats a state never meets ``tol``, and every run that does is unchanged.
    """
    a, b = float(lo), float(hi)
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = f(c), f(d)
    stalled = set()
    while abs(b - a) > tol:
        width = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = f(d)
        if not b - a < width:
            state = (a, b, c, d)
            if state in stalled:
                break
            stalled.add(state)
    return 0.5 * (a + b)


class FusionLineSearch:
    """``minimize_fusion_belief`` for one template, with the state that does
    not depend on the locals built once and shared by every search.

    The bracketing scan's per-count fusion errors depend only on sigma, the
    costs and N, so they form one ``network.fusion_error_table`` of the scan
    grid; a search mixes it with its locals' count pmfs. The golden-section
    probes go through one ``_RiskEvaluator``, ``evaluator``, whose memo of
    per-belief tails every search shares. Not exported: each public call
    that searches builds its own, so nothing outlives that call.
    """

    def __init__(self, template: NetworkTemplate, table=None):
        self.template = template
        self.scan = np.linspace(0.02, 0.98, FUSION_SCAN_POINTS)
        self.table = table if table is not None else fusion_error_table(
            template.model, template.costs, self.scan, template.n_local)
        self.evaluator = _RiskEvaluator(template)

    def at_prior(self, pi0: float) -> "FusionLineSearch":
        """The search of the same network at true prior ``pi0``: the prior
        enters only the risk weights, so it shares this search's scan table
        and builds an evaluator of its own."""
        return FusionLineSearch(dataclasses.replace(self.template, pi0=pi0), self.table)

    def __call__(self, q_local, tol: float = 1e-6) -> float:
        q_local = tuple(q_local)
        template = self.template
        [rates] = mix_fusion_table(template.model, template.costs, [(self.table, [q_local])])
        risks = _finite_rows(bayes_risk(template.pi0, template.costs, *rates), self.scan,
                             template.model.sigma)
        i = int(np.argmin(risks[:, 0]))
        lo = self.scan[max(i - 1, 0)]
        hi = self.scan[min(i + 1, len(self.scan) - 1)]
        mix, pmfs = self.evaluator.mix, self.evaluator.prefixes(q_local)[-1]
        return golden_section(lambda q0: mix(pmfs, q0), lo, hi, tol)


def minimize_fusion_belief(template: NetworkTemplate, q_local, tol: float = 1e-6) -> float:
    """Best fusion belief against fixed local beliefs.

    The risk along the fusion-belief axis can grow a shallow secondary dip
    near the interval edges, so a coarse scan of ``FUSION_SCAN_POINTS``
    fusion beliefs (the risks ``batch_risk`` gives) brackets the global
    basin before golden-section refinement. The locals are folded into their
    count pmfs once per call, so each golden-section probe costs one O(N)
    mix with the probe's memoized per-count errors. Raises
    ``FloatingPointError`` naming the first scan point whose risk is not
    finite, and ``ValueError`` for a local belief outside (0, 1) or a wrong
    number of them. A one-shot ``FusionLineSearch``; callers that search
    the same network again and again build one of those.
    """
    return FusionLineSearch(template)(q_local, tol)


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

    Each run evaluates the risk through one ``_RiskEvaluator``, so a probe
    recomputes only the tails of beliefs it has not seen in that run, and
    keeps the count pmfs of every prefix of the current locals: a fusion
    probe costs one O(N) mix and a probe of local i refolds locals i..N,
    O(N^2) at worst. A run raises ``FloatingPointError`` naming the fusion
    belief and sigma where its fusion log factors are not finite.

    ``init`` is checked as ``NetworkConfig`` checks beliefs, before any sweep.
    With ``init=None`` the best of ``settings.restarts`` runs from seeded
    uniform-random initializations is returned; a restart that raises is
    dropped, and the first restart's error is raised only if all do.
    """
    return _multi_start(_pbpo_run, template, settings, init, seed)


def pbpo_exact(template: NetworkTemplate, settings: OptimizerSettings,
               init=None, seed: int = RESTART_SEED) -> OptimizationResult:
    """Coordinate descent with exact per-coordinate minimization.

    The fusion belief is line-searched (bracketing scan plus golden section,
    tolerance ``eps/10``); each local belief jumps straight to the solution
    of its stationarity balance, which is the coordinate minimizer. Far fewer
    sweeps than the fixed-step variant for the same answer. One
    ``FusionLineSearch`` serves every sweep and restart of the call, the
    trace's risks included, so the scan's fusion error table is built once.

    Within the local pass the fusion belief is fixed and the agents after
    j have not moved yet, so one ``pinned_fusion_sweep`` (one backward pass
    of suffix expectations, and a forward prefix pmf that folds in each
    agent's updated belief) gives every agent its balance: a sweep costs
    O(N^2) plus the line search. Each pass returns the locals' rate
    columns and the next pass takes them, so only a revised belief's are
    formed again. ``init`` and restarts are as in ``pbpo``.
    """
    search = FusionLineSearch(template)
    return _multi_start(functools.partial(_pbpo_exact_run, search), template, settings, init, seed)


def _multi_start(run, template, settings, init, seed):
    if init is not None:
        init = tuple(float(q) for q in init)
        if len(init) != template.n_local + 1:
            raise ValueError(f"init must have {template.n_local + 1} beliefs")
        template.config(init[0], init[1:])  # NetworkConfig's belief check, before any sweep
        return run(template, settings, init)
    rng = np.random.default_rng(seed)
    inits = rng.uniform(0.02, 0.98, size=(settings.restarts, template.n_local + 1))
    results, errors = [], []
    for row in inits:
        try:
            results.append(run(template, settings, tuple(row)))
        except FloatingPointError as exc:
            errors.append(exc)
    if not results:
        raise errors[0]
    return min(results, key=lambda result: result.risk)


def _pbpo_run(template, settings, init):
    step = settings.step
    lo, hi = BELIEF_EPS, 1.0 - BELIEF_EPS
    evaluator = _RiskEvaluator(template)
    fold, mix = evaluator.fold, evaluator.mix
    q = [float(x) for x in init]
    # prefix[m]: count pmfs of locals 1..m of the current tuple q.
    prefix = evaluator.prefixes(q[1:])

    def probe(i, value):
        """Risk of q with belief i set to value, and the prefix pmfs from
        local i on that go with it."""
        if i == 0:
            return mix(prefix[-1], value), None
        chain = [fold(prefix[i - 1], value)]
        for qk in q[i + 1:]:
            chain.append(fold(chain[-1], qk))
        return mix(chain[-1], q[0]), chain

    risk = mix(prefix[-1], q[0])
    trace = [tuple(q) + (risk,)]
    converged = False
    sweeps = 0
    for sweeps in range(1, settings.max_iters + 1):
        previous = q  # moves rebind q to a new list, never mutate it
        for i in range(len(q)):
            up, down = min(q[i] + step, hi), max(q[i] - step, lo)
            r_up, chain_up = probe(i, up)
            r_down, chain_down = probe(i, down)
            if min(r_up, r_down) < risk:
                if r_up < r_down:
                    value, risk, chain = up, r_up, chain_up
                else:
                    value, risk, chain = down, r_down, chain_down
                q = q[:i] + [value] + q[i + 1:]
                if i:
                    prefix[i:] = chain
        trace.append(tuple(q) + (risk,))
        if trace[-1][-1] > trace[-2][-1] + 1e-15:
            raise AssertionError("risk increased across a sweep")
        if math.dist(q, previous) <= settings.eps:
            converged = True
            break
    return _finish(template, q, sweeps, converged, trace)


def _pbpo_exact_run(search, template, settings, init):
    risk_of = search.evaluator
    pi0 = template.pi0
    q = [float(x) for x in init]
    trace = [tuple(q) + (risk_of(q),)]
    converged = False
    sweeps = 0
    columns = None  # the locals' rate columns, kept from one sweep to the next

    def revise(j, pinned0, pinned1):
        return _balance_update(pi0, q[j], j, pinned1[0] - pinned0[0], pinned0[1] - pinned1[1])[0]

    for sweeps in range(1, settings.max_iters + 1):
        previous = list(q)
        q[0] = search(q[1:], settings.eps / 10.0)
        q[1:], columns = pinned_fusion_sweep(template.config(q[0], q[1:]), revise, columns)
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


def _balance_update(pi0: float, q_j: float, j: int, d_fa, d_md):
    """Closed-form minimizer of local agent ``j``'s coordinate, currently at
    belief ``q_j``, from its bracketed differences ``d_fa`` and ``d_md``:
    ``(belief, degenerate)``, as ``exact_coordinate_update`` returns."""
    d_fa, d_md = float(d_fa), float(d_md)
    if not (math.isfinite(d_fa) and math.isfinite(d_md)):
        raise ValueError(f"pinned fusion error differences for agent {j} are not finite "
                         f"({d_fa!r}, {d_md!r})")
    if d_fa <= 0.0 or d_md <= 0.0:
        return q_j, True
    ell = log_odds(pi0) + math.log(d_fa) - math.log(d_md)
    q = float(from_log_odds(ell))
    return min(max(q, BELIEF_EPS), 1.0 - BELIEF_EPS), False


# Not exported; kept by name for the TRACED table of perfbench/tracing.py.
def exact_coordinate_update(config: NetworkConfig, j: int):
    """Solve the stationarity balance for local agent ``j`` directly.

    The balance equates agent ``j``'s belief odds to the prior odds scaled by
    the ratio of fusion error-probability changes between the agent's two
    possible decisions; that ratio does not depend on ``q_j`` itself, so the
    coordinate minimizer comes out in closed form. Costs one O(N^2)
    ``pinned_fusion_errors`` call; ``pbpo_exact`` updates every agent of a
    sweep from one ``pinned_fusion_sweep`` instead.

    Returns ``(belief, degenerate)``. ``degenerate`` is True when pinning the
    agent's decision cannot move the fusion outcome (a non-positive
    bracketed difference); the belief is then returned unchanged. Raises
    ``ValueError`` when a bracketed difference is not finite (the fusion
    error probabilities underflowed), since no belief would be meaningful.
    """
    if not 1 <= j <= config.n_local:
        raise IndexError(f"local agent index {j} out of range 1..{config.n_local}")
    d_fa, d_md = (d[j - 1] for d in _pinned_differences(config))
    return _balance_update(config.pi0, config.q_local[j - 1], j, d_fa, d_md)


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
    """Tied-belief grid optimum for every prior in ``pi0_values``.

    ``pi0_values`` may be any iterable, read once; every prior is checked as
    ``check_prior`` checks before any search, and no priors give ``[]``. One
    stage loop searches every prior: the template's prior is ignored, and no
    prior enters the fusion error rates, so the coarse grid's tables are
    built once for all of them and each finer stage builds every prior's
    window in a few calls. Each point holds the beliefs and risk of
    ``grid_search`` at that prior, without its stationarity residual, and
    the first prior whose search fails raises ``grid_search``'s
    ``FloatingPointError``.
    """
    pi0_values = [float(pi0) for pi0 in pi0_values]
    for pi0 in pi0_values:
        check_prior(pi0)
    if not pi0_values:
        return []
    if settings is None:
        settings = OptimizerSettings(tie_local_beliefs=True)
    elif not settings.tie_local_beliefs:
        settings = dataclasses.replace(settings, tie_local_beliefs=True)
    points = []
    for pi0, (row, _) in zip(pi0_values, _grid_minima(template, pi0_values, settings)):
        q0, q1 = float(row[0]), float(row[1])
        risk = exact_risk(dataclasses.replace(template, pi0=pi0).tied(q0, q1)).r0
        points.append(SweepPoint(pi0, q0, q1, risk))
    return points
