"""Belief-tuple optimizers for the fusion agent's true risk.

Three routes to the minimum: exhaustive multi-resolution grid search (the
global oracle), cyclic fixed-step coordinate descent, and an exact-coordinate
variant that solves each local agent's stationarity condition directly and
line-searches the fusion belief.

Two general minimizers serve them and the Prelec fit: ``golden_section``,
the 1-D search of the fusion line search, and ``nelder_mead``, the 2-D
simplex refinement of ``prospect.fit_prelec_minimax``, which gives scipy's
Nelder-Mead doubles, so no module imports ``scipy.optimize``.

The risk itself comes from ``network``. Grid stages take
``fusion_error_rates``, the fusion error probabilities of an axis of fusion
beliefs against rows of local beliefs (a grid's local rows are the product
of its local axes, or one axis repeated when the locals are tied), and
weight them with ``bayes_risk``: the true prior enters only that final
weighting, so ``optimal_belief_sweep`` builds the coarse grid's tables once
for every prior, and each finer stage passes every prior's window to one
call, which ``network`` cuts into passes of bounded memory; ``grid_search``
is the one-prior case of the same stage loop.
The loops that move one belief at a time use ``_RiskEvaluator``, the
per-float formula of ``observation.per_float_rates`` with memoized tails;
tests pin it to ``exact_risk``, and its per-count fusion errors to the
doubles of ``network._fusion_count_errors``. Its two steps,
``network.fold_agent`` of one local into the count pmfs and a mix that
folds the last local into the pmfs of the others as it mixes them with a
fusion belief's per-count errors, let each loop redo only what a probe
changes:

- ``pbpo`` keeps the prefix count pmfs of locals 1..N-1 of the current
  tuple and the last local's tails, with one evaluator per run. A probe of
  the fusion belief or of local N is one O(N) mix; a probe of local i < N
  refolds locals i..N-1 only, so a sweep folds (N-1)·N times.
- ``FusionLineSearch`` is the fusion-belief line search, built once per
  public call that searches: its bracketing scan's fusion error table
  (``network.fusion_error_table``, which depends only on sigma, the costs
  and N) and one evaluator memo serve every search of that call. A search
  folds its fixed locals once, with the evaluator, and uses those count
  pmfs twice: all N folded, mixed with the table, one row sum per scan
  point, for the scan, and the first N-1 with the last local's tails,
  mixed with each golden-section probe's errors, one O(N) mix per probe.
  A probe at a new fusion belief forms its per-count fusion errors inline,
  with no Python call per count.
  ``minimize_fusion_belief`` is a one-shot search; ``pbpo_exact`` shares
  one search across all its sweeps and restarts, and
  ``prospect.prelec_risk_gap`` one table across its priors. Nothing
  outlives the public call.
- ``pbpo_exact`` updates every local of a sweep from one
  ``network.pinned_fusion_sweep``, O(N^2) per sweep.

Every result is built by ``_finish``, whose stationarity residual takes
every local's pinned errors from one ``network.pinned_fusion_errors`` call:
O(N) array work for a tied network of more than ``BINOMIAL_FROM`` locals,
O(N^2) otherwise. The descents pass it each run's
trace as one flat list of floats, a sweep's beliefs and then its risk, and
``OptimizationResult`` keeps it as one read-only float64 array of a row per
sweep, so a result holds no tuple per sweep until its ``trace`` is read.

Every array mix of count pmfs with per-count fusion errors is
``network.mix``, so the scan's risks are ``batch_risk``'s and ``exact_risk``'s
bit for bit. The evaluator's mix forms each count of the last local's
``fold_agent`` as it goes and adds the same products left to right, which
is ``mix``'s row sum below 8 counts: up to N = 6 its risks are
``exact_risk``'s too, and above that they may differ in the last bit.

Each gives the same doubles as recomputing the risk from scratch, which
``tests/test_descent_reference.py`` checks against reference copies.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .network import (
    NO_AGENTS,
    NetworkConfig,
    NetworkTemplate,
    batch_risk,
    bayes_risk,
    exact_risk,
    fold_agent,
    fusion_error_rates,
    fusion_error_table,
    mix,
    pinned_fusion_errors,
    pinned_fusion_sweep,
)
from .observation import (
    BELIEF_EPS,
    check_beliefs,
    check_integer,
    check_prior,
    check_real,
    clamp,
    clamped_log_odds,
    from_log_odds,
    log_odds,
    per_float_rates,
)

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


@dataclass(frozen=True)
class OptimizerSettings:
    step: float = 5e-4
    eps: float = 1e-4
    max_iters: int = 2000
    restarts: int = 8
    grid_resolution: float = 2e-4
    tie_local_beliefs: bool = False

    def __post_init__(self):
        for name in ("step", "eps", "grid_resolution"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        for name in ("step", "eps"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        # From the default start of 0.5, a step of 0.5 or more probes only the clamp edges.
        if self.step >= 0.5:
            raise ValueError("step must be below 0.5")
        check_integer("max_iters", self.max_iters)
        check_integer("restarts", self.restarts)
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be positive integers")
        if not 0.0 < self.grid_resolution < 0.5:
            raise ValueError("grid_resolution must lie in (0, 0.5)")


@dataclass(frozen=True, eq=False, repr=False)
class OptimizationResult:
    """An optimizer's beliefs (fusion belief first), their exact risk, its
    count of sweeps (of grid points for ``grid_search``), whether it met its
    stopping rule, and the stationarity residual of the beliefs.

    A descent keeps its per-sweep trace as ``trace_array``, one read-only
    float64 array of shape (sweeps + 1, N + 2) that owns its data: row k
    holds the beliefs after sweep k (row 0 the start), fusion belief first,
    then their risk, 8 bytes a number. ``trace`` is built from it on each
    read: one tuple of N + 2 floats a row, or None for ``grid_search``,
    which keeps no trace. ``repr``, ``==`` and ``hash`` see a result as its
    five scalar fields and ``trace``.
    """

    beliefs: tuple[float, ...]
    risk: float
    iterations: int
    converged: bool
    stationarity_residual: float
    trace_array: np.ndarray | None = None

    @property
    def trace(self) -> tuple[tuple[float, ...], ...] | None:
        if self.trace_array is None:
            return None
        return tuple(map(tuple, self.trace_array.tolist()))

    def _key(self) -> tuple:
        return (self.beliefs, self.risk, self.iterations, self.converged,
                self.stationarity_residual, self.trace)

    def __repr__(self) -> str:
        return ("OptimizationResult(beliefs={!r}, risk={!r}, iterations={!r}, converged={!r}, "
                "stationarity_residual={!r}, trace={!r})".format(*self._key()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class _RiskEvaluator:
    """Scalar exact risk of belief tuples for one optimizer run, in two steps.

    ``network.fold_agent(pmfs, tails.get(q) or tails_of(q))`` folds one more
    local, with belief ``q``, into a pair of count pmfs (under H0, under H1),
    the pmfs of no agents being ``network.NO_AGENTS``; ``mix(pmfs, tail,
    q0)`` takes the count pmfs of N - 1 locals and the last local's tails
    ``tail``, forms each count of ``fold_agent(pmfs, tail)`` as it mixes it
    with fusion belief ``q0``'s per-count fusion errors, left to right
    (``network.mix``'s sum below 8 counts), and returns the risk: the same
    operations in the same order, so the same double, with no pmf lists
    built for the last local. Calling the evaluator with a belief tuple,
    fusion belief first, composes the two, N - 1 folds and one mix. The
    descent loops call these tens of thousands of times with tiny networks,
    where numpy array overhead would dominate, and a probe usually moves one
    belief. So the evaluator memoizes, keyed by the exact float value of a
    belief, each local belief's four decision tails (``tails``, which
    ``tails_of`` fills) and each fusion belief's per-count fusion errors
    (``errors_of``), both from ``observation.per_float_rates`` as
    ``network``'s per-float leave-one-out pass takes them, and the loops
    keep the prefix pmfs a probe does not change.
    A memo hit costs no Python call; a ``__missing__`` hook would cost one.

    ``mix`` raises ``FloatingPointError`` naming the fusion belief and sigma
    when its ``fusion_log_factors`` are not finite, which only a sigma
    outside about [1e-154, 1e152] brings about.
    """

    def __init__(self, template: NetworkTemplate):
        model, costs, sigma = template.model, template.costs, template.model.sigma
        n = template.n_local
        weight_fa = costs.c_fa * template.pi0
        weight_md = costs.c_md * (1.0 - template.pi0)
        local_tails, fusion_errors = {}, {}
        tails_at, count_errors = per_float_rates(model, costs)
        lodds = clamped_log_odds
        # The steps are closures over these locals, not methods: in the
        # descent loops a cell lookup is cheaper than an attribute lookup.

        def tails_of(q):
            t = local_tails[q] = tails_at(lodds(q))
            return t

        def errors_of(q0):
            l_zero, l_one, fa, md = count_errors(lodds(q0), n)
            if not (math.isfinite(l_zero) and math.isfinite(l_one)):
                raise FloatingPointError(f"fusion belief {q0!r} at sigma={sigma!r}: its fusion log "
                                         f"factors ({l_zero!r}, {l_one!r}) are not finite")
            return fa, md

        def mix(pmfs, tail, q0):
            errors = fusion_errors.get(q0)
            if errors is None:
                errors = fusion_errors[q0] = errors_of(q0)
            fa, md = errors
            t0, t1, s0, s1 = tail
            pmf0, pmf1 = pmfs
            # Count k of fold_agent(pmfs, tail), formed as it is mixed: the
            # same products and sums in the same order, so the same doubles.
            below0, below1 = pmf0[0], pmf1[0]
            p_fa0 = 0.0 + below0 * s0 * fa[0]
            p_md0 = 0.0 + below1 * s1 * md[0]
            for k in range(1, n):
                at0, at1 = pmf0[k], pmf1[k]
                p_fa0 += (at0 * s0 + below0 * t0) * fa[k]
                p_md0 += (at1 * s1 + below1 * t1) * md[k]
                below0, below1 = at0, at1
            p_fa0 += below0 * t0 * fa[n]
            p_md0 += below1 * t1 * md[n]
            return weight_fa * p_fa0 + weight_md * p_md0

        self.tails, self.tails_of, self.errors_of, self.mix = local_tails, tails_of, errors_of, mix

    def prefixes(self, q_local) -> list:
        """Count pmfs of the first 0, 1, ..., N locals of ``q_local``."""
        out = [NO_AGENTS]
        for q in q_local:
            out.append(fold_agent(out[-1], self.tails.get(q) or self.tails_of(q)))
        return out

    def __call__(self, beliefs) -> float:
        last = beliefs[-1]
        tail = self.tails.get(last) or self.tails_of(last)
        return self.mix(self.prefixes(beliefs[1:-1])[-1], tail, beliefs[0])


def _axis(lo: float, hi: float, res: float) -> np.ndarray:
    lo = max(lo, GRID_LO)
    hi = min(hi, GRID_HI)
    axis = np.round(np.arange(lo, hi + res / 2.0, res), 12)
    # The half-step stop overshoots a window clipped at GRID_HI, up to 1.0.
    return axis[axis <= GRID_HI]


def risk_not_finite(q0: float, sigma: float) -> FloatingPointError:
    """The one error for a risk that is not finite at fusion belief ``q0``.
    Public, not exported: ``prospect`` raises it too."""
    return FloatingPointError(f"fusion belief q0={q0!r} at sigma={sigma!r}: its risk is not finite")


def _finite_rows(risks: np.ndarray, q0, sigma: float) -> np.ndarray:
    """``risks``, one row (or one risk) per fusion belief of ``q0``, raising
    ``FloatingPointError`` at the first row that is not finite."""
    if not np.isfinite(risks).all():
        finite = np.isfinite(risks).reshape(len(risks), -1).all(axis=1)
        raise risk_not_finite(float(q0[np.argmin(finite)]), sigma)
    return risks


def checked_risks(template: NetworkTemplate, q0, q_local) -> np.ndarray:
    """``batch_risk``, raising ``FloatingPointError`` at the first non-finite risk row."""
    return _finite_rows(batch_risk(template, q0, q_local), q0, template.model.sigma)


def _grid_minima(template: NetworkTemplate, pi0_values: list, settings: OptimizerSettings) -> list:
    """``grid_search``'s beliefs (fusion belief first, a tied local belief
    repeated for every local) as a tuple of floats, and its count of grid
    points, for the template at each prior of ``pi0_values``, with one stage
    loop for all of them.

    No prior enters ``fusion_error_rates``, so the coarse grid's rates are
    built once and each prior applies only its ``bayes_risk`` weights. A
    finer stage's windows differ by prior; the rates of every prior's window
    come from one call, and none once every prior has failed. Each prior's
    stages, risks and first-minimum argmin are those of a search of its own.
    Raises the ``FloatingPointError`` of the first prior whose search meets a
    risk that is not finite.
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
            if not best:
                break  # every prior has met a risk that is not finite
            window = 2.0 * resolutions[stage - 1]
            searches = [((p,), [_axis(c - window, c + window, res) for c in beliefs[:ndim]])
                        for p, beliefs in best.items()]
        # Row-major over (q0, local axes...), so the first-minimum argmin
        # breaks ties as a scan of the full product grid would.
        grids = [(priors, axes[0],
                  np.stack([m.ravel() for m in np.meshgrid(*axes[1:], indexing="ij")], axis=1))
                 for priors, axes in searches]
        minima, first_bad = {}, {}  # per prior: (risk, i, j) and the first non-finite q0 row
        # A view, so that network forms a tied row's rates once, not n times.
        blocks = [(q0, np.broadcast_to(local, (len(local), n)) if tie else local)
                  for _, q0, local in grids]
        for block, start, rates in fusion_error_rates(model, costs, blocks):
            for p in grids[block][0]:
                risks = bayes_risk(pi0_values[p], costs, *rates)
                evaluated[p] += risks.size
                if not np.isfinite(risks).all():
                    bad = int(np.argmin(np.isfinite(risks).all(axis=1)))
                    first_bad[p] = min(first_bad.get(p, bad), bad)
                i, j = np.unravel_index(int(np.argmin(risks)), risks.shape)
                # Pieces split a grid's rows only; the least (risk, i, j)
                # over them is the grid's row-major first minimum.
                found = (float(risks[i, j]), int(i), start + int(j))
                if p not in minima or found < minima[p]:
                    minima[p] = found
        best = {}
        for priors, q0, local in grids:
            for p in priors:
                if p in first_bad:
                    failures[p] = risk_not_finite(float(q0[first_bad[p]]), model.sigma)
                else:
                    _, i, j = minima[p]
                    best[p] = (float(q0[i]), *local[j].tolist() * (n if tie else 1))
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
    [(beliefs, evaluated)] = _grid_minima(template, [template.pi0], settings)
    return _finish(template, beliefs, evaluated, True, None)


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


def _by_value(sim, fsim):
    order = np.argsort(fsim)
    return np.take(sim, order, 0), np.take(fsim, order, 0)


def nelder_mead(f, x0, xatol: float, fatol: float, max_iters: int):
    """Minimize ``f`` over vectors from ``x0`` by the Nelder-Mead simplex
    (Nelder & Mead 1965); returns the best vertex and its value.

    The path of scipy's ``minimize(f, x0, method="Nelder-Mead", options=
    {"xatol": ..., "fatol": ..., "maxiter": max_iters})``, with the same
    operations in the same order, so the same doubles: the start simplex
    scales each coordinate by 1.05 (0.00025 where it is 0); reflection,
    expansion, the two contractions and the shrink take scipy's non-adaptive
    coefficients (1, 2, 1/2 and 1/2); the search stops once every vertex is
    within ``xatol`` of the best in each coordinate and within ``fatol`` of
    it in value, or after ``max_iters`` - 1 steps. ``f`` must leave its
    argument unchanged.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    sim, fsim = _by_value(sim, np.array([f(vertex) for vertex in sim], dtype=float))
    iterations = 1
    while iterations < max_iters:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        sim, fsim = _by_value(sim, fsim)
    return sim[0], np.min(fsim)


class FusionLineSearch:
    """``minimize_fusion_belief`` for one template, with the state that does
    not depend on the locals built once and shared by every search.

    The bracketing scan's per-count fusion errors depend only on sigma, the
    costs and N, so they form one ``network.fusion_error_table`` of the scan
    grid. A search folds its locals into their count pmfs once, with
    ``evaluator.prefixes``, and mixes the pmfs of all N with the table for
    the scan; each golden-section probe is one ``evaluator.mix`` of the pmfs
    of the first N - 1 with the last local's tails and the probe's per-count
    errors.
    The probes go through one ``_RiskEvaluator``, ``evaluator``, whose memo
    of per-belief tails every search shares. Not exported: each public call
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
        n = template.n_local
        # batch_risk's refusals, word for word, before anything is folded.
        if len(q_local) != n:
            raise ValueError(f"expected {n} local belief columns, got {len(q_local)}")
        check_beliefs(q_local)
        evaluator = self.evaluator
        prefix = evaluator.prefixes(q_local)
        risks = _finite_rows(bayes_risk(template.pi0, template.costs,
                                        *mix(np.array(prefix[-1])[:, None], self.table)),
                             self.scan, template.model.sigma)
        i = int(np.argmin(risks))
        lo = self.scan[max(i - 1, 0)]
        hi = self.scan[min(i + 1, len(self.scan) - 1)]
        probe = functools.partial(evaluator.mix, prefix[-2], evaluator.tails[q_local[-1]])
        return golden_section(probe, lo, hi, tol)


def minimize_fusion_belief(template: NetworkTemplate, q_local, tol: float = 1e-6) -> float:
    """Best fusion belief against fixed local beliefs.

    The risk along the fusion-belief axis can grow a shallow secondary dip
    near the interval edges, so a coarse scan of ``FUSION_SCAN_POINTS``
    fusion beliefs brackets the global basin before golden-section
    refinement, both on the locals' count pmfs, folded once by the
    evaluator. The evaluator and ``batch_risk`` take each belief's log-odds
    from the same ``observation.clamped_log_odds``, and the scan mixes with
    ``network.mix``, so its risks are ``batch_risk``'s and ``exact_risk``'s
    bit for bit. Raises ``FloatingPointError``
    naming the first scan point whose risk is not finite, and
    ``ValueError``, worded as ``batch_risk``'s, for a local belief outside
    (0, 1) or a wrong number of them, before anything is folded, and for a
    ``tol`` that is not finite, which would end the refinement unrun. A
    one-shot ``FusionLineSearch``; callers that search the same network
    again and again build one of those.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol={tol!r} must be finite")
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
    keeps the count pmfs of every prefix of locals 1..N-1 of the current
    tuple and the last local's tails, which each mix folds in as it mixes: a
    probe of the fusion belief or of local N costs one O(N) mix and a probe
    of local i < N refolds locals i..N-1, O(N^2) at worst, so a sweep folds
    (N-1)·N times. A run raises ``FloatingPointError`` naming the fusion
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
    O(N^2) plus the line search. ``init`` and restarts are as in ``pbpo``.
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
    tails, tails_of, mix = evaluator.tails, evaluator.tails_of, evaluator.mix
    q = [float(x) for x in init]
    n = len(q) - 1
    # prefix[m], m < N: count pmfs of locals 1..m of the current tuple q.
    # last: local N's tails, which every mix folds in as it mixes.
    prefix = evaluator.prefixes(q[1:n])
    last = tails.get(q[n]) or tails_of(q[n])
    risk = mix(prefix[-1], last, q[0])
    trace = q + [risk]  # flat: each sweep's beliefs, then its risk
    converged = False
    sweeps = 0
    for sweeps in range(1, settings.max_iters + 1):
        previous, before = q, risk  # moves rebind q to a new list, never mutate it
        # The fusion belief: a probe is one mix of the current pmfs.
        up, down = min(q[0] + step, hi), max(q[0] - step, lo)
        r_up, r_down = mix(prefix[-1], last, up), mix(prefix[-1], last, down)
        if min(r_up, r_down) < risk:
            value, risk = (up, r_up) if r_up < r_down else (down, r_down)
            q = [value] + q[1:]
        # Local i < N: a probe refolds locals i..N-1 onto the prefix pmfs before it.
        for i in range(1, n):
            up, down = min(q[i] + step, hi), max(q[i] - step, lo)
            chain_up = [fold_agent(prefix[i - 1], tails.get(up) or tails_of(up))]
            chain_down = [fold_agent(prefix[i - 1], tails.get(down) or tails_of(down))]
            for qk in q[i + 1:n]:
                tail = tails.get(qk) or tails_of(qk)
                chain_up.append(fold_agent(chain_up[-1], tail))
                chain_down.append(fold_agent(chain_down[-1], tail))
            r_up, r_down = mix(chain_up[-1], last, q[0]), mix(chain_down[-1], last, q[0])
            if min(r_up, r_down) < risk:
                value, risk, prefix[i:] = ((up, r_up, chain_up) if r_up < r_down
                                           else (down, r_down, chain_down))
                q = q[:i] + [value] + q[i + 1:]
        # Local N: a probe is one mix of the current pmfs with the probe's tails.
        up, down = min(q[n] + step, hi), max(q[n] - step, lo)
        tail_up, tail_down = tails.get(up) or tails_of(up), tails.get(down) or tails_of(down)
        r_up, r_down = mix(prefix[-1], tail_up, q[0]), mix(prefix[-1], tail_down, q[0])
        if min(r_up, r_down) < risk:
            value, risk, last = (up, r_up, tail_up) if r_up < r_down else (down, r_down, tail_down)
            q = q[:n] + [value]
        if risk > before + 1e-15:
            raise AssertionError("risk increased across a sweep")
        trace += q
        trace.append(risk)
        if math.dist(q, previous) <= settings.eps:
            converged = True
            break
    return _finish(template, q, sweeps, converged, trace)


def _pbpo_exact_run(search, template, settings, init):
    risk_of = search.evaluator
    pi0 = template.pi0
    q = [float(x) for x in init]
    trace = q + [risk_of(q)]  # flat, as in _pbpo_run
    converged = False
    sweeps = 0

    def revise(j, pinned0, pinned1):
        return _balance_update(pi0, q[j], j, pinned1[0] - pinned0[0], pinned0[1] - pinned1[1])[0]

    for sweeps in range(1, settings.max_iters + 1):
        previous = list(q)
        q[0] = search(q[1:], settings.eps / 10.0)
        q[1:] = pinned_fusion_sweep(template.config(q[0], q[1:]), revise)
        trace += q
        trace.append(risk_of(q))
        if math.dist(q, previous) <= settings.eps:
            converged = True
            break
    return _finish(template, q, sweeps, converged, trace)


def _finish(template, q, sweeps, converged, trace):
    """Every optimizer's result, from its beliefs and a descent's flat trace
    list (``grid_search`` passes its count of grid points and no trace).
    ``reshape`` gives a view of the flat array, so the rows are copied into
    an array that owns them, as ``OptimizationResult`` keeps its trace."""
    config = template.config(q[0], q[1:])
    rows = None
    if trace is not None:
        rows = np.array(trace).reshape(sweeps + 1, len(q) + 1).copy()
        rows.flags.writeable = False
    return OptimizationResult(
        beliefs=tuple(float(x) for x in q),
        risk=exact_risk(config).r0,
        iterations=sweeps,
        converged=converged,
        stationarity_residual=stationarity_residual(config),
        trace_array=rows,
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
    return clamp(float(from_log_odds(ell))), False


# Not exported; kept by name for the TRACED table of perfbench/tracing.py.
def exact_coordinate_update(config: NetworkConfig, j: int):
    """Solve the stationarity balance for local agent ``j`` directly.

    The balance equates agent ``j``'s belief odds to the prior odds scaled by
    the ratio of fusion error-probability changes between the agent's two
    possible decisions; that ratio does not depend on ``q_j`` itself, so the
    coordinate minimizer comes out in closed form. Costs one
    ``pinned_fusion_errors`` call, O(N^2), or O(N) for a tied network of
    more than ``BINOMIAL_FROM`` locals; ``pbpo_exact`` updates every agent
    of a sweep from one ``pinned_fusion_sweep`` instead.

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
    residual costs O(N^2), and O(N) for a tied network of more than
    ``BINOMIAL_FROM`` locals, whose agents share one pinned pair from the
    Binomial kernel.
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
    pi0_values = [check_prior(pi0) for pi0 in pi0_values]
    if not pi0_values:
        return []
    if settings is None:
        settings = OptimizerSettings(tie_local_beliefs=True)
    elif not settings.tie_local_beliefs:
        settings = dataclasses.replace(settings, tie_local_beliefs=True)
    points = []
    for pi0, (beliefs, _) in zip(pi0_values, _grid_minima(template, pi0_values, settings)):
        q0, q1 = beliefs[:2]
        risk = exact_risk(dataclasses.replace(template, pi0=pi0).tied(q0, q1)).r0
        points.append(SweepPoint(pi0, q0, q1, risk))
    return points
