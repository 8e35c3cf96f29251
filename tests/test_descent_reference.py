"""The descent loops against plain reference copies of themselves.

``pbpo``, ``pbpo_exact`` and ``minimize_fusion_belief`` keep the count pmfs
and leave-one-out passes that a probe leaves unchanged. The references below
recompute everything for every probe, with the same arithmetic in the same
order, so every result, trace included, must be equal as doubles, and a run
that raises must raise the same error.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import special
from hypothesis import example, given, settings, strategies as st

from starfuse import (
    CostPair,
    NetworkConfig,
    NetworkTemplate,
    ObservationModel,
    OptimizationResult,
    OptimizerSettings,
    batch_risk,
    exact_risk,
    from_log_odds,
    log_odds,
    pbpo,
    pbpo_exact,
    pinned_fusion_errors,
    stationarity_residual,
)
from starfuse import optimize
from starfuse.network import (
    BINOMIAL_FROM,
    _fold_agents,
    _fusion_count_errors,
    _local_rates,
    count_distribution,
)
from starfuse.optimize import (
    BELIEF_EPS,
    FUSION_SCAN_POINTS,
    RESTART_SEED,
    golden_section,
    minimize_fusion_belief,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_SQRT2 = math.sqrt(2.0)


def _reference_risk_evaluator(template):
    """Memoized scalar risk that reruns the whole count DP on every call."""
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
        return 0.5 * float(special.erfc(x / _SQRT2))

    def tails_of(q):
        lam = 0.5 + v * (logc + lodds(q))
        return (q_tail(lam / s), q_tail((lam - 1.0) / s),
                q_tail(-lam / s), q_tail(-(lam - 1.0) / s))

    def log_ndtr(x):
        return float(special.log_ndtr(x))

    def errors_of(q0):
        ell0 = lodds(q0)
        lam_f = 0.5 + v * (logc + ell0)
        l_zero = log_ndtr(lam_f / s) - log_ndtr((lam_f - 1.0) / s)
        l_one = log_ndtr(-lam_f / s) - log_ndtr(-(lam_f - 1.0) / s)
        if not (math.isfinite(l_zero) and math.isfinite(l_one)):
            raise FloatingPointError(f"fusion belief {q0!r} at sigma={s!r}: its fusion log "
                                     f"factors ({l_zero!r}, {l_one!r}) are not finite")
        fa, md = [], []
        for k in range(n + 1):
            lam = 0.5 + v * (logc + (ell0 + (n - k) * l_zero + k * l_one))
            fa.append(q_tail(lam / s))
            md.append(q_tail(-(lam - 1.0) / s))
        return fa, md

    def risk(beliefs):
        pmf0 = [1.0] + [0.0] * n
        pmf1 = [1.0] + [0.0] * n
        for i in range(n):
            q = beliefs[1 + i]
            t = local_tails.get(q)
            if t is None:
                t = local_tails[q] = tails_of(q)
            t0, t1, s0, s1 = t
            for k in range(i + 1, 0, -1):
                pmf0[k] = pmf0[k] * s0 + pmf0[k - 1] * t0
                pmf1[k] = pmf1[k] * s1 + pmf1[k - 1] * t1
            pmf0[0] *= s0
            pmf1[0] *= s1
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


class _TooManyEvaluations(Exception):
    pass


def _capped(f, cap=10_000):
    """``f`` with a count of its calls, raising once the count passes ``cap``."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        if calls[0] > cap:
            raise _TooManyEvaluations
        return f(x)

    return counted, calls


def _reference_golden_section(f, lo, hi, tol):
    """Golden section that stops on ``tol`` alone."""
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


def _reference_minimize_fusion_belief(template, q_local, tol=1e-6):
    q_local = tuple(q_local)
    grid = np.linspace(0.02, 0.98, FUSION_SCAN_POINTS)
    risks = batch_risk(template, grid, [q_local])[:, 0]
    if not np.isfinite(risks).all():
        q0 = float(grid[~np.isfinite(risks)][0])
        raise FloatingPointError(f"fusion belief q0={q0!r} at sigma={template.model.sigma!r}: "
                                 f"its risk is not finite")
    i = int(np.argmin(risks))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    risk = _reference_risk_evaluator(template)
    return _reference_golden_section(lambda q0: risk((q0,) + q_local), lo, hi, tol)


def _reference_pinned_fusion_errors(config):
    """Every agent's pinned fusion errors by one backward and one forward pass."""
    n = config.n_local
    p_cols, q_cols = _local_rates(config.model, config.costs, config.q_local)
    fa, md, _, _ = _fusion_count_errors(config.model, config.costs, log_odds(config.q0), n)
    after = [None] * n
    after[n - 1] = np.stack((fa, md))
    for j in range(n - 1, 0, -1):
        g = after[j]
        after[j - 1] = g[:, :-1] * q_cols[j] + g[:, 1:] * p_cols[j]
    out = np.empty((2, 2, n))
    before = np.zeros((2, n + 1))
    before[:, 0] = 1.0
    for j in range(n):
        prefix = before[:, :j + 1]
        g = after[j]
        out[:, 0, j] = np.add.reduce(prefix * g[:, :-1], axis=-1)
        out[:, 1, j] = np.add.reduce(prefix * g[:, 1:], axis=-1)
        _fold_agents(before, p_cols[j:j + 1], q_cols[j:j + 1], j)
    return out[0], out[1]


def _reference_all_pinned(config):
    """``pinned_fusion_errors``' reference: the passes above, which
    ``pbpo_exact``'s sweep also runs, except for a tied network whose other
    N - 1 locals take ``count_distribution``'s Binomial kernel, which mixes
    that pmf for every agent."""
    n = config.n_local
    if n - 1 < BINOMIAL_FROM or len(set(config.q_local)) > 1:
        return _reference_pinned_fusion_errors(config)
    fa, md, _, _ = _fusion_count_errors(config.model, config.costs, log_odds(config.q0), n)
    errors = np.stack((fa, md))
    pmf = count_distribution(dataclasses.replace(config, q_local=config.q_local[1:]))
    out = np.empty((2, 2, n))
    out[:, 0] = np.add.reduce(pmf * errors[:, :-1], axis=-1)[:, None]
    out[:, 1] = np.add.reduce(pmf * errors[:, 1:], axis=-1)[:, None]
    return out[0], out[1]


def _reference_coordinate_update(config, j):
    """Agent ``j``'s balance solved from a fresh all-agent pinned pass."""
    fa, md = _reference_pinned_fusion_errors(config)
    d_fa, d_md = float((fa[1] - fa[0])[j - 1]), float((md[0] - md[1])[j - 1])
    if not (math.isfinite(d_fa) and math.isfinite(d_md)):
        raise ValueError(f"pinned fusion error differences for agent {j} are not finite "
                         f"({d_fa!r}, {d_md!r})")
    if d_fa <= 0.0 or d_md <= 0.0:
        return config.q_local[j - 1]
    ell = log_odds(config.pi0) + math.log(d_fa) - math.log(d_md)
    return min(max(float(from_log_odds(ell)), BELIEF_EPS), 1.0 - BELIEF_EPS)


def _reference_finish(template, q, sweeps, converged, trace):
    config = template.config(q[0], q[1:])
    return OptimizationResult(
        beliefs=tuple(float(x) for x in q), risk=exact_risk(config).r0, iterations=sweeps,
        converged=converged, stationarity_residual=stationarity_residual(config),
        trace_array=np.array(trace))


def _reference_pbpo_run(template, settings, init):
    step = settings.step
    lo, hi = BELIEF_EPS, 1.0 - BELIEF_EPS
    risk_of = _reference_risk_evaluator(template)
    q = [float(x) for x in init]
    risk = risk_of(q)
    trace = [tuple(q) + (risk,)]
    converged = False
    sweeps = 0
    for sweeps in range(1, settings.max_iters + 1):
        previous = q
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
    return _reference_finish(template, q, sweeps, converged, trace)


def _reference_pbpo_exact_run(template, settings, init):
    risk_of = _reference_risk_evaluator(template)
    q = [float(x) for x in init]
    trace = [tuple(q) + (risk_of(q),)]
    converged = False
    sweeps = 0
    for sweeps in range(1, settings.max_iters + 1):
        previous = list(q)
        q[0] = _reference_minimize_fusion_belief(template, q[1:], tol=settings.eps / 10.0)
        for j in range(1, len(q)):
            q[j] = _reference_coordinate_update(template.config(q[0], q[1:]), j)
        trace.append(tuple(q) + (risk_of(q),))
        if math.dist(q, previous) <= settings.eps:
            converged = True
            break
    return _reference_finish(template, q, sweeps, converged, trace)


def _reference_multi_start(run, template, settings, init, seed=RESTART_SEED):
    if init is not None:
        return run(template, settings, tuple(float(q) for q in init))
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


def _outcome(f, *args, **kwargs):
    """The result of ``f``, or the type and text of the error it raised."""
    try:
        return f(*args, **kwargs)
    except (ValueError, AssertionError, FloatingPointError) as exc:
        return type(exc), str(exc)


def _assert_identical(result, expected):
    # repr round-trips every double, so equal reprs mean equal bits; it also
    # matches a nan stationarity residual, which == would not.
    assert result == expected or repr(result) == repr(expected)


_SIGMA = st.floats(math.log(0.05), math.log(20.0)).map(math.exp)


@st.composite
def _problems(draw, max_iters):
    n = draw(st.integers(1, 8))
    template = NetworkTemplate(
        pi0=draw(st.floats(0.05, 0.95)),
        costs=CostPair(draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))),
        model=ObservationModel(sigma=draw(_SIGMA)),
        n_local=n)
    init = tuple(draw(st.lists(st.floats(0.02, 0.98), min_size=n + 1, max_size=n + 1)))
    opt = OptimizerSettings(step=draw(st.sampled_from([5e-4, 2e-3])),
                            eps=draw(st.sampled_from([1e-4, 1e-3])),
                            max_iters=draw(st.integers(1, max_iters)),
                            restarts=draw(st.integers(1, 3)))
    return template, init, opt


def _pinned(pi0, costs, log_sigma, init, max_iters):
    """A ``_problems`` draw: step 5e-4, eps 1e-4, one restart."""
    template = NetworkTemplate(pi0, CostPair(*costs), ObservationModel(sigma=math.exp(log_sigma)),
                               len(init) - 1)
    return template, init, OptimizerSettings(step=5e-4, eps=1e-4, max_iters=max_iters, restarts=1)


class TestDescentMatchesReference:
    # N = 1, where the evaluator's mix folds the only local and no prefix
    # pmfs are kept; and a last local within one step of 1 - BELIEF_EPS,
    # whose up probe is clamped.
    @example(_pinned(0.3, (1.0, 1.0), 0.0, (0.5, 0.5), max_iters=150))
    @example(_pinned(0.4, (1.2, 0.8), 0.25, (0.6, 0.45, 1.0 - BELIEF_EPS - 2e-4), max_iters=40))
    @given(_problems(max_iters=150))
    @settings(max_examples=60, deadline=None)
    def test_pbpo_from_init(self, problem):
        template, init, opt = problem
        _assert_identical(
            _outcome(pbpo, template, opt, init=init),
            _outcome(_reference_multi_start, _reference_pbpo_run, template, opt, init))

    @given(_problems(max_iters=60), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_pbpo_multi_start(self, problem, seed):
        template, _, opt = problem
        _assert_identical(
            _outcome(pbpo, template, opt, init=None, seed=seed),
            _outcome(_reference_multi_start, _reference_pbpo_run, template, opt, None, seed))

    # Risk plateaus (sigma e^2, e^2.375, e^1.0625, e^2.515625) on which a
    # last-bit difference between the search's scan and the reference's
    # batch_risk scan, in the Gaussian tails or in a local's log-odds
    # (0.7890625, 0.625), moves the result.
    @example(_pinned(0.125, (3.0, 2.75), 2.0, (0.5, 0.25, 0.25, 0.5, 0.5), max_iters=2))
    @example(_pinned(0.25, (1.0, 1.607421875), 2.375, (0.5, 0.5, 0.5625, 0.25, 0.5), max_iters=1))
    @example(_pinned(0.05078125, (0.875, 2.3125), 1.0625,
                     (0.5, 0.7890625, 0.25, 0.25, 0.25, 0.3125, 0.3125), 1))
    @example(_pinned(0.8046875, (1.375, 2.0), 2.515625, (0.5, 0.625, 0.5, 0.5, 0.25, 0.75), 3))
    @given(_problems(max_iters=6))
    @settings(max_examples=40, deadline=None)
    def test_pbpo_exact(self, problem):
        template, init, opt = problem
        _assert_identical(
            _outcome(pbpo_exact, template, opt, init=init),
            _outcome(_reference_multi_start, _reference_pbpo_exact_run, template, opt, init))

    @example(_pinned(0.375, (0.5, 2.21875), 1.453125, (0.5, 0.875, 0.8515625, 0.25, 0.25),
                     max_iters=1), 1e-5)
    @given(_problems(max_iters=1), st.sampled_from([1e-5, 1e-6, 1e-9]))
    @settings(max_examples=60, deadline=None)
    def test_minimize_fusion_belief(self, problem, tol):
        template, init, _ = problem
        _assert_identical(_outcome(minimize_fusion_belief, template, init[1:], tol=tol),
                          _outcome(_reference_minimize_fusion_belief, template, init[1:], tol))

    # A tied network of 25 locals, whose other 24 take the Binomial kernel.
    @example(_pinned(0.3, (1.0, 1.5), 0.0, (0.7, 0.5), max_iters=1), [0.4] * 25)
    @given(_problems(max_iters=1), st.lists(st.floats(0.02, 0.98), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_pinned_fusion_errors(self, problem, q_local):
        template, init, _ = problem
        config = NetworkConfig(template.pi0, template.costs, template.model, init[0], q_local)
        fa, md = pinned_fusion_errors(config)
        ref_fa, ref_md = _reference_all_pinned(config)
        assert fa.tobytes() == ref_fa.tobytes() and md.tobytes() == ref_md.tobytes()


# (function, bracket) pairs whose minimum sits where the float spacing is
# wider than 1e-16, so a tol of 1e-16 or less can never be met there.
_STALLING = [
    (lambda x: (x - 0.3) ** 2, 0.2, 0.5),
    (lambda x: (x - 0.5) ** 2, 0.0, 1.0),
    (lambda x: -math.sin(3.0 * x), 0.02, 0.98),
    (lambda x: abs(x - 0.7), 0.7, 0.7000001),
    (lambda x: 1.0, 0.5, 1.0),
    (lambda x: math.cos(40.0 * x), 0.5, 1.0),
]


class TestGoldenSection:
    @pytest.mark.parametrize("tol", [1e-16, 1e-19, 0.0])
    @pytest.mark.parametrize("case", range(len(_STALLING)))
    def test_stops_once_the_bracket_cannot_narrow(self, case, tol):
        f, lo, hi = _STALLING[case]
        counted, calls = _capped(f)
        x = golden_section(counted, lo, hi, tol)
        assert lo <= x <= hi
        assert calls[0] < 200

    def test_unchanged_wherever_tol_is_met(self):
        functions = [f for f, _, _ in _STALLING] + [lambda x: x, lambda x: (x - 0.41234) ** 4]
        brackets = [(0.2, 0.5), (0.0, 1.0), (0.25, 0.5), (1e-9, 3e-9), (0.49, 0.51)]
        met = 0
        for f in functions:
            for lo, hi in brackets:
                for e in range(6, 17):
                    try:
                        expected = _reference_golden_section(_capped(f)[0], lo, hi, 10.0 ** -e)
                    except _TooManyEvaluations:
                        continue
                    assert golden_section(f, lo, hi, 10.0 ** -e) == expected
                    met += 1
        assert met > 300

    def test_pbpo_exact_with_eps_below_float_spacing(self, benchmark_template, monkeypatch):
        """eps/10 = 1e-19 is the line search's tol, far below the spacing of
        beliefs near 0.74."""
        def capped_search(f, lo, hi, tol):
            return golden_section(_capped(f)[0], lo, hi, tol)

        monkeypatch.setattr(optimize, "golden_section", capped_search)
        result = pbpo_exact(benchmark_template, OptimizerSettings(eps=1e-18, max_iters=10),
                            init=(0.5, 0.5, 0.5))
        assert result.iterations == 10
        assert result.beliefs[0] == pytest.approx(0.7372, abs=2e-3)
