import dataclasses
import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings as hypothesis_settings, strategies as st
from scipy import special
from scipy.optimize import minimize

from starfuse import (
    CostPair,
    NetworkConfig,
    NetworkTemplate,
    ObservationModel,
    OptimizerSettings,
    PrelecParams,
    SweepPoint,
    batch_risk,
    exact_risk,
    from_log_odds,
    grid_search,
    log_odds,
    optimal_belief_sweep,
    pbpo,
    pbpo_exact,
    pinned_fusion_errors,
    prelec,
    stationarity_residual,
)
from starfuse import network, optimize
from starfuse.observation import BELIEF_EPS, check_prior
from starfuse.optimize import (
    FUSION_SCAN_POINTS,
    GRID_HI,
    golden_section,
    _axis,
    _RiskEvaluator,
    checked_risks,
    exact_coordinate_update,
    minimize_fusion_belief,
)
from conftest import random_config
from test_descent_reference import _reference_minimize_fusion_belief

# A pbpo instance (inside sigma in [0.05, 20]) whose fusion belief walks to
# the clamp edge, where a Gaussian tail of the fusion threshold underflows;
# its log from log_ndtr does not, so the run converges there.
CLAMP_EDGE_TEMPLATE = NetworkTemplate(
    0.841939142899648, CostPair(1.9518892848869696, 0.5220594574480539),
    ObservationModel(sigma=1.7954601353683637), 2)
CLAMP_EDGE_INIT = (0.9330755360597098, 0.9114891616498672, 0.1838876110092481)


def _underflow_config():
    """At sigma=1e-200 the fusion log factors are -inf and inf, so the fusion
    error probabilities are nan."""
    template = NetworkTemplate(0.3, CostPair(), ObservationModel(sigma=1e-200), 3)
    return template.config(0.7, (0.4, 0.45, 0.5))


class TestGridSearch:
    def test_benchmark_optimum(self, benchmark_optimum):
        q0, q1, q2 = benchmark_optimum.beliefs
        assert q1 == q2
        assert q0 == pytest.approx(0.7372, abs=4e-4)
        assert q1 == pytest.approx(0.3960, abs=4e-4)
        assert benchmark_optimum.risk == pytest.approx(0.1918, abs=5e-4)
        assert benchmark_optimum.converged

    def test_cost_neutral_prior_is_fixed_point(self, std_model):
        """With the prior at the cost-neutral point, truthful beliefs win."""
        for costs in (CostPair(1.0, 1.0), CostPair(1.0, 2.0)):
            neutral = costs.neutral_belief
            template = NetworkTemplate(neutral, costs, std_model, 2)
            settings = OptimizerSettings(tie_local_beliefs=True, grid_resolution=2e-3)
            result = grid_search(template, settings)
            assert result.beliefs[0] == pytest.approx(neutral, abs=4e-3)
            assert result.beliefs[1] == pytest.approx(neutral, abs=4e-3)

    def test_single_agent_matches_double_loop_scan(self, std_model, equal_costs):
        """Independent oracle: a plain nested scan over (q0, q1)."""
        template = NetworkTemplate(0.35, equal_costs, std_model, 1)
        grid = np.round(np.arange(0.02, 0.981, 0.02), 10)
        best = None
        for q0 in grid:
            for q1 in grid:
                r0 = exact_risk(template.config(q0, (q1,))).r0
                if best is None or r0 < best[0]:
                    best = (r0, q0, q1)
        settings = OptimizerSettings(grid_resolution=0.02)
        result = grid_search(template, settings)
        assert result.beliefs == pytest.approx((best[1], best[2]))
        assert result.risk == pytest.approx(best[0], rel=1e-12)

    def test_chunking_does_not_change_result(self, benchmark_template, monkeypatch):
        """Local rows are independent, so neither slicing them nor batch_risk's
        chunking (here forced down to 3 rows per chunk) can change a value."""
        rng = np.random.default_rng(5)
        q0, rows = rng.uniform(0.02, 0.98, 31), rng.uniform(0.02, 0.98, size=(1000, 2))
        whole = batch_risk(benchmark_template, q0, rows)
        sliced = [batch_risk(benchmark_template, q0, rows[i:i + 97]) for i in range(0, len(rows), 97)]
        assert np.array_equal(whole, np.concatenate(sliced, axis=1))
        monkeypatch.setattr("starfuse.network.BATCH_CHUNK_ROWS", 97)
        assert np.array_equal(whole, batch_risk(benchmark_template, q0, rows))

    @pytest.mark.parametrize("lo, hi, res", [(0.92, 1.04, 0.002), (0.94, 1.02, 0.002),
                                             (0.9956, 1.0004, 0.0002)])
    def test_refinement_axis_stays_inside_the_grid(self, lo, hi, res):
        """A window clipped at GRID_HI must not step past it to 1.0."""
        axis = _axis(lo, hi, res)
        assert axis.max() <= GRID_HI < 1.0
        assert axis[-1] == pytest.approx(GRID_HI, abs=res)

    def test_optimum_near_one(self, std_model):
        """The coarse best fusion belief is 0.96, so the refinement window
        around it is clipped at the top of the grid."""
        template = NetworkTemplate(0.5, CostPair(0.2, 1.0), std_model, 2)
        coarse = grid_search(template, OptimizerSettings(tie_local_beliefs=True, grid_resolution=0.02))
        assert coarse.beliefs[0] >= 0.96
        result = grid_search(template, OptimizerSettings(tie_local_beliefs=True, grid_resolution=2e-3))
        assert 0.94 < result.beliefs[0] < 1.0
        assert result.risk <= coarse.risk
        assert result.risk == exact_risk(template.config(result.beliefs[0], result.beliefs[1:])).r0

    @pytest.mark.parametrize("budget", [200_000, 490])
    def test_tie_across_blocks_breaks_row_major(self, benchmark_template, monkeypatch, budget):
        """Two equal minima, at coarse rows (q0, q1) = (0.08, 0.82) and
        (0.22, 0.06): the smaller fusion-belief index wins, as an argmin over
        the whole grid picks, also when 10-row pieces put it in a later piece."""
        def rates(model, costs, blocks):
            for block, (q0, q_local) in enumerate(blocks):
                step = max(1, network.BATCH_CHUNK_ROWS // len(q0))
                for start in range(0, len(q_local), step):
                    f, q1 = np.asarray(q0)[:, None], np.asarray(q_local)[None, start:start + step, 0]
                    low = ((np.isclose(f, 0.08) & np.isclose(q1, 0.82))
                           | (np.isclose(f, 0.22) & np.isclose(q1, 0.06)))
                    yield block, start, (np.where(low, 0.0, 1.0), np.where(low, 0.0, 1.0))

        monkeypatch.setattr("starfuse.optimize.fusion_error_rates", rates)
        monkeypatch.setattr("starfuse.network.BATCH_CHUNK_ROWS", budget)
        settings = OptimizerSettings(grid_resolution=0.02, tie_local_beliefs=True)
        assert grid_search(benchmark_template, settings).beliefs == (0.08, 0.82, 0.82)

    def test_dimension_guard(self, std_model, equal_costs):
        template = NetworkTemplate(0.3, equal_costs, std_model, 4)
        with pytest.raises(ValueError):
            grid_search(template, OptimizerSettings(grid_resolution=0.02))

    @pytest.mark.parametrize("field, value", [("max_iters", True), ("max_iters", 2.5),
                                              ("max_iters", 40.0), ("restarts", "3"),
                                              ("restarts", True), ("restarts", None)])
    def test_settings_counts_must_be_integers(self, field, value):
        """``max_iters=True`` ran one sweep and ``restarts="3"`` raised a
        TypeError; each is refused, naming the field."""
        with pytest.raises(ValueError, match=f"^{field}={value!r} is not an integer$"):
            OptimizerSettings(**{field: value})

    def test_settings_accept_numpy_integers(self, benchmark_template):
        numpy_ints = OptimizerSettings(max_iters=np.int64(40), restarts=np.int32(2))
        assert pbpo_exact(benchmark_template, numpy_ints, seed=3) \
            == pbpo_exact(benchmark_template, OptimizerSettings(max_iters=40, restarts=2), seed=3)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1e-4])
    @pytest.mark.parametrize("field", ["step", "eps"])
    def test_settings_step_and_eps_positive_and_finite(self, field, value):
        """``step=inf`` walked to the clamp edge in two sweeps and reported
        ``converged=True``, and ``eps=inf`` stopped after one sweep; each is
        refused, naming the field."""
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite$"):
            OptimizerSettings(**{field: value})

    @pytest.mark.parametrize("value", [0.5, 0.9, 1e300])
    def test_settings_step_below_half(self, value):
        """From the default start of 0.5 a step of 0.5 or more probes only the
        clamp edges (``--delta 0.9`` reported converged=True at the edge), so
        it is refused as ``grid_resolution`` is; a step just below passes."""
        with pytest.raises(ValueError, match=r"^step must be below 0\.5$"):
            OptimizerSettings(step=value)
        assert OptimizerSettings(step=math.nextafter(0.5, 0.0)).step < 0.5

    def test_resolution_guard(self, benchmark_template):
        with pytest.raises(ValueError):
            grid_search(benchmark_template, OptimizerSettings(grid_resolution=5e-5,
                                                              tie_local_beliefs=True))

    def test_result_risk_equals_exact_risk(self, benchmark_template, benchmark_optimum):
        cfg = benchmark_template.config(benchmark_optimum.beliefs[0],
                                        benchmark_optimum.beliefs[1:])
        assert benchmark_optimum.risk == exact_risk(cfg).r0

    def test_batch_risk_agrees_with_scalar(self, benchmark_template):
        rng = np.random.default_rng(3)
        q0, rows = rng.uniform(0.05, 0.95, 8), rng.uniform(0.05, 0.95, size=(5, 2))
        batched = batch_risk(benchmark_template, q0, rows)
        for i, j in np.ndindex(batched.shape):
            scalar = exact_risk(benchmark_template.config(q0[i], rows[j])).r0
            assert batched[i, j] == pytest.approx(scalar, rel=1e-13)

    def test_local_optimum_pulls_toward_cost_neutral(self, std_model, equal_costs):
        """For small priors the optimal tied local belief sits between the
        prior and the cost-neutral point."""
        settings = OptimizerSettings(tie_local_beliefs=True, grid_resolution=2e-3)
        for pi0 in (0.1, 0.2, 0.3, 0.45):
            template = NetworkTemplate(pi0, equal_costs, std_model, 2)
            result = grid_search(template, settings)
            assert pi0 < result.beliefs[1] < 0.5


def _uncached_risk(template, beliefs):
    """Reference scalar risk: the evaluator's arithmetic with nothing memoized,
    every decision rate the Gaussian tail on its own side from scipy's
    ``erfc``, the fusion log factors from ``log_ndtr`` and each count's
    log-odds summed as ``observation.per_float_rates``' ``count_errors``
    sums them."""
    model, costs = template.model, template.costs
    s = model.sigma
    v = model.variance_proxy
    logc = costs.log_ratio
    n = template.n_local

    def lodds(q):
        q = min(max(q, 1e-9), 1.0 - 1e-9)
        return math.log(q) - math.log1p(-q)

    def q_tail(x):
        return 0.5 * float(special.erfc(x / math.sqrt(2.0)))

    def log_ndtr(x):
        return float(special.log_ndtr(x))

    pmf0 = [1.0] + [0.0] * n
    pmf1 = [1.0] + [0.0] * n
    for i in range(n):
        lam = 0.5 + v * (logc + lodds(beliefs[1 + i]))
        t0, t1 = q_tail(lam / s), q_tail((lam - 1.0) / s)
        s0, s1 = q_tail(-lam / s), q_tail(-(lam - 1.0) / s)
        for k in range(i + 1, 0, -1):
            pmf0[k] = pmf0[k] * s0 + pmf0[k - 1] * t0
            pmf1[k] = pmf1[k] * s1 + pmf1[k - 1] * t1
        pmf0[0] *= s0
        pmf1[0] *= s1

    ell0 = lodds(beliefs[0])
    lam_f = 0.5 + v * (logc + ell0)
    l_zero = log_ndtr(lam_f / s) - log_ndtr((lam_f - 1.0) / s)
    l_one = log_ndtr(-lam_f / s) - log_ndtr(-(lam_f - 1.0) / s)
    p_fa0 = 0.0
    p_md0 = 0.0
    for k in range(n + 1):
        lam = 0.5 + v * (logc + (ell0 + (n - k) * l_zero + k * l_one))
        p_fa0 += pmf0[k] * q_tail(lam / s)
        p_md0 += pmf1[k] * q_tail(-(lam - 1.0) / s)
    return costs.c_fa * template.pi0 * p_fa0 + costs.c_md * (1.0 - template.pi0) * p_md0


def _random_template(rng):
    return NetworkTemplate(
        pi0=float(rng.uniform(0.05, 0.95)),
        costs=CostPair(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))),
        model=ObservationModel(sigma=float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))),
        n_local=int(rng.integers(1, 13)),
    )


class TestRiskEvaluator:
    def test_equals_uncached_reference(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            template = _random_template(rng)
            risk = _RiskEvaluator(template)
            # A small pool of beliefs, so most evaluations hit the memo.
            pool = rng.uniform(0.02, 0.98, size=6)
            for _ in range(20):
                beliefs = [float(q) for q in rng.choice(pool, size=template.n_local + 1)]
                assert risk(beliefs) == _uncached_risk(template, beliefs)

    def test_agrees_with_exact_risk(self):
        rng = np.random.default_rng(67)
        checked = 0
        for _ in range(80):
            template = _random_template(rng)
            beliefs = [float(q) for q in rng.uniform(0.02, 0.98, size=template.n_local + 1)]
            try:
                value = _RiskEvaluator(template)(beliefs)
            except FloatingPointError:
                continue
            expected = exact_risk(template.config(beliefs[0], beliefs[1:])).r0
            # The evaluator adds left to right, as network.mix's row sum
            # does below 8 counts; numpy's pairwise order takes over above.
            if template.n_local <= 6:
                assert value == expected
            else:
                assert value == pytest.approx(expected, rel=1e-13, abs=1e-13)
            checked += 1
        assert checked >= 40

    def test_memo_does_not_drift(self, benchmark_template):
        rng = np.random.default_rng(71)
        pool = rng.uniform(0.05, 0.95, size=8)
        risk = _RiskEvaluator(benchmark_template)
        for _ in range(1000):
            risk([float(q) for q in rng.choice(pool, size=3)])
        probe = [float(pool[0]), float(pool[3]), float(pool[5])]
        assert risk(probe) == _RiskEvaluator(benchmark_template)(probe)

    def test_clamp_edge_underflow_is_named(self):
        """The run that used to stop at the clamp edge converges there; where
        sigma**2 overflows, the first fusion belief's factors are not finite."""
        result = pbpo(CLAMP_EDGE_TEMPLATE, OptimizerSettings(), init=CLAMP_EDGE_INIT)
        assert result.converged and result.beliefs[0] == 1.0 - 1e-9
        template = dataclasses.replace(CLAMP_EDGE_TEMPLATE, model=ObservationModel(sigma=1e200))
        with pytest.raises(FloatingPointError, match=r"fusion belief 0\.9330755360597098 at "
                                                     r"sigma=1e\+200.*not finite"):
            pbpo(template, OptimizerSettings(), init=CLAMP_EDGE_INIT)

    def test_clamp_edge_underflow_in_multi_start(self):
        """Restarts that walk to the clamp edge finish there; the best of all
        is the tied grid optimum."""
        result = pbpo(CLAMP_EDGE_TEMPLATE, OptimizerSettings(), init=None)
        assert result.risk == pytest.approx(0.082517, abs=1e-6)
        settings = OptimizerSettings(tie_local_beliefs=True, grid_resolution=1e-3)
        assert result.risk == pytest.approx(grid_search(CLAMP_EDGE_TEMPLATE, settings).risk,
                                            abs=1e-6)

    def test_multi_start_raises_when_every_restart_fails(self):
        """At sigma=1e200 sigma**2 overflows and no fusion belief has finite
        log factors, so all three seeded restarts fail; the call raises the
        first restart's error."""
        template = NetworkTemplate(0.3, CostPair(), ObservationModel(sigma=1e200), 2)
        with pytest.raises(FloatingPointError,
                           match=r"^fusion belief 0\.27114764887934373 at sigma=1e\+200"):
            pbpo(template, OptimizerSettings(restarts=3), init=None, seed=2)

    @pytest.mark.parametrize("sigma, factors", [(1e200, "(nan, nan)"), (1e-200, "(inf, -inf)")])
    def test_fusion_factor_error_wording(self, sigma, factors):
        """The whole message names the fusion belief, sigma and both factors."""
        template = NetworkTemplate(0.3, CostPair(), ObservationModel(sigma=sigma), 2)
        with pytest.raises(FloatingPointError) as raised:
            _RiskEvaluator(template)((0.5, 0.4, 0.6))
        assert str(raised.value) == (f"fusion belief 0.5 at sigma={sigma!r}: its fusion log "
                                     f"factors {factors} are not finite")

    @hypothesis_settings(max_examples=80, deadline=None)
    @given(sigma=st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e),
           costs=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
           beliefs=st.lists(st.one_of(st.floats(0.02, 0.98), st.floats(1e-12, 1e-7),
                                      st.floats(1.0 - 1e-7, 1.0 - 1e-12),
                                      st.sampled_from([BELIEF_EPS, 1.0 - BELIEF_EPS])),
                            min_size=2, max_size=10))
    def test_equals_network_per_float_path(self, sigma, costs, beliefs):
        """The evaluator's tails and per-count fusion errors are the doubles of
        ``network._local_tails`` and of the false alarms and missed
        detections of ``network._fusion_count_errors``, which ``exact_risk``
        mixes, beliefs at and past the clamp included."""
        n = len(beliefs) - 1
        model, costs = ObservationModel(sigma=sigma), CostPair(*costs)
        evaluator = _RiskEvaluator(NetworkTemplate(0.3, costs, model, n))
        assert [evaluator.tails_of(q) for q in beliefs] == network._local_tails(model, costs, beliefs)
        for q0 in beliefs:
            fa, md = network._fusion_count_errors(model, costs, log_odds(q0), n)[:2]
            assert evaluator.errors_of(q0) == (fa.tolist(), md.tolist())

    @hypothesis_settings(max_examples=120, deadline=None)
    @given(sigma=st.floats(-2.0, 1.5).map(lambda e: 10.0 ** e),
           costs=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
           pi0=st.floats(0.05, 0.95),
           beliefs=st.lists(st.floats(0.02, 0.98), min_size=0, max_size=8),
           tail=st.one_of(st.floats(0.02, 0.98), st.tuples(*[st.floats(0.0, 1.0)] * 4)),
           q0=st.one_of(st.floats(0.02, 0.98), st.sampled_from([BELIEF_EPS, 1.0 - BELIEF_EPS])))
    def test_mix_folds_the_last_local_as_fold_agent(self, sigma, costs, pi0, beliefs, tail, q0):
        """``mix(pmfs, tail, q0)`` forms the count pmfs of
        ``fold_agent(pmfs, tail)`` as it mixes them, so its risk is, as a
        double, that fold followed by a left-to-right sum of the products,
        for pmfs of 0 to 8 locals and a tail of a belief or of any four
        floats in [0, 1]."""
        costs = CostPair(*costs)
        template = NetworkTemplate(pi0, costs, ObservationModel(sigma=sigma), len(beliefs) + 1)
        evaluator = _RiskEvaluator(template)
        pmfs = network.NO_AGENTS
        for q in beliefs:
            pmfs = network.fold_agent(pmfs, evaluator.tails_of(q))
        if isinstance(tail, float):
            tail = evaluator.tails_of(tail)
        pmf0, pmf1 = network.fold_agent(pmfs, tail)
        fa, md = evaluator.errors_of(q0)
        p_fa0 = p_md0 = 0.0
        for k in range(len(pmf0)):
            p_fa0 += pmf0[k] * fa[k]
            p_md0 += pmf1[k] * md[k]
        expected = costs.c_fa * pi0 * p_fa0 + costs.c_md * (1.0 - pi0) * p_md0
        assert evaluator.mix(pmfs, tail, q0) == expected


class TestOneScalarFold:
    """The descent evaluator folds a local into its count pmfs only through
    ``network.fold_agent``, the fold of ``network``'s small leave-one-out
    pass, or, for the last local, inside its mix with that fold's
    operations; counting the calls changes no result."""

    def test_evaluator_pbpo_and_line_search_fold_through_fold_agent(self, monkeypatch):
        n = 3
        template = NetworkTemplate(0.3, CostPair(1.0, 1.2), ObservationModel(sigma=1.1), n)
        settings = OptimizerSettings(step=2e-3)
        init = (0.5, 0.4, 0.6, 0.55)
        runs = {
            "evaluator": lambda: _RiskEvaluator(template)(init),
            "prefixes": lambda: _RiskEvaluator(template).prefixes(init[1:]),
            "line search": lambda: optimize.FusionLineSearch(template)(init[1:]),
            "pbpo": lambda: pbpo(template, settings, init=init),
            "pbpo_exact": lambda: pbpo_exact(template, settings, init=init),
        }
        unpatched = {name: run() for name, run in runs.items()}
        folds = []
        fold = network.fold_agent
        monkeypatch.setattr(optimize, "fold_agent", lambda *a: folds.append(a) or fold(*a))
        for name, run in runs.items():
            folds.clear()
            assert run() == unpatched[name], name
            sweeps = unpatched[name].iterations if name.startswith("pbpo") else 0
            # The evaluator's mix folds the last local as it mixes, so a risk
            # folds locals 1..N-1 only; the line search folds all N, since
            # its scan mixes the full count pmfs. A pbpo sweep's two probes
            # of local i < N refold locals i..N-1 and a probe of local N
            # folds nothing, (N-1)·N folds a sweep; a pbpo_exact sweep folds
            # N for its line search and N-1 for its trace risk.
            expected = {"evaluator": n - 1, "pbpo": n - 1 + sweeps * (n - 1) * n,
                        "pbpo_exact": n - 1 + sweeps * (2 * n - 1)}
            assert len(folds) == expected.get(name, n), name
        assert unpatched["pbpo"].iterations > 2 and unpatched["pbpo_exact"].iterations > 2


class TestPbpo:
    def test_benchmark_reproduction(self, benchmark_template):
        settings = OptimizerSettings(step=5e-4, eps=1e-4, max_iters=2000)
        result = pbpo(benchmark_template, settings, init=(0.5, 0.5, 0.5))
        assert result.converged
        assert result.beliefs[0] == pytest.approx(0.7372, abs=1e-3)
        assert result.beliefs[1] == pytest.approx(0.3960, abs=1e-3)
        assert result.beliefs[2] == pytest.approx(0.3960, abs=1e-3)
        assert result.risk == pytest.approx(0.1918, abs=5e-4)
        # The exact trajectory end, unchanged by memoizing the scalar risk.
        assert result.iterations == 475
        assert repr(result.beliefs) == "(0.7369999999999739, 0.3959999999999999, 0.3959999999999999)"
        # Last risk with the fusion log factors from log_ndtr and the tails
        # from scipy's erfc, which every exact path uses: the 50-digit value
        # is 0.19178510233679486623, 4.4e-17 (1.6 ulp of 2.8e-17) away; with
        # math.erfc tails the last risk was 0.19178510233679488, 1.6e-17 (0.6
        # ulp) away.
        assert result.trace[-1] == (0.7369999999999739, 0.3959999999999999, 0.3959999999999999,
                                    0.1917851023367949)

    @pytest.mark.parametrize("pi0, costs, sigma, n, digest", [
        (0.3, (1.0, 1.0), 1.0, 2, "00eed4a98e3ff85e54a56475582c8aaeba623bb296a0b7b3250de5ffa3cdbb72"),
        (0.7, (1.4, 0.8), 0.6, 1, "7084e434e3218955b83bc2cb640d92460a663166ea301d995d5f9f9ee5c9ce37"),
        (0.6, (0.7, 1.6), 1.3, 3, "cc58748b7a013ab1492b054eb0b689afd1dc8fc30dc291eaf27f74e47da348d8"),
    ], ids=["headline", "n1", "n3"])
    def test_trajectory_digest(self, pi0, costs, sigma, n, digest):
        """The whole result, every trace row included, of a default-settings
        run from the tied start 0.5, as the SHA-256 of its ``repr``: a change
        to how the descent forms its risks must keep every double of these
        trajectories, the paper's headline (N = 2, pi0 0.3) among them."""
        template = NetworkTemplate(pi0, CostPair(*costs), ObservationModel(sigma=sigma), n)
        result = pbpo(template, OptimizerSettings(), init=(0.5,) * (n + 1))
        assert hashlib.sha256(repr(result).encode()).hexdigest() == digest

    @pytest.mark.parametrize("pi0, costs, sigma, n, init, digest", [
        (0.3, (1.0, 1.0), 1.0, 2, (0.5,) * 3,
         "9196356a5cdbf444e020b63194f30fc418fac7d278745723441c140a750a6904"),
        (0.6, (0.7, 1.6), 1.3, 3, (0.5,) * 4,
         "8d879783ed800a92ef32673f93641104b7ff7e0563e27dc8cb3c4063f5e7ba6e"),
        (0.3, (1.0, 1.0), 1.0, 2, None,
         "f98a57fdc64ff42d5568fd96ae36aa22cf8c917ad256e47a6744d8b69b69d55e"),
    ], ids=["headline", "n3", "multi-start"])
    def test_exact_trajectory_digest(self, pi0, costs, sigma, n, init, digest):
        """``pbpo_exact``'s whole result, every trace row included, as the
        SHA-256 of its ``repr``, from the tied start 0.5 and from the seeded
        restarts of ``init=None``."""
        template = NetworkTemplate(pi0, CostPair(*costs), ObservationModel(sigma=sigma), n)
        result = pbpo_exact(template, OptimizerSettings(), init=init)
        assert hashlib.sha256(repr(result).encode()).hexdigest() == digest

    def test_grid_result_repr_without_trace(self, benchmark_template):
        """A grid result's ``repr`` ends in ``trace=None``, pinned by SHA-256."""
        result = grid_search(benchmark_template, OptimizerSettings(tie_local_beliefs=True))
        assert repr(result).endswith(", trace=None)") and result.trace is None
        assert hashlib.sha256(repr(result).encode()).hexdigest() == (
            "95a67c05d46e14c7103f867970bf51dae9a48ac1a8a2dcb9f42806c601c7a503")

    @pytest.mark.parametrize("optimizer", [pbpo, pbpo_exact], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n", [2, 3])
    def test_risk_is_last_trace_risk(self, optimizer, n):
        """Up to N = 6 the evaluator's risk of the final beliefs is
        ``exact_risk``'s, so the result's risk is its trace's last, bit for
        bit."""
        settings = OptimizerSettings(step=2e-3, eps=1e-3, max_iters=400)
        for pi0 in np.linspace(0.05, 0.95, 19).tolist():
            template = NetworkTemplate(pi0, CostPair(1.0, 1.4), ObservationModel(sigma=0.8), n)
            result = optimizer(template, settings, init=(0.5,) * (n + 1))
            assert result.risk == result.trace[-1][-1]

    def test_risk_trace_non_increasing(self, benchmark_template):
        settings = OptimizerSettings(step=5e-4, eps=1e-4, max_iters=2000)
        result = pbpo(benchmark_template, settings, init=(0.4, 0.6, 0.55))
        risks = [row[-1] for row in result.trace]
        assert all(b <= a + 1e-15 for a, b in zip(risks, risks[1:]))

    def test_start_at_optimum_stops_immediately(self, benchmark_template, benchmark_optimum):
        settings = OptimizerSettings(step=5e-4, eps=1e-4, max_iters=50)
        result = pbpo(benchmark_template, settings, init=benchmark_optimum.beliefs)
        assert result.converged
        assert result.iterations <= 2
        assert result.risk <= benchmark_optimum.risk + 1e-9

    def test_exact_stops_at_a_move_of_exactly_eps(self, benchmark_template):
        """``pbpo_exact`` stops, converged, at the sweep whose move is
        exactly ``eps``. At eps 1e-4 the run from (0.5, 0.5, 0.5) stops at
        sweep 8; rerun with eps that sweep's move (9.4e-5, which leaves every
        line search's bracket count, and so the trajectory, unchanged), it
        stops at the same sweep, where a strict test would go on."""
        init = (0.5, 0.5, 0.5)
        first = pbpo_exact(benchmark_template, OptimizerSettings(eps=1e-4), init=init)
        rows = [row[:-1] for row in first.trace]
        moves = [math.dist(a, b) for a, b in zip(rows[1:], rows)]
        eps = moves[-1]
        assert first.iterations == 8 and min(moves[:-1]) > eps
        rerun = pbpo_exact(benchmark_template, OptimizerSettings(eps=eps), init=init)
        assert rerun.converged and rerun.iterations == 8
        assert rerun.trace == first.trace

    def test_non_convergence_reported_not_raised(self, benchmark_template):
        settings = OptimizerSettings(step=5e-4, eps=1e-4, max_iters=3)
        result = pbpo(benchmark_template, settings, init=(0.1, 0.9, 0.9))
        assert not result.converged
        assert result.iterations == 3

    def test_random_instances_match_grid_oracle(self, std_model):
        """Fixed-step descent with restarts reaches the grid optimum."""
        rng = np.random.default_rng(41)
        settings = OptimizerSettings(step=2e-3, eps=1e-3, max_iters=600, restarts=4,
                                     grid_resolution=2e-3)
        grid_settings = dataclasses.replace(settings, tie_local_beliefs=False)
        for _ in range(50):
            template = NetworkTemplate(
                pi0=float(rng.uniform(0.15, 0.85)),
                costs=CostPair(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))),
                model=std_model,
                n_local=2,
            )
            reference = grid_search(template, grid_settings)
            result = pbpo(template, settings, init=None, seed=7)
            slack = 2.0 * settings.step
            assert result.risk >= reference.risk - slack
            probe = batch_risk(template, reference.beliefs[:1], [reference.beliefs[1:]])[0, 0]
            assert result.risk <= probe + slack

    def test_exact_variant_agrees_with_fixed_step(self, benchmark_template):
        settings = OptimizerSettings(step=5e-4, eps=1e-4, max_iters=2000)
        fixed = pbpo(benchmark_template, settings, init=(0.5, 0.5, 0.5))
        exact = pbpo_exact(benchmark_template, settings, init=(0.5, 0.5, 0.5))
        for a, b in zip(fixed.beliefs, exact.beliefs):
            assert a == pytest.approx(b, abs=2.0 * settings.step)
        assert exact.iterations < fixed.iterations


class TestOptimizationResult:
    def test_headline_result_keeps_one_array(self, benchmark_template):
        """The headline run's result keeps its 476 trace rows as one array of
        8 bytes a number, about 15 KB, not a tuple of row tuples of float
        objects (42 KB in all). A full collection on each side empties
        CPython's free lists, whose blocks tracemalloc counts as allocated:
        how many of the run's freed objects they hold depends on the state of
        the process, and without it the same run read 18 to 38 KB."""
        settings = OptimizerSettings()
        pbpo(benchmark_template, settings, init=(0.5,) * 3)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = pbpo(benchmark_template, settings, init=(0.5,) * 3)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert result.iterations == 475
        assert kept <= 24 * 1024

    @pytest.mark.parametrize("optimizer", [pbpo, pbpo_exact], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trace_array_layout(self, optimizer, n):
        """One read-only float64 row per sweep and the start, beliefs then
        risk, owning its data; ``trace`` is its rows as tuples of floats."""
        template = NetworkTemplate(0.4, CostPair(1.0, 1.4), ObservationModel(sigma=0.8), n)
        result = optimizer(template, OptimizerSettings(max_iters=60), init=(0.5,) * (n + 1))
        rows = result.trace_array
        assert rows.dtype == np.float64 and rows.shape == (result.iterations + 1, n + 2)
        assert rows.base is None and not rows.flags.writeable
        assert result.trace == tuple(tuple(float(x) for x in row) for row in rows)
        assert {type(x) for row in result.trace for x in row} == {float}
        assert result.trace[0][:-1] == (0.5,) * (n + 1)
        assert result.trace[-1][:-1] == result.beliefs

    def test_equal_and_hash_see_the_trace(self, benchmark_template):
        """Two runs alike are equal and hash alike, as their fields and
        ``trace`` do; a result whose trace differs in one double is not equal."""
        settings = OptimizerSettings(max_iters=30)
        first, second = (pbpo(benchmark_template, settings, init=(0.5,) * 3) for _ in range(2))
        fields = (first.beliefs, first.risk, first.iterations, first.converged,
                  first.stationarity_residual, first.trace)
        assert first == second and hash(first) == hash(second) == hash(fields)
        altered = first.trace_array.copy()
        altered[0, 0] = 0.25
        other = dataclasses.replace(first, trace_array=altered)
        assert first != other and hash(first) != hash(other)
        assert first != fields

class TestExactCoordinateUpdate:
    def test_symmetric_fixed_point(self, std_model):
        for costs in (CostPair(1.0, 1.0), CostPair(1.0, 2.0)):
            neutral = costs.neutral_belief
            cfg = NetworkConfig(neutral, costs, std_model, neutral, (neutral, neutral))
            for j in (1, 2):
                value, degenerate = exact_coordinate_update(cfg, j)
                assert not degenerate
                assert value == pytest.approx(neutral, abs=1e-10)

    def test_benchmark_self_consistency(self, benchmark_template, benchmark_optimum):
        cfg = benchmark_template.config(benchmark_optimum.beliefs[0],
                                        benchmark_optimum.beliefs[1:])
        value, degenerate = exact_coordinate_update(cfg, 1)
        assert not degenerate
        assert value == pytest.approx(0.3960, abs=1e-3)

    def test_matches_dense_scan_single_agent(self, std_model, equal_costs):
        template = NetworkTemplate(0.4, equal_costs, std_model, 1)
        cfg = template.config(0.55, (0.5,))
        value, degenerate = exact_coordinate_update(cfg, 1)
        assert not degenerate
        grid = np.round(np.arange(0.001, 0.9995, 0.001), 10)
        risks = [exact_risk(template.config(0.55, (q,))).r0 for q in grid]
        assert value == pytest.approx(grid[int(np.argmin(risks))], abs=1e-3)

    def test_index_bounds(self, benchmark_template):
        cfg = benchmark_template.tied(0.6, 0.4)
        for j in (0, 3):
            with pytest.raises(IndexError):
                exact_coordinate_update(cfg, j)

    def test_non_finite_differences_raise(self):
        with pytest.raises(ValueError, match="not finite"):
            exact_coordinate_update(_underflow_config(), 1)


class TestStationarity:
    def test_grid_optimum_nearly_stationary(self, benchmark_optimum):
        assert benchmark_optimum.stationarity_residual <= 1e-2

    def test_symmetric_fixed_point_exactly_stationary(self, std_model):
        for costs in (CostPair(1.0, 1.0), CostPair(1.0, 2.0)):
            neutral = costs.neutral_belief
            cfg = NetworkConfig(neutral, costs, std_model, neutral, (neutral, neutral))
            assert stationarity_residual(cfg) <= 1e-10

    def test_perturbation_breaks_stationarity(self, benchmark_template, benchmark_optimum):
        q0, q1, _ = benchmark_optimum.beliefs
        cfg = benchmark_template.config(q0, (q1 + 0.05, q1))
        assert stationarity_residual(cfg) > 1e-3

    def test_residual_is_largest_coordinate_update_gap(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            cfg = random_config(rng, n_max=8)
            gaps = []
            for j in range(1, cfg.n_local + 1):
                value, degenerate = exact_coordinate_update(cfg, j)
                assert not degenerate
                gaps.append(abs(log_odds(cfg.q_local[j - 1]) - log_odds(value)))
            assert stationarity_residual(cfg) == pytest.approx(max(gaps), abs=1e-9)

    def test_non_finite_differences_give_nan(self):
        assert np.isnan(stationarity_residual(_underflow_config()))

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_non_finite_difference_array_gives_nan(self, monkeypatch, side, bad):
        """nan when only one of the two difference arrays holds a non-finite
        entry, with every other entry positive: a check of that array alone
        would read inf (an inf or -inf entry) or a finite residual (nan last,
        which ``max`` passes over)."""
        differences = [np.array([0.2, 0.3, 0.25]), np.array([0.1, 0.15, 0.4])]
        differences[side][-1] = bad
        monkeypatch.setattr(optimize, "_pinned_differences", lambda config: tuple(differences))
        assert math.isnan(stationarity_residual(_underflow_config()))


def monotone_rhs_check(config: NetworkConfig, j: int, i: int, grid=None) -> bool:
    """True when the stationarity balance's right side for agent ``j``,
    log(d_fa / d_md), is strictly decreasing along ``grid`` substituted for
    local belief ``i`` (1-based, i != j); the order of ``grid`` is respected,
    so a reversed grid flags the increase."""
    if i == j:
        raise ValueError("indices i and j must differ")
    if grid is None:
        grid = np.round(np.arange(0.05, 0.951, 0.05), 10)
    values = []
    for qi in grid:
        q_local = list(config.q_local)
        q_local[i - 1] = float(qi)
        fa, md = pinned_fusion_errors(dataclasses.replace(config, q_local=tuple(q_local)))
        d_fa, d_md = float(fa[1, j - 1] - fa[0, j - 1]), float(md[0, j - 1] - md[1, j - 1])
        if d_fa <= 0.0 or d_md <= 0.0:
            return False
        values.append(math.log(d_fa) - math.log(d_md))
    return all(b < a for a, b in zip(values, values[1:]))


class TestMonotoneRhs:
    def test_decreasing_on_default_grid(self, benchmark_template):
        cfg = benchmark_template.tied(0.7372, 0.3960)
        assert monotone_rhs_check(cfg, 1, 2)

    def test_reversed_grid_detected(self, benchmark_template):
        cfg = benchmark_template.tied(0.7372, 0.3960)
        grid = np.round(np.arange(0.95, 0.049, -0.05), 10)
        assert not monotone_rhs_check(cfg, 1, 2, grid=grid)

    def test_random_two_agent_configs_full_grid(self, std_model):
        rng = np.random.default_rng(47)
        for _ in range(20):
            cfg = NetworkConfig(
                pi0=float(rng.uniform(0.15, 0.85)),
                costs=CostPair(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))),
                model=std_model,
                q0=float(rng.uniform(0.15, 0.85)),
                q_local=tuple(rng.uniform(0.15, 0.85, size=2)),
            )
            assert monotone_rhs_check(cfg, 1, 2)

    def test_random_three_agent_configs_central_grid(self, std_model):
        # Restricted to the central belief range: when several companions
        # push the fusion thresholds far into a tail, both bracketed
        # differences flatten and the ratio can turn back near the edges.
        rng = np.random.default_rng(47)
        grid = np.round(np.arange(0.25, 0.751, 0.05), 10)
        for _ in range(20):
            cfg = NetworkConfig(
                pi0=float(rng.uniform(0.15, 0.85)),
                costs=CostPair(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))),
                model=std_model,
                q0=float(rng.uniform(0.15, 0.85)),
                q_local=tuple(rng.uniform(0.15, 0.85, size=3)),
            )
            assert monotone_rhs_check(cfg, 1, 2, grid=grid)

    def test_detector_catches_edge_turn_back(self, std_model):
        """A hand-found three-agent config whose ratio turns back up near the
        top of the default grid; the check must report it."""
        cfg = NetworkConfig(
            pi0=0.6617450072431832,
            costs=CostPair(1.5455791071007057, 1.323372690465058),
            model=std_model,
            q0=0.3537570683474195,
            q_local=(0.4475655609924517, 0.7816570350135013, 0.8461744340161175),
        )
        assert not monotone_rhs_check(cfg, 1, 2)

    def test_index_validation(self, benchmark_template):
        cfg = benchmark_template.tied(0.5, 0.5)
        with pytest.raises(ValueError):
            monotone_rhs_check(cfg, 1, 1)


class TestCoordinateConvexity:
    def test_local_coordinates_convex_in_false_alarm_rate(self, std_model):
        """Risk against a local agent's decide-1 rate has non-negative
        second differences (uniform grid in the rate)."""
        rng = np.random.default_rng(53)
        rates = np.linspace(0.02, 0.98, 49)
        for _ in range(8):
            cfg = random_config(rng, n_max=4, sigma_range=(0.6, 1.8))
            sigma = cfg.model.sigma
            for j in range(1, cfg.n_local + 1):
                risks = []
                for rate in rates:
                    lam = sigma * _q_inv(rate)
                    q_j = _belief_for_threshold(cfg, lam)
                    q_local = list(cfg.q_local)
                    q_local[j - 1] = q_j
                    risks.append(exact_risk(dataclasses.replace(cfg, q_local=tuple(q_local))).r0)
                second = np.diff(risks, n=2)
                assert np.min(second) >= -1e-10

    def test_fusion_coordinate_convex_on_main_branch(self, benchmark_template):
        """The fusion false-alarm rate folds as the fusion belief sweeps, so
        risk-vs-rate is tested on the monotone branch holding the optimum."""
        q0_grid = np.linspace(0.02, 0.98, 481)
        risks = batch_risk(benchmark_template, q0_grid, [(0.396, 0.396)])[:, 0]
        rates = np.array([
            exact_risk(benchmark_template.tied(q0, 0.396)).p_fa0 for q0 in q0_grid
        ])
        flips = np.where(np.diff(np.sign(np.diff(rates))) != 0)[0]
        edges = np.concatenate([[0], flips + 1, [len(q0_grid)]])
        best = int(np.argmin(risks))
        for lo, hi in zip(edges[:-1], edges[1:]):
            if lo <= best < hi:
                x, y = rates[lo:hi], risks[lo:hi]
                break
        if x[0] > x[-1]:
            x, y = x[::-1], y[::-1]
        slopes = np.diff(y) / np.diff(x)
        assert np.min(np.diff(slopes)) >= -1e-6


def _q_inv(p):
    from scipy.special import ndtri

    return float(-ndtri(p))


def _belief_for_threshold(cfg, lam):
    """The belief whose threshold is ``lam``: ``threshold_from_belief`` inverted."""
    ell = (lam - 0.5) / cfg.model.variance_proxy - cfg.costs.log_ratio
    return min(max(float(from_log_odds(ell)), 1e-9), 1 - 1e-9)


class TestGoldenSection:
    def test_quadratic_minimum(self):
        assert golden_section(lambda x: (x - 2.0) ** 2, 0.0, 5.0, 1e-8) == pytest.approx(2.0, abs=1e-6)

    def test_fusion_belief_line_search(self, benchmark_template):
        q0 = minimize_fusion_belief(benchmark_template, (0.396, 0.396), tol=1e-6)
        assert q0 == pytest.approx(0.7372, abs=2e-3)


def _prelec_sup_error(seed, size, alpha, beta_w):
    """``fit_prelec_minimax``'s objective on a noisy Prelec curve."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.01, 0.99, size))
    y = np.clip(prelec(x, PrelecParams(alpha, beta_w)) + rng.normal(0.0, 0.01, size), 0.0, 1.0)

    def objective(log_params):
        params = PrelecParams(math.exp(log_params[0]), math.exp(log_params[1]))
        return float(np.max(np.abs(prelec(x, params) - y)))
    return objective


def _rosenbrock(v):
    return float(np.sum(100.0 * (v[1:] - v[:-1] ** 2) ** 2 + (1.0 - v[:-1]) ** 2))


_starts = st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=1, max_size=4)


class TestNelderMead:
    """``optimize.nelder_mead`` is scipy's Nelder-Mead, double for double."""

    @staticmethod
    def assert_scipy_doubles(f, x0, xatol=1e-7, fatol=1e-12, max_iters=4000):
        x, fun = optimize.nelder_mead(f, x0, xatol, fatol, max_iters)
        expected = minimize(f, np.array(x0, dtype=float), method="Nelder-Mead",
                            options={"xatol": xatol, "fatol": fatol, "maxiter": max_iters})
        assert repr(x.tolist()) == repr(expected.x.tolist())
        assert repr(float(fun)) == repr(float(expected.fun))

    @hypothesis_settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(3, 120),
           alpha=st.floats(0.25, 2.5), beta_w=st.floats(0.25, 2.5),
           x0=st.tuples(st.floats(math.log(0.2), math.log(3.0)),
                        st.floats(math.log(0.2), math.log(3.0))))
    def test_prelec_sup_error(self, seed, size, alpha, beta_w, x0):
        self.assert_scipy_doubles(_prelec_sup_error(seed, size, alpha, beta_w), list(x0))

    @hypothesis_settings(max_examples=40, deadline=None)
    @given(x0=_starts, data=st.data())
    def test_quadratic(self, x0, data):
        center = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(x0),
                                             max_size=len(x0))))
        scale = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=len(x0),
                                            max_size=len(x0))))
        self.assert_scipy_doubles(lambda v: float(np.sum(scale * (v - center) ** 2)), x0)

    @hypothesis_settings(max_examples=20, deadline=None)
    @given(x0=_starts.filter(lambda v: len(v) >= 2))
    def test_rosenbrock(self, x0):
        self.assert_scipy_doubles(_rosenbrock, x0)

    @hypothesis_settings(max_examples=40, deadline=None)
    @given(x0=_starts, max_iters=st.integers(1, 12))
    def test_stopped_early(self, x0, max_iters):
        f = _rosenbrock if len(x0) >= 2 else lambda v: abs(float(v[0]))
        self.assert_scipy_doubles(f, x0, max_iters=max_iters)

    # The two examples tie a contraction with the point it replaces: outside
    # (fxc == fxr) and inside (fxc == fsim[-1]).
    @hypothesis_settings(max_examples=40, deadline=None)
    @given(x0=_starts)
    @example(x0=[1.7, 1.5, -1.0])
    @example(x0=[1.8, -1.5, -1.5])
    def test_piecewise_constant_ties(self, x0):
        self.assert_scipy_doubles(lambda v: float(np.floor(4.0 * np.sum(v * v))), x0)

    def test_zero_coordinate_start(self):
        calls = []

        def f(v):
            calls.append(v.tolist())
            return _rosenbrock(v)
        self.assert_scipy_doubles(f, [0.0, 1.0])
        assert calls[1] == [0.00025, 1.0]
        assert calls[2] == [0.0, 1.05]


class TestFusionLineSearch:
    """``pbpo_exact`` builds one ``FusionLineSearch`` per call, and every
    sweep and restart shares its scan table and evaluator memo."""

    @staticmethod
    def _counted_tables(monkeypatch):
        calls = []
        original = optimize.fusion_error_table

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(optimize, "fusion_error_table", counting)
        return calls

    def test_one_table_per_pbpo_exact_call(self, benchmark_template, monkeypatch):
        calls = self._counted_tables(monkeypatch)
        result = pbpo_exact(benchmark_template, OptimizerSettings(restarts=3), init=None)
        assert len(calls) == 1
        assert result.iterations > 1

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_shared_search_equals_a_run_per_restart(self, n):
        """The best of three restarts sharing one search is the best of three
        calls from those starts, each with a search of its own."""
        template = NetworkTemplate(0.35, CostPair(1.0, 1.4), ObservationModel(sigma=0.8), n)
        settings = OptimizerSettings(restarts=3, max_iters=40)
        starts = np.random.default_rng(7).uniform(0.02, 0.98, size=(3, n + 1))
        alone = [pbpo_exact(template, settings, init=tuple(row)) for row in starts]
        assert pbpo_exact(template, settings, init=None, seed=7) == min(alone, key=lambda r: r.risk)

    @pytest.mark.parametrize("sigma", [1e200, 1e-200])
    def test_pbpo_exact_error_as_per_call_path(self, sigma):
        """The run's first error is the one its trace's first risk and a
        one-shot ``minimize_fusion_belief`` raise, in that order."""
        template = NetworkTemplate(0.3, CostPair(), ObservationModel(sigma=sigma), 2)
        settings = OptimizerSettings()
        init = (0.5, 0.4, 0.6)
        with pytest.raises(FloatingPointError) as expected:
            _RiskEvaluator(template)(init)
            minimize_fusion_belief(template, init[1:], settings.eps / 10.0)
        with pytest.raises(FloatingPointError) as got:
            pbpo_exact(template, settings, init=init)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("sigma", [1e200, 1e-200])
    def test_non_finite_scan_names_first_grid_point(self, sigma):
        template = NetworkTemplate(0.3, CostPair(), ObservationModel(sigma=sigma), 2)
        with pytest.raises(FloatingPointError) as expected:
            checked_risks(template, np.linspace(0.02, 0.98, FUSION_SCAN_POINTS), [(0.4, 0.6)])
        with pytest.raises(FloatingPointError) as got:
            minimize_fusion_belief(template, (0.4, 0.6))
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(f"fusion belief q0=0.02 at sigma={sigma!r}")

    @pytest.mark.parametrize("q_local", [(0.0, 0.5), (0.5, math.nan), (1.0, 0.5), (0.4, math.inf),
                                         (0.4,), (0.4, 0.4, 0.4), ()])
    def test_bad_locals_raise_batch_risk_error(self, benchmark_template, q_local, monkeypatch):
        """The search refuses bad locals before it folds them, in the
        wording ``batch_risk`` gives on the array path."""
        with pytest.raises(ValueError) as expected:
            with monkeypatch.context() as patched:
                patched.setattr(network, "PER_FLOAT_BELOW", 0)
                batch_risk(benchmark_template, [0.5], [q_local])
        with pytest.raises(ValueError) as got:
            minimize_fusion_belief(benchmark_template, q_local)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tol_rejected(self, benchmark_template, tol):
        """A tol that is not finite ran no golden-section step and returned
        the scan bracket's midpoint; a zero or negative one still refines,
        ended by the stall rule."""
        with pytest.raises(ValueError, match=r"^tol=.* must be finite$"):
            minimize_fusion_belief(benchmark_template, (0.5, 0.5), tol=tol)
        best = minimize_fusion_belief(benchmark_template, (0.5, 0.5))
        for tol in (0.0, -1.0):
            assert minimize_fusion_belief(benchmark_template, (0.5, 0.5), tol=tol) \
                == pytest.approx(best, abs=1e-6)

    @pytest.mark.parametrize("n", [3, 9])
    def test_locals_folded_once_per_search(self, n, monkeypatch):
        """The scan mixes its table with the count pmfs the golden section
        probes with: one fold per local, and no rates formed by ``network``."""
        template = NetworkTemplate(0.4, CostPair(1.0, 1.3), ObservationModel(sigma=0.9), n)
        search = optimize.FusionLineSearch(template)
        calls = {"fold_agent": 0, "_local_tails": 0, "_rate_columns": 0}

        def counted(module, name):
            original = getattr(module, name)

            def count(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(module, name, count)

        counted(optimize, "fold_agent")
        counted(network, "_local_tails")
        counted(network, "_rate_columns")
        search(tuple(np.linspace(0.2, 0.7, n)))
        assert calls == {"fold_agent": n, "_local_tails": 0, "_rate_columns": 0}

    @staticmethod
    def _networks(count, sigma_lo, sigma_hi, seed):
        """Seeded (template, locals): N 1-9, log-uniform sigma, random
        prior and costs, local beliefs in [0.02, 0.98]."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(1, 10))
            sigma = float(np.exp(rng.uniform(math.log(sigma_lo), math.log(sigma_hi))))
            costs = CostPair(float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0)))
            template = NetworkTemplate(float(rng.uniform(0.02, 0.98)), costs,
                                       ObservationModel(sigma=sigma), n)
            yield template, tuple(rng.uniform(0.02, 0.98, n).tolist())

    def test_equals_batch_risk_scan_reference(self):
        """Up to sigma 5 the scan on the evaluator's pmfs returns the
        doubles of the reference's ``batch_risk`` scan."""
        for template, q_local in self._networks(300, 0.05, 5.0, seed=30):
            assert minimize_fusion_belief(template, q_local) \
                == _reference_minimize_fusion_belief(template, q_local)

    def test_scan_risks_are_batch_risks(self, monkeypatch):
        """Up to sigma 20 the scan's risks are ``batch_risk``'s, byte for
        byte: the evaluator's count pmfs and ``batch_risk``'s rows take
        every local's log-odds from the one ``clamped_log_odds`` kernel."""
        scans = []
        finite_rows = optimize._finite_rows
        monkeypatch.setattr(optimize, "_finite_rows",
                            lambda risks, *args: scans.append(risks) or finite_rows(risks, *args))
        for template, q_local in self._networks(600, 0.05, 20.0, seed=32):
            scans.clear()
            minimize_fusion_belief(template, q_local)
            expected = batch_risk(template, np.linspace(0.02, 0.98, FUSION_SCAN_POINTS),
                                  [q_local])[:, 0]
            assert scans[0].tobytes() == expected.tobytes()

    def test_wide_sigma_moves_only_along_a_plateau(self):
        """Past sigma 5 the risk surface can be flat to the last bit, and a
        last-bit change of the scan's pmfs may pick another point of it:
        its exact risk is the reference's to a few ulp."""
        for template, q_local in self._networks(300, 5.0, 100.0, seed=30):
            r0, expected = (exact_risk(template.config(search(template, q_local), q_local)).r0
                            for search in (minimize_fusion_belief,
                                           _reference_minimize_fusion_belief))
            assert abs(r0 - expected) <= 4 * math.ulp(expected)


class TestExactLocalPass:
    """Each local pass of ``pbpo_exact`` forms every local's rates once, at
    its start, and a revised belief's once more, and does not fold the last
    agent, on either side of ``network.PER_FLOAT_BELOW``. No pass keeps
    anything from the one before."""

    # The helpers each path of the local pass forms a local's rates with (the
    # array path forms a revised belief's as four floats), and the one it
    # folds an agent into the count pmf with.
    HELPERS = {"per float": (("_local_tails",), "fold_agent"),
               "array": (("_local_rates", "_local_tails"), "_fold_agents")}

    def test_rates_formed_once_per_belief_and_last_agent_not_folded(self, monkeypatch):
        for n, path in ((3, "per float"), (9, "array")):
            assert (n < network.PER_FLOAT_BELOW) == (path == "per float")
            with monkeypatch.context() as patched:
                self._check_local_pass(patched, n, *self.HELPERS[path])

    @staticmethod
    def _check_local_pass(monkeypatch, n, rates_names, fold_name):
        template = NetworkTemplate(0.6, CostPair(1.0, 1.3), ObservationModel(sigma=1.5), n)
        events = []  # (kind, agents) in call order
        fold = getattr(network, fold_name)
        sweep, finish = optimize.pinned_fusion_sweep, optimize._finish

        # Both rate helpers take (model, costs, beliefs); fold_agent folds
        # one agent and _fold_agents one per entry of its second argument.
        def counted(rates):
            def counted_rates(*args):
                events.append(("rates", len(args[2])))
                return rates(*args)
            return counted_rates

        def counted_fold(*args):
            events.append(("fold", 1 if fold_name == "fold_agent" else len(args[1])))
            return fold(*args)

        def marked_sweep(*args):
            events.append(("sweep", 0))
            out = sweep(*args)
            events.append(("end", 0))
            return out

        def marked_finish(*args):
            events.append(("finish", 0))
            return finish(*args)

        for name in rates_names:
            monkeypatch.setattr(network, name, counted(getattr(network, name)))
        monkeypatch.setattr(network, fold_name, counted_fold)
        monkeypatch.setattr(optimize, "pinned_fusion_sweep", marked_sweep)
        monkeypatch.setattr(optimize, "_finish", marked_finish)
        result = pbpo_exact(template, OptimizerSettings(), init=(0.5,) * (n + 1))

        # The result's exact risk and residual form their own rates; the
        # line search's scan folds its one row outside the local pass.
        per_sweep, current, outside = [], None, 0
        for kind, agents in events[:events.index(("finish", 0))]:
            if kind == "sweep":
                current = {"rates": 0, "fold": 0}
            elif kind == "end":
                per_sweep.append((current["rates"], current["fold"]))
                current = None
            elif current is not None:
                current[kind] += agents
            elif kind == "rates":
                outside += agents
        revised = [sum(a != b for a, b in zip(before[1:-1], after[1:-1]))
                   for before, after in zip(result.trace, result.trace[1:])]
        assert outside == 0
        assert len(per_sweep) == result.iterations > 2
        assert per_sweep == [(n + r, n - 1) for r in revised]


class _IterateOnce:
    """An iterable that counts how often it is iterated."""

    def __init__(self, values):
        self.values, self.iterations = values, 0

    def __iter__(self):
        self.iterations += 1
        return iter(self.values)


def _per_prior_sweep(template, pi0_values, settings):
    points = []
    for pi0 in pi0_values:
        result = grid_search(dataclasses.replace(template, pi0=pi0), settings)
        points.append(SweepPoint(pi0, result.beliefs[0], result.beliefs[1], result.risk))
    return points


class TestOptimalBeliefSweep:
    @pytest.mark.parametrize("case", range(32))
    def test_equals_per_prior_grid_search(self, case):
        """One search for all priors gives each prior grid_search's point, ==,
        over N 1-12, sigma 0.05-20, costs 0.2-5, every resolution class, and
        unsorted priors with a repeat."""
        rng = np.random.default_rng([18, case])
        n = int(rng.integers(1, 13))
        sigma = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
        costs = CostPair(*(float(np.exp(rng.uniform(math.log(0.2), math.log(5.0)))) for _ in range(2)))
        settings = OptimizerSettings(grid_resolution=(2e-2, 2e-3, 2e-4, 1e-4)[case % 4],
                                     tie_local_beliefs=True)
        priors = [float(p) for p in rng.uniform(0.01, 0.99, int(rng.integers(2, 6)))]
        priors.append(priors[int(rng.integers(len(priors)))])
        template = NetworkTemplate(0.5, costs, ObservationModel(sigma=sigma), n)
        assert optimal_belief_sweep(template, priors, settings) == _per_prior_sweep(
            template, priors, settings)

    @pytest.mark.parametrize("sigma", [1e200, 1e-200])
    def test_non_finite_risk_raises_grid_search_error(self, sigma):
        template = NetworkTemplate(0.5, CostPair(), ObservationModel(sigma=sigma), 2)
        settings = OptimizerSettings(tie_local_beliefs=True)
        with pytest.raises(FloatingPointError) as expected:
            grid_search(dataclasses.replace(template, pi0=0.7), settings)
        with pytest.raises(FloatingPointError) as got:
            optimal_belief_sweep(template, [0.7, 0.3], settings)
        assert str(got.value) == str(expected.value)
        assert f"sigma={sigma!r}" in str(got.value)

    def test_block_and_pass_sizes_do_not_change_result(self, std_model, monkeypatch):
        """Blocks that split a grid's rows, and passes that group blocks across
        priors, leave every risk and first-minimum argmin as they were."""
        template = NetworkTemplate(0.35, CostPair(1.0, 1.5), std_model, 2)
        untied = OptimizerSettings(grid_resolution=2e-3)
        tied = OptimizerSettings(grid_resolution=2e-3, tie_local_beliefs=True)
        priors = [0.2, 0.5, 0.35]
        expected = grid_search(template, untied), optimal_belief_sweep(template, priors, tied)
        monkeypatch.setattr("starfuse.network.BATCH_CHUNK_ROWS", 500)
        assert (grid_search(template, untied), optimal_belief_sweep(template, priors, tied)) == expected

    def test_priors_checked_before_any_search(self, benchmark_template, monkeypatch):
        calls = []
        monkeypatch.setattr("starfuse.optimize.fusion_error_rates", lambda *args: calls.append(args))
        with pytest.raises(ValueError) as expected:
            check_prior(1.0)
        with pytest.raises(ValueError) as got:
            optimal_belief_sweep(benchmark_template, np.round(np.arange(0.9, 1.25, 0.1), 10))
        assert str(got.value) == str(expected.value)
        assert calls == []

    def test_any_iterable_read_once(self, benchmark_template):
        settings = OptimizerSettings(tie_local_beliefs=True, grid_resolution=2e-3)
        priors = _IterateOnce([0.6, 0.3])
        expected = _per_prior_sweep(benchmark_template, [0.6, 0.3], settings)
        assert optimal_belief_sweep(benchmark_template, priors, settings) == expected
        assert priors.iterations == 1
        assert optimal_belief_sweep(benchmark_template, (p for p in (0.6, 0.3)), settings) == expected

    def test_no_priors(self, benchmark_template):
        assert optimal_belief_sweep(benchmark_template, []) == []
        assert optimal_belief_sweep(benchmark_template, iter(())) == []

    def test_memory_does_not_grow_with_priors(self):
        """91 priors at N=200 peak within a small factor of one grid_search:
        a finer stage's tables are built for a bounded group of priors at a
        time."""
        template = NetworkTemplate(0.5, CostPair(), ObservationModel(), 200)
        settings = OptimizerSettings(tie_local_beliefs=True, grid_resolution=2e-3)
        pi0_values = np.round(np.arange(0.05, 0.9501, 0.01), 10)
        peaks = []
        for run in (lambda: grid_search(dataclasses.replace(template, pi0=0.3), settings),
                    lambda: optimal_belief_sweep(template, pi0_values, settings)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 5 * peaks[0]

    def test_tied_rows_fold_one_rate_column(self):
        """A tied row's rates are formed once, not once per local: the 91-prior
        N=200 sweep peaks at about 6.7 MB, under half of the 16.0 MB it took
        with every row repeated across the agents."""
        template = NetworkTemplate(0.5, CostPair(), ObservationModel(), 200)
        settings = OptimizerSettings(tie_local_beliefs=True, grid_resolution=2e-3)
        tracemalloc.start()
        try:
            optimal_belief_sweep(template, np.round(np.arange(0.05, 0.9501, 0.01), 10), settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.0e6
