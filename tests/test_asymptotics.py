import math

import numpy as np
import pytest

from starfuse import (
    CostPair,
    ObservationModel,
    PhaseRegion,
    chernoff_bernoulli,
    classify_phase,
    exact_risk,
    exponent_curve,
    exponent_objective,
    gaussian_q,
    optimal_exponent,
    phase_map,
)
from starfuse import NetworkTemplate
from scipy.special import log_ndtr

from starfuse.asymptotics import (
    _min_over_s,
    _region_of,
    _scalar_min_s,
    _ternary_min_s,
    _threshold_tails,
)
from starfuse.observation import decision_one_log_tails


class TestClassifyPhase:
    def test_neutral_beliefs_vanish(self, std_model, equal_costs):
        cls = classify_phase(std_model, equal_costs, 0.5, 0.5, pi0=0.3)
        assert cls.region is PhaseRegion.RISK_VANISHES
        assert cls.limit_risk == 0.0
        assert cls.t0 < cls.t1

    def test_cost_neutral_point_any_costs(self, std_model):
        costs = CostPair(1.0, 2.0)
        q = costs.neutral_belief
        cls = classify_phase(std_model, costs, q, q)
        assert cls.region is PhaseRegion.RISK_VANISHES

    def test_false_alarm_floor_region(self, std_model, equal_costs):
        cls = classify_phase(std_model, equal_costs, 0.9, 0.3, pi0=0.3)
        assert cls.region is PhaseRegion.FALSE_ALARM_FLOOR
        assert cls.limit_risk == pytest.approx(0.3)

    def test_missed_detection_floor_region(self, std_model, equal_costs):
        cls = classify_phase(std_model, equal_costs, 0.1, 0.5, pi0=0.3)
        assert cls.region is PhaseRegion.MISSED_DETECTION_FLOOR
        assert cls.limit_risk == pytest.approx(0.7)

    def test_never_the_infeasible_case(self):
        """10^4 random draws: z2 < 1 throughout and the always-wrong sign
        pattern never appears."""
        rng = np.random.default_rng(61)
        for _ in range(10_000):
            model = ObservationModel(sigma=float(rng.uniform(0.3, 3.0)))
            costs = CostPair(float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0)))
            cls = classify_phase(model, costs,
                                 float(rng.uniform(0.01, 0.99)),
                                 float(rng.uniform(0.01, 0.99)))
            assert cls.z2 < 1.0
            on_boundary = min(abs(cls.log_g0), abs(cls.log_g1)) <= 1e-12
            assert (cls.region is PhaseRegion.BOUNDARY) == on_boundary
            # vanishing under H=0 evidence implies vanishing under H=1 evidence
            if cls.log_g0 < 0:
                assert cls.log_g1 < 0

    def test_limit_requires_valid_prior(self, std_model, equal_costs):
        with pytest.raises(ValueError):
            classify_phase(std_model, equal_costs, 0.5, 0.5, pi0=1.0)

    def test_without_prior_limit_is_none(self, std_model, equal_costs):
        cls = classify_phase(std_model, equal_costs, 0.5, 0.5)
        assert cls.limit_risk is None

    @pytest.mark.parametrize("q0", [0.05, 0.95])
    def test_underflowed_fusion_tail_raises(self, equal_costs, q0):
        """At sigma=20 a fusion belief this far out underflows a Gaussian tail
        of its threshold; the log factors would be nan."""
        model = ObservationModel(sigma=20.0)
        with pytest.raises(FloatingPointError, match=r"q0=0\.\d+ at sigma=20\.0.*underflows"):
            classify_phase(model, equal_costs, q0, 0.5)
        with pytest.raises(FloatingPointError, match="underflows"):
            phase_map(model, equal_costs, [0.5, q0], [0.5])

    def test_finite_infeasible_pattern_is_an_assertion(self):
        with pytest.raises(AssertionError, match="infeasible sign pattern"):
            _region_of(-1.0, 1.0)

    def test_boundary_flagged_not_coerced(self, std_model, equal_costs):
        # Fusion belief bisected onto the sign change of the region test.
        cls = classify_phase(std_model, equal_costs, 0.6247676238784021, 0.5, pi0=0.3)
        assert cls.region is PhaseRegion.BOUNDARY
        assert cls.limit_risk is None

    def test_risk_trend_matches_classification(self, std_model, equal_costs):
        """Finite-network risks move monotonically toward the classified
        limit, one config per region."""
        cases = [
            (ObservationModel(sigma=0.7), 0.5, 0.5),   # vanishes
            (std_model, 0.9, 0.3),                     # false-alarm floor
            (std_model, 0.1, 0.5),                     # missed-detection floor
        ]
        for model, q0, q1 in cases:
            cls = classify_phase(model, equal_costs, q0, q1, pi0=0.3)
            gaps = []
            for n in (1, 5, 10, 15, 20):
                template = NetworkTemplate(0.3, equal_costs, model, n)
                gaps.append(abs(exact_risk(template.tied(q0, q1)).r0 - cls.limit_risk))
            assert all(b <= a for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] <= 0.02


class TestPhaseMap:
    @pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("costs", [CostPair(), CostPair(0.6, 1.7)])
    def test_equals_classify_phase_everywhere(self, sigma, costs):
        model = ObservationModel(sigma=sigma)
        # At sigma=20 a fusion belief outside about [0.31, 0.86] underflows a log tail.
        q0_axis = np.round(np.arange(0.35, 0.86, 0.025), 10)
        q1_axis = np.round(np.arange(0.05, 0.96, 0.05), 10)
        regions = phase_map(model, costs, q0_axis, q1_axis)
        assert regions.shape == (len(q0_axis), len(q1_axis))
        for i, q0 in enumerate(q0_axis):
            for j, q1 in enumerate(q1_axis):
                cls = classify_phase(model, costs, float(q0), float(q1), pi0=0.3)
                assert regions[i, j] is cls.region

    def test_boundary_point_on_the_grid(self, std_model, equal_costs):
        q0_axis = [0.3, 0.6247676238784021, 0.9]
        q1_axis = [0.2, 0.5, 0.7]
        regions = phase_map(std_model, equal_costs, q0_axis, q1_axis)
        assert regions[1, 1] is PhaseRegion.BOUNDARY
        for i, q0 in enumerate(q0_axis):
            for j, q1 in enumerate(q1_axis):
                assert regions[i, j] is classify_phase(std_model, equal_costs, q0, q1).region


def _old_loop_chernoff(p1, p2, iters=120):
    """``chernoff_bernoulli`` as a scalar ternary loop, before it called
    ``_ternary_min_s``."""
    l1, l1c = math.log(p1), math.log1p(-p1)
    l2, l2c = math.log(p2), math.log1p(-p2)

    def h(s):
        return np.logaddexp(s * l1 + (1.0 - s) * l2, s * l1c + (1.0 - s) * l2c)

    lo, hi = 0.0, 1.0
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if h(m1) <= h(m2):
            hi = m2
        else:
            lo = m1
    return max(0.0, -float(h(0.5 * (lo + hi))))


class TestChernoffBernoulli:
    def test_equals_scalar_ternary_loop(self):
        rng = np.random.default_rng(71)
        pairs = [tuple(rng.uniform(0.0, 1.0, 2)) for _ in range(60)]
        pairs += [(p, p) for p in rng.uniform(0.0, 1.0, 10)]
        edges = [1e-300, 1e-12, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-12, 1.0 - 2.0**-53]
        pairs += [(a, b) for a in edges for b in edges]
        for p1, p2 in pairs:
            assert chernoff_bernoulli(p1, p2) == _old_loop_chernoff(p1, p2)

    def test_identical_distributions(self):
        assert chernoff_bernoulli(0.37, 0.37) == 0.0

    def test_gaussian_decision_channel(self):
        value = chernoff_bernoulli(gaussian_q(0.5), gaussian_q(-0.5))
        assert value == pytest.approx(0.0793, abs=1e-4)

    def test_symmetric_pair_closed_form(self):
        assert chernoff_bernoulli(0.1, 0.9) == pytest.approx(-math.log(0.6), rel=1e-10)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            chernoff_bernoulli(0.0, 0.5)


class TestOptimalExponent:
    def test_gaussian_unit_noise(self, std_model):
        report = optimal_exponent(std_model)
        assert report.lambda_star == pytest.approx(0.5, abs=1e-3)
        assert report.beta_star == pytest.approx(0.0793, abs=1e-4)
        assert report.q_star == pytest.approx(0.5, abs=2e-3)
        assert report.s_star == pytest.approx(0.5, abs=1e-3)
        assert report.variance_proxy == 1.0

    def test_unequal_costs_shift_only_the_belief(self, std_model):
        costs = CostPair(1.0, 2.0)
        report = optimal_exponent(std_model, costs)
        assert report.lambda_star == pytest.approx(0.5, abs=1e-3)
        assert report.beta_star == pytest.approx(0.0793, abs=1e-4)
        assert report.q_star == pytest.approx(costs.neutral_belief, abs=2e-3)

    def test_symmetric_closed_form(self, std_model):
        expected = -math.log(2.0 * math.sqrt(gaussian_q(0.5) * (1.0 - gaussian_q(0.5))))
        report = optimal_exponent(std_model)
        assert report.beta_star == pytest.approx(expected, rel=1e-8)

    def test_consistency_with_chernoff(self, std_model):
        report = optimal_exponent(std_model)
        channel = chernoff_bernoulli(report.fa_at_opt, 1.0 - report.md_at_opt)
        assert report.beta_star == pytest.approx(channel, abs=1e-10)

    def test_uninformative_thresholds_never_win(self, std_model):
        curve = exponent_curve(std_model, np.array([-20.0, 0.5, 21.0]))
        assert curve[1] < curve[0]
        assert curve[1] < curve[2]
        assert abs(curve[0]) < 1e-6 and abs(curve[2]) < 1e-6

    def test_objective_convex_in_s(self, std_model):
        rng = np.random.default_rng(67)
        s_grid = np.linspace(0.0, 1.0, 41)
        for lam in rng.uniform(-2.0, 3.0, size=20):
            values = [exponent_objective(std_model, lam, s) for s in s_grid]
            assert np.min(np.diff(values, n=2)) >= -1e-12


def _old_loop_exponent(model, grid_step=1e-3, refine_tol=1e-9):
    """(lambda_star, beta_star) from the golden-section loop ``optimal_exponent``
    carried inline before it used ``optimize.golden_section``."""
    s = model.sigma
    grid = np.round(np.arange(-3.0 * s, 1.0 + 3.0 * s + grid_step / 2.0, grid_step), 12)
    i = int(np.argmin(exponent_curve(model, grid)))
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]

    def g_min(lam):
        s_best = _ternary_min_s(lambda ss: exponent_objective(model, np.array([lam]), ss), 1)
        return float(exponent_objective(model, np.array([lam]), s_best)[0])

    c = b - (b - a) * inv_phi
    d = a + (b - a) * inv_phi
    fc, fd = g_min(c), g_min(d)
    while abs(b - a) > refine_tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * inv_phi
            fc = g_min(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * inv_phi
            fd = g_min(d)
    lam_star = 0.5 * (a + b)
    s_star = float(_ternary_min_s(lambda ss: exponent_objective(model, np.array([lam_star]), ss), 1)[0])
    return float(lam_star), max(-float(exponent_objective(model, lam_star, s_star)), 0.0)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_optimal_exponent_matches_inline_golden_loop(sigma):
    model = ObservationModel(sigma=sigma)
    report = optimal_exponent(model)
    assert (report.lambda_star, report.beta_star) == _old_loop_exponent(model)


def _per_step_tails_min(model, lam):
    """(minimizing s, minimum) per threshold with the Gaussian tails computed
    afresh on every ternary step, as before the tails were hoisted."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    s_best = _ternary_min_s(lambda s: exponent_objective(model, lam, s), lam.shape[0])
    return s_best, exponent_objective(model, lam, s_best)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_hoisted_tails_match_per_step_tails(sigma):
    model = ObservationModel(sigma=sigma)
    lam = np.round(np.arange(-3.0 * sigma, 1.0 + 3.0 * sigma, 0.01), 12)
    assert np.array_equal(exponent_curve(model, lam), _per_step_tails_min(model, lam)[1])
    for one in (lam[0], -0.37, 0.5, 0.8, 1.9):
        s_best, value = _per_step_tails_min(model, one)
        assert exponent_curve(model, one) == float(value[0])
        assert float(_min_over_s(model, np.array([one]))[0][0]) == float(s_best[0])


class TestScalarRefinement:
    """The float search of each golden-section probe and the array search of
    the threshold grid give the same doubles."""

    def test_scalar_search_equals_length_one_array_search(self):
        rng = np.random.default_rng(83)
        cases = []
        for _ in range(600):
            sigma = float(np.exp(rng.uniform(math.log(0.02), math.log(50.0))))
            cases.append((sigma, float(rng.uniform(-3.0 * sigma, 1.0 + 3.0 * sigma))))
        # Grid ends at small sigma, where a tail has underflowed to -inf.
        cases += [(0.02, -0.06), (0.02, 1.06), (0.03, 1.09), (0.025, -0.075)]
        underflowed = 0
        with np.errstate(divide="ignore"):
            for sigma, lam in cases:
                model = ObservationModel(sigma=sigma)
                tails = _threshold_tails(model, lam)
                underflowed += min(tails) == -math.inf
                s_best, value = _min_over_s(model, np.array([lam]))
                expected = (float(s_best[0]), float(value[0]))
                assert repr(_scalar_min_s(tails)) == repr(expected), (sigma, lam)
        assert underflowed >= 4

    @pytest.mark.parametrize("sigma", [0.05, 1.0, 20.0])
    def test_fixed_point_stop_keeps_the_grid_curve(self, sigma):
        """A 120-iteration ternary search with no early exit, on the grid of
        ``optimal_exponent``, equals ``exponent_curve``, which stops early."""
        model = ObservationModel(sigma=sigma)
        grid = np.round(np.arange(-3.0 * sigma, 1.0 + 3.0 * sigma + 5e-4, 1e-3), 12)
        lp10, lp11, lp00, lp01 = decision_one_log_tails(model, grid)

        def mix(s):
            return np.logaddexp((1.0 - s) * lp00 + s * lp01, (1.0 - s) * lp10 + s * lp11)

        lo, hi = np.zeros(grid.shape), np.ones(grid.shape)
        for _ in range(120):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            take_left = mix(m1) <= mix(m2)
            hi = np.where(take_left, m2, hi)
            lo = np.where(take_left, lo, m1)
        assert np.array_equal(exponent_curve(model, grid), mix(0.5 * (lo + hi)))

    def test_fixed_point_stop_fires(self, std_model):
        calls = []

        def f(s):
            calls.append(1)
            return exponent_objective(std_model, np.array([0.2, 0.5, 0.9]), s)

        _ternary_min_s(f, 3)
        assert len(calls) < 2 * 120


class TestExponentUnderflow:
    @pytest.mark.parametrize("sigma", [0.01, 0.0135, 0.014])
    def test_underflowed_tail_at_lambda_star_raises(self, sigma):
        with pytest.raises(FloatingPointError,
                           match=rf"sigma={sigma}: .*lambda_star=0\.\d+ underflows"):
            optimal_exponent(ObservationModel(sigma=sigma))

    def test_small_sigma_raises_or_matches_closed_form(self):
        """With equal tails at lambda = 1/2 the optimum is s = 1/2, and
        beta* = -log 2 - (log Q(1/(2 sigma)) + log Q(-1/(2 sigma))) / 2."""
        raised = 0
        for sigma in np.geomspace(1e-3, 0.05, 40):
            sigma = float(sigma)
            closed = -math.log(2.0) - 0.5 * (log_ndtr(-0.5 / sigma) + log_ndtr(0.5 / sigma))
            try:
                report = optimal_exponent(ObservationModel(sigma=sigma))
            except FloatingPointError:
                raised += 1
                continue
            assert report.beta_star == pytest.approx(closed, rel=1e-9), sigma
        assert 0 < raised < 40
