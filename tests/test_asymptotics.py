import math

import mpmath
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
    gaussian_q,
    optimal_exponent,
    phase_map,
)
from starfuse import NetworkTemplate

from starfuse.asymptotics import _region_of, exponent_objective


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
        """At sigma=1e200 sigma**2 overflows, so the threshold of a fusion
        belief off 1/2 is infinite and a log factor is inf - inf = nan."""
        model = ObservationModel(sigma=1e200)
        with pytest.raises(FloatingPointError, match=r"q0=0\.\d+ at sigma=1e\+200.*not finite"):
            classify_phase(model, equal_costs, q0, 0.5)
        with pytest.raises(FloatingPointError, match="not finite"):
            phase_map(model, equal_costs, [0.5, q0], [0.5])

    def test_finite_infeasible_pattern_is_an_assertion(self):
        with pytest.raises(AssertionError, match="infeasible sign pattern"):
            _region_of(-1.0, 1.0)

    def test_boundary_flagged_not_coerced(self, std_model, equal_costs):
        # Fusion belief bisected onto the sign change of the region test.
        cls = classify_phase(std_model, equal_costs, 0.6247676238784021, 0.5, pi0=0.3)
        assert cls.region is PhaseRegion.BOUNDARY
        assert cls.limit_risk is None

    @pytest.mark.parametrize("pi0", [1.5, math.nan, 0.0])
    def test_prior_checked_on_a_boundary_too(self, std_model, equal_costs, pi0):
        with pytest.raises(ValueError, match=f"pi0={pi0!r} is degenerate"):
            classify_phase(std_model, equal_costs, 0.6247676238784021, 0.5, pi0=pi0)

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
        q0_axis = np.round(np.arange(0.05, 0.96, 0.025), 10)
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


def _mp_chernoff(p1, p2):
    """Chernoff information of Bernoulli(p1) and Bernoulli(p2) at 60 digits.

    The minimizing s is bisected on the sign of the slope of the log-sum-exp;
    80 halvings put it within 1e-24, which moves the minimum by far less
    than an ulp, since the slope vanishes there."""
    if p1 == p2:
        return 0.0
    with mpmath.workdps(60):
        laws = [(1 - mpmath.mpf(p2), 1 - mpmath.mpf(p1)), (mpmath.mpf(p2), mpmath.mpf(p1))]
        log_ratios = [mpmath.log(b / a) for a, b in laws]

        def terms(s):
            return [a ** (1 - s) * b ** s for a, b in laws]

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(80):
            mid = (lo + hi) / 2
            slope = sum(t * r for t, r in zip(terms(mid), log_ratios))
            lo, hi = (lo, mid) if slope > 0 else (mid, hi)
        return -mpmath.log(sum(terms((lo + hi) / 2)))


class TestChernoffBernoulli:
    def test_matches_mpmath_minimum(self):
        rng = np.random.default_rng(71)
        pairs = [tuple(rng.uniform(0.0, 1.0, 2)) for _ in range(60)]
        pairs += [(p, p) for p in rng.uniform(0.0, 1.0, 10)]
        edges = [1e-300, 1e-12, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-12, 1.0 - 2.0**-53]
        pairs += [(a, b) for a in edges for b in edges]
        for p1, p2 in pairs:
            p1, p2 = float(p1), float(p2)
            reference = _mp_chernoff(p1, p2)
            # A value near 0 is the difference of two logs near 0: an absolute ulp.
            assert abs(chernoff_bernoulli(p1, p2) - reference) <= 2e-14 * reference + 1e-16, (p1, p2)

    def test_identical_distributions(self):
        for p in (0.37, 0.7943452080479487, 1e-12, 1.0 - 1e-12):
            assert chernoff_bernoulli(p, p) == 0.0, p

    def test_gaussian_decision_channel(self):
        value = chernoff_bernoulli(gaussian_q(0.5), gaussian_q(-0.5))
        assert value == pytest.approx(0.0793, abs=1e-4)

    def test_symmetric_pair_closed_form(self):
        assert chernoff_bernoulli(0.1, 0.9) == pytest.approx(-math.log(0.6), rel=1e-10)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            chernoff_bernoulli(0.0, 0.5)


def _mp_beta_star(sigma):
    """-log 2 - (log Q(a) + log Q(-a)) / 2 with a = 1/(2 sigma), at 50 digits."""
    with mpmath.workdps(50):
        a = 1 / (2 * mpmath.mpf(sigma))

        def log_q(x):
            return mpmath.log(mpmath.erfc(x / mpmath.sqrt(2)) / 2)

        return -mpmath.log(2) - (log_q(a) + log_q(-a)) / 2


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

    def test_beta_star_matches_mpmath_closed_form(self):
        for sigma in np.geomspace(1e-3, 1e2, 61):
            report = optimal_exponent(ObservationModel(sigma=float(sigma)))
            assert (report.lambda_star, report.s_star) == (0.5, 0.5)
            assert report.beta_star == pytest.approx(float(_mp_beta_star(sigma)), rel=1e-12), sigma
            assert report.fa_at_opt == report.md_at_opt

    def test_consistency_with_chernoff(self, std_model):
        report = optimal_exponent(std_model)
        channel = chernoff_bernoulli(report.fa_at_opt, 1.0 - report.md_at_opt)
        assert report.beta_star == pytest.approx(channel, abs=1e-10)

    @pytest.mark.parametrize("sigma", [1e-3, 0.01, 0.05, 0.3, 1.0, 5.0, 20.0, 100.0])
    def test_no_threshold_beats_one_half(self, sigma):
        """A dense grid of thresholds over [-3 sigma, 1 + 3 sigma], one
        half excluded: none gets below the curve at 1/2 by more than
        rounding."""
        model = ObservationModel(sigma=sigma)
        lam = np.linspace(-3.0 * sigma, 1.0 + 3.0 * sigma, 100_000)
        at_half = exponent_curve(model, 0.5)
        assert at_half == pytest.approx(-optimal_exponent(model).beta_star, rel=1e-10)
        curve = exponent_curve(model, lam)
        assert np.all(np.isfinite(curve))
        assert curve.min() >= at_half - 1e-15 * abs(at_half)

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


def _golden_min(f, lo, hi, tol=1e-9):
    """Argument of the minimum of a unimodal ``f`` on [lo, hi], by golden
    section."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - (hi - lo) * inv_phi, lo + (hi - lo) * inv_phi
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * inv_phi
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * inv_phi
            fd = f(d)
    return 0.5 * (lo + hi)


def _ternary_min(f, iters=100):
    """Minimum of a convex ``f`` on [0, 1]; 100 steps leave a bracket of
    (2/3)**100, below 1e-17."""
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        lo, hi = (lo, m2) if f(m1) <= f(m2) else (m1, hi)
    return f(0.5 * (lo + hi))


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_optimal_exponent_matches_inline_golden_loop(sigma):
    """A threshold grid at step 1e-3 and a golden-section refinement of its
    winner, on ``exponent_curve``, land on the closed-form optimum."""
    model = ObservationModel(sigma=sigma)
    grid = np.round(np.arange(-3.0 * sigma, 1.0 + 3.0 * sigma + 5e-4, 1e-3), 12)
    i = int(np.argmin(exponent_curve(model, grid)))
    lam = _golden_min(lambda x: exponent_curve(model, x), grid[i - 1], grid[i + 1])
    report = optimal_exponent(model)
    assert lam == pytest.approx(report.lambda_star, abs=1e-6)
    assert -exponent_curve(model, lam) == pytest.approx(report.beta_star, rel=1e-13)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_hoisted_tails_match_per_step_tails(sigma):
    """The curve, from tails computed once and the closed-form mixing
    weight, equals a ternary search over s that recomputes the tails on
    every step through ``exponent_objective``."""
    model = ObservationModel(sigma=sigma)
    for lam in np.linspace(-3.0 * sigma, 1.0 + 3.0 * sigma, 41):
        value = _ternary_min(lambda s: exponent_objective(model, lam, s))
        assert exponent_curve(model, lam) == pytest.approx(value, rel=1e-13, abs=1e-16), lam


class TestExponentUnderflow:
    """Below sigma of about 0.017 a decision tail near the optimal threshold
    underflows a double; its log from ``log_ndtr`` does not."""

    @pytest.mark.parametrize("sigma", [0.01, 0.0135, 0.014])
    def test_underflowed_tail_keeps_the_exponent_finite(self, sigma):
        model = ObservationModel(sigma=sigma)
        assert gaussian_q((1.0 - 0.378) / sigma) == 0.0
        curve = exponent_curve(model, np.array([0.378, 0.5, 0.622]))
        assert np.all(np.isfinite(curve))
        assert curve[1] < min(curve[0], curve[2])
        assert curve[1] == pytest.approx(-float(_mp_beta_star(sigma)), rel=1e-12)
        assert optimal_exponent(model).beta_star == pytest.approx(-curve[1], rel=1e-15)
