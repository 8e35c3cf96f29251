import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate
from scipy.special import ndtr

from starfuse import (
    BELIEF_EPS,
    CostPair,
    ObservationModel,
    clamp_belief,
    error_probs,
    from_log_odds,
    gaussian_q,
    threshold_from_belief,
    threshold_from_log_odds,
)
from starfuse.observation import decision_one_log_tails, decision_tails, fusion_log_factors


class TestGaussianQ:
    def test_symmetric_point(self):
        assert gaussian_q(0.0) == 0.5

    def test_tabulated_values(self):
        # High-precision upper-tail values (erfc oracle / normal tables).
        np.testing.assert_allclose(gaussian_q(0.5), 0.3085375387259869, rtol=1e-14)
        np.testing.assert_allclose(gaussian_q(-0.5), 0.6914624612740131, rtol=1e-14)

    def test_matches_independent_cdf(self):
        """Cross-implementation agreement with the cephes normal CDF."""
        x = np.linspace(-8.0, 8.0, 2001)
        np.testing.assert_allclose(gaussian_q(x), ndtr(-x), rtol=1e-13)

    @given(st.floats(-30.0, 30.0))
    def test_complement_symmetry(self, x):
        assert gaussian_q(x) + gaussian_q(-x) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_decreasing(self):
        # Left edge chosen so adjacent tails stay more than one ulp apart.
        x = np.linspace(-7.5, 8.0, 3101)
        assert np.all(np.diff(gaussian_q(x)) < 0)


class TestThresholdFromBelief:
    def test_neutral_belief_equal_costs(self, std_model, equal_costs):
        assert threshold_from_belief(std_model, equal_costs, 0.5) == pytest.approx(0.5)

    def test_contrarian_benchmark_value(self, std_model, equal_costs):
        lam = threshold_from_belief(std_model, equal_costs, 0.7372)
        assert lam == pytest.approx(0.5 + math.log(0.7372 / 0.2628), rel=1e-12)
        assert lam == pytest.approx(1.5314, abs=1e-4)

    def test_cost_ratio_neutral_point(self, std_model):
        costs = CostPair(1.0, 2.0)
        assert threshold_from_belief(std_model, costs, 2.0 / 3.0) == pytest.approx(0.5)

    def test_strictly_increasing_in_belief(self, std_model, equal_costs):
        grid = np.linspace(0.01, 0.99, 99)
        lam = [threshold_from_belief(std_model, equal_costs, q) for q in grid]
        assert all(b > a for a, b in zip(lam, lam[1:]))

    def test_round_trip_with_inverse(self, std_model):
        costs = CostPair(1.3, 0.7)
        model = ObservationModel(sigma=1.7)
        for q in (0.1, 0.31, 0.5, 0.87):
            lam = threshold_from_belief(model, costs, q)
            # threshold_from_belief inverted in closed form
            belief = from_log_odds((lam - 0.5) / model.variance_proxy - costs.log_ratio)
            assert belief == pytest.approx(q, rel=1e-12)

    def test_clamping_is_uniform(self, std_model, equal_costs):
        near_zero = threshold_from_belief(std_model, equal_costs, 1e-15)
        at_clamp = threshold_from_belief(std_model, equal_costs, BELIEF_EPS)
        assert near_zero == at_clamp

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_degenerate_beliefs_rejected(self, std_model, equal_costs, bad):
        with pytest.raises(ValueError):
            threshold_from_belief(std_model, equal_costs, bad)


class TestErrorProbs:
    def test_symmetric_threshold_equalizes(self, std_model):
        p_fa, p_md = error_probs(std_model, 0.5)
        assert p_fa == pytest.approx(0.30854, abs=1e-5)
        assert p_md == pytest.approx(p_fa, rel=1e-12)

    def test_huge_threshold_always_decides_zero(self, std_model):
        p_fa, p_md = error_probs(std_model, 1e6)
        assert p_fa == 0.0
        assert p_md == 1.0

    def test_missed_detection_tail_does_not_cancel(self, std_model):
        """At lambda=-8 the missed detection is Q(9) ~ 1.1286e-19, not 1 - Q(-9) = 0."""
        _, p_md = error_probs(std_model, -8.0)
        assert p_md == pytest.approx(float(ndtr(-9.0)), rel=1e-13)
        assert p_md == pytest.approx(1.1286e-19, rel=1e-4)
        _, p_md = error_probs(std_model, np.array([-8.0, 0.5]))
        assert p_md[0] == pytest.approx(float(ndtr(-9.0)), rel=1e-13)

    def test_benchmark_threshold(self, std_model):
        p_fa, p_md = error_probs(std_model, 1.5314)
        # Exact against the independent normal CDF; loose against rounded tables.
        assert p_fa == pytest.approx(float(ndtr(-1.5314)), rel=1e-13)
        assert p_md == pytest.approx(float(ndtr(0.5314)), rel=1e-13)
        assert p_fa == pytest.approx(0.06282, abs=2e-5)
        assert p_md == pytest.approx(0.70243, abs=2e-5)

    def test_agrees_with_quadrature(self, std_model):
        """Independent oracle: numerical integration of the densities."""
        sigma = std_model.sigma
        for lam in np.linspace(-5.0, 6.0, 23):
            p_fa, p_md = error_probs(std_model, lam)
            fa_quad, _ = integrate.quad(
                lambda t: math.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi)),
                lam, np.inf, epsabs=1e-13,
            )
            md_quad, _ = integrate.quad(
                lambda t: math.exp(-0.5 * ((t - 1.0) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi)),
                -np.inf, lam, epsabs=1e-13,
            )
            assert p_fa == pytest.approx(fa_quad, abs=1e-10)
            assert p_md == pytest.approx(md_quad, abs=1e-10)

    def test_monotone_in_threshold(self, std_model):
        lam = np.linspace(-4.0, 5.0, 901)
        p_fa, p_md = error_probs(std_model, lam)
        assert np.all(np.diff(p_fa) <= 0)
        assert np.all(np.diff(p_md) >= 0)

    def test_roc_ordering_t0_below_t1(self, std_model, equal_costs):
        """P(decide 1 | H=0) < P(decide 1 | H=1) at every belief's threshold."""
        for q in np.linspace(0.01, 0.99, 197):
            lam = threshold_from_belief(std_model, equal_costs, q)
            p_fa, p_md = error_probs(std_model, lam)
            assert p_fa < 1.0 - p_md


class TestValidation:
    def test_costs_must_be_positive(self):
        with pytest.raises(ValueError):
            CostPair(0.0, 1.0)
        with pytest.raises(ValueError):
            CostPair(1.0, -2.0)
        with pytest.raises(ValueError):
            CostPair(1.0, math.inf)

    def test_model_kind_and_sigma(self):
        # The Gaussian is the only model; there is no kind to choose.
        with pytest.raises(TypeError):
            ObservationModel(kind="gaussian")
        with pytest.raises(ValueError):
            ObservationModel(sigma=0.0)

    def test_variance_proxy_positive(self):
        assert ObservationModel(sigma=2.0).variance_proxy == 4.0

    def test_clamp_belief_interval(self):
        assert clamp_belief(0.5) == 0.5
        assert clamp_belief(1e-300) == BELIEF_EPS
        with pytest.raises(ValueError):
            clamp_belief(0.0)


# sigma at both extremes of a double and across [1e-3, 1e2]; costs up to
# 1e+-300; log-odds out to the clamp edges.
_SIGMAS = st.one_of(st.sampled_from([1e-200, 1e200]),
                    st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e))
_COSTS = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_EDGE = math.log1p(-BELIEF_EPS) - math.log(BELIEF_EPS)
_LOG_ODDS = st.floats(-_EDGE, _EDGE)


def _same_double(scalar, element):
    """A Python float equal to the array element, or nan where it is nan."""
    assert type(scalar) is float
    return scalar == element or (math.isnan(scalar) and math.isnan(element))


class TestFloatMatchesArray:
    """A float gets the same double as that value inside an array, so
    callers may evaluate small inputs one float at a time."""

    @given(st.floats(allow_nan=True, allow_infinity=True), st.floats(-40.0, 40.0))
    def test_gaussian_q(self, x, other):
        assert _same_double(gaussian_q(x), gaussian_q(np.array([other, x]))[1])

    @given(_SIGMAS, _COSTS, _COSTS, _LOG_ODDS, st.lists(_LOG_ODDS, max_size=3),
           st.integers(0, 3))
    def test_rates_and_log_factors(self, sigma, c_fa, c_md, ell, others, at):
        model, costs = ObservationModel(sigma=sigma), CostPair(c_fa, c_md)
        at = min(at, len(others))
        values = np.array(others[:at] + [ell] + others[at:])
        lam = threshold_from_log_odds(model, costs, ell)
        # The array side may warn where sigma**2 overflows (inf * 0, inf - inf).
        with np.errstate(all="ignore"):
            lams = threshold_from_log_odds(model, costs, values)
            pairs = [
                ([lam], [lams]),
                (error_probs(model, lam), error_probs(model, lams)),
                (decision_tails(model, lam), decision_tails(model, lams)),
                (decision_one_log_tails(model, lam), decision_one_log_tails(model, lams)),
                (fusion_log_factors(model, costs, ell), fusion_log_factors(model, costs, values)),
            ]
        for scalars, arrays in pairs:
            assert len(scalars) == len(arrays)
            for scalar, array in zip(scalars, arrays):
                assert _same_double(scalar, array[at])
