import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special
from scipy.special import ndtr

from starfuse import (
    BELIEF_EPS,
    CostPair,
    NetworkConfig,
    NetworkTemplate,
    ObservationModel,
    OptimizerSettings,
    PrelecParams,
    clamp_belief,
    classify_phase,
    error_probs,
    estimate_exponent,
    exact_risk,
    from_log_odds,
    gaussian_q,
    grid_search,
    pbpo,
    prelec,
    threshold_from_belief,
    threshold_from_log_odds,
)
from starfuse import observation
from starfuse.network import tied_exact_risks
from starfuse.observation import (
    clamp,
    clamped_log_odds,
    clamped_log_odds_array,
    decision_one_log_tails,
    decision_tails,
    fusion_log_factors,
    per_float_rates,
)


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

    @pytest.mark.parametrize("costs", [(True, 1.0), (1.0, True), (False, 1.0)])
    def test_costs_refuse_bools(self, costs):
        with pytest.raises(ValueError, match="^cost c_"):
            CostPair(*costs)

    @pytest.mark.parametrize("sigma", [True, False])
    def test_sigma_refuses_bools(self, sigma):
        with pytest.raises(ValueError, match=f"^sigma={sigma!r}"):
            ObservationModel(sigma=sigma)

    def test_subnormal_sigma_refused(self):
        """1/sigma overflows below the smallest normal double, and numpy warns
        where it does."""
        with pytest.raises(ValueError, match="^sigma=5e-324 is subnormal"):
            ObservationModel(sigma=5e-324)
        assert ObservationModel(sigma=sys.float_info.min).sigma == sys.float_info.min

    def test_model_kind_and_sigma(self):
        # The Gaussian is the only model; there is no kind to choose.
        with pytest.raises(TypeError):
            ObservationModel(kind="gaussian")
        with pytest.raises(ValueError):
            ObservationModel(sigma=0.0)

    def test_log_ratio_computed_once(self, monkeypatch):
        """Every threshold reads ``log_ratio``; only a pair's first read
        takes a log, and later reads give the same double."""
        costs = CostPair(1.7, 0.6)
        first = costs.log_ratio
        logs = []
        log = math.log
        monkeypatch.setattr(math, "log", lambda x: logs.append(x) or log(x))
        assert costs.log_ratio == first == math.log(1.7) - math.log(0.6)
        assert logs == [1.7, 0.6]  # the expected value's two logs, none from the read
        assert CostPair(1.7, 0.6) == costs

    @pytest.mark.parametrize("value", ["1", None, 1j, [1.0]])
    def test_sigma_refuses_non_numbers(self, value):
        """``sigma="1"`` raised a TypeError."""
        with pytest.raises(ValueError, match=f"^sigma={re.escape(repr(value))} is not a real number$"):
            ObservationModel(sigma=value)

    def test_sigma_past_a_double_refused(self):
        with pytest.raises(ValueError, match=r"^sigma=10{400} overflows a double$"):
            ObservationModel(sigma=10 ** 400)

    def test_variance_proxy_positive(self):
        assert ObservationModel(sigma=2.0).variance_proxy == 4.0

    def test_clamp_belief_interval(self):
        assert clamp_belief(0.5) == 0.5
        assert clamp_belief(1e-300) == BELIEF_EPS
        with pytest.raises(ValueError):
            clamp_belief(0.0)


def _risk(pi0=0.3, c_fa=1.0, c_md=1.0, sigma=0.7):
    """Risk report of the tied network (0.7, 0.4), N 2."""
    return exact_risk(NetworkConfig(pi0, CostPair(c_fa, c_md), ObservationModel(sigma=sigma),
                                    0.7, (0.4, 0.4)))


_TEMPLATE = NetworkTemplate(0.3, CostPair(), ObservationModel(), 2)

# Each real-valued field with an entry point that uses it, and a value valid
# for it as a float; a numpy integer takes the value's integer part, which
# the prior and the grid resolution refuse.
_REAL_FIELDS = {
    "sigma": (_risk, 0.7),
    "c_fa": (lambda c: _risk(c_fa=c), 2.5),
    "c_md": (lambda c: _risk(c_md=c), 2.5),
    "NetworkConfig pi0": (_risk, 0.3),
    "NetworkTemplate pi0": (lambda p: exact_risk(NetworkTemplate(
        p, CostPair(), ObservationModel(sigma=0.7), 2).tied(0.7, 0.4)), 0.3),
    "classify_phase pi0": (lambda p: classify_phase(ObservationModel(), CostPair(1.0, 4.0),
                                                    0.4, 0.65, pi0=p), 0.3),
    "tied_exact_risks pi0": (lambda p: tied_exact_risks(p, CostPair(), ObservationModel(),
                                                        0.7, 0.4, [1, 2, 20, 30]), 0.3),
    "estimate_exponent pi0": (lambda p: estimate_exponent(p, CostPair(), ObservationModel(),
                                                          0.6, 0.5, (5, 10, 15, 20)), 0.3),
    "alpha": (lambda a: prelec(np.array([0.1, 0.5, 0.9]), PrelecParams(a, 1.2)).tolist(), 0.65),
    "beta_w": (lambda b: prelec(np.array([0.1, 0.5, 0.9]), PrelecParams(0.65, b)).tolist(), 1.2),
    "step": (lambda v: pbpo(_TEMPLATE, OptimizerSettings(step=v)), 5e-4),
    "eps": (lambda v: pbpo(_TEMPLATE, OptimizerSettings(step=2e-3, eps=v)), 1e-3),
    "grid_resolution": (lambda v: grid_search(_TEMPLATE, OptimizerSettings(
        grid_resolution=v, tie_local_beliefs=True)), 0.02),
}


class TestNumpyScalars:
    """A real-valued field takes an int, a float, or a numpy integer or
    floating, but never a bool, and keeps ``float(value)``: a numpy scalar
    gives the doubles of that float, and is refused only where it is. A
    float32 sigma put every threshold in float32, a float32 step walked
    ``pbpo``'s beliefs in float32, and a float32 prior or an int64 cost was
    refused."""

    @pytest.mark.parametrize("kind", [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("field", list(_REAL_FIELDS))
    def test_same_doubles_as_the_float(self, field, kind):
        run, value = _REAL_FIELDS[field]
        value = kind(value)
        try:
            expected = repr(run(float(value)))
        except ValueError as refused:
            with pytest.raises(ValueError, match=f"^{re.escape(str(refused))}$"):
                run(value)
        else:
            assert repr(run(value)) == expected

    def test_fields_kept_as_floats(self):
        values = (np.float32(0.7), np.float32(0.3), np.int64(2), np.float64(0.02))
        model, pi0, cost, resolution = values
        cases = [
            (ObservationModel(sigma=model), ObservationModel(sigma=float(model))),
            (CostPair(cost, cost), CostPair(2.0, 2.0)),
            (NetworkTemplate(pi0, CostPair(), ObservationModel(), 2),
             NetworkTemplate(float(pi0), CostPair(), ObservationModel(), 2)),
            (PrelecParams(model, cost), PrelecParams(float(model), 2.0)),
            (OptimizerSettings(step=pi0, eps=cost, grid_resolution=resolution),
             OptimizerSettings(step=float(pi0), eps=2.0, grid_resolution=0.02)),
        ]
        for got, expected in cases:
            assert repr(got) == repr(expected)

    def test_float32_sigma_figures(self):
        """A float32 sigma gave the threshold 0.3013221 and the risk
        0.12187141061928729."""
        lam = threshold_from_belief(ObservationModel(sigma=np.float32(0.7)), CostPair(), 0.4)
        assert type(lam) is float and lam == 0.3013221037939285
        assert _risk(sigma=np.float32(0.7)).r0 == 0.1218714151515089


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
                (per_float_rates(model, costs)[0](ell), decision_tails(model, lams)),
                (decision_one_log_tails(model, lam), decision_one_log_tails(model, lams)),
                (fusion_log_factors(model, costs, ell), fusion_log_factors(model, costs, values)),
            ]
        for scalars, arrays in pairs:
            assert len(scalars) == len(arrays)
            for scalar, array in zip(scalars, arrays):
                assert _same_double(scalar, array[at])

    @given(st.lists(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                              st.sampled_from([BELIEF_EPS, 0.5 * BELIEF_EPS, 5e-324,
                                               1.0 - BELIEF_EPS, 1.0 - 0.5 * BELIEF_EPS,
                                               1.0 - 2.0 ** -53])),
                    max_size=12), st.booleans())
    def test_log_odds(self, beliefs, square):
        """The array form of the log-odds kernel gives each element, clamped
        or not, ``clamped_log_odds``' double, in the array's shape."""
        q = np.array(beliefs, dtype=float)
        if square and len(beliefs) % 2 == 0:
            q = q.reshape(2, -1)
        ell = clamped_log_odds_array(q)
        assert ell.shape == q.shape
        assert all(_same_double(clamped_log_odds(x), y)
                   for x, y in zip(q.ravel().tolist(), ell.ravel().tolist()))

    @pytest.mark.parametrize("q", [0.5 * BELIEF_EPS, BELIEF_EPS, 0.3, 1.0 - 0.5 * BELIEF_EPS])
    def test_clamp_belief_is_the_kernel_clamp(self, q):
        assert clamp_belief(q) == min(max(q, BELIEF_EPS), 1.0 - BELIEF_EPS)
        assert clamped_log_odds(q) == clamped_log_odds(clamp_belief(q))

    @pytest.mark.parametrize("q", [math.nan, -math.inf, -1.0, 0.0, 0.5 * BELIEF_EPS, BELIEF_EPS,
                                   0.3, 1.0 - 0.5 * BELIEF_EPS, 1.0, math.inf])
    def test_clamp_is_the_min_max_clamp(self, q):
        """The one clamp gives the doubles of the ``min``/``max`` form it
        replaced, nan included."""
        assert _same_double(clamp(q), min(max(q, BELIEF_EPS), 1.0 - BELIEF_EPS))


_BOUND_KERNELS = [(observation._erfc, special.erfc), (observation._log_ndtr, special.log_ndtr)]
_KERNEL_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -1e-310,
                 27.0, -27.0, 38.0, -38.0]


def _bits(values):
    """The doubles of ``values`` as int64 bit patterns, every nan as one pattern."""
    values = np.array(values, dtype=float)
    values[np.isnan(values)] = np.nan
    return values.view(np.int64)


@pytest.mark.parametrize("bound, ufunc", _BOUND_KERNELS, ids=["erfc", "log_ndtr"])
class TestBoundKernels:
    """The per-float tails come from the ``double`` kernels that
    ``observation`` binds from ``scipy.special.cython_special``: each
    returns a Python float with its ufunc's double, bit for bit."""

    def test_seeded_doubles_and_edges(self, bound, ufunc):
        rng = np.random.default_rng(20261021)
        x = np.concatenate([rng.uniform(-1.0, 1.0, 340_000), rng.uniform(-40.0, 40.0, 340_000),
                            rng.uniform(-1e300, 1e300, 340_000), _KERNEL_EDGES])
        got = list(map(bound, x.tolist()))
        assert all(type(value) is float for value in got)
        assert np.array_equal(_bits(got), _bits(ufunc(x)))

    @settings(max_examples=500)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_every_finite_double(self, bound, ufunc, x):
        assert _bits([bound(x)]) == _bits(ufunc(np.array([x])))
