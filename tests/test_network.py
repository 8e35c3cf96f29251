import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starfuse import (
    BELIEF_EPS,
    CostPair,
    NetworkConfig,
    NetworkTemplate,
    ObservationModel,
    batch_risk,
    error_probs,
    exact_risk,
    exact_risk_bruteforce,
    from_log_odds,
    fusion_log_odds,
    gaussian_q,
    pinned_fusion_errors,
    threshold_from_belief,
    threshold_from_log_odds,
    update_belief_count,
)
from starfuse import network
from starfuse.network import (
    PER_FLOAT_BELOW,
    _fusion_count_errors,
    _poisson_binomial_pmf,
    _rate_columns,
    bayes_risk,
    conditional_fusion_errors,
    count_distribution,
    fusion_error_rates,
    tied_exact_risks,
)
from starfuse.observation import decision_tails
from conftest import random_config


def _reference_pmfs(ones, zeros):
    """Count pmf by the plain one-agent-at-a-time convolution over a full
    length-(N + 1) vector, from each agent's decide-1 and decide-0 rates;
    the reference the optimized kernels must match."""
    pmf = np.zeros(len(ones) + 1)
    pmf[0] = 1.0
    for p, q in zip(ones, zeros):
        pmf[1:] = pmf[1:] * q + pmf[:-1] * p
        pmf[0] *= q
    return pmf


def _reference_rates(cfg, beliefs):
    """Per-agent decide-1 rates under H0 and H1, then decide-0 rates under
    H0 and H1, one scalar threshold each, every tail on its own side."""
    lam = np.array([threshold_from_belief(cfg.model, cfg.costs, q) for q in beliefs])
    s = cfg.model.sigma
    return (gaussian_q(lam / s), gaussian_q((lam - 1.0) / s),
            gaussian_q(-lam / s), gaussian_q(-(lam - 1.0) / s))


def _reference_fusion_errors(cfg, n):
    """Fusion (false-alarm, missed-detection) probability after each count
    0..n of local ones among ``n`` decisions."""
    ell = np.array([fusion_log_odds(cfg, k, n) for k in range(n + 1)])
    lam = threshold_from_log_odds(cfg.model, cfg.costs, ell)
    s = cfg.model.sigma
    return gaussian_q(lam / s), gaussian_q(-(lam - 1.0) / s)


def _reference_pinned(cfg, j, pinned):
    """Pinned fusion errors by rebuilding the count pmf without agent ``j``."""
    n = cfg.n_local
    others = cfg.q_local[:j - 1] + cfg.q_local[j:]
    t0, t1, s0, s1 = _reference_rates(cfg, others)
    fa, md = _reference_fusion_errors(cfg, n)
    counts = np.arange(n) + pinned
    return (float(_reference_pmfs(t0, s0) @ fa[counts]),
            float(_reference_pmfs(t1, s1) @ md[counts]))


def _config(pi0=0.3, q0=0.5, q_local=(0.5, 0.5), sigma=1.0, c_fa=1.0, c_md=1.0):
    return NetworkConfig(pi0, CostPair(c_fa, c_md), ObservationModel(sigma=sigma), q0, q_local)


def _local_errors(cfg, q):
    """True (false-alarm, missed-detection) rates of a local agent with belief ``q``."""
    return error_probs(cfg.model, threshold_from_belief(cfg.model, cfg.costs, q))


def _updated_belief(cfg, decisions):
    """Updated fusion belief after a vector of local decisions."""
    return update_belief_count(cfg, sum(decisions), len(decisions))


def _fusion_threshold(cfg, k, n=None):
    """The fusion agent's signal threshold after ``k`` ones among ``n`` decisions."""
    return threshold_from_log_odds(cfg.model, cfg.costs, fusion_log_odds(cfg, k, n))


class TestLocalAndPerceivedProbs:
    def test_neutral_belief_is_symmetric(self):
        p_fa, p_md = _local_errors(_config(), 0.5)
        assert p_fa == pytest.approx(0.30854, abs=1e-5)
        assert p_md == pytest.approx(p_fa, rel=1e-12)

    def test_benchmark_local_belief(self):
        p_fa, _ = _local_errors(_config(), 0.3960)
        lam = 0.5 + math.log(0.396 / 0.604)
        assert p_fa == pytest.approx(gaussian_q(lam), rel=1e-12)
        assert p_fa == pytest.approx(0.46906, abs=1e-4)

    def test_extreme_belief_kills_alarms(self):
        p_fa, p_md = _local_errors(_config(), 1.0 - 1e-9)
        assert p_fa < 1e-15
        assert p_md > 1.0 - 1e-15


class TestBeliefUpdate:
    def test_empty_decision_vector_is_identity(self):
        cfg = _config(q0=0.37)
        assert _updated_belief(cfg, ()) == pytest.approx(0.37, rel=1e-12)

    def test_single_one_decision_from_neutral(self):
        cfg = _config(q0=0.5, q_local=(0.5,))
        assert _updated_belief(cfg, (1,)) == pytest.approx(gaussian_q(0.5), rel=1e-10)

    def test_all_zeros_pull_small_belief_up(self):
        cfg = _config(q0=0.1, q_local=(0.5, 0.5, 0.5))
        assert _updated_belief(cfg, (0, 0, 0)) > 0.99

    def test_count_overload_agrees_exactly(self):
        cfg = _config(q0=0.27, q_local=(0.6, 0.4, 0.8, 0.5))
        for decisions in itertools.product((0, 1), repeat=4):
            assert _updated_belief(cfg, decisions) == update_belief_count(cfg, sum(decisions))

    @given(st.permutations([0, 0, 1, 1, 1]))
    def test_permutation_invariance(self, decisions):
        cfg = _config(q0=0.33, q_local=(0.2, 0.5, 0.6, 0.71, 0.44))
        assert _updated_belief(cfg, decisions) == _updated_belief(cfg, (1, 1, 1, 0, 0))

    def test_non_monotone_for_two_agents(self):
        """Updated belief after (0,0) dips somewhere as the prior belief grows."""
        grid = np.arange(0.001, 0.9995, 0.001)
        updated = [update_belief_count(_config(q0=q), 0) for q in grid]
        assert min(np.diff(updated)) < 0

    def test_monotone_for_single_agent(self):
        grid = np.arange(0.001, 0.9995, 0.001)
        updated = [update_belief_count(_config(q0=q, q_local=(0.5,)), 0) for q in grid]
        assert all(d > 0 for d in np.diff(updated))

    @pytest.mark.parametrize("k, n", [(3, None), (-1, None), (2, 1), (0, -1)])
    def test_count_out_of_range_rejected(self, k, n):
        with pytest.raises(ValueError, match="out of range"):
            fusion_log_odds(_config(), k, n)


class TestFusionDecide:
    def test_saturated_belief_forces_zero(self):
        cfg = _config(q0=1.0 - 1e-9, q_local=(0.5, 0.5))
        # Threshold far beyond any plausible signal once the belief saturates.
        assert _fusion_threshold(cfg, 0) > 5.0

    def test_no_decisions_neutral_threshold(self):
        cfg = _config(q0=0.5)
        assert _fusion_threshold(cfg, 0, 0) == 0.5

    def test_one_decision_moves_threshold(self):
        cfg = _config(q0=0.5, q_local=(0.5,))
        lam = 0.5 + math.log(gaussian_q(0.5) / (1.0 - gaussian_q(0.5)))
        assert lam == pytest.approx(-0.3069, abs=1e-4)
        assert _fusion_threshold(cfg, 1) == pytest.approx(lam, rel=1e-12)

    def test_matches_update_threshold_chain(self):
        """The per-count thresholds of ``exact_risk`` are the library's
        update-then-threshold chain, bit for bit."""
        rng = np.random.default_rng(31)
        for cfg in [_config(q0=0.35, q_local=(0.6, 0.45, 0.7))] + [
                random_config(rng, n_max=12) for _ in range(20)]:
            report = exact_risk(cfg)
            for k in range(cfg.n_local + 1):
                assert report.per_count[k][2] == _fusion_threshold(cfg, k)


class TestCountDistribution:
    def test_single_bernoulli(self):
        cfg = _config(q_local=(0.5,))
        pmf = count_distribution(cfg)
        p_fa, p_md = _local_errors(cfg, 0.5)
        assert pmf.shape == (2, 2)
        np.testing.assert_allclose(pmf[0], [1.0 - p_fa, p_fa], rtol=1e-14)
        np.testing.assert_allclose(pmf[1], [p_md, 1.0 - p_md], rtol=1e-14)

    def test_identical_beliefs_give_binomial(self):
        from scipy.stats import binom

        cfg = _config(q_local=(0.42,) * 6)
        pmf = count_distribution(cfg)
        p_fa, p_md = _local_errors(cfg, 0.42)
        k = np.arange(7)
        np.testing.assert_allclose(pmf[0], binom.pmf(k, 6, p_fa), atol=1e-14)
        np.testing.assert_allclose(pmf[1], binom.pmf(k, 6, 1.0 - p_md), atol=1e-14)

    def test_heterogeneous_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(5)
        cfg = _config(q_local=tuple(rng.uniform(0.1, 0.9, size=10)))
        rates = [_local_errors(cfg, q)[0] for q in cfg.q_local]
        pmf = np.zeros(11)
        for bits in itertools.product((0, 1), repeat=10):
            w = math.prod(r if b else 1.0 - r for r, b in zip(rates, bits))
            pmf[sum(bits)] += w
        np.testing.assert_allclose(count_distribution(cfg)[0], pmf, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_pmfs_are_distributions(self, seed):
        cfg = random_config(np.random.default_rng(seed), n_max=8)
        for pmf in count_distribution(cfg):
            assert np.all(pmf >= 0)
            assert abs(float(np.sum(pmf)) - 1.0) <= 1e-12

    # n = 1000 and 2000 carry subnormal and exactly-zero pmf tails.
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 123, 300, 1000, 2000])
    @pytest.mark.parametrize("tied", [True, False])
    def test_bit_identical_to_per_agent_loop(self, n, tied):
        rng = np.random.default_rng(1000 * n + tied)
        template = NetworkTemplate(0.35, CostPair(1.3, 0.8), ObservationModel(sigma=1.7), n)
        if tied:
            cfg = template.tied(0.45, 0.62)
        else:
            cfg = template.config(0.45, rng.uniform(0.02, 0.98, n))
        pmf = count_distribution(cfg)
        t0, t1, s0, s1 = _reference_rates(cfg, cfg.q_local)
        pmf0, pmf1 = _reference_pmfs(t0, s0), _reference_pmfs(t1, s1)
        assert np.array_equal(pmf[0], pmf0)
        assert np.array_equal(pmf[1], pmf1)
        fa, md = _reference_fusion_errors(cfg, n)
        p_fa0, p_md0 = float(pmf0 @ fa), float(pmf1 @ md)
        report = exact_risk(cfg)
        assert report.p_fa0 == p_fa0
        assert report.p_md0 == p_md0
        assert report.r0 == (cfg.costs.c_fa * cfg.pi0 * p_fa0
                             + cfg.costs.c_md * (1.0 - cfg.pi0) * p_md0)


class TestExactRisk:
    def test_per_count_types_and_beliefs(self):
        rng = np.random.default_rng(12)
        template = NetworkTemplate(0.35, CostPair(1.3, 0.8), ObservationModel(sigma=1.7), 12)
        cfg = template.config(0.45, rng.uniform(0.02, 0.98, 12))
        per_count = exact_risk(cfg).per_count
        assert [k for k, _, _ in per_count] == list(range(13))
        for k, belief, lam in per_count:
            assert (type(k), type(belief), type(lam)) == (int, float, float)
            assert belief == float(from_log_odds(fusion_log_odds(cfg, k)))

    def test_truthful_beliefs_benchmark(self, benchmark_template):
        report = exact_risk(benchmark_template.tied(0.3, 0.3))
        assert report.r0 == pytest.approx(0.1976, abs=5e-4)

    def test_optimal_beliefs_benchmark(self, benchmark_template):
        report = exact_risk(benchmark_template.tied(0.7372, 0.3960))
        assert report.r0 == pytest.approx(0.1918, abs=5e-4)

    def test_contrarian_fusion_truthful_locals(self, benchmark_template):
        report = exact_risk(benchmark_template.tied(0.7372, 0.3))
        assert report.r0 == pytest.approx(0.2039, abs=5e-4)

    def test_decomposition_identity(self, benchmark_template):
        cfg = benchmark_template.tied(0.7372, 0.3960)
        report = exact_risk(cfg)
        rebuilt = (cfg.costs.c_fa * cfg.pi0 * report.p_fa0
                   + cfg.costs.c_md * (1.0 - cfg.pi0) * report.p_md0)
        assert report.r0 == rebuilt

    def test_per_count_profile_shape(self, benchmark_template):
        report = exact_risk(benchmark_template.tied(0.5, 0.5))
        assert [k for k, _, _ in report.per_count] == [0, 1, 2]
        beliefs = [b for _, b, _ in report.per_count]
        assert beliefs[0] > beliefs[1] > beliefs[2]

    def test_risk_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            cfg = random_config(rng, n_max=6)
            r0 = exact_risk(cfg).r0
            assert 0.0 <= r0 <= max(cfg.costs.c_fa, cfg.costs.c_md)

    def test_bruteforce_agrees_on_random_configs(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            cfg = random_config(rng, n_max=12)
            assert abs(exact_risk(cfg).r0 - exact_risk_bruteforce(cfg)) <= 1e-12

    def test_bruteforce_agrees_deep_in_the_tails(self):
        """Local thresholds near -8.7 and +9.7, far outside the random suite's
        belief range, where one side's error tail is below 1e-17."""
        cfg = _config(pi0=0.4, q0=1e-4, q_local=(2e-4, 1e-4, 0.9999), sigma=1.0)
        assert abs(exact_risk(cfg).r0 - exact_risk_bruteforce(cfg)) <= 1e-12

    @pytest.mark.parametrize("sigma", [0.06, 0.08, 0.3, 1.0])
    def test_bruteforce_agrees_relatively_at_small_sigma(self, sigma):
        """At sigma 0.06 the risk is about 1e-42, so only a relative check
        sees the oracle drift; it must not clamp the updated belief."""
        cfg = _config(pi0=0.3, q0=0.5, q_local=(0.5, 0.5, 0.5), sigma=sigma)
        exact = exact_risk(cfg).r0
        assert exact > 0.0
        assert abs(exact_risk_bruteforce(cfg) - exact) <= 1e-14 * exact

    def test_bruteforce_guard(self):
        cfg = _config(q_local=(0.5,) * 21)
        with pytest.raises(ValueError):
            exact_risk_bruteforce(cfg)


def _row_form_batch_risk(template, beliefs):
    """Risks of belief rows (fusion belief first), each row running the
    count DP and the fusion errors for itself: the form ``batch_risk`` had
    before it split fusion beliefs from local rows."""
    model, costs, n = template.model, template.costs, template.n_local
    q = np.clip(beliefs, BELIEF_EPS, 1.0 - BELIEF_EPS)
    ell = np.log(q) - np.log1p(-q)
    pmf = _poisson_binomial_pmf(*_rate_columns(model, costs, ell[:, 1:]))
    fa, md, _, _ = _fusion_count_errors(model, costs, ell[:, 0], n)
    return (costs.c_fa * template.pi0 * np.sum(pmf[0] * fa, axis=1)
            + costs.c_md * (1.0 - template.pi0) * np.sum(pmf[1] * md, axis=1))


def _shape_case(shape, rng):
    """(n_local, q0, q_local) of one of batch_risk's four calling shapes."""
    if shape == "tied":  # grid_search with tied locals: q0 axis x q1 axis
        n = int(rng.integers(1, 13))
        q0 = np.round(np.arange(rng.uniform(0.01, 0.5), 0.99, 0.02)[:49], 12)
        q1 = np.round(np.arange(rng.uniform(0.01, 0.5), 0.99, 0.02)[:49], 12)
        return n, q0, np.repeat(q1[:, None], n, axis=1)
    if shape == "full":  # full grid_search at N=3: q0 axis x product of local axes
        axes = [np.round(np.linspace(rng.uniform(0.01, 0.5), rng.uniform(0.5, 0.99), 7), 12)
                for _ in range(4)]
        mesh = np.meshgrid(*axes[1:], indexing="ij")
        return 3, axes[0], np.stack([m.ravel() for m in mesh], axis=1)
    if shape == "contour":  # grid --contour: one q0 x the (q1, q2) mesh
        axis = np.round(np.arange(0.02, 0.981, 0.02), 10)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        return 2, np.array([rng.uniform(0.01, 0.99)]), np.column_stack([g1.ravel(), g2.ravel()])
    # minimize_fusion_belief: the scan points x one local row, some deep in the tails
    n = int(rng.integers(1, 13))
    q_local = np.clip(rng.uniform(0.0, 1.0, size=(1, n)) ** rng.choice([1, 8]), 1e-7, 1 - 1e-7)
    return n, np.linspace(0.02, 0.98, 193), q_local


def _both_paths(function, *args):
    """``function(*args)`` with every input on the array path, then with
    every input on the per-float path."""
    out = []
    for below in (0, math.inf):
        with mock.patch.object(network, "PER_FLOAT_BELOW", below):
            out.append(function(*args))
    return out


def _assert_same_arrays(array_path, per_float, layout=True):
    """Equal values, nan where nan, and with ``layout`` the same strides: a
    strided operand can change the last bit of a later ``@``."""
    assert len(array_path) == len(per_float)
    for a, b in zip(array_path, per_float):
        assert a.shape == b.shape
        assert a.strides == b.strides or not layout
        np.testing.assert_array_equal(a, b)


_EDGE = math.log1p(-BELIEF_EPS) - math.log(BELIEF_EPS)


class TestPerFloatPath:
    """Inputs below ``PER_FLOAT_BELOW`` entries go one float at a time,
    with the array path's doubles; both are checked on sizes on both sides
    of the constant, with one and two leading axes."""

    @settings(max_examples=60, deadline=None)
    @given(sigma=st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e),
           c_fa=st.floats(0.3, 3.0), c_md=st.floats(0.3, 3.0),
           agents=st.integers(1, 2 * PER_FLOAT_BELOW), rows=st.sampled_from([None, 1, 3]),
           data=st.data())
    def test_rate_columns(self, sigma, c_fa, c_md, agents, rows, data):
        shape = (agents,) if rows is None else (rows, agents)
        ell = np.array(data.draw(st.lists(st.floats(-_EDGE, _EDGE), min_size=math.prod(shape),
                                          max_size=math.prod(shape)))).reshape(shape)
        model, costs = ObservationModel(sigma=sigma), CostPair(c_fa, c_md)
        # With several rows the array path's layout follows its transposed
        # input; those columns only enter the count fold's elementwise
        # products, where a layout cannot change a value.
        _assert_same_arrays(*_both_paths(_rate_columns, model, costs, ell),
                            layout=rows in (None, 1))

    @settings(max_examples=60, deadline=None)
    @given(sigma=st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e),
           c_fa=st.floats(0.3, 3.0), c_md=st.floats(0.3, 3.0),
           ell0=st.one_of(st.floats(-_EDGE, _EDGE),
                          st.lists(st.floats(-_EDGE, _EDGE), min_size=1, max_size=3)),
           n=st.one_of(st.integers(0, 2 * PER_FLOAT_BELOW),
                       st.lists(st.integers(1, PER_FLOAT_BELOW), min_size=1, max_size=3,
                                unique=True).map(sorted)))
    def test_fusion_count_errors(self, sigma, c_fa, c_md, ell0, n):
        model, costs = ObservationModel(sigma=sigma), CostPair(c_fa, c_md)
        _assert_same_arrays(*_both_paths(_fusion_count_errors, model, costs, ell0, n))

    def test_default_path_by_size(self, benchmark_template):
        """Each side of the constant takes its path unpatched."""
        model, costs = benchmark_template.model, benchmark_template.costs
        tails = []
        with mock.patch.object(network, "decision_tails",
                               lambda *a: tails.append(a) or decision_tails(*a)):
            _rate_columns(model, costs, np.zeros(PER_FLOAT_BELOW - 1))
            assert len(tails) == PER_FLOAT_BELOW - 1
            _rate_columns(model, costs, np.zeros(PER_FLOAT_BELOW))
            assert len(tails) == PER_FLOAT_BELOW


class TestBatchRisk:
    @pytest.mark.parametrize("shape", ["tied", "full", "contour", "scan"])
    def test_bit_identical_to_row_form(self, shape):
        """Every (fusion belief, local row) pair equals its row-form risk,
        byte for byte, nan included, for sigma down to 0.05."""
        rng = np.random.default_rng(["tied", "full", "contour", "scan"].index(shape))
        for _ in range(60):
            n, q0, q_local = _shape_case(shape, rng)
            sigma = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
            template = NetworkTemplate(float(rng.uniform(0.02, 0.98)),
                                       CostPair(float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0))),
                                       ObservationModel(sigma=sigma), n)
            rows = np.column_stack([np.repeat(q0, len(q_local)), np.tile(q_local, (len(q0), 1))])
            with np.errstate(all="ignore"):
                outer = batch_risk(template, q0, q_local)
                expected = _row_form_batch_risk(template, rows)
            assert outer.shape == (len(q0), len(q_local))
            assert outer.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("q0, q_local", [(1.5, [0.3, 0.3]), (0.5, [0.3, 0.0]),
                                             (np.nan, [0.3, 0.3]), (0.5, [0.3, 1.0])])
    def test_rejects_degenerate_beliefs(self, benchmark_template, q0, q_local):
        with pytest.raises(ValueError, match="degenerate belief"):
            batch_risk(benchmark_template, [q0], [q_local])

    def test_rejects_wrong_local_width(self, benchmark_template):
        with pytest.raises(ValueError, match="2 local belief columns"):
            batch_risk(benchmark_template, [0.5], [[0.3, 0.3, 0.3]])

    def test_fusion_belief_checked_against_no_rows(self, benchmark_template):
        with pytest.raises(ValueError, match="degenerate belief"):
            batch_risk(benchmark_template, [1.5], np.empty((0, 2)))


class TestFusionErrorRates:
    def test_blocks_bit_identical_alone_and_weighted(self):
        """A block's rates do not depend on the blocks passed beside it, and
        ``bayes_risk`` of them at the template's prior is ``batch_risk``."""
        rng = np.random.default_rng(41)
        for n in (1, 2, 7, 12, 30):
            template = NetworkTemplate(float(rng.uniform(0.05, 0.95)), CostPair(1.3, 0.6),
                                       ObservationModel(sigma=float(rng.uniform(0.3, 3.0))), n)
            blocks = [(rng.uniform(0.01, 0.99, int(rng.integers(1, 9))),
                       rng.uniform(0.01, 0.99, (int(rng.integers(1, 9)), n))) for _ in range(4)]
            together = list(fusion_error_rates(template.model, template.costs, blocks))
            assert len(together) == len(blocks)
            for (q0, q_local), rates in zip(blocks, together):
                [alone] = fusion_error_rates(template.model, template.costs, [(q0, q_local)])
                assert [r.tobytes() for r in rates] == [r.tobytes() for r in alone]
                risks = bayes_risk(template.pi0, template.costs, *rates)
                assert risks.tobytes() == batch_risk(template, q0, q_local).tobytes()

    @pytest.mark.parametrize("case", range(12))
    def test_tied_view_bit_identical_to_rows_written_out(self, case):
        """Rows passed as a broadcast view of one belief each, as tied grid
        stages pass them, give the rates of the same rows written out."""
        rng = np.random.default_rng([20, case])
        n = int(rng.integers(2, 60))
        sigma = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
        model = ObservationModel(sigma=sigma)
        costs = CostPair(*(float(np.exp(rng.uniform(math.log(0.2), math.log(5.0)))) for _ in range(2)))
        columns = [rng.uniform(1e-6, 1.0 - 1e-6, (int(rng.integers(1, 9)), 1)) for _ in range(3)]
        q0 = [rng.uniform(1e-6, 1.0 - 1e-6, int(rng.integers(1, 9))) for _ in columns]
        views = [(f, np.broadcast_to(c, (len(c), n))) for f, c in zip(q0, columns)]
        written = [(f, np.repeat(c, n, axis=1)) for f, c in zip(q0, columns)]
        got = list(fusion_error_rates(model, costs, views))
        expected = list(fusion_error_rates(model, costs, written))
        assert [r.tobytes() for pair in got for r in pair] == [
            r.tobytes() for pair in expected for r in pair]

    def test_tied_view_names_bad_belief(self):
        template = NetworkTemplate(0.5, CostPair(), ObservationModel(), 4)
        for bad in (0.0, np.nan, 1.5):
            column = np.array([[0.3], [bad]])
            with pytest.raises(ValueError) as expected:
                list(fusion_error_rates(template.model, template.costs,
                                        [([0.5], np.repeat(column, 4, axis=1))]))
            with pytest.raises(ValueError) as got:
                list(fusion_error_rates(template.model, template.costs,
                                        [([0.5], np.broadcast_to(column, (2, 4)))]))
            assert str(got.value) == str(expected.value)

    def test_prior_free(self):
        """The rates mix the count pmfs with no prior: p_fa0 and p_md0 are
        exact_risk's at any prior."""
        template = NetworkTemplate(0.5, CostPair(), ObservationModel(sigma=0.8), 3)
        [(p_fa0, p_md0)] = fusion_error_rates(template.model, template.costs,
                                              [([0.6], [[0.3, 0.4, 0.5]])])
        for pi0 in (0.1, 0.5, 0.9):
            report = exact_risk(NetworkConfig(pi0, template.costs, template.model, 0.6, (0.3, 0.4, 0.5)))
            assert p_fa0[0, 0] == pytest.approx(report.p_fa0, rel=1e-14)
            assert p_md0[0, 0] == pytest.approx(report.p_md0, rel=1e-14)


# Beliefs anywhere in (0, 1), the edges of the grid axes included.
_TIED_BELIEFS = st.one_of(st.sampled_from([1e-6, 1.0 - 1e-6]), st.floats(1e-6, 1.0 - 1e-6))


class TestTiedExactRisks:
    @given(sizes=st.lists(st.integers(1, 400), min_size=1, max_size=6, unique=True),
           sigma=st.one_of(st.just(1e-3), st.floats(0.05, 20.0), st.just(1e2)),
           c_fa=st.floats(0.2, 5.0), c_md=st.floats(0.2, 5.0), pi0=st.floats(0.01, 0.99),
           q0=_TIED_BELIEFS, q1=_TIED_BELIEFS)
    @settings(max_examples=120, deadline=None)
    def test_equals_exact_risk_at_every_size(self, sizes, sigma, c_fa, c_md, pi0, q0, q1):
        """One fold for the whole ladder gives each size exact_risk's r0, ==,
        and a non-finite r0 where exact_risk's is not finite."""
        sizes = sorted(sizes)
        costs, model = CostPair(c_fa, c_md), ObservationModel(sigma=sigma)
        got = tied_exact_risks(pi0, costs, model, q0, q1, sizes)
        expected = [exact_risk(NetworkConfig(pi0, costs, model, q0, (q1,) * n)).r0 for n in sizes]
        assert len(got) == len(sizes)
        for r, e in zip(got, expected):
            assert r == e or (math.isnan(r) and math.isnan(e))

    def test_ladder_does_not_depend_on_its_other_sizes(self):
        costs, model = CostPair(1.5, 1.0), ObservationModel(sigma=1.3)
        ladder = list(range(5, 201, 15))
        together = tied_exact_risks(0.3, costs, model, 0.7, 0.5, ladder)
        assert together == [tied_exact_risks(0.3, costs, model, 0.7, 0.5, [n])[0] for n in ladder]

    @pytest.mark.parametrize("sigma", [1e-200, 1e200])
    def test_non_finite_where_exact_risk_is(self, sigma):
        costs, model = CostPair(), ObservationModel(sigma=sigma)
        got = tied_exact_risks(0.3, costs, model, 0.7, 0.4, [1, 2, 5])
        expected = [exact_risk(NetworkConfig(0.3, costs, model, 0.7, (0.4,) * n)).r0 for n in (1, 2, 5)]
        assert not any(map(math.isfinite, expected))
        assert [repr(r) for r in got] == [repr(r) for r in expected]

    @pytest.mark.parametrize("pi0, q0, q1", [(1.0, 0.5, 0.5), (0.0, 0.5, 0.5), (0.3, 1.5, 0.5),
                                             (0.3, np.nan, 0.5), (0.3, 0.5, 0.0),
                                             (0.3, 0.5, np.inf)])
    def test_inputs_checked_as_network_config(self, pi0, q0, q1):
        with pytest.raises(ValueError) as expected:
            NetworkConfig(pi0, CostPair(), ObservationModel(), q0, (q1,) * 3)
        with pytest.raises(ValueError) as got:
            tied_exact_risks(pi0, CostPair(), ObservationModel(), q0, q1, [3, 4])
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("sizes", [[0, 3], [5, 5], [7, 3], [-1]])
    def test_sizes_strictly_increasing_from_one(self, sizes):
        with pytest.raises(ValueError, match="strictly increasing"):
            tied_exact_risks(0.3, CostPair(), ObservationModel(), 0.5, 0.5, sizes)

    def test_no_sizes(self):
        assert tied_exact_risks(0.3, CostPair(), ObservationModel(), 0.5, 0.5, []) == []


class TestConditionalFusionErrors:
    def test_single_agent_pinned(self):
        cfg = _config(q0=0.4, q_local=(0.6,))
        lam = threshold_from_belief(cfg.model, cfg.costs, update_belief_count(cfg, 1))
        p_fa, _ = conditional_fusion_errors(cfg, 1, 1)
        assert p_fa == pytest.approx(gaussian_q(lam), rel=1e-10)

    def test_pinning_one_raises_false_alarm(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            cfg = random_config(rng, n_max=6)
            for j in range(1, cfg.n_local + 1):
                assert (conditional_fusion_errors(cfg, j, 1)[0]
                        >= conditional_fusion_errors(cfg, j, 0)[0])

    def test_total_probability_recovers_risk_report(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            cfg = random_config(rng, n_max=5)
            report = exact_risk(cfg)
            for j in range(1, cfg.n_local + 1):
                p_fa_j, p_md_j = _local_errors(cfg, cfg.q_local[j - 1])
                fa1, md1 = conditional_fusion_errors(cfg, j, 1)
                fa0, md0 = conditional_fusion_errors(cfg, j, 0)
                assert (p_fa_j * fa1 + (1.0 - p_fa_j) * fa0
                        == pytest.approx(report.p_fa0, abs=1e-13))
                assert (1.0 - p_md_j) * md1 + p_md_j * md0 == pytest.approx(report.p_md0, abs=1e-13)

    def test_index_and_pin_validation(self):
        cfg = _config(q_local=(0.4, 0.6))
        with pytest.raises(IndexError):
            conditional_fusion_errors(cfg, 0, 1)
        with pytest.raises(IndexError):
            conditional_fusion_errors(cfg, 3, 1)
        with pytest.raises(ValueError):
            conditional_fusion_errors(cfg, 1, 2)


class TestPinnedFusionErrors:
    def test_shape_and_entries_match_conditional(self):
        cfg = _config(q0=0.6, q_local=(0.3, 0.5, 0.8))
        fa, md = pinned_fusion_errors(cfg)
        assert fa.shape == md.shape == (2, 3)
        for j in (1, 2, 3):
            for pinned in (0, 1):
                assert conditional_fusion_errors(cfg, j, pinned) == (fa[pinned, j - 1],
                                                                     md[pinned, j - 1])

    @given(st.integers(1, 40), st.floats(0.05, 20.0), st.floats(0.02, 0.98),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_leave_one_out_rebuild(self, n, sigma, q0, data):
        beliefs = data.draw(st.lists(st.floats(0.02, 0.98), min_size=n, max_size=n))
        pi0 = data.draw(st.floats(0.05, 0.95))
        cfg = _config(pi0=pi0, q0=q0, q_local=beliefs, sigma=sigma)
        ref = np.array([[_reference_pinned(cfg, j, pinned) for j in range(1, n + 1)]
                        for pinned in (0, 1)])
        # Where the fusion log-ratios underflow (large sigma with an extreme
        # q0) both sides are nan; agreement then means nan in the same places.
        fa, md = pinned_fusion_errors(cfg)
        np.testing.assert_allclose(fa, ref[:, :, 0], rtol=0.0, atol=1e-13, equal_nan=True)
        np.testing.assert_allclose(md, ref[:, :, 1], rtol=0.0, atol=1e-13, equal_nan=True)


class TestConfigValidation:
    def test_degenerate_prior_rejected(self):
        with pytest.raises(ValueError):
            _config(pi0=0.0)
        with pytest.raises(ValueError):
            _config(pi0=1.0)

    def test_empty_locals_rejected(self):
        with pytest.raises(ValueError):
            _config(q_local=())

    def test_degenerate_beliefs_rejected(self):
        with pytest.raises(ValueError):
            _config(q0=1.0)
        with pytest.raises(ValueError):
            _config(q_local=(0.5, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, 1.0, -0.2, 1.3])
    @pytest.mark.parametrize("position", [0, 25, 49])
    def test_config_and_batch_name_first_bad_belief(self, bad, position):
        # A second bad belief after the first must not be the one named.
        q_local = [0.3] * 50
        q_local[position] = bad
        if position < 49:
            q_local[49] = 2.5
        message = f"degenerate belief {bad!r}: must lie strictly inside (0, 1)"
        template = NetworkTemplate(0.3, CostPair(), ObservationModel(), 50)
        with pytest.raises(ValueError) as from_config:
            template.config(0.6, q_local)
        with pytest.raises(ValueError) as from_batch:
            batch_risk(template, [0.6], [q_local])
        assert str(from_config.value) == message
        assert str(from_batch.value) == message

    def test_template_round_trip(self):
        template = NetworkTemplate(0.3, CostPair(), ObservationModel(), 3)
        cfg = template.tied(0.6, 0.4)
        assert cfg.q_local == (0.4, 0.4, 0.4)
        with pytest.raises(ValueError):
            template.config(0.6, (0.4, 0.4))
