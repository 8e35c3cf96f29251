import dataclasses
import functools
import hashlib
import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import mpmath
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
    stationarity_residual,
    threshold_from_belief,
    threshold_from_log_odds,
    update_belief_count,
)
from starfuse import network, optimize
from starfuse.network import (
    BINOMIAL_FROM,
    PER_FLOAT_BELOW,
    _fusion_count_errors,
    _local_rates,
    _local_tails,
    _poisson_binomial_pmf,
    _rate_columns,
    bayes_risk,
    conditional_fusion_errors,
    count_distribution,
    fusion_error_rates,
    pinned_fusion_sweep,
    tied_exact_risks,
)
from starfuse.observation import clamped_log_odds, log_odds, per_float_rates
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

    @pytest.mark.parametrize("k, n", [(1.7, None), ("2", None), (True, None), (1, 3.9),
                                      (1, "3"), (0, False), (np.float64(1.0), None)])
    def test_count_not_an_integer_rejected(self, k, n):
        """A count or size that is not an integer is refused, not truncated."""
        for function in (fusion_log_odds, update_belief_count):
            with pytest.raises(ValueError, match="is not an integer"):
                function(_config(), k, n)

    def test_numpy_integer_counts_accepted(self):
        cfg = _config()
        assert fusion_log_odds(cfg, np.int64(1), np.int32(2)) == fusion_log_odds(cfg, 1, 2)
        assert update_belief_count(cfg, np.int64(2)) == update_belief_count(cfg, 2)


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
        """The count pmf and the risk are the per-agent loop's, bit for bit,
        the loop's pmfs mixed with its fusion errors by a row sum, as every
        exact risk is. A tied network of ``BINOMIAL_FROM`` locals or more
        takes the Binomial kernel instead: its pmf is checked against the
        50-digit sum and its r0 against the loop's to 1e-12 relative."""
        rng = np.random.default_rng(1000 * n + tied)
        template = NetworkTemplate(0.35, CostPair(1.3, 0.8), ObservationModel(sigma=1.7), n)
        if tied:
            cfg = template.tied(0.45, 0.62)
        else:
            cfg = template.config(0.45, rng.uniform(0.02, 0.98, n))
        pmf = count_distribution(cfg)
        t0, t1, s0, s1 = _reference_rates(cfg, cfg.q_local)
        pmf0, pmf1 = _reference_pmfs(t0, s0), _reference_pmfs(t1, s1)
        fa, md = _reference_fusion_errors(cfg, n)
        p_fa0, p_md0 = float(np.add.reduce(pmf0 * fa)), float(np.add.reduce(pmf1 * md))
        loop_r0 = cfg.costs.c_fa * cfg.pi0 * p_fa0 + cfg.costs.c_md * (1.0 - cfg.pi0) * p_md0
        report = exact_risk(cfg)
        if tied and n >= BINOMIAL_FROM:
            _assert_binomial_matches_mpmath(cfg)
            assert abs(report.r0 - loop_r0) <= 1e-12 * loop_r0
            return
        assert np.array_equal(pmf[0], pmf0)
        assert np.array_equal(pmf[1], pmf1)
        assert report.p_fa0 == p_fa0
        assert report.p_md0 == p_md0
        assert report.r0 == loop_r0


def _mp_binomial_pmfs(cfg):
    """The Binomial count pmfs (under H0, under H1) of ``cfg``'s tied locals
    at 50 digits, each decision rate from ``mpmath.erfc`` on its own side at
    the double threshold the kernels use."""
    n, sigma = cfg.n_local, mpmath.mpf(cfg.model.sigma)
    ell = clamped_log_odds(cfg.q_local[0])
    lam = mpmath.mpf(threshold_from_log_odds(cfg.model, cfg.costs, ell))
    pmfs = []
    for h in (0, 1):
        z = (lam - h) / sigma / mpmath.sqrt(2)
        one, zero = mpmath.erfc(z) / 2, mpmath.erfc(-z) / 2
        pmf = [zero ** n]
        for k in range(n):
            pmf.append(pmf[-1] * (n - k) / (k + 1) * one / zero)
        pmfs.append(pmf)
    return pmfs


def _assert_binomial_matches_mpmath(cfg):
    """``count_distribution`` and ``exact_risk`` of the tied ``cfg`` agree
    with the 50-digit Binomial sum to 1e-12 relative, every pmf entry and
    r0, wherever the reference is at least 1e-300 (and to 1e-312 absolute
    below it, where a double has no relative precision left). The mix uses
    the fusion errors ``exact_risk`` mixes, so only the pmf and the mix are
    measured."""
    def close(value, reference):
        return abs(mpmath.mpf(float(value)) - reference) <= 1e-12 * max(reference, 1e-300)

    with mpmath.workdps(50):
        pmfs = _mp_binomial_pmfs(cfg)
        pmf = count_distribution(cfg)
        for h in (0, 1):
            bad = [k for k, ref in enumerate(pmfs[h]) if not close(pmf[h, k], ref)]
            assert bad == [], (h, bad[:5])
        assert close(exact_risk(cfg).r0, _mp_binomial_risk(cfg, pmfs))


def _mp_binomial_risk(cfg, pmfs):
    """The risk of the tied ``cfg`` from its 50-digit count pmfs ``pmfs``,
    mixed in mpmath with the per-count fusion errors ``exact_risk`` mixes."""
    fa, md, _, _ = _fusion_count_errors(cfg.model, cfg.costs, network.log_odds(cfg.q0),
                                        cfg.n_local)
    mix = [mpmath.fsum(mpmath.mpf(float(e)) * p for e, p in zip(errors, pmf_h))
           for errors, pmf_h in ((fa, pmfs[0]), (md, pmfs[1]))]
    return (cfg.costs.c_fa * mpmath.mpf(cfg.pi0) * mix[0]
            + cfg.costs.c_md * (1 - mpmath.mpf(cfg.pi0)) * mix[1])


class TestBinomialKernel:
    """Tied networks of ``BINOMIAL_FROM`` locals or more take their count
    pmf from Loader's saddle-point form, ``_binomial_pmf``, in place of the
    O(N^2) fold."""

    @pytest.mark.parametrize("q1", [1e-6, 0.05, 0.45, 1.0 - 1e-6])
    @pytest.mark.parametrize("sigma", [1e-3, 0.05, 1.0, 20.0, 1e2])
    def test_matches_mpmath(self, sigma, q1):
        template = NetworkTemplate(0.3, CostPair(1.3, 0.8), ObservationModel(sigma=sigma), 1)
        for n in (BINOMIAL_FROM, BINOMIAL_FROM + 1, 200, 2000):
            _assert_binomial_matches_mpmath(dataclasses.replace(template, n_local=n).tied(0.45, q1))

    def test_risk_where_the_fold_mixes_rounding_noise(self):
        """Tied (0.5, 0.5), sigma = 1, pi0 = 0.3 at N = 10^4: the fold gave
        4.53e-321, subnormal rounding noise, where the 60-digit Binomial sum
        is 4.2028513078531615e-347, which rounds to 0. At N = 3200 the risk
        is still a normal double."""
        template = NetworkTemplate(0.3, CostPair(), ObservationModel(sigma=1.0), 10_000)
        assert abs(exact_risk(template.tied(0.5, 0.5)).r0 - 4.2028513078531615e-347) <= 5e-324
        r0 = exact_risk(dataclasses.replace(template, n_local=3200).tied(0.5, 0.5)).r0
        assert abs(r0 - 1.0135359940285987e-112) <= 1e-12 * 1.0135359940285987e-112

    def test_exponent_ladder_within_a_few_ulp(self):
        """The Case-2 ladder of ``exponent --estimate`` (sigma 1.3, c_fa 1.5,
        pi0 0.3, q0 0.7, q1 0.5): every size's risk is within 2e-15 relative
        of the 50-digit sum (5.1e-16 measured), where the fold's error grew
        to 1.15e-14 by N = 200, the eighth digit of that size's excess risk
        over its limit."""
        template = NetworkTemplate(0.3, CostPair(1.5, 1.0), ObservationModel(sigma=1.3), 1)
        sizes = list(range(BINOMIAL_FROM, 201, 15))
        risks = tied_exact_risks(0.3, template.costs, template.model, 0.7, 0.5, sizes)
        with mpmath.workdps(50):
            for n, r0 in zip(sizes, risks):
                cfg = dataclasses.replace(template, n_local=n).tied(0.7, 0.5)
                reference = _mp_binomial_risk(cfg, _mp_binomial_pmfs(cfg))
                assert abs(mpmath.mpf(r0) - reference) <= 2e-15 * reference, n

    @pytest.mark.parametrize("sigma", [1e-3, 0.05, 1.0, 20.0, 1e2])
    def test_list_of_sizes_equals_each_size_alone(self, sigma):
        """A list of sizes lays each size's pmf out after the last, each
        entry the same double as at that size alone."""
        model, costs = ObservationModel(sigma=sigma), CostPair(1.3, 0.8)
        sizes = [BINOMIAL_FROM, BINOMIAL_FROM + 7, 200, 1001]
        for q1 in (1e-6, 0.3, 0.62):
            together = network._binomial_pmf(model, costs, q1, sizes)
            alone = [network._binomial_pmf(model, costs, q1, n) for n in sizes]
            assert together.tobytes() == np.concatenate(alone, axis=1).tobytes()
            assert [a.shape for a in alone] == [(2, n + 1) for n in sizes]

    def test_default_path_by_size(self):
        """Tied networks of ``BINOMIAL_FROM`` locals or more take the kernel,
        unpatched, and no fold; smaller ones and any network with one
        differing belief fold. ``tied_exact_risks`` takes all its sizes at or
        above the constant from one kernel call, and folds none of them."""
        calls, folds = [], []
        kernel, fold = network._binomial_pmf, network._fold_agents
        with mock.patch.object(network, "_binomial_pmf",
                               lambda *a: calls.append(a[3]) or kernel(*a)), \
                mock.patch.object(network, "_fold_agents",
                                  lambda *a: folds.append(a[3]) or fold(*a)):
            for n, binomial in ((BINOMIAL_FROM - 1, False), (BINOMIAL_FROM, True),
                                (3 * BINOMIAL_FROM, True)):
                calls.clear()
                folds.clear()
                exact_risk(_config(q_local=(0.3,) * n))
                assert calls == ([n] if binomial else [])
                assert bool(folds) != binomial
            calls.clear()
            for n in (BINOMIAL_FROM, 3 * BINOMIAL_FROM):
                for j in (0, n // 2, n - 1):
                    beliefs = [0.3] * n
                    beliefs[j] = 0.30000000000000004
                    exact_risk(_config(q_local=beliefs))
            assert calls == []
            folds.clear()
            sizes = [BINOMIAL_FROM, BINOMIAL_FROM + 1, 3 * BINOMIAL_FROM]
            tied_exact_risks(0.3, CostPair(), ObservationModel(), 0.5, 0.3, [1, 5] + sizes)
            assert calls == [sizes]
            assert folds == [0, 1]  # the ladder fold stops at size 5


def _fold_pinned_errors(config):
    """``pinned_fusion_errors`` by the fold: one ``pinned_fusion_sweep`` that
    revises no belief, at any size and tie."""
    out = np.empty((2, 2, config.n_local))

    def record(j, pinned0, pinned1):
        out[:, :, j - 1] = np.transpose((pinned0, pinned1))
        return config.q_local[j - 1]

    pinned_fusion_sweep(config, record)
    return out[0], out[1]


# Tied (pi0, q0, q1, sigma) whose pinned differences are well conditioned at
# every size below: each pinned pair differs by more than 1/25 of its larger
# entry, so the residual's logs of those differences keep the pairs' accuracy.
_TIED_PINNED = [(0.61, 0.86, 0.75, 3.0), (0.62, 0.51, 0.5, 1.0), (0.13, 0.54, 0.51, 2.0),
                (0.84, 0.47, 0.54, 1.0)]


class TestTiedPinnedErrors:
    """A tied network whose other N - 1 locals number ``BINOMIAL_FROM`` or
    more gives every agent one pinned pair, from the Binomial(N - 1) kernel,
    in place of the O(N^2) fold."""

    @pytest.mark.parametrize("n", [21, 40, 66, 300, 2000])
    @pytest.mark.parametrize("pi0, q0, q1, sigma", _TIED_PINNED)
    def test_agrees_with_the_fold(self, pi0, q0, q1, sigma, n, monkeypatch):
        """Every pinned error is within 2 ulp times the larger of N and its
        log of the fold's (0.44 measured), the kernel's own bound; the
        stationarity residual is within 16 N ulp of the fold's (2.3 N
        measured). Every agent's pair is the same."""
        config = NetworkConfig(pi0, CostPair(), ObservationModel(sigma=sigma), q0, (q1,) * n)
        kernel, fold = np.stack(pinned_fusion_errors(config)), np.stack(_fold_pinned_errors(config))
        assert (kernel == kernel[..., :1]).all()
        eps = np.finfo(float).eps
        assert (abs(kernel - fold) <= 2 * eps * np.maximum(n, -np.log(fold)) * fold).all()
        residual = stationarity_residual(config)
        monkeypatch.setattr(optimize, "pinned_fusion_errors", _fold_pinned_errors)
        folded = stationarity_residual(config)
        assert 0.0 < folded < math.inf
        assert abs(residual - folded) <= 16 * n * eps * folded

    @pytest.mark.parametrize("n", [21, 40, 66, 300, 2000])
    @pytest.mark.parametrize("pi0, q0, q1, sigma", _TIED_PINNED)
    @pytest.mark.parametrize("costs", [(1.0, 1.0), (1.0, 1.5)])
    def test_pinned_pairs_mix_to_the_risk(self, costs, pi0, q0, q1, sigma, n):
        """For every agent j, t_h p_{h,1} + (1 - t_h) p_{h,0}, with t_h the
        agent's decide-1 rate under H=h, is ``exact_risk``'s p_fa0 (h = 0)
        and p_md0 (h = 1): one Binomial(N - 1) mix against one Binomial(N)
        mix, within 4 ulp times the larger of N and the log of the value
        (0.62 measured)."""
        config = NetworkConfig(pi0, CostPair(*costs), ObservationModel(sigma=sigma), q0,
                               (q1,) * n)
        report = exact_risk(config)
        [(t0, t1, s0, s1)] = _local_tails(config.model, config.costs, [q1])
        fa, md = pinned_fusion_errors(config)
        for mixed, value in ((t0 * fa[1] + s0 * fa[0], report.p_fa0),
                             (t1 * md[1] + s1 * md[0], report.p_md0)):
            assert value > 1e-300
            ulp = 4 * max(n, -math.log(value)) * np.spacing(value)
            assert (abs(mixed - value) <= ulp).all()

    @pytest.mark.parametrize("sigma", [1e-200, 1e200])
    @pytest.mark.parametrize("n", [BINOMIAL_FROM + 1, 25, 300])
    def test_extreme_sigma_is_quiet_nan(self, sigma, n):
        """At a sigma whose fusion log factors are not finite, every pinned
        error and the stationarity residual are nan, as the fold's are, with
        no ``RuntimeWarning``."""
        config = _config(pi0=0.3, q0=0.7, q_local=(0.4,) * n, sigma=sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            errors = np.stack(pinned_fusion_errors(config))
            residual = stationarity_residual(config)
        assert np.isnan(errors).all() and np.isnan(np.stack(_fold_pinned_errors(config))).all()
        assert math.isnan(residual)

    def test_path_by_size_and_tie(self):
        """The kernel serves tied networks of ``BINOMIAL_FROM`` + 1 locals
        or more, with no leave-one-out pass; a tied network of
        ``BINOMIAL_FROM`` locals, whose other N - 1 fold, and one with a
        differing belief take the pass and no kernel call."""
        calls, sweeps = [], []
        kernel, sweep = network._binomial_pmf, network.pinned_fusion_sweep
        with mock.patch.object(network, "_binomial_pmf",
                               lambda *a: calls.append(a[3]) or kernel(*a)), \
                mock.patch.object(network, "pinned_fusion_sweep",
                                  lambda *a: sweeps.append(a[0].n_local) or sweep(*a)):
            for n in (BINOMIAL_FROM + 1, 3 * BINOMIAL_FROM):
                pinned_fusion_errors(_config(q_local=(0.3,) * n))
                assert (calls, sweeps) == ([n - 1], [])
                calls.clear()
            pinned_fusion_errors(_config(q_local=(0.3,) * BINOMIAL_FROM))
            beliefs = [0.3] * (3 * BINOMIAL_FROM)
            beliefs[BINOMIAL_FROM] = 0.30000000000000004
            pinned_fusion_errors(_config(q_local=beliefs))
        assert (calls, sweeps) == ([], [BINOMIAL_FROM, 3 * BINOMIAL_FROM])


_PINNED_BELIEFS = {"tied": lambda n: (0.35,) * n,
                   "heterogeneous": lambda n: tuple(0.2 + 0.07 * i for i in range(n))}


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

    @pytest.mark.parametrize("config, digest", [
        (NetworkConfig(0.3, CostPair(1.3, 0.8), ObservationModel(sigma=1.7), 0.45,
                       (0.3, 0.55, 0.7)),
         "7edc62ddd801b33fa9257e65c3ff9262f7321dd7c4327626d0d7768f48777259"),
        (NetworkConfig(0.4, CostPair(1.0, 2.0), ObservationModel(sigma=0.9), 0.6,
                       tuple(0.2 + 0.05 * i for i in range(12))),
         "59089f3dd0750c58086a2d8b42471514e1ad2fbce365ca9100dc055fe6d171c8"),
        (NetworkConfig(0.35, CostPair(), ObservationModel(sigma=1.2), 0.55, (0.42,) * 40),
         "35eded9932499a8b9bce3791fe9c66f5df8c062efaa477d3eec2633e4ec7ac46"),
    ], ids=["per-float", "array-fold", "binomial"])
    def test_repr_pinned(self, config, digest):
        """The whole report, per-count profile included, as ``repr`` prints
        it, on each path: per float (N = 3), the array fold (N = 12,
        heterogeneous) and the Binomial kernel (N = 40, tied)."""
        assert hashlib.sha256(repr(exact_risk(config)).encode()).hexdigest() == digest

    @pytest.mark.parametrize("sigma, costs, beliefs, digest", [
        (0.05, (1.0, 1.0), "tied", "943dfe5f8fb86a57be456bcb6f03f9edcc7a82b932f75f55c3bc7dd9a3c445a0"),
        (0.05, (1.0, 1.0), "heterogeneous",
         "e6604c16eab1faf18287f0db224835d8668ee77b968a3d48bf0117e185078563"),
        (0.05, (1.0, 4.0), "tied", "bc03bda9b0aae1c52f6b33d8d0ddce7e6e4393f451262f37d8d353f40aab2706"),
        (0.05, (1.0, 4.0), "heterogeneous",
         "52557b7f4877daafcb25debacaef9e79edfea437a5884270359275353e45e5b2"),
        (1.0, (1.0, 1.0), "tied", "29cdb5e7f4130f15c6f901b80921144aeefd15c61427b25ce6cff939f8a67575"),
        (1.0, (1.0, 1.0), "heterogeneous",
         "aeec9fdffb8a8b5f03e4065e8fe94ec07c02ca9ff555fd0ca4109e925d82e19a"),
        (1.0, (1.0, 4.0), "tied", "8c6cb917d4327a898f51e1ba65071d2e911bfebd8816c08a6bb5582449cbe9c2"),
        (1.0, (1.0, 4.0), "heterogeneous",
         "3d480aff43c422e050ff606474b87d456800a03a1092f7cc59ea1650d544c841"),
        (10.0, (1.0, 1.0), "tied", "47e0d096a10a51448aded284563f54095cb20e575df0d0aa644535a6e7fb9b9c"),
        (10.0, (1.0, 1.0), "heterogeneous",
         "ea69fa183e7648890d3545cf89b2f6994836900fa73f7bf02706264b85f612e9"),
        (10.0, (1.0, 4.0), "tied", "20b58ed439e149b70a006d8334fb407cc708f08e37bdeaa629c6bf1e6856f87b"),
        (10.0, (1.0, 4.0), "heterogeneous",
         "a6067ffba7b47d47f4715dd58117406367224b20562e5bfe3063f5dd2fef8682"),
    ])
    def test_small_networks_pinned(self, sigma, costs, beliefs, digest):
        """The report (its per-count log-odds and thresholds included) and
        ``pinned_fusion_errors`` of every size from 1 to 9 locals, both sides
        of ``PER_FLOAT_BELOW``, as one SHA-256 over their reprs and bytes."""
        sha = hashlib.sha256()
        for n in range(1, 10):
            config = NetworkConfig(0.3, CostPair(*costs), ObservationModel(sigma=sigma), 0.45,
                                   _PINNED_BELIEFS[beliefs](n))
            sha.update(repr(exact_risk(config)).encode())
            for errors in pinned_fusion_errors(config):
                sha.update(errors.tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("sigma", [1e-200, 1e200])
    @pytest.mark.parametrize("costs", [(1.0, 1.0), (1.0, 4.0)])
    @pytest.mark.parametrize("beliefs", ["tied", "heterogeneous"])
    def test_extreme_sigma_is_quiet_nan(self, sigma, costs, beliefs):
        """At a sigma whose fusion log factors are not finite, a network of
        up to 7 locals reports nan throughout, with no ``RuntimeWarning``."""
        for n in range(1, 8):
            config = NetworkConfig(0.3, CostPair(*costs), ObservationModel(sigma=sigma), 0.45,
                                   _PINNED_BELIEFS[beliefs](n))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                report = exact_risk(config)
            counts = ", ".join(f"({k}, nan, nan)" for k in range(n + 1))
            assert repr(report) == f"RiskReport(r0=nan, p_fa0=nan, p_md0=nan, per_count=({counts}))"

    def test_report_keeps_two_arrays(self):
        """A report keeps its profile as two arrays of N + 1 doubles, 32 KB at
        N = 2000, and no tuple of per-count triples (about 140 bytes a count)."""
        rng = np.random.default_rng(2000)
        cfg = _config(q_local=tuple(rng.uniform(0.2, 0.8, 2000)))
        exact_risk(cfg)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = exact_risk(cfg)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 64 * 1024
        assert report.r0 > 0.0

    @pytest.mark.parametrize("n", [PER_FLOAT_BELOW - 1, PER_FLOAT_BELOW, BINOMIAL_FROM])
    def test_profile_arrays_read_only_and_own(self, n):
        """Each profile array owns its N + 1 doubles, so it keeps no larger
        table of the call alive, and neither can be written."""
        report = exact_risk(_config(q_local=(0.3,) * n))
        for values in (report.log_odds, report.thresholds):
            assert values.shape == (n + 1,) and values.dtype == np.float64
            assert values.base is None and not values.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(sigma=st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e), c_fa=st.floats(0.3, 3.0),
           c_md=st.floats(0.3, 3.0), q0=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           n=st.sampled_from([1, PER_FLOAT_BELOW - 1, PER_FLOAT_BELOW, PER_FLOAT_BELOW + 1,
                              BINOMIAL_FROM - 1, BINOMIAL_FROM, BINOMIAL_FROM + 1]),
           tied=st.booleans(), data=st.data())
    def test_per_count_matches_reference(self, sigma, c_fa, c_md, q0, n, tied, data):
        """``per_count`` is rebuilt from the array path's per-count log-odds
        and thresholds, the same ints and doubles on every path: per float
        and array fold, tied and not, Binomial kernel included."""
        belief = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        beliefs = data.draw(st.lists(belief, min_size=1 if tied else n, max_size=1 if tied else n))
        model, costs = ObservationModel(sigma=sigma), CostPair(c_fa, c_md)
        cfg = NetworkConfig(0.3, costs, model, q0, beliefs * n if tied else beliefs)
        _, _, ell, lam = _fusion_count_errors(model, costs, clamped_log_odds(q0), n)
        reference = tuple(zip(range(n + 1), from_log_odds(ell).tolist(), lam.tolist()))
        assert repr(exact_risk(cfg).per_count) == repr(reference)

    def test_equal_and_hash_see_the_profile(self):
        """Two reports are equal, and hash alike, when their risks and
        ``per_count`` are; a report of another fusion belief is not equal."""
        first, second = (exact_risk(_config(q0=0.45, q_local=(0.3, 0.6))) for _ in range(2))
        assert first == second and hash(first) == hash(second)
        assert hash(first) == hash((first.r0, first.p_fa0, first.p_md0, first.per_count))
        assert first != exact_risk(_config(q0=0.46, q_local=(0.3, 0.6)))
        assert first != (first.r0, first.p_fa0, first.p_md0, first.per_count)

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
    ell = np.vectorize(clamped_log_odds, otypes=[float])(beliefs)
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


def _per_float_rate_columns(model, costs, ell):
    """``_rate_columns`` one float at a time: ``per_float_rates``' decision
    tails of each log-odds, agents first, in the array path's layout."""
    moved = np.moveaxis(ell, -1, 0)[..., None]
    tails = np.array(list(zip(*map(per_float_rates(model, costs)[0], moved.ravel().tolist()))))
    rates = tails.reshape((2, 2) + moved.shape).swapaxes(1, 2)
    return rates[0], rates[1]


def _per_float_count_errors(model, costs, ell0, n):
    """The false alarms and missed detections of ``_fusion_count_errors``
    one float at a time: ``per_float_rates``' ``count_errors`` of each
    fusion log-odds at each size, in the array path's layout."""
    ell0 = np.asarray(ell0)
    sizes = n if isinstance(n, list) else [n]
    count_errors = per_float_rates(model, costs)[1]
    pairs = [count_errors(e0, size)[2:] for e0 in ell0.ravel().tolist() for size in sizes]
    return tuple(np.array([x for pair in pairs for x in pair[h]]).reshape(ell0.shape + (-1,))
                 for h in (0, 1))


def _both_paths(function, *args):
    """``function(*args)`` with every input on the array path, then with
    the size rule as it stands."""
    with mock.patch.object(network, "PER_FLOAT_BELOW", 0):
        array_path = function(*args)
    return array_path, function(*args)


def _assert_same_arrays(array_path, per_float, layout=True):
    """Equal values, nan where nan, and with ``layout`` the same strides: a
    strided operand can change the last bit of a later ``@``."""
    assert len(array_path) == len(per_float)
    for a, b in zip(array_path, per_float):
        assert a.shape == b.shape
        assert a.strides == b.strides or not layout
        np.testing.assert_array_equal(a, b)


_EDGE = math.log1p(-BELIEF_EPS) - math.log(BELIEF_EPS)

# Beliefs anywhere in (0, 1), out past the clamp edges.
_BELIEFS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def _small_networks(draw):
    """Networks of 1 to 2 * PER_FLOAT_BELOW locals, sigma in [1e-3, 1e2]."""
    n = draw(st.integers(1, 2 * PER_FLOAT_BELOW))
    return NetworkConfig(draw(st.floats(0.01, 0.99)),
                         CostPair(draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))),
                         ObservationModel(sigma=10.0 ** draw(st.floats(-3.0, 2.0))),
                         draw(_BELIEFS), draw(st.lists(_BELIEFS, min_size=n, max_size=n)))


def _two_passes(config, revised):
    """The pinned errors every agent sees, as rows of (j, pinned0, pinned1),
    over a ``pinned_fusion_sweep`` that moves agent j to ``revised[j - 1]``
    and a second pass, from its beliefs, that keeps them; then the beliefs
    each pass returns."""
    seen = []

    def revising_to(beliefs):
        def revise(j, pinned0, pinned1):
            seen.append((j, *pinned0, *pinned1))
            return beliefs[j - 1]
        return revise

    first = pinned_fusion_sweep(config, revising_to(revised))
    second = pinned_fusion_sweep(dataclasses.replace(config, q_local=first), revising_to(first))
    return np.array(seen, dtype=float), first, second


class TestPerFloatPath:
    """Networks of fewer than ``PER_FLOAT_BELOW`` agents go one float at a
    time in the leave-one-out pass, with the array path's doubles; both are
    checked on sizes on both sides of the constant, and each scalar helper
    against its array twin with one and two leading axes."""

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
        _assert_same_arrays(_rate_columns(model, costs, ell),
                            _per_float_rate_columns(model, costs, ell), layout=rows in (None, 1))

    @settings(max_examples=60, deadline=None)
    @given(network_config=_small_networks())
    def test_local_tails(self, network_config):
        """``_local_tails`` gives each local's ``_local_rates`` columns as
        four floats, (p(1|0), p(1|1), p(0|0), p(0|1))."""
        model, costs, beliefs = network_config.model, network_config.costs, network_config.q_local
        p_cols, q_cols = _local_rates(model, costs, beliefs)
        columns = np.concatenate([p_cols[..., 0], q_cols[..., 0]], axis=1)
        assert np.array(_local_tails(model, costs, beliefs)).tobytes() == columns.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(sigma=st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e),
           c_fa=st.floats(0.3, 3.0), c_md=st.floats(0.3, 3.0),
           ell0=st.one_of(st.floats(-_EDGE, _EDGE),
                          st.lists(st.floats(-_EDGE, _EDGE), min_size=1, max_size=3)),
           n=st.one_of(st.integers(0, 2 * PER_FLOAT_BELOW),
                       st.lists(st.integers(1, PER_FLOAT_BELOW), min_size=1, max_size=3,
                                unique=True).map(sorted)))
    def test_fusion_count_errors(self, sigma, c_fa, c_md, ell0, n):
        """The per-count errors ``optimize``'s evaluator and the per-float
        leave-one-out pass take; the log-odds and thresholds have no
        per-float form, and ``TestExactRisk`` pins them."""
        model, costs = ObservationModel(sigma=sigma), CostPair(c_fa, c_md)
        _assert_same_arrays(_fusion_count_errors(model, costs, ell0, n)[:2],
                            _per_float_count_errors(model, costs, ell0, n))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_row_sum_is_numpy_reduce(self, data):
        """The per-float pass sums a row of products in ``np.add.reduce``'s
        order at every length it meets, 1 to ``PER_FLOAT_BELOW - 1``; a
        larger constant brings rows that ``_dot``'s left-to-right sum may
        not match."""
        for n in range(1, PER_FLOAT_BELOW):
            a, b = (data.draw(st.lists(st.floats(0.0, 1.0).map(lambda x: x ** 9), min_size=n,
                                       max_size=n)) for _ in range(2))
            row = np.array([a, a[::-1]]) * np.array([b, b[::-1]])
            assert network._dot(a, b) == np.add.reduce(row, axis=-1)[0]
            assert network._dot(a[::-1], b[::-1]) == np.add.reduce(row, axis=-1)[1]

    @settings(max_examples=60, deadline=None)
    @given(network_config=_small_networks())
    def test_count_distribution(self, network_config):
        """``fold_agent``, the evaluator's fold, folds a whole network to
        ``count_distribution``'s array fold."""
        model, costs, beliefs = network_config.model, network_config.costs, network_config.q_local
        per_float = functools.reduce(network.fold_agent, _local_tails(model, costs, beliefs),
                                     network.NO_AGENTS)
        _assert_same_arrays(count_distribution(network_config), np.array(per_float))

    @settings(max_examples=60, deadline=None)
    @given(network_config=_small_networks())
    def test_exact_risk(self, network_config):
        """The per-float pipeline of ``optimize``'s evaluator, ``fold_agent``
        pmfs mixed left to right (``_dot``) with ``count_errors``, gives
        ``exact_risk``'s errors below 8 counts (N <= 6); ``mix`` of the same
        floats gives them at every size."""
        config = network_config
        model, costs, n = config.model, config.costs, config.n_local
        pmfs = functools.reduce(network.fold_agent, _local_tails(model, costs, config.q_local),
                                network.NO_AGENTS)
        errors = _per_float_count_errors(model, costs, log_odds(config.q0), n)
        report = exact_risk(config)
        got = [report.p_fa0, report.p_md0]
        np.testing.assert_array_equal(got, network.mix(np.array(pmfs), np.array(errors)))
        if n < 7:
            np.testing.assert_array_equal(got, list(map(network._dot, pmfs, errors)))

    @settings(max_examples=60, deadline=None)
    @given(network_config=_small_networks())
    def test_pinned_fusion_errors(self, network_config):
        """The pass's per-float row sums keep ``np.add.reduce``'s order only
        below the constant (``test_row_sum_is_numpy_reduce``), so its
        per-float side takes the size rule as it stands."""
        _assert_same_arrays(*_both_paths(pinned_fusion_errors, network_config))

    @settings(max_examples=60, deadline=None)
    @given(network_config=_small_networks(), data=st.data())
    def test_revising_pinned_fusion_sweep(self, network_config, data):
        """A pass that revises some beliefs, then a pass from the beliefs it
        returned, see the same pinned errors (per float below the constant,
        as in ``test_pinned_fusion_errors``)."""
        n = network_config.n_local
        revised = data.draw(st.lists(st.one_of(st.none(), _BELIEFS), min_size=n, max_size=n))
        revised = [q if r is None else r for q, r in zip(network_config.q_local, revised)]
        array_path, per_float = _both_paths(_two_passes, network_config, revised)
        assert array_path[1:] == per_float[1:]
        np.testing.assert_array_equal(array_path[0], per_float[0])

    @pytest.mark.parametrize("length", range(1, 18))
    def test_fold_agent_equals_array_fold(self, length):
        """``fold_agent`` folds one agent into count pmfs of any length with
        the doubles of ``_fold_agents``, zero and subnormal entries and
        rates included."""
        rng = np.random.default_rng(length)
        values = [0.0, 5e-324, 3e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0]
        for _ in range(40):
            pool = np.concatenate([values, rng.uniform(size=8)])
            pmfs = rng.choice(pool, size=(2, length))
            t0, t1, s0, s1 = (float(x) for x in rng.choice(pool, size=4))
            array = np.zeros((2, length + 1))
            array[:, :length] = pmfs
            network._fold_agents(array, [np.array([[t0], [t1]])], [np.array([[s0], [s1]])],
                                 length - 1)
            folded = np.array(network.fold_agent(pmfs.tolist(), (t0, t1, s0, s1)))
            assert folded.tobytes() == array.tobytes()

    def test_default_path_by_size(self, benchmark_template):
        """Each side of the constant takes its path unpatched in the
        leave-one-out pass, and ``exact_risk`` takes its per-count errors and
        its count pmf from the array path on both."""
        model, costs = benchmark_template.model, benchmark_template.costs
        sizes, agents = [], []
        arrays, pmf = network._fusion_count_errors, network._poisson_binomial_pmf
        with mock.patch.object(network, "_fusion_count_errors",
                               lambda *a: sizes.append(a[3]) or arrays(*a)), \
                mock.patch.object(network, "_poisson_binomial_pmf",
                                  lambda *a: agents.append(len(a[0])) or pmf(*a)):
            for n in (PER_FLOAT_BELOW - 1, PER_FLOAT_BELOW):
                sizes.clear()
                agents.clear()
                exact_risk(_config(q_local=(0.3,) * n))
                assert (sizes, agents) == ([n], [n])
        folds = []
        fold = network.fold_agent
        with mock.patch.object(network, "fold_agent", lambda *a: folds.append(a) or fold(*a)):
            for n, per_float in ((PER_FLOAT_BELOW - 1, True), (PER_FLOAT_BELOW, False)):
                config = _config(q_local=(0.3,) * n)
                folds.clear()
                count_distribution(config)
                assert folds == []
                pinned_fusion_errors(config)
                assert bool(folds) == per_float
            # Two rows, or one row in each of two blocks, take the array path.
            for blocks in ([([0.5], [[0.3], [0.4]])], [([0.5], [[0.3]]), ([0.5], [[0.4]])]):
                list(fusion_error_rates(model, costs, blocks))
            assert folds == []


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

    def test_equals_exact_risk_where_both_fold(self):
        """``batch_risk`` and ``exact_risk`` mix count pmfs with the same
        ``network.mix``, so wherever both fold the count pmf (N below
        ``BINOMIAL_FROM``, and untied networks above it) the risks are one
        double."""
        rng = np.random.default_rng(34)
        sizes = [(n, tied) for n in range(1, BINOMIAL_FROM) for tied in (True, False)] * 8
        sizes += [(n, False) for n in (20, 27, 64, 150)]
        for n, tied in sizes:
            template = NetworkTemplate(float(rng.uniform(0.02, 0.98)),
                                       CostPair(float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0))),
                                       ObservationModel(sigma=float(np.exp(rng.uniform(-1.2, 1.1)))), n)
            q0 = float(rng.uniform(0.02, 0.98))
            q_local = [float(rng.uniform(0.02, 0.98))] * n if tied else rng.uniform(0.02, 0.98, n)
            r0 = exact_risk(template.config(q0, q_local)).r0
            assert r0 == batch_risk(template, [q0], [q_local])[0, 0], (n, tied)

    @pytest.mark.parametrize("shape", ["tied", "full", "contour", "scan"])
    def test_flat_unique_inverse(self, shape, monkeypatch):
        """``np.unique``'s inverse comes back flat on NumPy 1 and in the
        input's shape on NumPy 2; the risks are the same either way."""
        rng = np.random.default_rng(7)
        n, q0, q_local = _shape_case(shape, rng)
        template = NetworkTemplate(0.3, CostPair(1.0, 2.0), ObservationModel(sigma=0.7), n)
        expected = batch_risk(template, q0, q_local)
        unique = np.unique

        def flat_inverse(q, return_inverse):
            values, where = unique(q, return_inverse=return_inverse)
            return values, where.ravel()

        monkeypatch.setattr(np, "unique", flat_inverse)
        assert batch_risk(template, q0, q_local).tobytes() == expected.tobytes()

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
            assert [piece[:2] for piece in together] == [(b, 0) for b in range(len(blocks))]
            for (q0, q_local), (_, _, rates) in zip(blocks, together):
                [(_, _, alone)] = fusion_error_rates(template.model, template.costs, [(q0, q_local)])
                assert [r.tobytes() for r in rates] == [r.tobytes() for r in alone]
                risks = bayes_risk(template.pi0, template.costs, *rates)
                assert risks.tobytes() == batch_risk(template, q0, q_local).tobytes()

    def test_count_pmfs_bounded(self):
        """A piece's count pmfs, N + 1 entries a row, count against
        ``BATCH_CHUNK_ROWS``: one fusion belief against 20,000 tied rows at
        N = 100 (a broadcast view, so the input costs nothing) peaks near
        10 MB, where pieces of (fusion belief, local row) pairs alone peaked
        at 97 MB."""
        template = NetworkTemplate(0.3, CostPair(), ObservationModel(), 100)
        rows = np.broadcast_to(np.linspace(0.2, 0.8, 20_000)[:, None], (20_000, 100))
        batch_risk(template, [0.5], rows[:10])
        tracemalloc.start()
        try:
            batch_risk(template, [0.5], rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

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
        assert [r.tobytes() for _, _, pair in got for r in pair] == [
            r.tobytes() for _, _, pair in expected for r in pair]

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

    @pytest.mark.parametrize("blocks", [[([0.5], np.empty((2, 0)))], [([0.5], np.empty((1, 0)))],
                                        [([0.5], np.empty(0))], []])
    def test_no_locals_rejected(self, blocks):
        """No rows of local beliefs, or rows of none, are refused in words,
        not with an IndexError from the count fold."""
        with pytest.raises(ValueError, match="at least one local belief"):
            list(fusion_error_rates(ObservationModel(), CostPair(), blocks))

    @pytest.mark.parametrize("width", [1, 3])
    def test_block_width_must_match_the_first(self, width):
        blocks = [([0.5], [[0.3, 0.4]]), ([0.5], np.full((2, width), 0.3))]
        with pytest.raises(ValueError, match=f"^expected 2 local belief columns, got {width}$"):
            list(fusion_error_rates(ObservationModel(), CostPair(), blocks))

    def test_prior_free(self):
        """The rates mix the count pmfs with no prior: p_fa0 and p_md0 are
        exact_risk's at any prior."""
        template = NetworkTemplate(0.5, CostPair(), ObservationModel(sigma=0.8), 3)
        [(_, _, (p_fa0, p_md0))] = fusion_error_rates(template.model, template.costs,
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

    @pytest.mark.parametrize("sizes, message", [
        ([2.9], "sizes[0]=2.9 is not an integer"),
        ([1, 2, 3.0], "sizes[2]=3.0 is not an integer"),
        ([False, 1], "sizes[0]=False is not an integer"),
    ], ids=["fraction", "whole-float", "bool"])
    def test_non_integer_size_refused(self, monkeypatch, sizes, message):
        """2.9 gave the risk of 2 locals; a size that is not an integer now
        raises, naming it, before any rate is computed."""
        monkeypatch.setattr(network, "_local_tails", lambda *args: pytest.fail("computed"))
        with pytest.raises(ValueError) as raised:
            tied_exact_risks(0.3, CostPair(), ObservationModel(), 0.5, 0.5, sizes)
        assert str(raised.value) == message


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

    @pytest.mark.parametrize("n_local", [2.5, 2.0, True, False, "3", None])
    def test_n_local_must_be_an_integer(self, n_local):
        """A float, a bool or a string is refused up front, naming the field,
        before it can reach a kernel (2.5 died in ``pbpo_exact`` with a
        TypeError and True ran as N = 1)."""
        with pytest.raises(ValueError, match=f"^n_local={n_local!r} is not an integer$"):
            NetworkTemplate(0.3, CostPair(), ObservationModel(), n_local)

    def test_numpy_integer_n_local_accepted(self):
        template = NetworkTemplate(0.3, CostPair(), ObservationModel(), np.int64(3))
        assert template.tied(0.6, 0.4) == NetworkTemplate(0.3, CostPair(), ObservationModel(),
                                                          3).tied(0.6, 0.4)

    def test_template_round_trip(self):
        template = NetworkTemplate(0.3, CostPair(), ObservationModel(), 3)
        cfg = template.tied(0.6, 0.4)
        assert cfg.q_local == (0.4, 0.4, 0.4)
        with pytest.raises(ValueError):
            template.config(0.6, (0.4, 0.4))
