import math
import os
import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from starfuse import (
    CostPair,
    ExponentFit,
    NetworkConfig,
    ObservationModel,
    PhaseRegion,
    SimulationSpec,
    classify_phase,
    estimate_exponent,
    exact_risk,
    gaussian_q,
    optimal_exponent,
    simulate,
    threshold_from_belief,
    update_belief_count,
)
from starfuse import montecarlo
from starfuse.montecarlo import _count_trials, _uniform_cutoffs
from starfuse.observation import decides_one
from conftest import random_config


def _config(pi0=0.3, q0=0.5, q_local=(0.5, 0.5), sigma=1.0, c_fa=1.0, c_md=1.0):
    return NetworkConfig(pi0, CostPair(c_fa, c_md), ObservationModel(sigma=sigma), q0, q_local)


def _chunk_trials(spec, trials):
    """Patch ``simulate``'s uniform budget to ``trials`` trials of ``spec``:
    one chunk of that many trials on one worker, a share of it on each of
    several."""
    return mock.patch.object(montecarlo, "CHUNK_UNIFORMS", trials * (spec.config.n_local + 1))


def _usable_cpus(count):
    """Patch the CPU set this process may run on to ``count`` CPUs."""
    return mock.patch.object(os, "sched_getaffinity", return_value=set(range(count)))


def _cutoffs(cfg):
    """The (2, N) local and (2, N + 1) fusion cutoff tables ``simulate`` counts with."""
    lam_local = np.array([threshold_from_belief(cfg.model, cfg.costs, q) for q in cfg.q_local])
    lam_fusion = np.array([lam for _, _, lam in exact_risk(cfg).per_count])
    with np.errstate(invalid="ignore"):
        return _uniform_cutoffs(cfg.model, lam_local), _uniform_cutoffs(cfg.model, lam_fusion)


def _inverse_cdf_decisions(cfg, seed, h0_trials, first, stop):
    """(hypothesis, fusion decision) of each trial in [first, stop), the
    direct way: trials below ``h0_trials`` under H=0, the rest under H=1,
    and every signal drawn as h + sigma*ndtri(u) from the N + 1 uniforms at
    position t*(N + 1) of stream 1 of the seed and compared with its
    threshold."""
    n = cfg.n_local
    lam_local = np.array([threshold_from_belief(cfg.model, cfg.costs, q) for q in cfg.q_local])
    lam_fusion = np.array([lam for _, _, lam in exact_risk(cfg).per_count])
    bitgen = np.random.PCG64DXSM(np.random.SeedSequence([int(seed), 1]))
    bitgen.advance(first * (n + 1))
    u = np.random.Generator(bitgen).random((stop - first, n + 1))
    h = np.arange(first, stop) >= h0_trials
    y = h.astype(float)[:, None] + cfg.model.sigma * ndtri(u)
    counts = np.count_nonzero(y[:, 1:] > lam_local[None, :], axis=1)
    return h, y[:, 0] > lam_fusion[counts]


def _inverse_cdf_counts(spec, chunk_size):
    """(fa, md, h1) counts of ``simulate`` computed the direct way: the H=1
    count drawn from Binomial(trials, 1 - pi0) on stream 0 of the seed, then
    ``_inverse_cdf_decisions`` chunk by chunk, each chunk from its own
    advanced stream. The reference the cutoff form must match."""
    cfg = spec.config
    rng = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence([int(spec.seed), 0])))
    h1 = int(rng.binomial(spec.trials, 1.0 - cfg.pi0))
    fa = md = 0
    for start in range(0, spec.trials, chunk_size):
        h, decide_one = _inverse_cdf_decisions(cfg, spec.seed, spec.trials - h1, start,
                                               min(start + chunk_size, spec.trials))
        fa += int(np.count_nonzero(decide_one & ~h))
        md += int(np.count_nonzero(~decide_one & h))
    return fa, md, h1


def _per_size_estimate(pi0, costs, model, q0, q1, n_list):
    """``estimate_exponent`` with one ``NetworkConfig`` and one ``exact_risk``
    per size, as it was before one fold served the whole ladder."""
    n_list = [int(n) for n in n_list]
    cls = classify_phase(model, costs, q0, q1, pi0)
    limit = cls.limit_risk
    risks = [exact_risk(NetworkConfig(pi0, costs, model, q0, (q1,) * n)).r0 for n in n_list]
    residuals = [abs(r - limit) for r in risks]
    floor = 64.0 * np.finfo(float).eps * max(1.0, limit, max(risks))
    keep = next((idx for idx, res in enumerate(residuals) if res <= floor), len(residuals))
    ns = np.asarray(n_list[:keep], dtype=float)
    y = -np.log(np.asarray(residuals[:keep]))
    slope, intercept = np.polyfit(ns, y, 1)
    fitted = slope * ns + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return float(slope), ExponentFit(
        beta_hat=float(slope), intercept=float(intercept),
        r_squared=1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0,
        n_used=tuple(n_list[:keep]), risks=tuple(float(r) for r in risks), limit=limit,
        region=cls.region, truncated=keep < len(residuals))


# Beliefs from both deep tails as well as the middle of (0, 1).
_BELIEFS = st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 1.0 - 1e-3),
                     st.floats(1.0 - 1e-3, 1.0 - 1e-9))


class TestUniformCutoffs:
    @given(n=st.integers(1, 40), sigma=st.floats(0.05, 20.0), pi0=st.floats(0.02, 0.98),
           q0=_BELIEFS, beliefs=st.lists(_BELIEFS, min_size=40, max_size=40),
           c_fa=st.floats(0.2, 5.0), seed=st.integers(0, 2**64 - 1),
           trials=st.integers(2, 20_000), chunk_size=st.sampled_from([257, 1000, 7919, 65536]))
    @settings(max_examples=100, deadline=None)
    def test_counts_equal_inverse_cdf_draws(self, n, sigma, pi0, q0, beliefs, c_fa, seed,
                                            trials, chunk_size):
        cfg = _config(pi0=pi0, q0=q0, q_local=tuple(beliefs[:n]), sigma=sigma, c_fa=c_fa)
        spec = SimulationSpec(cfg, trials=trials, seed=seed)
        with np.errstate(all="ignore"):
            with _chunk_trials(spec, chunk_size):
                result = simulate(spec)
            expected = _inverse_cdf_counts(spec, chunk_size)
        assert (result.fa_count, result.md_count, result.h1_trials) == expected

    @pytest.mark.parametrize("sigma", [0.05, 1.0, 20.0])
    def test_cutoff_is_the_first_passing_draw(self, sigma):
        lam = np.array([-np.inf, -1e6, -40.0, -1.0, 0.0, 0.5, 1.0, 3.0, 40.0, 1e6, np.inf, np.nan])
        model = ObservationModel(sigma=sigma)
        cut = _uniform_cutoffs(model, lam)
        assert cut.shape == (2, len(lam))
        assert ((cut > 0.0) & (cut <= 1.0)).all()
        for h in (0, 1):
            below = np.nextafter(cut[h], 0.0)
            with np.errstate(invalid="ignore"):
                assert not decides_one(model, float(h), below, lam).any()
                assert decides_one(model, float(h), cut[h], lam)[:-2].all()
        # Thresholds no signal exceeds (+inf, nan) never pass below 1.
        assert (cut[:, -2:] == 1.0).all()


class TestWorkers:
    @given(n=st.integers(1, 40), sigma=st.floats(0.05, 20.0), pi0=st.floats(0.02, 0.98),
           q0=_BELIEFS, beliefs=st.lists(_BELIEFS, min_size=40, max_size=40),
           seed=st.integers(0, 2**64 - 1), trials=st.integers(1, 5_000),
           chunk_size=st.sampled_from([1, 7, 100, 4096]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_partition_counts_sum_to_one_pass(self, n, sigma, pi0, q0, beliefs, seed, trials,
                                              chunk_size, data):
        """Each contiguous slice counted from its own advanced stream sums to
        the counts of the whole range in one pass, wherever the H=0/H=1
        boundary falls."""
        cfg = _config(pi0=pi0, q0=q0, q_local=tuple(beliefs[:n]), sigma=sigma)
        cut_local, cut_fusion = _cutoffs(cfg)
        h0_trials = data.draw(st.integers(0, trials))
        cuts = data.draw(st.lists(st.integers(1, trials - 1), max_size=6, unique=True)
                         if trials > 1 else st.just([]))
        bounds = [0, *sorted(cuts), trials]

        def count(first, stop):
            return _count_trials(seed, h0_trials, cut_local, cut_fusion, chunk_size, first, stop)

        parts = [count(a, b) for a, b in zip(bounds, bounds[1:])]
        assert tuple(sum(c) for c in zip(*parts)) == count(0, trials)

    def test_same_result_on_any_cpu_count(self):
        spec = SimulationSpec(_config(q0=0.7372, q_local=(0.396,) * 5), trials=40_001, seed=12)
        results = set()
        with _chunk_trials(spec, 3_000):
            for cpus in (1, 2, 5):
                with _usable_cpus(cpus):
                    results.add(simulate(spec))
        assert len(results) == 1

    def test_cpu_count_used_without_an_affinity_call(self, monkeypatch):
        spec = SimulationSpec(_config(), trials=20_000, seed=4)
        expected = simulate(spec)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        with _chunk_trials(spec, 1_000):
            assert simulate(spec) == expected

    def test_memory_does_not_grow_with_cpu_count(self):
        """The workers share one budget of uniforms, so simulating 200 agents
        on 16 CPUs peaks at a few MB, as on one CPU."""
        spec = SimulationSpec(_config(q_local=(0.45,) * 200), trials=20_000, seed=3)
        peaks = []
        for cpus in (1, 16):
            with _usable_cpus(cpus):
                tracemalloc.start()
                try:
                    simulate(spec)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert max(peaks) < 4e6

    def test_no_thread_outlives_the_call(self):
        spec = SimulationSpec(_config(), trials=50_000, seed=5)
        baseline = threading.active_count()
        with _chunk_trials(spec, 2_000), _usable_cpus(5):
            simulate(spec)
        assert threading.active_count() == baseline

    def test_worker_exception_propagates(self):
        """The signal stream's bit generator fails on every thread but the
        caller's, so the hypothesis count is drawn and each worker raises."""
        spec = SimulationSpec(_config(), trials=50_000, seed=5)
        bit_generator = np.random.PCG64DXSM

        def off_the_caller(seed_seq):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("boom")
            return bit_generator(seed_seq)

        with _chunk_trials(spec, 2_000), _usable_cpus(2), \
                mock.patch.object(np.random, "PCG64DXSM", side_effect=off_the_caller):
            with pytest.raises(RuntimeError, match="boom"):
                simulate(spec)


class TestHypothesisSplit:
    """Trials [0, h0_trials) are under H=0 and the rest under H=1, and a
    worker's slice may lie in one run or straddle the boundary."""

    @staticmethod
    def _every_split(spec, chunks):
        """``simulate`` on 1 to 3 CPUs at each chunk size of ``chunks``, all
        equal to the direct draws; returns the one result."""
        results = set()
        for cpus in (1, 2, 3):
            for chunk in chunks:
                with _usable_cpus(cpus), _chunk_trials(spec, chunk):
                    results.add(simulate(spec))
        (result,) = results
        with np.errstate(all="ignore"):
            expected = _inverse_cdf_counts(spec, 1_000)
        assert (result.fa_count, result.md_count, result.h1_trials) == expected
        assert result.h0_trials + result.h1_trials == result.trials
        return result

    @pytest.mark.parametrize("pi0, h1_trials", [(1e-300, 3_000), (1.0 - 1e-12, 0)])
    def test_one_hypothesis_gets_every_trial(self, pi0, h1_trials):
        spec = SimulationSpec(_config(pi0=pi0, q0=0.6, q_local=(0.4, 0.7)), trials=3_000, seed=21)
        result = self._every_split(spec, (1, 7, 1_000, 3_000))
        assert result.h1_trials == h1_trials
        assert (result.md_count if h1_trials == 0 else result.fa_count) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_one_trial(self, seed):
        """One trial has no standard error, so the spec refuses it; two
        trials, the fewest it takes, split as the direct draws do."""
        config = _config(pi0=0.5, q0=0.6, q_local=(0.4, 0.7, 0.5))
        with pytest.raises(ValueError, match="^trials 1 is below 2: fewer than 2 trials have no "
                                             "standard error$"):
            SimulationSpec(config, trials=1, seed=seed)
        result = self._every_split(SimulationSpec(config, trials=2, seed=seed), (1, 2, 5))
        assert result.fa_count + result.md_count <= 2

    def test_counts_over_workers_and_chunks(self):
        spec = SimulationSpec(_config(q0=0.7372, q_local=(0.396,) * 3), trials=2_001, seed=8)
        result = self._every_split(spec, (1, 2, 333, 1_000, 2_001))
        assert 0 < result.h0_trials < result.trials

    @pytest.mark.parametrize("first, stop", [
        (0, 40), (5, 33),  # wholly under H=0
        (40, 100), (57, 91),  # wholly under H=1
        (0, 100), (30, 70), (39, 41),  # straddling the boundary
        (39, 40), (40, 41),  # one trial on either side of it
    ])
    @pytest.mark.parametrize("chunk_size", [1, 3, 64])
    def test_slice_counts_equal_direct_draws(self, first, stop, chunk_size):
        cfg = _config(pi0=0.4, q0=0.6, q_local=(0.4, 0.55, 0.7))
        h, decide_one = _inverse_cdf_decisions(cfg, 77, 40, first, stop)
        expected = (int(np.count_nonzero(decide_one & ~h)), int(np.count_nonzero(~decide_one & h)))
        assert _count_trials(77, 40, *_cutoffs(cfg), chunk_size, first, stop) == expected

    @pytest.mark.parametrize("n, sigma", [(1, 1.0), (2, 1.0), (8, 1.5), (9, 1.5), (16, 2.0),
                                          (17, 2.0), (20, 2.0), (200, 4.0), (255, 4.0),
                                          (256, 4.0), (600, 8.0)])
    @pytest.mark.parametrize("chunk_size", [1, 3, 64])
    def test_slice_counts_equal_direct_draws_at_any_width(self, n, sigma, chunk_size):
        """The counts of networks on both sides of ``_COLUMN_LOOP_MAX_N``; of
        255 and 256 locals, whose counts fill a byte and overflow it, on the
        two sides of ``np.min_scalar_type``'s uint8/uint16 switch; and of 600
        locals, most of whose trials count more ones than a byte holds, in
        slices wholly on one side of the H=0/H=1 boundary at trial 200 and
        straddling it, equal the direct draws; the whole range errs under
        both hypotheses."""
        cfg = _config(pi0=0.4, q0=0.5, q_local=tuple(0.45 + 0.1 * i / n for i in range(n)),
                      sigma=sigma)
        cuts = _cutoffs(cfg)
        for first, stop in [(0, 400), (150, 250), (199, 201), (199, 200), (200, 201), (0, 200),
                            (200, 400)]:
            h, decide_one = _inverse_cdf_decisions(cfg, 77, 200, first, stop)
            expected = (int(np.count_nonzero(decide_one & ~h)),
                        int(np.count_nonzero(~decide_one & h)))
            assert _count_trials(77, 200, *cuts, chunk_size, first, stop) == expected, (first, stop)
            if (first, stop) == (0, 400):
                assert min(expected) > 0


class TestHypothesisRates:
    """The per-hypothesis error rates, pooled over seeds fixed before the
    first run, against ``exact_risk``'s conditional errors; and the H=1
    count against its binomial law. Every z score is bounded by 4."""

    SEEDS = (101, 202, 303, 404)
    TRIALS = 250_000
    Z_BOUND = 4.0

    @pytest.mark.parametrize("cfg", [
        _config(pi0=0.3, q0=0.6, q_local=(0.4, 0.55, 0.7), sigma=1.2),
        _config(pi0=0.55, q0=0.45, q_local=tuple(0.3 + 0.02 * i for i in range(20)), c_fa=1.5),
    ], ids=["n3-column-loop", "n20-row-sum"])
    def test_rates_match_exact_errors(self, cfg):
        results = [simulate(SimulationSpec(cfg, trials=self.TRIALS, seed=s)) for s in self.SEEDS]
        fa, md, h0, h1 = (sum(getattr(r, f) for r in results)
                          for f in ("fa_count", "md_count", "h0_trials", "h1_trials"))
        report = exact_risk(cfg)

        def z(hits, n, p):
            return (hits - n * p) / math.sqrt(n * p * (1.0 - p))

        assert abs(z(fa, h0, report.p_fa0)) <= self.Z_BOUND
        assert abs(z(md, h1, report.p_md0)) <= self.Z_BOUND
        assert abs(z(h1, h0 + h1, 1.0 - cfg.pi0)) <= self.Z_BOUND
        assert h0 + h1 == len(self.SEEDS) * self.TRIALS


class TestSimulate:
    def test_deterministic_across_chunk_sizes(self):
        cfg = _config(q0=0.7372, q_local=(0.396, 0.396))
        spec = SimulationSpec(cfg, trials=30_000, seed=99)
        results = set()
        for c in (1_000, 7_777, 30_000, 65_536):
            with _chunk_trials(spec, c):
                results.add(simulate(spec))
        assert len(results) == 1

    def test_chunk_memory_does_not_grow_with_n(self):
        """A chunk is sized in uniforms, not trials, so simulating 200 agents
        peaks at a few MB, as 2 agents do."""
        peaks = []
        for n in (2, 200):
            spec = SimulationSpec(_config(q_local=(0.45,) * n), trials=20_000, seed=3)
            tracemalloc.start()
            try:
                simulate(spec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 8e6

    def test_same_seed_same_result(self):
        cfg = _config()
        spec = SimulationSpec(cfg, trials=10_000, seed=7)
        assert simulate(spec) == simulate(spec)
        other = simulate(SimulationSpec(cfg, trials=10_000, seed=8))
        assert other != simulate(spec)

    def test_risk_decomposition_identity(self):
        cfg = _config(c_fa=1.3, c_md=0.8)
        result = simulate(SimulationSpec(cfg, trials=50_000, seed=3))
        rebuilt = (1.3 * result.fa_count + 0.8 * result.md_count) / result.trials
        assert result.empirical_risk == rebuilt
        assert result.h0_trials + result.h1_trials == result.trials

    def test_benchmark_matches_exact_risk(self, benchmark_template):
        cfg = benchmark_template.tied(0.7372, 0.3960)
        result = simulate(SimulationSpec(cfg, trials=1_000_000, seed=12345))
        assert abs(result.empirical_risk - 0.1918) <= 3.0 * result.std_error

    def test_agreement_suite(self):
        """30 random configs: empirical risk within 4 standard errors."""
        rng = np.random.default_rng(71)
        for _ in range(30):
            cfg = random_config(rng, n_max=10)
            exact = exact_risk(cfg).r0
            result = simulate(SimulationSpec(cfg, trials=100_000,
                                             seed=int(rng.integers(2**32))))
            assert abs(result.empirical_risk - exact) <= 4.0 * result.std_error

    def test_silenced_locals_reduce_to_shifted_single_test(self):
        """Locals believing almost surely in hypothesis 0 always decide 0, so
        the fusion agent behaves like a lone tester at the all-zeros-updated
        threshold."""
        cfg = _config(q0=0.4, q_local=(1.0 - 1e-9, 1.0 - 1e-9))
        lam = threshold_from_belief(cfg.model, cfg.costs, update_belief_count(cfg, 0))
        p_fa = gaussian_q(lam / cfg.model.sigma)
        p_md = gaussian_q(-(lam - 1.0) / cfg.model.sigma)
        expected = cfg.costs.c_fa * cfg.pi0 * p_fa + cfg.costs.c_md * (1 - cfg.pi0) * p_md
        result = simulate(SimulationSpec(cfg, trials=200_000, seed=31))
        assert abs(result.empirical_risk - expected) <= 4.0 * result.std_error

    def test_one_sided_costs(self):
        """With a vanishing missed-detection cost, only false alarms count."""
        cfg = _config(pi0=0.999999, q0=0.5, q_local=(0.5, 0.5), c_md=1e-9)
        result = simulate(SimulationSpec(cfg, trials=100_000, seed=17))
        report = exact_risk(cfg)
        expected = cfg.costs.c_fa * cfg.pi0 * report.p_fa0
        assert result.empirical_risk == pytest.approx(expected, abs=4.0 * result.std_error + 1e-9)

    @pytest.mark.parametrize("sigma", [1e200, 1e-200])
    def test_non_finite_exact_risk_raises_before_drawing(self, sigma):
        """Where exact_risk's R0 is not finite (so ``risk`` exits 3), the
        fusion thresholds are nan; simulate refuses before any draw."""
        config = NetworkConfig(0.3, CostPair(), ObservationModel(sigma=sigma), 0.7, (0.4, 0.4))
        assert not math.isfinite(exact_risk(config).r0)
        with mock.patch.object(montecarlo, "_count_trials", side_effect=AssertionError("drew")):
            with pytest.raises(FloatingPointError, match=re.escape(f"at sigma={sigma!r}")):
                simulate(SimulationSpec(config, trials=1000, seed=1))

    def test_validation(self):
        for trials in (-1, 0, 1):
            with pytest.raises(ValueError, match=f"^trials {trials} is below 2"):
                SimulationSpec(_config(), trials=trials, seed=1)
        with pytest.raises(ValueError):
            SimulationSpec(_config(), trials=10, seed=-1)

    @pytest.mark.parametrize("field, trials, seed", [
        ("seed", 10, 3.7),
        ("seed", 10, "5"),
        ("seed", 10, -0.5),
        ("trials", True, 1),
        ("trials", 2.5, 1),
    ])
    def test_non_integer_rejected(self, field, trials, seed):
        with pytest.raises(ValueError, match=f"^{field}="):
            SimulationSpec(_config(), trials=trials, seed=seed)

    def test_seed_past_64_bits_rejected(self):
        with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
            SimulationSpec(_config(), trials=10, seed=2**64)

    def test_numpy_integers_accepted(self):
        spec = SimulationSpec(_config(), trials=np.int64(1_000), seed=np.uint64(2**64 - 1))
        assert simulate(spec) == simulate(SimulationSpec(_config(), trials=1_000, seed=2**64 - 1))


class TestEstimateExponent:
    def test_vanishing_region_fit(self, std_model, equal_costs):
        beta_hat, fit = estimate_exponent(0.3, equal_costs, std_model, 0.5, 0.5,
                                          n_list=range(5, 41, 5))
        assert beta_hat > 0.0
        assert fit.r_squared >= 0.98
        assert fit.region is PhaseRegion.RISK_VANISHES
        assert not fit.truncated

    def test_no_rule_beats_the_optimal_exponent(self, std_model, equal_costs):
        beta_star = optimal_exponent(std_model).beta_star
        beta_hat, _ = estimate_exponent(0.3, equal_costs, std_model, 0.5, 0.5,
                                        n_list=range(5, 41, 5))
        assert beta_hat <= beta_star + 0.02

    def test_positive_slope_in_all_three_regions(self, std_model, equal_costs):
        cases = [
            (0.5, 0.5, range(5, 41, 5), PhaseRegion.RISK_VANISHES),
            (0.9, 0.3, (3, 5, 8, 10, 12, 15), PhaseRegion.FALSE_ALARM_FLOOR),
            (0.1, 0.5, (5, 10, 15, 20, 30, 40), PhaseRegion.MISSED_DETECTION_FLOOR),
        ]
        for q0, q1, n_list, region in cases:
            beta_hat, fit = estimate_exponent(0.3, equal_costs, std_model, q0, q1, n_list)
            assert fit.region is region
            assert beta_hat > 0.0
            assert fit.r_squared >= 0.9

    def test_collapsed_tail_truncated_and_flagged(self, std_model, equal_costs):
        """Beyond size ~40 the false-alarm-floor excess hits float resolution."""
        beta_hat, fit = estimate_exponent(0.3, equal_costs, std_model, 0.9, 0.3,
                                          n_list=(5, 10, 15, 20, 60, 80))
        assert fit.truncated
        assert fit.n_used == (5, 10, 15, 20)
        assert beta_hat > 0.0

    def test_short_n_list_rejected(self, std_model, equal_costs):
        with pytest.raises(ValueError):
            estimate_exponent(0.3, equal_costs, std_model, 0.5, 0.5, n_list=(5, 10))

    def test_boundary_config_rejected(self, std_model, equal_costs):
        # Fusion belief bisected onto the sign change of the region test.
        q0_boundary = 0.6247676238784021
        with pytest.raises(ValueError):
            estimate_exponent(0.3, equal_costs, std_model, q0_boundary, 0.5,
                              n_list=(5, 10, 15))

    @pytest.mark.parametrize("pi0, q0, q1, sigma, c_fa, n_list, exact_max_n", [
        (0.3, 0.5, 0.5, 1.0, 1.0, range(5, 61, 5), 2000),
        (0.3, 0.7, 0.5, 1.3, 1.5, range(5, 201, 15), 2000),
        (0.3, 0.7, 0.5, 1.0, 1.0, range(50, 601, 50), 2000),
        (0.3, 0.9, 0.3, 1.0, 1.0, (5, 10, 15, 20, 60, 80), 2000),  # truncated
        (0.45, 0.4, 0.55, 0.7, 2.0, (1, 2, 3, 7, 30, 31, 400), 2000),
    ])
    def test_equals_per_size_loop(self, pi0, q0, q1, sigma, c_fa, n_list, exact_max_n):
        """Every ExponentFit field equals that of one exact_risk per size."""
        args = (pi0, CostPair(c_fa, 1.0), ObservationModel(sigma=sigma), q0, q1, n_list)
        assert estimate_exponent(*args, exact_max_n=exact_max_n) == _per_size_estimate(*args)

    @pytest.mark.parametrize("pi0, q0, q1, message", [
        (1.0, 0.5, 0.5, "pi0=1.0 is degenerate: the prior must lie strictly inside (0, 1)"),
        (0.0, 0.5, 0.5, "pi0=0.0 is degenerate: the prior must lie strictly inside (0, 1)"),
        (0.3, 1.5, 0.5, "degenerate belief 1.5: must lie strictly inside (0, 1)"),
        (0.3, math.nan, 0.5, "degenerate belief nan: must lie strictly inside (0, 1)"),
        (0.3, 0.5, 0.0, "degenerate belief 0.0: must lie strictly inside (0, 1)"),
        (0.3, 0.5, math.nan, "degenerate belief nan: must lie strictly inside (0, 1)"),
    ])
    def test_bad_inputs_keep_their_messages(self, std_model, equal_costs, pi0, q0, q1, message):
        with pytest.raises(ValueError) as got:
            estimate_exponent(pi0, equal_costs, std_model, q0, q1, (5, 10, 15))
        assert str(got.value) == message

    def test_ladder_beyond_exact_bound_refused_before_any_fold(self, std_model, equal_costs):
        """A size above ``exact_max_n`` is refused, naming the bound; raising
        the bound makes the same ladder exact to its last size."""
        ladder = range(1000, 3001, 500)
        with mock.patch.object(montecarlo, "tied_exact_risks",
                               side_effect=AssertionError("folded")):
            with pytest.raises(ValueError, match="exact_max_n=2000"):
                estimate_exponent(0.3, equal_costs, std_model, 0.6, 0.5, ladder)
        with pytest.raises(ValueError, match="exact_max_n=12"):
            estimate_exponent(0.3, equal_costs, std_model, 0.5, 0.5, (5, 10, 15, 20),
                              exact_max_n=12)
        beta_hat, fit = estimate_exponent(0.3, equal_costs, std_model, 0.6, 0.5, ladder,
                                          exact_max_n=3000)
        assert beta_hat == pytest.approx(0.003352023905, rel=1e-9)
        assert fit.n_used == tuple(ladder) and not fit.truncated

    @pytest.mark.parametrize("n_list, message", [
        ([5.7, 10, 15, 20], "n_list[0]=5.7 is not an integer"),
        ((5, 10, 15.0), "n_list[2]=15.0 is not an integer"),
        (np.array([5.0, 10.0, 15.0]), "n_list[0]=np.float64(5.0) is not an integer"),
        ((5, True, 15), "n_list[1]=True is not an integer"),
    ], ids=["fraction", "whole-float", "float-array", "bool"])
    def test_non_integer_size_refused_before_any_work(self, std_model, equal_costs, n_list,
                                                      message):
        """5.7 was truncated to 5, so the fit reported ``n_used=(5, 10, 15,
        20)``; a size that is not an integer now raises, naming it, before
        the phase or any risk is computed."""
        with mock.patch.object(montecarlo, "tied_exact_risks",
                               side_effect=AssertionError("folded")), \
                mock.patch.object(montecarlo, "classify_phase",
                                  side_effect=AssertionError("classified")):
            with pytest.raises(ValueError) as raised:
                estimate_exponent(0.3, equal_costs, std_model, 0.5, 0.5, n_list)
        assert str(raised.value) == message

    def test_integer_sizes_of_any_kind(self, std_model, equal_costs):
        """A generator, a range and a numpy integer array give the same fit."""
        fits = [estimate_exponent(0.3, equal_costs, std_model, 0.6, 0.5, sizes)
                for sizes in ((n for n in range(5, 31, 5)), range(5, 31, 5), np.arange(5, 31, 5))]
        assert fits[0] == fits[1] == fits[2]
        assert fits[0][1].n_used == (5, 10, 15, 20, 25, 30)

    def test_trials_and_seed_are_gone(self, std_model, equal_costs):
        for knob in ("trials", "seed"):
            with pytest.raises(TypeError):
                estimate_exponent(0.3, equal_costs, std_model, 0.5, 0.5, (5, 10, 15), **{knob: 1})
