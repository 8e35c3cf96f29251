import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from starfuse import (
    CostPair,
    NetworkConfig,
    ObservationModel,
    PhaseRegion,
    SimulationSpec,
    estimate_exponent,
    exact_risk,
    gaussian_q,
    optimal_exponent,
    simulate,
    threshold_from_belief,
    update_belief_count,
)
from starfuse import montecarlo
from starfuse.montecarlo import _decides_one, _uniform_cutoffs
from conftest import random_config


def _config(pi0=0.3, q0=0.5, q_local=(0.5, 0.5), sigma=1.0, c_fa=1.0, c_md=1.0):
    return NetworkConfig(pi0, CostPair(c_fa, c_md), ObservationModel(sigma=sigma), q0, q_local)


def _chunk_trials(spec, trials):
    """Patch ``simulate``'s chunk to hold exactly ``trials`` trials of ``spec``."""
    stride = 4 * ((spec.config.n_local + 2 + 3) // 4)
    return mock.patch.object(montecarlo, "CHUNK_UNIFORMS", trials * stride)


def _inverse_cdf_counts(spec, chunk_size):
    """(fa, md, h1) counts of ``simulate`` computed the direct way: every
    signal drawn as h + sigma*ndtri(u) from the same Philox stream and
    compared with its threshold. The reference the cutoff form must match."""
    cfg = spec.config
    n = cfg.n_local
    sigma = cfg.model.sigma
    lam_local = np.array([threshold_from_belief(cfg.model, cfg.costs, q) for q in cfg.q_local])
    lam_fusion = np.array([lam for _, _, lam in exact_risk(cfg).per_count])
    stride = 4 * ((n + 2 + 3) // 4)
    fa = md = h1 = 0
    for start in range(0, spec.trials, chunk_size):
        m = min(chunk_size, spec.trials - start)
        bitgen = np.random.Philox(key=spec.seed)
        if start:
            bitgen.advance(start * stride // 4)
        u = np.random.Generator(bitgen).random((m, stride))
        h = u[:, 0] >= cfg.pi0
        y = h.astype(float)[:, None] + sigma * ndtri(u[:, 1:n + 2])
        counts = np.count_nonzero(y[:, 1:] > lam_local[None, :], axis=1)
        decide_one = y[:, 0] > lam_fusion[counts]
        fa += int(np.count_nonzero(decide_one & ~h))
        md += int(np.count_nonzero(~decide_one & h))
        h1 += int(np.count_nonzero(h))
    return fa, md, h1


# Beliefs from both deep tails as well as the middle of (0, 1).
_BELIEFS = st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 1.0 - 1e-3),
                     st.floats(1.0 - 1e-3, 1.0 - 1e-9))


class TestUniformCutoffs:
    @given(n=st.integers(1, 40), sigma=st.floats(0.05, 20.0), pi0=st.floats(0.02, 0.98),
           q0=_BELIEFS, beliefs=st.lists(_BELIEFS, min_size=40, max_size=40),
           c_fa=st.floats(0.2, 5.0), seed=st.integers(0, 2**64 - 1),
           trials=st.integers(1, 20_000), chunk_size=st.sampled_from([257, 1000, 7919, 65536]))
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
        cut = _uniform_cutoffs(sigma, lam)
        assert cut.shape == (2, len(lam))
        assert ((cut > 0.0) & (cut <= 1.0)).all()
        for h in (0, 1):
            below = np.nextafter(cut[h], 0.0)
            with np.errstate(invalid="ignore"):
                assert not _decides_one(float(h), sigma, below, lam).any()
                assert _decides_one(float(h), sigma, cut[h], lam)[:-2].all()
        # Thresholds no signal exceeds (+inf, nan) never pass below 1.
        assert (cut[:, -2:] == 1.0).all()


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

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationSpec(_config(), trials=0, seed=1)
        with pytest.raises(ValueError):
            SimulationSpec(_config(), trials=10, seed=-1)


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

    def test_simulation_fallback_used_beyond_exact_cap(self, std_model, equal_costs):
        beta_hat, fit = estimate_exponent(0.3, equal_costs, std_model, 0.5, 0.5,
                                          n_list=(5, 10, 15, 20), trials=50_000,
                                          seed=5, exact_max_n=12)
        assert beta_hat > 0.0
        exact_part, _ = estimate_exponent(0.3, equal_costs, std_model, 0.5, 0.5,
                                          n_list=(5, 10, 15, 20))
        assert beta_hat == pytest.approx(exact_part, abs=0.05)
