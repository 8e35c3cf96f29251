import dataclasses

import numpy as np
import pytest

from starfuse import (
    CostPair,
    NetworkConfig,
    NetworkTemplate,
    ObservationModel,
    OptimizerSettings,
    exact_coordinate_update,
    exact_risk,
    golden_section,
    grid_search,
    log_odds,
    monotone_rhs_check,
    pbpo,
    pbpo_exact,
    stationarity_residual,
)
from starfuse.optimize import _batch_risk, minimize_fusion_belief
from conftest import random_config


def _underflow_config():
    """At sigma=0.01 the fusion error probabilities underflow to nan."""
    template = NetworkTemplate(0.3, CostPair(), ObservationModel(sigma=0.01), 3)
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

    def test_chunking_does_not_change_result(self, benchmark_template):
        settings = OptimizerSettings(tie_local_beliefs=True, grid_resolution=2e-3)
        a = grid_search(benchmark_template, settings, chunk_size=97)
        b = grid_search(benchmark_template, settings, chunk_size=100_000)
        assert a.beliefs == b.beliefs
        assert a.risk == b.risk

    def test_dimension_guard(self, std_model, equal_costs):
        template = NetworkTemplate(0.3, equal_costs, std_model, 4)
        with pytest.raises(ValueError):
            grid_search(template, OptimizerSettings(grid_resolution=0.02))

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
        rows = rng.uniform(0.05, 0.95, size=(40, 3))
        batched = _batch_risk(benchmark_template, rows)
        for row, value in zip(rows, batched):
            scalar = exact_risk(benchmark_template.config(row[0], row[1:])).r0
            assert value == pytest.approx(scalar, rel=1e-13)

    def test_local_optimum_pulls_toward_cost_neutral(self, std_model, equal_costs):
        """For small priors the optimal tied local belief sits between the
        prior and the cost-neutral point."""
        settings = OptimizerSettings(tie_local_beliefs=True, grid_resolution=2e-3)
        for pi0 in (0.1, 0.2, 0.3, 0.45):
            template = NetworkTemplate(pi0, equal_costs, std_model, 2)
            result = grid_search(template, settings)
            assert pi0 < result.beliefs[1] < 0.5


class TestPbpo:
    def test_benchmark_reproduction(self, benchmark_template):
        settings = OptimizerSettings(step=5e-4, eps=1e-4, max_iters=2000)
        result = pbpo(benchmark_template, settings, init=(0.5, 0.5, 0.5))
        assert result.converged
        assert result.beliefs[0] == pytest.approx(0.7372, abs=1e-3)
        assert result.beliefs[1] == pytest.approx(0.3960, abs=1e-3)
        assert result.beliefs[2] == pytest.approx(0.3960, abs=1e-3)
        assert result.risk == pytest.approx(0.1918, abs=5e-4)

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
            probe = _batch_risk(template, np.array(reference.beliefs)[None, :])[0]
            assert result.risk <= probe + slack

    def test_exact_variant_agrees_with_fixed_step(self, benchmark_template):
        settings = OptimizerSettings(step=5e-4, eps=1e-4, max_iters=2000)
        fixed = pbpo(benchmark_template, settings, init=(0.5, 0.5, 0.5))
        exact = pbpo_exact(benchmark_template, settings, init=(0.5, 0.5, 0.5))
        for a, b in zip(fixed.beliefs, exact.beliefs):
            assert a == pytest.approx(b, abs=2.0 * settings.step)
        assert exact.iterations < fixed.iterations


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_differences_give_nan(self):
        assert np.isnan(stationarity_residual(_underflow_config()))


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
        rows = np.column_stack([q0_grid, np.full_like(q0_grid, 0.396),
                                np.full_like(q0_grid, 0.396)])
        risks = _batch_risk(benchmark_template, rows)
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
    from starfuse import belief_from_threshold

    return min(max(belief_from_threshold(cfg.model, cfg.costs, lam), 1e-9), 1 - 1e-9)


class TestGoldenSection:
    def test_quadratic_minimum(self):
        assert golden_section(lambda x: (x - 2.0) ** 2, 0.0, 5.0, 1e-8) == pytest.approx(2.0, abs=1e-6)

    def test_fusion_belief_line_search(self, benchmark_template):
        q0 = minimize_fusion_belief(benchmark_template, (0.396, 0.396), tol=1e-6)
        assert q0 == pytest.approx(0.7372, abs=2e-3)
