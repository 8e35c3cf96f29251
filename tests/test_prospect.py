import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from starfuse import (
    PrelecParams,
    fit_prelec_minimax,
    prelec,
    prelec_risk_gap,
)

IDENTITY_PARAMS = PrelecParams(alpha=1.0, beta_w=1.0)


class TestPrelecFunction:
    def test_endpoints(self):
        params = PrelecParams(0.7, 1.3)
        assert prelec(0.0, params) == 0.0
        assert prelec(1.0, params) == 1.0

    def test_identity_at_unit_parameters(self):
        p = math.exp(-1.0)
        assert prelec(p, IDENTITY_PARAMS) == pytest.approx(p, rel=1e-12)
        grid = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(prelec(grid, IDENTITY_PARAMS), grid, rtol=1e-12)

    def test_tabulated_value(self):
        value = prelec(0.1, PrelecParams(0.5, 1.0))
        assert value == pytest.approx(math.exp(-math.sqrt(math.log(10.0))), rel=1e-12)
        assert value == pytest.approx(0.21924, abs=1e-4)

    @given(st.floats(0.25, 3.0), st.floats(0.25, 3.0))
    def test_strictly_increasing(self, alpha, beta_w):
        params = PrelecParams(alpha, beta_w)
        grid = np.arange(1e-3, 1.0, 1e-3)
        values = prelec(grid, params)
        assert np.all(np.diff(values) > 0)

    def test_alpha_below_one_single_interior_crossing(self):
        """Overweights small probabilities, underweights large ones, with
        exactly one crossing of the diagonal."""
        params = PrelecParams(0.65, 1.0)
        grid = np.arange(1e-3, 1.0, 1e-3)
        signs = np.sign(prelec(grid, params) - grid)
        changes = np.nonzero(np.diff(signs))[0]
        assert len(changes) == 1
        assert signs[0] > 0 and signs[-1] < 0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            prelec(-0.1, IDENTITY_PARAMS)
        with pytest.raises(ValueError):
            prelec(1.1, IDENTITY_PARAMS)
        with pytest.raises(ValueError):
            PrelecParams(0.0, 1.0)


class TestMinimaxFit:
    def test_identity_curve_recovers_unit_parameters(self):
        x = np.arange(0.05, 0.951, 0.01)
        params, linf = fit_prelec_minimax(x, x)
        assert params.alpha == pytest.approx(1.0, abs=1e-3)
        assert params.beta_w == pytest.approx(1.0, abs=1e-3)
        assert linf <= 1e-5

    def test_noisy_identity_stays_close(self):
        x = np.arange(0.05, 0.951, 0.01)
        params, linf = fit_prelec_minimax(x, np.clip(x + 1e-3, 0.0, 1.0))
        assert linf <= 2e-3

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            fit_prelec_minimax([], [])

    def test_benchmark_curve_overweights_small_priors(self, prior_sweep):
        pi0_values, sweep = prior_sweep
        params, linf = fit_prelec_minimax([p.pi0 for p in sweep],
                                          [p.q1_opt for p in sweep])
        assert params.alpha < 1.0
        assert linf < 0.06


class TestRiskGap:
    def test_identity_params_keep_optimal_matches_truthful_locals(
            self, benchmark_template, prior_sweep):
        """Identity reweighting + the unconstrained fusion optimum is the
        truthful-locals configuration."""
        pi0_values, sweep = prior_sweep
        idx = int(np.argmin(np.abs(pi0_values - 0.30)))
        points = prelec_risk_gap(benchmark_template, IDENTITY_PARAMS,
                                 "keep-optimal-q0", sweep=[sweep[idx]])
        assert points[0].risk_prelec == pytest.approx(0.2039, abs=5e-4)
        assert points[0].risk_opt == pytest.approx(0.1918, abs=5e-4)

    def test_reoptimized_gap_is_nonnegative(self, benchmark_template, prior_sweep):
        _, sweep = prior_sweep
        params, _ = fit_prelec_minimax([p.pi0 for p in sweep],
                                       [p.q1_opt for p in sweep])
        subset = slice(0, len(sweep), 10)
        points = prelec_risk_gap(benchmark_template, params, "reoptimize-q0",
                                 sweep=sweep[subset])
        assert all(p.gap >= -1e-12 for p in points)

    def test_exact_prelec_locals_close_the_gap(self, benchmark_template, prior_sweep):
        """Feeding the optimal curve back through the identity leaves no gap
        when the fusion belief is re-optimized."""
        pi0_values, sweep = prior_sweep
        idx = int(np.argmin(np.abs(pi0_values - 0.30)))
        point = sweep[idx]
        from starfuse import exact_risk

        cfg = benchmark_template.tied(point.q0_opt, point.q1_opt)
        assert exact_risk(cfg).r0 == pytest.approx(point.risk_opt, rel=1e-12)

    def test_strategy_validation(self, benchmark_template):
        with pytest.raises(ValueError):
            prelec_risk_gap(benchmark_template, IDENTITY_PARAMS, "freeze", sweep=[])
