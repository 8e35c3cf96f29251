import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from starfuse import (
    CostPair,
    NetworkTemplate,
    ObservationModel,
    PrelecGapPoint,
    PrelecParams,
    SweepPoint,
    exact_risk,
    fit_prelec_minimax,
    minimize_fusion_belief,
    prelec,
    prelec_risk_gap,
)
from starfuse import optimize, prospect
from starfuse.observation import BELIEF_EPS
from starfuse.prospect import FIT_BOUNDS, FIT_COARSE_POINTS

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

    @pytest.mark.parametrize("count", [1, 2])
    def test_fewer_samples_than_three_rejected(self, count):
        """Two parameters fit one or two points whatever the curve, so such a
        fit is refused; three points are fitted."""
        x = [0.3, 0.5, 0.7][:count]
        with pytest.raises(ValueError, match=f"^a Prelec fit of 2 parameters needs at least "
                                             f"3 samples, got {count}$"):
            fit_prelec_minimax(x, x)
        params, linf = fit_prelec_minimax([0.3, 0.5, 0.7], [0.3, 0.5, 0.7])
        assert linf <= 1e-5

    def test_mismatched_curve_rejected(self):
        with pytest.raises(ValueError, match="matching, non-empty"):
            fit_prelec_minimax([0.3, 0.5], [0.4])

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("axis", ["pi0", "belief"])
    def test_non_finite_sample_rejected(self, axis, value):
        """A nan sample fitted to a nan sup error, and an inf one to an inf
        error after numpy's invalid-value warning; each is now refused before
        the coarse grid."""
        curve, bad = [0.2, 0.3, 0.4], [0.1, 0.2, value]
        args = (bad, curve) if axis == "pi0" else (curve, bad)
        with pytest.raises(ValueError, match="^a Prelec fit needs finite pi0 and belief samples$"):
            fit_prelec_minimax(*args)

    def test_benchmark_curve_overweights_small_priors(self, prior_sweep):
        pi0_values, sweep = prior_sweep
        params, linf = fit_prelec_minimax([p.pi0 for p in sweep],
                                          [p.q1_opt for p in sweep])
        assert params.alpha < 1.0
        assert linf < 0.06

    def test_benchmark_curve_fit_pinned(self, prior_sweep):
        """c09's fit, every double of it."""
        _, sweep = prior_sweep
        fit = fit_prelec_minimax([p.pi0 for p in sweep], [p.q1_opt for p in sweep])
        assert repr(fit) == ("(PrelecParams(alpha=0.6606363629562242, "
                             "beta_w=0.8997620642587586), 0.034466261234001164)")


def _random_curves(count, seed):
    """``count`` seeded curves of 3 to 59 samples: a Prelec curve of random
    parameters in ``FIT_BOUNDS``, exact or with Gaussian noise."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 60))
        x = np.sort(rng.uniform(0.01, 0.99, n))
        log_params = rng.uniform(math.log(FIT_BOUNDS[0]), math.log(FIT_BOUNDS[1]), 2)
        y = prelec(x, PrelecParams(*np.exp(log_params).tolist()))
        yield x, y + rng.normal(0.0, rng.choice([0.0, 1e-3, 3e-2]), n)


def _loop_grid(x, y):
    """The coarse grid as a loop of the fit's objective: every (alpha,
    beta_w) point's sup error, row by row, and the log parameters of the
    first least one."""
    log_grid = np.linspace(math.log(FIT_BOUNDS[0]), math.log(FIT_BOUNDS[1]), FIT_COARSE_POINTS)
    values, best = [], None
    for la in log_grid:
        for lb in log_grid:
            params = PrelecParams(math.exp(la), math.exp(lb))
            values.append(float(np.max(np.abs(prelec(x, params) - y))))
            if best is None or values[-1] < best[0]:
                best = (values[-1], la, lb)
    return values, [best[1], best[2]]


class TestCoarseGrid:
    def test_sup_error_is_that_of_the_returned_parameters(self):
        """The fit builds its parameters with the objective's ``math.exp``,
        so the sup error it returns is theirs to the last bit."""
        for x, y in _random_curves(150, 2024):
            params, linf = fit_prelec_minimax(x, y)
            assert linf == float(np.max(np.abs(prelec(x, params) - y)))

    def test_grid_equals_the_loop(self, monkeypatch):
        """Every point of the one array pass has the loop's sup error, and
        the refinement starts from the loop's first least point, ties
        included. A curve holding a nan, whose grid was all nan, is refused
        before the grid (``test_non_finite_sample_rejected``)."""
        curves = [*_random_curves(40, 7), (np.array([0.0, 1.0, 1.0]), np.full(3, 0.5))]
        seen = {}
        weights, refine = prospect._prelec_weights, prospect.nelder_mead

        def recording_weights(p, alpha, beta_w):
            out = weights(p, alpha, beta_w)
            if np.ndim(alpha):
                seen["weights"] = out
            return out

        def recording_refine(f, x0, **options):
            seen["start"] = x0.tolist()
            return refine(f, x0, **options)

        monkeypatch.setattr(prospect, "_prelec_weights", recording_weights)
        monkeypatch.setattr(prospect, "nelder_mead", recording_refine)
        for x, y in curves:
            fit_prelec_minimax(x, y)
            values, start = _loop_grid(x, y)
            sup = np.max(np.abs(seen["weights"] - y), axis=-1).ravel().tolist()
            assert np.array(sup).tobytes() == np.array(values).tobytes()
            assert seen["start"] == start


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


def _per_prior_gap(template, params, sweep):
    """``reoptimize-q0`` as a loop of one-shot line searches, one per prior."""
    points = []
    for item in sweep:
        w = min(max(prelec(item.pi0, params), BELIEF_EPS), 1.0 - BELIEF_EPS)
        local_template = dataclasses.replace(template, pi0=item.pi0)
        q0 = minimize_fusion_belief(local_template, (w,) * template.n_local)
        points.append(PrelecGapPoint(item.pi0, item.q1_opt, w, q0, item.risk_opt,
                                     exact_risk(local_template.tied(q0, w)).r0))
    return points


class TestReoptimizedLineSearch:
    """A ``reoptimize-q0`` call builds its scan's fusion error table once for
    all its priors, and gives each prior a one-shot search's doubles."""

    @pytest.mark.parametrize("n, sigma", [(1, 1.0), (2, 1.0), (3, 0.6), (6, 2.5)])
    def test_equals_per_prior_line_search(self, n, sigma):
        template = NetworkTemplate(0.5, CostPair(1.0, 1.3), ObservationModel(sigma=sigma), n)
        sweep = [SweepPoint(pi0, 0.6, 0.4, 0.2) for pi0 in (0.1, 0.35, 0.35, 0.6, 0.9)]
        params = PrelecParams(0.7, 1.1)
        assert prelec_risk_gap(template, params, "reoptimize-q0", sweep) == _per_prior_gap(
            template, params, sweep)

    @pytest.mark.parametrize("strategy, tables", [("reoptimize-q0", 1), ("keep-optimal-q0", 0)])
    def test_tables_built_per_call(self, benchmark_template, monkeypatch, strategy, tables):
        calls = []
        original = optimize.fusion_error_table

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(optimize, "fusion_error_table", counting)
        sweep = [SweepPoint(pi0, 0.6, 0.4, 0.2) for pi0 in (0.2, 0.4, 0.6, 0.8)]
        points = prelec_risk_gap(benchmark_template, IDENTITY_PARAMS, strategy, sweep)
        assert len(points) == 4
        assert len(calls) == tables

    @pytest.mark.parametrize("sigma", [1e200, 1e-200])
    def test_error_as_per_prior_line_search(self, sigma):
        template = NetworkTemplate(0.5, CostPair(), ObservationModel(sigma=sigma), 2)
        sweep = [SweepPoint(pi0, 0.6, 0.4, 0.2) for pi0 in (0.3, 0.7)]
        with pytest.raises(FloatingPointError) as expected:
            _per_prior_gap(template, IDENTITY_PARAMS, sweep)
        with pytest.raises(FloatingPointError) as got:
            prelec_risk_gap(template, IDENTITY_PARAMS, "reoptimize-q0", sweep)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("sigma", [1e200, 1e-200])
    def test_kept_q0_error_worded_as_optimize(self, sigma):
        """A constrained risk that is not finite is refused in ``optimize``'s
        words, naming the kept fusion belief."""
        template = NetworkTemplate(0.5, CostPair(), ObservationModel(sigma=sigma), 2)
        with pytest.raises(FloatingPointError) as got:
            prelec_risk_gap(template, IDENTITY_PARAMS, "keep-optimal-q0",
                            [SweepPoint(0.3, 0.6, 0.4, 0.2)])
        assert str(got.value) == str(optimize.risk_not_finite(0.6, sigma))
        assert str(got.value) == f"fusion belief q0=0.6 at sigma={sigma!r}: its risk is not finite"
