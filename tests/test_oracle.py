"""Every exact kernel against a 50-digit mpmath reference.

The reference shares no floating-point arithmetic with the kernels: it runs
the count DP, the fusion log factors and the final mix in mpmath, with every
decision rate taken from ``mpmath.erfc`` on its own side. Only the double
clamp of the beliefs is the same. So unlike the enumeration oracle it sees a
kernel that forms a decision rate as one minus another, which at sigma near
0.06 turns a rate of 1e-30 into 0 or 1.1e-16.

The fusion log factors are also checked on their own, against 60-digit log
Gaussian tails, from sigma = 1e-3, where the risk itself underflows, to 100.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starfuse import (
    BELIEF_EPS,
    CostPair,
    NetworkTemplate,
    ObservationModel,
    batch_risk,
    exact_risk,
    exact_risk_bruteforce,
    log_odds,
    pinned_fusion_errors,
    threshold_from_log_odds,
)
from starfuse.observation import fusion_log_factors
from starfuse.optimize import _RiskEvaluator

REL_TOL = 1e-12
# Below this the risk rounds to 0 or a subnormal double, which needs a risk
# kept in log space; such draws are counted, not compared.
SMALLEST_COMPARED = 1e-300
BRUTEFORCE_MAX_N = 12


def _reference(template, q0, q_local):
    """(risk, pinned): the risk and, for the first, middle and last local j
    and each pinned decision d, the (false-alarm, missed-detection) mix over
    the other locals' counts as ``pinned[j][d]``; all mpmath numbers at 50
    digits."""
    with mpmath.workdps(50):
        s = mpmath.mpf(template.model.sigma)
        log_c = mpmath.log(mpmath.mpf(template.costs.c_fa) / mpmath.mpf(template.costs.c_md))

        def q_tail(x):
            return mpmath.erfc(x / mpmath.sqrt(2)) / 2

        def tails(ell):  # (p(1|0), p(1|1), p(0|0), p(0|1)) at local log-odds ell
            lam = mpmath.mpf(0.5) + s * s * (log_c + ell)
            return q_tail(lam / s), q_tail((lam - 1) / s), q_tail(-lam / s), q_tail((1 - lam) / s)

        def log_odds(q):
            q = mpmath.mpf(min(max(q, BELIEF_EPS), 1.0 - BELIEF_EPS))
            return mpmath.log(q) - mpmath.log(1 - q)

        def count_pmfs(rates):
            pmfs = [[mpmath.mpf(1)], [mpmath.mpf(1)]]
            for t in rates:
                for h in (0, 1):
                    old = pmfs[h] + [0]
                    pmfs[h] = [old[0] * t[2 + h]] + [old[k] * t[2 + h] + old[k - 1] * t[h]
                                                     for k in range(1, len(old))]
            return pmfs

        n = len(q_local)
        ell0 = log_odds(q0)
        t = tails(ell0)
        l_zero, l_one = mpmath.log(t[2] / t[3]), mpmath.log(t[0] / t[1])
        lam = [mpmath.mpf(0.5) + s * s * (log_c + ell0 + (n - k) * l_zero + k * l_one)
               for k in range(n + 1)]
        fa, md = [q_tail(x / s) for x in lam], [q_tail((1 - x) / s) for x in lam]

        def mix(pmfs, d):
            return (mpmath.fsum(p * f for p, f in zip(pmfs[0], fa[d:])),
                    mpmath.fsum(p * m for p, m in zip(pmfs[1], md[d:])))

        rates = [tails(log_odds(q)) for q in q_local]
        p_fa, p_md = mix(count_pmfs(rates), 0)
        pi0 = mpmath.mpf(template.pi0)
        risk = template.costs.c_fa * pi0 * p_fa + template.costs.c_md * (1 - pi0) * p_md
        pinned = {}
        for j in {0, n // 2, n - 1}:
            others = count_pmfs(rates[:j] + rates[j + 1:])
            pinned[j] = mix(others, 0), mix(others, 1)
        return risk, pinned


def _relative_error(value, reference, scale=0):
    """|value - reference| relative to the larger of ``reference`` and ``scale``."""
    return float(abs(mpmath.mpf(value) - reference) / max(reference, scale))


@st.composite
def _networks(draw):
    n = draw(st.integers(1, 20))
    template = NetworkTemplate(
        pi0=draw(st.floats(0.05, 0.95)),
        costs=CostPair(draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))),
        model=ObservationModel(sigma=math.exp(draw(st.floats(math.log(0.06), math.log(5.0))))),
        n_local=n)
    beliefs = draw(st.lists(st.floats(0.02, 0.98), min_size=n + 1, max_size=n + 1))
    return template, beliefs[0], tuple(beliefs[1:])


def test_every_kernel_matches_the_reference():
    compared, skipped = [], []

    @given(_networks())
    @settings(max_examples=100, deadline=None)
    def check(network):
        template, q0, q_local = network
        risk, pinned = _reference(template, q0, q_local)
        if risk < SMALLEST_COMPARED:
            skipped.append(network)
            return
        compared.append(network)
        kernels = {
            "exact_risk": exact_risk(template.config(q0, q_local)).r0,
            "batch_risk": batch_risk(template, [q0], [q_local])[0, 0],
            "_RiskEvaluator": _RiskEvaluator(template)((q0, *q_local)),
        }
        if template.n_local <= BRUTEFORCE_MAX_N:
            kernels["exact_risk_bruteforce"] = exact_risk_bruteforce(template.config(q0, q_local))
        for name, value in kernels.items():
            assert _relative_error(value, risk) <= REL_TOL, name
        # A pinned mix enters the risk as one term of a total-probability
        # split, so its error counts against the larger of itself and the
        # risk. One far below the risk sums fusion tails deep enough that the
        # double rounding of their thresholds alone moves it by more than
        # 1e-12 relative (9e-12 at sigma=4.7 for a mix of 4e-288).
        errors = pinned_fusion_errors(template.config(q0, q_local))
        for j, by_decision in pinned.items():
            for d, references in enumerate(by_decision):
                for e, (kernel, reference) in enumerate(zip(errors, references)):
                    assert _relative_error(kernel[d, j], reference, risk) <= REL_TOL, (j, d, e)

    check()
    # The range stays meaningful only if nearly every draw is compared.
    assert len(skipped) <= len(compared) // 10


@pytest.mark.parametrize("sigma", [1e-3, 0.06, 0.3, 1.0, 3.0, 10.0, 100.0])
@pytest.mark.parametrize("costs", [CostPair(), CostPair(0.6, 1.7)], ids=["equal", "unequal"])
def test_fusion_log_factors_match_the_reference(sigma, costs):
    """Each factor is a difference of two log tails at the same double
    arguments lam / sigma and (lam - 1) / sigma; over the clamp range of
    fusion log-odds it lies within 4 ulp of the 60-digit value, counted at
    the larger of 1 and its larger log tail."""
    model = ObservationModel(sigma=sigma)
    edge = -log_odds(BELIEF_EPS)
    for ell0 in np.linspace(-edge, edge, 61).tolist():
        lam = threshold_from_log_odds(model, costs, ell0)
        with mpmath.workdps(60):
            x0, x1 = mpmath.mpf(lam / sigma), mpmath.mpf((lam - 1.0) / sigma)

            def log_cdf(x):
                return mpmath.log(mpmath.erfc(-x / mpmath.sqrt(2)) / 2)

            pairs = (log_cdf(x0), log_cdf(x1)), (log_cdf(-x0), log_cdf(-x1))
            for value, (a, b) in zip(fusion_log_factors(model, costs, ell0), pairs):
                bound = 4 * math.ulp(max(1.0, abs(float(a)), abs(float(b))))
                assert abs(mpmath.mpf(value) - (a - b)) <= bound, (ell0, value, float(a - b))
