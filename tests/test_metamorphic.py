"""Metamorphic relations of the exact risk, down into the Gaussian tails.

Reflecting the signal (y -> 1 - y) swaps the hypotheses: the risk must not
change under pi0 -> 1 - pi0, c_fa <-> c_md and every belief q -> 1 - q.
Permuting the local agents must not change it either. Neither relation
needs an oracle, so both check every exact kernel the same way. Near
sigma = 0.06 a decision rate can be as small as 1e-30 while its complement
rounds to 1, so the reflection fails wherever a kernel forms a rate as one
minus another.
"""

import math

import numpy as np
import pytest

from starfuse import CostPair, NetworkTemplate, ObservationModel, batch_risk, exact_risk
from starfuse.optimize import _RiskEvaluator

REL_TOL = 1e-11
DRAWS = 200


def _risk_of(kernel, template, q0, q_local):
    if kernel == "exact_risk":
        return exact_risk(template.config(q0, q_local)).r0
    if kernel == "batch_risk":
        return float(batch_risk(template, [q0], [q_local])[0, 0])
    return _RiskEvaluator(template)((q0, *q_local))


def _draws(seed):
    """(template, q0, q_local) with sigma log-uniform on [0.06, 5] and N <= 30."""
    rng = np.random.default_rng(seed)
    for _ in range(DRAWS):
        n = int(rng.integers(1, 31))
        sigma = float(np.exp(rng.uniform(math.log(0.06), math.log(5.0))))
        c_fa, c_md = (float(c) for c in np.exp(rng.uniform(math.log(0.5), math.log(2.0), 2)))
        template = NetworkTemplate(float(rng.uniform(0.05, 0.95)), CostPair(c_fa, c_md),
                                   ObservationModel(sigma=sigma), n)
        yield template, float(rng.uniform(0.05, 0.95)), rng.uniform(0.05, 0.95, n), rng


def _mismatch(a, b):
    assert math.isfinite(a) and math.isfinite(b) and a > 0.0
    return abs(a - b) / a


@pytest.mark.parametrize("kernel", ["exact_risk", "batch_risk", "_RiskEvaluator"])
def test_reflection_leaves_the_risk(kernel):
    worst = 0.0
    for template, q0, q_local, _ in _draws(41):
        costs = template.costs
        reflected = NetworkTemplate(1.0 - template.pi0, CostPair(costs.c_md, costs.c_fa),
                                    template.model, template.n_local)
        worst = max(worst, _mismatch(_risk_of(kernel, template, q0, tuple(q_local)),
                                     _risk_of(kernel, reflected, 1.0 - q0, tuple(1.0 - q_local))))
    assert worst <= REL_TOL


@pytest.mark.parametrize("kernel", ["exact_risk", "batch_risk", "_RiskEvaluator"])
def test_permuting_the_locals_leaves_the_risk(kernel):
    worst = 0.0
    for template, q0, q_local, rng in _draws(43):
        worst = max(worst, _mismatch(_risk_of(kernel, template, q0, tuple(q_local)),
                                     _risk_of(kernel, template, q0, tuple(rng.permutation(q_local)))))
    assert worst <= REL_TOL
