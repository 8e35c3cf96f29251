"""Private-signal model: conditional densities, likelihood-ratio thresholds,
and exact false-alarm / missed-detection probabilities of threshold tests.

The built-in model is additive Gaussian noise: the signal equals the binary
hypothesis value (0 or 1) plus centered Gaussian noise with scale ``sigma``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

# Beliefs are clamped into [BELIEF_EPS, 1 - BELIEF_EPS] before any log-odds
# arithmetic, uniformly across the package, so results are deterministic and
# log-of-zero never occurs.
BELIEF_EPS = 1e-9

GAUSSIAN = "gaussian"

_SQRT2 = math.sqrt(2.0)


def check_prior(pi0) -> None:
    """Reject a true prior that is not a number strictly inside (0, 1)."""
    if not (isinstance(pi0, (int, float)) and 0.0 < pi0 < 1.0):
        raise ValueError(f"pi0={pi0!r} is degenerate: the prior must lie strictly inside (0, 1)")


def clamp_belief(q: float) -> float:
    """Clamp a belief into the working interval.

    Values at or outside {0, 1} are degenerate (the agent ignores its signal
    entirely) and are rejected rather than clamped.
    """
    q = float(q)
    if not math.isfinite(q) or not 0.0 < q < 1.0:
        raise ValueError(f"degenerate belief {q!r}: must lie strictly inside (0, 1)")
    return min(max(q, BELIEF_EPS), 1.0 - BELIEF_EPS)


def log_odds(q: float) -> float:
    """log(q / (1 - q)) after uniform clamping."""
    q = clamp_belief(q)
    return math.log(q) - math.log1p(-q)


def from_log_odds(x):
    """Logistic sigmoid, the inverse of ``log_odds``; accepts arrays."""
    return special.expit(x)


def gaussian_q(x):
    """Standard Gaussian upper-tail probability Q(x).

    Computed from the complementary error function (monotone, accurate to a
    few ulp); never by quadrature. Accepts scalars or arrays.
    """
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(float(x) / _SQRT2)
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / _SQRT2)


@dataclass(frozen=True)
class CostPair:
    """Strictly positive costs for the two error events."""

    c_fa: float = 1.0
    c_md: float = 1.0

    def __post_init__(self):
        for name, value in (("c_fa", self.c_fa), ("c_md", self.c_md)):
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"cost {name}={value!r} must be strictly positive and finite")

    @property
    def log_ratio(self) -> float:
        return math.log(self.c_fa) - math.log(self.c_md)

    @property
    def neutral_belief(self) -> float:
        """Belief at which the Gaussian decision threshold sits at 1/2."""
        return self.c_md / (self.c_fa + self.c_md)


@dataclass(frozen=True)
class ObservationModel:
    """Identity and parameters of the private-signal distribution family.

    Only the Gaussian kind is implemented; the threshold/error-probability
    interface is what any other mutually absolutely continuous pair with a
    monotone likelihood ratio would have to provide.
    """

    kind: str = GAUSSIAN
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind != GAUSSIAN:
            raise ValueError(f"unsupported observation model kind {self.kind!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma={self.sigma!r} must be strictly positive and finite")

    @property
    def variance_proxy(self) -> float:
        """Sub-Gaussian variance proxy of the conditional signal densities."""
        return self.sigma * self.sigma


def threshold_from_log_odds(model: ObservationModel, costs: CostPair, ell):
    """Signal-space decision threshold for a prior expressed in log-odds.

    ``ell`` may be any real (or array); unlike beliefs it needs no clamping,
    which keeps updated-belief thresholds exact far into the tails.
    """
    lam = 0.5 + model.variance_proxy * (costs.log_ratio + np.asarray(ell, dtype=float))
    return float(lam) if np.ndim(ell) == 0 else lam


def threshold_from_belief(model: ObservationModel, costs: CostPair, q: float) -> float:
    """Signal-space threshold of the risk-minimizing test under belief ``q``."""
    return threshold_from_log_odds(model, costs, log_odds(q))


def belief_from_threshold(model: ObservationModel, costs: CostPair, lam: float) -> float:
    """Inverse of ``threshold_from_belief`` (unclamped)."""
    return float(from_log_odds((lam - 0.5) / model.variance_proxy - costs.log_ratio))


def error_probs(model: ObservationModel, lam):
    """(false-alarm, missed-detection) probabilities of the threshold test
    that decides 1 when the signal strictly exceeds ``lam``.

    Exact equality with the threshold decides 0; the event has measure zero,
    the convention is fixed for reproducibility. Each probability is the
    Gaussian tail on its own side, so neither cancels against 1.
    """
    lam = np.asarray(lam, dtype=float)
    return gaussian_q(lam / model.sigma), gaussian_q(-(lam - 1.0) / model.sigma)


def decision_one_log_tails(model: ObservationModel, lam):
    """Log-probabilities (log p(1|0), log p(1|1), log p(0|0), log p(0|1)).

    Each tail is computed directly from ``gaussian_q`` on its own side, so
    the logs stay accurate even when a probability is within one ulp of 1.
    """
    lam = np.asarray(lam, dtype=float)
    s = model.sigma
    lp10 = np.log(gaussian_q(lam / s))
    lp11 = np.log(gaussian_q((lam - 1.0) / s))
    lp00 = np.log(gaussian_q(-lam / s))
    lp01 = np.log(gaussian_q(-(lam - 1.0) / s))
    return lp10, lp11, lp00, lp01
