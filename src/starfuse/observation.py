"""Private-signal model: likelihood-ratio thresholds, the decision rates of
threshold tests (``decision_tails``, each tail on its own side) and the
fusion log factors; every other module takes its rates from here.

Every function here gives a Python float the same double it gives that value
as an element of an array: both go through the same scipy kernels
(``special.erfc``, ``special.log_ndtr``, ``special.expit``) and the same
IEEE operations in the same order. So a caller may evaluate a small input
one float at a time, without numpy's per-call cost, and get the array
path's values bit for bit.

The model is additive Gaussian noise: the signal equals the binary
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
    few ulp); never by quadrature. Accepts scalars or arrays; a scalar gives
    a Python float, from the same ``special.erfc`` kernel as an array (not
    ``math.erfc``, whose last bit differs from it on many inputs).
    """
    if isinstance(x, float) or np.ndim(x) == 0:  # np.ndim is slow on a float
        return 0.5 * float(special.erfc(float(x) / _SQRT2))
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
    """The private-signal model: the hypothesis value (0 or 1) plus centered
    Gaussian noise of scale ``sigma``."""

    sigma: float = 1.0

    def __post_init__(self):
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
    return 0.5 + model.variance_proxy * (costs.log_ratio + ell)


def threshold_from_belief(model: ObservationModel, costs: CostPair, q: float) -> float:
    """Signal-space threshold of the risk-minimizing test under belief ``q``."""
    return threshold_from_log_odds(model, costs, log_odds(q))


def error_probs(model: ObservationModel, lam):
    """(false-alarm, missed-detection) probabilities of the threshold test
    that decides 1 when the signal strictly exceeds ``lam``.

    Exact equality with the threshold decides 0; the event has measure zero,
    the convention is fixed for reproducibility. These are two of the four
    ``decision_tails``, each on its own side, so neither cancels against 1.
    A float ``lam`` gives two floats, an array two arrays.
    """
    if not isinstance(lam, float):
        lam = np.asarray(lam, dtype=float)
    return gaussian_q(lam / model.sigma), gaussian_q(-(lam - 1.0) / model.sigma)


def decision_tails(model: ObservationModel, lam):
    """(p(1|0), p(1|1), p(0|0), p(0|1)) of the threshold test at ``lam``, on a
    new first axis for an array ``lam``; p(d|h) is its rate of deciding d
    under hypothesis h. Each is the Gaussian tail on its own side, never one
    minus another, so it stays within a few ulp however near 1 the other is.
    A scalar ``lam`` gives four floats, one ``gaussian_q`` each."""
    x0, x1 = lam / model.sigma, (lam - 1.0) / model.sigma
    if isinstance(x0, float) or np.ndim(x0) == 0:  # np.ndim is slow on a float
        return gaussian_q(x0), gaussian_q(x1), gaussian_q(-x0), gaussian_q(-x1)
    return gaussian_q(np.stack((x0, x1, -x0, -x1)))  # one erfc call, same values


def decision_one_log_tails(model: ObservationModel, lam):
    """Logs of the four ``decision_tails``, in the same order, each from
    ``log_ndtr`` on its own side: finite far past where the tail itself
    underflows a double. This is the one place a log Gaussian tail is
    formed. A float ``lam`` gives four floats, an array four arrays."""
    x0, x1 = lam / model.sigma, (lam - 1.0) / model.sigma
    tails = special.log_ndtr(-x0), special.log_ndtr(-x1), special.log_ndtr(x0), special.log_ndtr(x1)
    # Python floats, so scalar arithmetic on them never warns (inf - inf is nan).
    return tuple(map(float, tails)) if type(lam) is float else tails


def fusion_log_factors(model: ObservationModel, costs: CostPair, ell0):
    """(l_zero, l_one): the log-odds increments the fusion agent applies for
    a 0-decision and a 1-decision at fusion log-odds ``ell0`` (a float or an
    array), as differences of ``decision_one_log_tails``."""
    lp10, lp11, lp00, lp01 = decision_one_log_tails(
        model, threshold_from_log_odds(model, costs, ell0))
    return lp00 - lp01, lp10 - lp11
