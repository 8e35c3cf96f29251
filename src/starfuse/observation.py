"""Private-signal model: likelihood-ratio thresholds, the decision rates of
threshold tests (``decision_tails``, each tail on its own side), the fusion
log factors, ``simulate``'s inverse-transform test (``decides_one``) and
the rate gap of the optimal exponent's test (``midpoint_rate_gap``); every
other module takes its rates and Gaussian kernels from here.

A float's four rates come from ``per_float_rates`` alone; every function
here that takes a Python float gives it the same double it gives that
value as an element of an array: both go through the same scipy kernels
(``erfc``, ``log_ndtr``, ``expit``) and the same IEEE operations in the
same order. An array goes through the ``scipy.special`` ufuncs; a float's
Gaussian tails go through ``_erfc`` and ``_log_ndtr``, bound once below to
``scipy.special.cython_special``'s ``double`` kernels, the compiled
functions that the ufuncs' double loops call, so they return the ufuncs'
doubles as Python floats without numpy's dispatch. So a caller may
evaluate a small input one float at a time, without numpy's per-call
cost, and get the array path's values bit for bit.

The model is additive Gaussian noise: the signal equals the binary
hypothesis value (0 or 1) plus centered Gaussian noise with scale ``sigma``.

The input checks that several modules share live here, each the one
wording of its refusal: ``check_real``, ``check_integer``, ``check_prior``,
``check_positive`` (costs, sigma, the Prelec parameters), ``check_seed``,
``check_sizes`` (a ladder of network sizes), ``check_width`` (the local
belief columns of a row) and ``check_agent`` (a 1-based local index).
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.special import cython_special

# Beliefs are clamped into [BELIEF_EPS, 1 - BELIEF_EPS] before any log-odds
# arithmetic, uniformly across the package, so results are deterministic and
# log-of-zero never occurs.
BELIEF_EPS = 1e-9

_SQRT2 = math.sqrt(2.0)

# The per-float Gaussian tails (see the module docstring).
_erfc = cython_special.erfc["double"]
_log_ndtr = cython_special.log_ndtr["double"]


def check_real(name: str, value) -> float:
    """A value of the real field ``name`` as the float every result uses, so
    a numpy scalar gives the doubles of that float: an ``int``, a ``float``
    or a numpy integer or floating is taken, a bool or anything else refused."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name}={value!r} is not a real number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name}={value!r} overflows a double") from None


def check_prior(pi0) -> float:
    """A true prior as a float, rejected unless it is a real number
    (``check_real``) strictly inside (0, 1)."""
    pi0 = check_real("pi0", pi0)
    if not 0.0 < pi0 < 1.0:
        raise ValueError(f"pi0={pi0!r} is degenerate: the prior must lie strictly inside (0, 1)")
    return pi0


def check_integer(name: str, value) -> None:
    """Reject a value of the integer field ``name`` that is not an ``int``
    or a numpy integer; a bool is no count."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name}={value!r} is not an integer")


def check_positive(name: str, value) -> float:
    """A value of the real field ``name`` as a float (``check_real``),
    rejected unless it is strictly positive and finite."""
    value = check_real(name, value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name}={value!r} must be strictly positive and finite")
    return value


def check_seed(seed) -> None:
    """Reject a random seed that is not an integer from 0 to 2^64 - 1."""
    check_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")


def check_sizes(name: str, sizes) -> list[int]:
    """The network sizes of the iterable ``sizes`` as a list of ``int``,
    each checked by ``check_integer`` as ``name[i]``; the caller checks
    their order."""
    sizes = list(sizes)
    for i, n in enumerate(sizes):
        check_integer(f"{name}[{i}]", n)
    return [int(n) for n in sizes]


def check_width(n: int, width: int) -> None:
    """Reject rows of ``width`` local beliefs where a network has ``n`` locals."""
    if width != n:
        raise ValueError(f"expected {n} local belief columns, got {width}")


def check_agent(j: int, n: int) -> None:
    """Reject a local agent index ``j`` outside 1..``n`` with ``IndexError``."""
    if not 1 <= j <= n:
        raise IndexError(f"local agent index {j} out of range 1..{n}")


def _checked_belief(q) -> float:
    """``q`` as a float, rejected unless it is finite and strictly inside (0, 1)."""
    q = float(q)
    if not math.isfinite(q) or not 0.0 < q < 1.0:
        raise ValueError(f"degenerate belief {q!r}: must lie strictly inside (0, 1)")
    return q


def clamp(q: float) -> float:
    """A float belief clamped into [BELIEF_EPS, 1 - BELIEF_EPS], unchecked
    (nan stays nan): the package's one clamp, with two comparisons, twice as
    fast as ``min``/``max`` and the same doubles."""
    if q < BELIEF_EPS:
        return BELIEF_EPS
    if q > 1.0 - BELIEF_EPS:
        return 1.0 - BELIEF_EPS
    return q


def clamp_belief(q: float) -> float:
    """Clamp a belief into the working interval.

    Values at or outside {0, 1} are degenerate (the agent ignores its signal
    entirely) and are rejected rather than clamped.
    """
    return clamp(_checked_belief(q))


def check_beliefs(beliefs) -> None:
    """Reject a sequence of beliefs unless every one is strictly inside
    (0, 1): one scalar pass (False for nan and +-inf), then ``clamp_belief``
    words the error, naming the first bad belief."""
    if not all(0.0 < q < 1.0 for q in beliefs):
        clamp_belief(next(q for q in beliefs if not 0.0 < q < 1.0))


def clamped_log_odds(q: float) -> float:
    """log(q / (1 - q)) of a float belief clamped into [BELIEF_EPS, 1 -
    BELIEF_EPS], unchecked: the one log-odds expression of the package.
    ``clamped_log_odds_array`` gives an array's elements the same doubles."""
    q = clamp(q)
    return math.log(q) - math.log1p(-q)


def clamped_log_odds_array(q: np.ndarray) -> np.ndarray:
    """``clamped_log_odds`` of each element of a float array, unchecked, as
    an array of its shape with the same doubles: ``np.clip`` is the same
    clamp, and ``math``'s ``log`` and ``log1p`` are mapped over the values,
    since numpy's differ from them in the last bit on about 6% of beliefs.
    About 0.2 us a value, a quarter less than calling ``clamped_log_odds``
    per value, and a few us a call more for short arrays."""
    q = np.clip(q, BELIEF_EPS, 1.0 - BELIEF_EPS)
    n = q.size
    return (np.fromiter(map(math.log, q.ravel().tolist()), float, n)
            - np.fromiter(map(math.log1p, (-q).ravel().tolist()), float, n)).reshape(q.shape)


def log_odds(q: float) -> float:
    """log(q / (1 - q)) after uniform clamping."""
    return clamped_log_odds(_checked_belief(q))


def from_log_odds(x):
    """Logistic sigmoid, the inverse of ``log_odds``; accepts arrays."""
    return special.expit(x)


def gaussian_q(x):
    """Standard Gaussian upper-tail probability Q(x).

    Computed from the complementary error function (monotone, accurate to a
    few ulp); never by quadrature. Accepts scalars or arrays; a scalar gives
    a Python float from ``_erfc``, with the double that an array's element
    gets from the ufunc ``special.erfc``.
    """
    if isinstance(x, float) or np.ndim(x) == 0:  # np.ndim is slow on a float
        return 0.5 * _erfc(float(x) / _SQRT2)
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / _SQRT2)


@dataclass(frozen=True)
class CostPair:
    """Strictly positive costs for the two error events, kept as floats."""

    c_fa: float = 1.0
    c_md: float = 1.0

    def __post_init__(self):
        for name in ("c_fa", "c_md"):
            object.__setattr__(self, name, check_positive(f"cost {name}", getattr(self, name)))

    @functools.cached_property
    def log_ratio(self) -> float:
        """log(c_fa) - log(c_md), computed on the first read only: every
        threshold reads it."""
        return math.log(self.c_fa) - math.log(self.c_md)

    @property
    def neutral_belief(self) -> float:
        """Belief at which the Gaussian decision threshold sits at 1/2."""
        return self.c_md / (self.c_fa + self.c_md)


@dataclass(frozen=True)
class ObservationModel:
    """The private-signal model: the hypothesis value (0 or 1) plus centered
    Gaussian noise of scale ``sigma``, kept as a float."""

    sigma: float = 1.0

    def __post_init__(self):
        sigma = check_positive("sigma", self.sigma)
        if sigma < sys.float_info.min:
            raise ValueError(f"sigma={sigma!r} is subnormal: a threshold scaled by 1/sigma "
                             f"overflows a double")
        object.__setattr__(self, "sigma", sigma)

    @functools.cached_property
    def variance_proxy(self) -> float:
        """Sub-Gaussian variance proxy of the signal densities, cached: every threshold reads it."""
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
    lam = np.asarray(lam, dtype=float)
    return gaussian_q(lam / model.sigma), gaussian_q(-(lam - 1.0) / model.sigma)


def decision_tails(model: ObservationModel, lam):
    """(p(1|0), p(1|1), p(0|0), p(0|1)) of the threshold tests at the array
    ``lam``, on a new first axis; p(d|h) is a test's rate of deciding d
    under hypothesis h. Each is the Gaussian tail on its own side, never one
    minus another, so it stays within a few ulp however near 1 the other is.
    A float's four rates come from ``per_float_rates``, with these doubles."""
    x0, x1 = lam / model.sigma, (lam - 1.0) / model.sigma
    return gaussian_q(np.stack((x0, x1, -x0, -x1)))  # one erfc call, same values


def midpoint_rate_gap(model: ObservationModel) -> float:
    """p(1|1) - p(1|0) of the threshold test at 1/2, the optimal local test
    of ``asymptotics.optimal_exponent``: 1 - 2 Q(1/(2 sigma)), formed as
    erf(1/(2 sigma sqrt 2)) so that a gap near 0 keeps its relative
    precision."""
    return math.erf(0.5 / (model.sigma * math.sqrt(2.0)))


def decides_one(model: ObservationModel, h, u, lam):
    """The threshold test at ``lam`` of a signal drawn from the uniform ``u``
    by inverse transform under hypothesis ``h`` (0.0 or 1.0): h + sigma
    Phi^-1(u) > lam, elementwise on broadcast arrays."""
    return h + model.sigma * special.ndtri(u) > lam


def decision_one_log_tails(model: ObservationModel, lam):
    """Logs of the four ``decision_tails``, in the same order, each from
    ``log_ndtr`` on its own side: finite far past where the tail itself
    underflows a double. This is the one place a log Gaussian tail is
    formed. A float ``lam`` gives four floats, an array four arrays."""
    x0, x1 = lam / model.sigma, (lam - 1.0) / model.sigma
    log_ndtr = _log_ndtr if type(lam) is float else special.log_ndtr
    return log_ndtr(-x0), log_ndtr(-x1), log_ndtr(x0), log_ndtr(x1)


def fusion_log_factors(model: ObservationModel, costs: CostPair, ell0):
    """(l_zero, l_one): the log-odds increments the fusion agent applies for
    a 0-decision and a 1-decision at fusion log-odds ``ell0`` (a float or an
    array), as differences of ``decision_one_log_tails``."""
    lp10, lp11, lp00, lp01 = decision_one_log_tails(
        model, threshold_from_log_odds(model, costs, ell0))
    return lp00 - lp01, lp10 - lp11


def per_float_rates(model: ObservationModel, costs: CostPair):
    """The one per-float form of the rates, with sigma and the costs bound
    once and every tail from the bound ``double`` kernels (the ufuncs'
    doubles, see the module docstring): ``local_tails(ell)``, the four
    ``decision_tails`` at local log-odds ``ell``, and ``count_errors(ell0,
    n)``, which returns ``(l_zero, l_one, fa, md)``: the
    ``fusion_log_factors`` of fusion log-odds ``ell0``, from one
    ``decision_one_log_tails`` call, and the ``error_probs`` lists after
    k = 0..n local ones at log-odds ell0 + (n - k) l_zero + k l_one."""
    s, v, logc = model.sigma, model.variance_proxy, costs.log_ratio

    def local_tails(ell):
        lam = 0.5 + v * (logc + ell)
        x0, x1 = lam / s / _SQRT2, (lam - 1.0) / s / _SQRT2  # Q(x) = erfc(x / sqrt2) / 2
        return 0.5 * _erfc(x0), 0.5 * _erfc(x1), 0.5 * _erfc(-x0), 0.5 * _erfc(-x1)

    def count_errors(ell0, n):
        lp10, lp11, lp00, lp01 = decision_one_log_tails(model, 0.5 + v * (logc + ell0))
        l_zero, l_one = lp00 - lp01, lp10 - lp11
        fa, md = [], []
        for k in range(n + 1):
            ell = ell0 + (n - k) * l_zero + k * l_one
            lam = 0.5 + v * (logc + ell)
            fa.append(0.5 * _erfc(lam / s / _SQRT2))
            md.append(0.5 * _erfc(-(lam - 1.0) / s / _SQRT2))
        return l_zero, l_one, fa, md

    return local_tails, count_errors
