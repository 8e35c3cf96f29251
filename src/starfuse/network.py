"""Star network of selfish Bayesian agents around a fusion agent.

Local agents threshold their own signals using private beliefs about the
prior. The fusion agent, believing its own prior and assuming every local
shares it, folds the observed decisions into an updated belief and runs one
final threshold test on its own signal. The true Bayes risk of that final
decision is computed exactly two independent ways: a count-distribution
dynamic program (the default path) and full enumeration of decision vectors
(kept as a test oracle).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .observation import (
    BELIEF_EPS,
    CostPair,
    ObservationModel,
    clamp_belief,
    decision_one_log_tails,
    error_probs,
    from_log_odds,
    gaussian_q,
    log_odds,
    threshold_from_belief,
    threshold_from_log_odds,
)


@dataclass(frozen=True)
class NetworkConfig:
    """Fully specified network: true prior, costs, signal model, beliefs."""

    pi0: float
    costs: CostPair
    model: ObservationModel
    q0: float
    q_local: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "q_local", tuple(float(q) for q in self.q_local))
        if len(self.q_local) < 1:
            raise ValueError("q_local must contain at least one local belief (N >= 1)")
        if not (isinstance(self.pi0, (int, float)) and 0.0 < self.pi0 < 1.0):
            raise ValueError(f"pi0={self.pi0!r} is degenerate: the prior must lie strictly inside (0, 1)")
        clamp_belief(self.q0)
        for q in self.q_local:
            clamp_belief(q)

    @property
    def n_local(self) -> int:
        return len(self.q_local)


@dataclass(frozen=True)
class NetworkTemplate:
    """A network minus its beliefs; what optimizers sweep over."""

    pi0: float
    costs: CostPair
    model: ObservationModel
    n_local: int

    def __post_init__(self):
        if not (isinstance(self.pi0, (int, float)) and 0.0 < self.pi0 < 1.0):
            raise ValueError(f"pi0={self.pi0!r} is degenerate: the prior must lie strictly inside (0, 1)")
        if self.n_local < 1:
            raise ValueError("n_local must be at least 1")

    def config(self, q0: float, q_local) -> NetworkConfig:
        q_local = tuple(q_local)
        if len(q_local) != self.n_local:
            raise ValueError(f"expected {self.n_local} local beliefs, got {len(q_local)}")
        return NetworkConfig(self.pi0, self.costs, self.model, q0, q_local)

    def tied(self, q0: float, q1: float) -> NetworkConfig:
        """Config with identical local beliefs."""
        return self.config(q0, (q1,) * self.n_local)


@dataclass(frozen=True)
class CountDistribution:
    """Probability mass of the number of local 1-decisions under each hypothesis."""

    pmf_h0: np.ndarray
    pmf_h1: np.ndarray


@dataclass(frozen=True)
class RiskReport:
    """Exact fusion risk with its error decomposition and per-count profile.

    ``per_count`` holds one (count, updated belief, fusion threshold) triple
    for every possible number of local 1-decisions.
    """

    r0: float
    p_fa0: float
    p_md0: float
    per_count: tuple[tuple[int, float, float], ...]


def _check_local_index(config: NetworkConfig, i: int) -> None:
    if not 1 <= i <= config.n_local:
        raise IndexError(f"local agent index {i} out of range 1..{config.n_local}")


def local_error_probs(config: NetworkConfig, i: int):
    """True (false-alarm, missed-detection) rates of local agent ``i`` (1-based)."""
    _check_local_index(config, i)
    lam = threshold_from_belief(config.model, config.costs, config.q_local[i - 1])
    return error_probs(config.model, lam)


def perceived_local_probs(config: NetworkConfig):
    """Local error rates as the fusion agent imagines them.

    The fusion agent assumes every local shares its own belief, so these are
    the rates a local would have if it thresholded at the fusion belief;
    identical for all agents.
    """
    lam = threshold_from_belief(config.model, config.costs, config.q0)
    return error_probs(config.model, lam)


def perceived_log_ratios(config: NetworkConfig):
    """Per-decision log-odds increments (for a 0-decision, for a 1-decision)
    that the fusion agent applies when folding in local decisions."""
    lam = threshold_from_belief(config.model, config.costs, config.q0)
    lp10, lp11, lp00, lp01 = decision_one_log_tails(config.model, lam)
    return float(lp00 - lp01), float(lp10 - lp11)


def _decision_one_rates(model: ObservationModel, costs: CostPair, beliefs) -> np.ndarray:
    """(2, N) array: P(decide 1 | H=0) in row 0 and P(decide 1 | H=1) in row 1
    for a threshold test at each belief.

    Beliefs arrive validated (``NetworkConfig`` rejects degenerate ones), so
    only the uniform clamp is applied before the log-odds.
    """
    lo, hi = BELIEF_EPS, 1.0 - BELIEF_EPS
    clamped = [min(max(q, lo), hi) for q in beliefs]
    ell = np.array([math.log(q) - math.log1p(-q) for q in clamped])
    lam = threshold_from_log_odds(model, costs, ell)
    return gaussian_q(np.stack((lam, lam - 1.0)) / model.sigma)


def fusion_log_odds(config: NetworkConfig, k: int, n: int | None = None) -> float:
    """Log-odds of the fusion agent's updated belief after ``k`` ones among
    ``n`` observed local decisions (``n`` defaults to the network size).

    Kept in log-odds space end to end; no clamping is needed here, so the
    value stays exact however many decisions pile up on one side.
    """
    n = config.n_local if n is None else int(n)
    k = int(k)
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"count k={k} out of range 0..{n}")
    l_zero, l_one = perceived_log_ratios(config)
    return log_odds(config.q0) + (n - k) * l_zero + k * l_one


def update_belief_count(config: NetworkConfig, k: int, n: int | None = None) -> float:
    """Updated fusion belief given only the count of local 1-decisions."""
    q = float(from_log_odds(fusion_log_odds(config, k, n)))
    return min(max(q, BELIEF_EPS), 1.0 - BELIEF_EPS)


def _as_decision_count(decisions):
    decisions = tuple(decisions)
    if any(d not in (0, 1) for d in decisions):
        raise ValueError("decisions must be a vector of 0/1 values")
    return sum(decisions), len(decisions)


def update_belief(config: NetworkConfig, decisions) -> float:
    """Updated fusion belief after observing a vector of local decisions.

    The perceived per-agent rates are identical across agents, so only the
    count of ones matters; an empty vector leaves the belief unchanged
    (empty product of odds ratios).
    """
    k, n = _as_decision_count(decisions)
    return update_belief_count(config, k, n)


def fusion_decide(config: NetworkConfig, decisions, y0: float) -> int:
    """Final decision: threshold test of the fusion agent's own signal at the
    updated-belief threshold. Ties resolve to 0."""
    k, n = _as_decision_count(decisions)
    lam = threshold_from_log_odds(config.model, config.costs, fusion_log_odds(config, k, n))
    return 1 if y0 > lam else 0


def count_distribution(config: NetworkConfig) -> CountDistribution:
    """Poisson-binomial pmf of the number of local 1-decisions under each
    hypothesis.

    One convolution pass folds the agents in one at a time for both
    hypotheses together; agent ``i`` touches only the ``i + 2`` counts that
    can be nonzero so far, so the cost is O(N^2) with a small constant. Each
    step is the convex combination pmf[c] * (1 - p) + pmf[c - 1] * p.
    """
    pmf = _poisson_binomial_pmf(_decision_one_rates(config.model, config.costs, config.q_local))
    return CountDistribution(pmf[0], pmf[1])


def _rate_columns(rates: np.ndarray):
    """Per-agent (2, 1) columns of the (2, N) decide-1 ``rates`` and of their
    complements, each stacked into an (N, 2, 1) array."""
    return rates.T[:, :, None], (1.0 - rates).T[:, :, None]


def _add_agent(pmf: np.ndarray, p: np.ndarray, q: np.ndarray, i: int) -> None:
    """Fold one more agent, with decide-1 rates ``p`` and ``q = 1 - p`` as
    (2, 1) columns, into ``pmf``, which holds the (2, N + 1) count pmfs of
    the ``i`` agents before it. In place; entries past ``i + 1`` stay zero."""
    moved = pmf[:, :i + 1] * p
    pmf[:, :i + 1] *= q
    pmf[:, 1:i + 2] += moved


def _poisson_binomial_pmf(rates: np.ndarray) -> np.ndarray:
    """Count pmfs, one row per row of the (2, N) ``rates``."""
    pmf = np.zeros((2, rates.shape[1] + 1))
    pmf[:, 0] = 1.0
    for i, (p, q) in enumerate(zip(*_rate_columns(rates))):
        _add_agent(pmf, p, q, i)
    return pmf


def _fusion_count_errors(config: NetworkConfig, counts, n: int):
    """Fusion (false-alarm, missed-detection) probability for each count in
    ``counts``, with ``n`` total decisions observed."""
    l_zero, l_one = perceived_log_ratios(config)
    counts = np.asarray(counts)
    ell = log_odds(config.q0) + (n - counts) * l_zero + counts * l_one
    lam = threshold_from_log_odds(config.model, config.costs, ell)
    s = config.model.sigma
    fa = gaussian_q(lam / s)
    md = gaussian_q(-(lam - 1.0) / s)
    return fa, md, ell, lam


def exact_risk(config: NetworkConfig) -> RiskReport:
    """True Bayes risk of the fusion agent, exactly.

    Mixes the per-count fusion error probabilities over the count pmf; the
    decomposition identity r0 = c_fa*pi0*p_fa0 + c_md*(1-pi0)*p_md0 holds by
    construction.
    """
    n = config.n_local
    cd = count_distribution(config)
    fa, md, ell, lam = _fusion_count_errors(config, np.arange(n + 1), n)
    p_fa0 = float(cd.pmf_h0 @ fa)
    p_md0 = float(cd.pmf_h1 @ md)
    r0 = config.costs.c_fa * config.pi0 * p_fa0 + config.costs.c_md * (1.0 - config.pi0) * p_md0
    per_count = tuple(
        (int(k), float(from_log_odds(ell[k])), float(lam[k])) for k in range(n + 1)
    )
    return RiskReport(r0=r0, p_fa0=p_fa0, p_md0=p_md0, per_count=per_count)


def exact_risk_bruteforce(config: NetworkConfig) -> float:
    """Risk by explicit enumeration of all 2^N decision vectors, chaining the
    public update/threshold operations. Test oracle only; refuses N > 20."""
    n = config.n_local
    if n > 20:
        raise ValueError(f"bruteforce enumeration rejected for N={n} > 20")
    t0, t1 = _decision_one_rates(config.model, config.costs, config.q_local)
    c_fa, c_md = config.costs.c_fa, config.costs.c_md
    pi0 = config.pi0
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        q_up = update_belief(config, bits)
        lam = threshold_from_belief(config.model, config.costs, q_up)
        p_fa, p_md = error_probs(config.model, lam)
        w0 = math.prod(t0[i] if b else 1.0 - t0[i] for i, b in enumerate(bits))
        w1 = math.prod(t1[i] if b else 1.0 - t1[i] for i, b in enumerate(bits))
        total += c_fa * pi0 * w0 * p_fa + c_md * (1.0 - pi0) * w1 * p_md
    return total


def pinned_fusion_errors(config: NetworkConfig):
    """Fusion (false-alarm, missed-detection) probabilities with each local
    agent's decision pinned, for every agent at once.

    Returns ``(fa, md)``, each of shape (2, N): entry ``[d, j - 1]`` mixes
    the fusion error over the other agents' count distribution with agent
    ``j``'s decision pinned to ``d``.

    Leave-one-out by prefix and suffix: a backward pass folds the agents
    after ``j`` into the expected fusion error per count of ones among agents
    ``1..j``, and a forward pass builds the count pmf of the agents before
    ``j`` and mixes the two. Both passes are convex-combination recurrences,
    so nothing is divided out (unlike deconvolving agent ``j`` from the full
    pmf, which is unstable; Hong 2013), and all N agents cost O(N^2)
    together.
    """
    n = config.n_local
    p_cols, q_cols = _rate_columns(_decision_one_rates(config.model, config.costs, config.q_local))
    fa, md, _, _ = _fusion_count_errors(config, np.arange(n + 1), n)
    # after[j][h, c]: expected fusion error (FA under H0, MD under H1) given
    # c ones among agents 1..j+1, mixed over the agents after j+1.
    after = [None] * n
    after[n - 1] = np.stack((fa, md))
    for j in range(n - 1, 0, -1):
        g = after[j]
        after[j - 1] = g[:, :-1] * q_cols[j] + g[:, 1:] * p_cols[j]
    out = np.empty((2, 2, n))
    before = np.zeros((2, n + 1))
    before[:, 0] = 1.0
    for j in range(n):
        prefix = before[:, :j + 1]
        g = after[j]
        out[:, 0, j] = np.einsum("hc,hc->h", prefix, g[:, :-1])
        out[:, 1, j] = np.einsum("hc,hc->h", prefix, g[:, 1:])
        _add_agent(before, p_cols[j], q_cols[j], j)
    return out[0], out[1]


def conditional_fusion_errors(config: NetworkConfig, j: int, pinned: int):
    """Fusion (false-alarm, missed-detection) probability with local agent
    ``j``'s decision pinned to ``pinned``; mixes over the remaining agents'
    count distribution.

    One entry of ``pinned_fusion_errors``, so it costs O(N^2); callers that
    need every agent should call that directly.
    """
    _check_local_index(config, j)
    if pinned not in (0, 1):
        raise ValueError("pinned decision must be 0 or 1")
    fa, md = pinned_fusion_errors(config)
    return float(fa[pinned, j - 1]), float(md[pinned, j - 1])
