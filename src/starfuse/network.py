"""Star network of selfish Bayesian agents around a fusion agent.

Local agents threshold their own signals using private beliefs about the
prior. The fusion agent, believing its own prior and assuming every local
shares it, folds the observed decisions into an updated belief and runs one
final threshold test on its own signal. The true Bayes risk of that final
decision is computed exactly two ways, both from the decision rates and
fusion log factors of ``observation``: a count-distribution dynamic program
(the default path) and full enumeration of decision vectors (kept as a test
oracle). The dynamic program is written once, on helpers that take any
leading shape: ``exact_risk`` runs it for one network and ``batch_risk`` for
every pairing of many fusion beliefs with many rows of local beliefs,
building the count pmf once per local row and the per-count fusion errors
once per fusion belief. ``pinned_fusion_sweep`` is the one leave-one-out
pass behind ``pinned_fusion_errors`` and ``pbpo_exact``.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .observation import (
    BELIEF_EPS,
    CostPair,
    ObservationModel,
    check_prior,
    clamp_belief,
    decision_tails,
    error_probs,
    from_log_odds,
    fusion_log_factors,
    log_odds,
    threshold_from_log_odds,
)

# (fusion belief, local row) pairs per pass of batch_risk; bounds its
# working memory.
BATCH_CHUNK_ROWS = 200_000


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
        check_prior(self.pi0)
        clamp_belief(self.q0)
        # One scalar pass (False for nan and +-inf); clamp_belief only words
        # the error, naming the first bad belief.
        if not all(0.0 < q < 1.0 for q in self.q_local):
            clamp_belief(next(q for q in self.q_local if not 0.0 < q < 1.0))

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
        check_prior(self.pi0)
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
class RiskReport:
    """Exact fusion risk with its error decomposition and per-count profile.

    ``per_count`` holds one (count, updated belief, fusion threshold) triple
    for every possible number of local 1-decisions.
    """

    r0: float
    p_fa0: float
    p_md0: float
    per_count: tuple[tuple[int, float, float], ...]


def _rate_columns(model: ObservationModel, costs: CostPair, ell):
    """Per-agent columns of the decide-1 and the decide-0 rates of threshold
    tests at the local log-odds ``ell`` (agents on its last axis): entry
    ``[i, h]`` is agent ``i``'s under H=h, with a trailing axis to broadcast."""
    axes = (ell.ndim - 1, *range(ell.ndim - 1))  # np.moveaxis(ell, -1, 0), minus its overhead
    lam = threshold_from_log_odds(model, costs, ell.transpose(axes)[..., None])
    rates = decision_tails(model, lam).reshape((2, 2) + lam.shape).swapaxes(1, 2)
    return rates[0], rates[1]


def _local_rates(model: ObservationModel, costs: CostPair, beliefs):
    """``_rate_columns`` of local agents with the given beliefs, which
    ``NetworkConfig`` has already checked."""
    # log_odds's expression with math.log per belief: np.log over rows
    # (batch_risk) can differ in the last bit, and
    # test_bit_identical_to_per_agent_loop pins this path. np.clip would add a
    # fixed cost that pbpo_exact's one-belief calls pay.
    lo, hi = BELIEF_EPS, 1.0 - BELIEF_EPS
    ell = [math.log(q) - math.log1p(-q) for q in (min(max(q, lo), hi) for q in beliefs)]
    return _rate_columns(model, costs, np.array(ell))


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
    ell0 = log_odds(config.q0)
    l_zero, l_one = fusion_log_factors(config.model, config.costs, ell0)
    return ell0 + (n - k) * float(l_zero) + k * float(l_one)


def update_belief_count(config: NetworkConfig, k: int, n: int | None = None) -> float:
    """Updated fusion belief given only the count of local 1-decisions."""
    q = float(from_log_odds(fusion_log_odds(config, k, n)))
    return min(max(q, BELIEF_EPS), 1.0 - BELIEF_EPS)


# Not exported; kept by name for the TRACED table of perfbench/tracing.py.
def count_distribution(config: NetworkConfig) -> np.ndarray:
    """Poisson-binomial pmf of the number of local 1-decisions under each
    hypothesis: a (2, N + 1) array, H0 in row 0 and H1 in row 1.

    One convolution pass folds the agents in one at a time for both
    hypotheses together; agent ``i`` touches only the ``i + 2`` counts that
    can be nonzero so far, so the cost is O(N^2) with a small constant. Each
    step is pmf[c] * q + pmf[c - 1] * p, with decide-0 rate q and decide-1
    rate p. For a large network the time goes to that loop, one iteration of
    three array operations per agent; the O(N) belief check and log-odds
    before it stay scalar Python, so N <= 3 pays no numpy fixed cost there.
    """
    return _poisson_binomial_pmf(*_local_rates(config.model, config.costs, config.q_local))


def _add_agent(pmf: np.ndarray, p: np.ndarray, q: np.ndarray, i: int) -> None:
    """Fold one more agent, with decide-1 rates ``p`` and decide-0 rates
    ``q`` as columns, into ``pmf``, which holds on its last axis the count
    pmfs of the ``i`` agents before it. In place; entries past ``i + 1`` stay
    zero."""
    moved = pmf[..., :i + 1] * p
    pmf[..., :i + 1] *= q
    pmf[..., 1:i + 2] += moved


def _poisson_binomial_pmf(p_cols: np.ndarray, q_cols: np.ndarray) -> np.ndarray:
    """Count pmfs on the last axis, one per hypothesis and batch index of the
    ``_rate_columns`` ``p_cols`` and ``q_cols``.

    One loop iteration per agent, of three array operations: ``_add_agent``
    written inline, which saves a Python call per agent at large N.
    """
    pmf = np.zeros(p_cols.shape[1:-1] + (len(p_cols) + 1,))
    pmf[..., 0] = 1.0
    for i, (p, q) in enumerate(zip(p_cols, q_cols)):
        head = pmf[..., :i + 1]
        moved = head * p
        head *= q
        pmf[..., 1:i + 2] += moved
    return pmf


def _fusion_count_errors(model: ObservationModel, costs: CostPair, ell0, n: int):
    """Fusion (false-alarm, missed-detection) probability after each count
    0..n of local ones among ``n`` decisions, with the updated log-odds and
    fusion thresholds. A scalar fusion log-odds ``ell0`` gives arrays of shape
    (n + 1,); an array of them gives one row per entry."""
    l_zero, l_one = fusion_log_factors(model, costs, ell0)
    k = np.arange(n + 1)
    # 0 * inf where a factor is infinite: the nan risk is the caller's to report.
    with np.errstate(invalid="ignore"):
        ell = np.asarray(ell0)[..., None] + (n - k) * l_zero[..., None] + k * l_one[..., None]
    lam = threshold_from_log_odds(model, costs, ell)
    return (*error_probs(model, lam), ell, lam)


def _bayes_risk(pi0: float, costs: CostPair, p_fa0, p_md0):
    return costs.c_fa * pi0 * p_fa0 + costs.c_md * (1.0 - pi0) * p_md0


def exact_risk(config: NetworkConfig) -> RiskReport:
    """True Bayes risk of the fusion agent, exactly.

    Mixes the per-count fusion error probabilities over the count pmf; the
    decomposition identity r0 = c_fa*pi0*p_fa0 + c_md*(1-pi0)*p_md0 holds by
    construction.
    """
    n = config.n_local
    pmf = count_distribution(config)
    fa, md, ell, lam = _fusion_count_errors(config.model, config.costs, log_odds(config.q0), n)
    # ``@`` here and a row np.sum in batch_risk differ in the last bit; tests pin each.
    p_fa0 = float(pmf[0] @ fa)
    p_md0 = float(pmf[1] @ md)
    per_count = tuple(zip(range(n + 1), from_log_odds(ell).tolist(), lam.tolist()))
    return RiskReport(r0=_bayes_risk(config.pi0, config.costs, p_fa0, p_md0),
                      p_fa0=p_fa0, p_md0=p_md0, per_count=per_count)


def _belief_log_odds(q: np.ndarray) -> np.ndarray:
    """Log-odds of an array of beliefs, each checked as ``clamp_belief`` does."""
    valid = np.isfinite(q) & (q > 0.0) & (q < 1.0)
    if not valid.all():
        clamp_belief(q[~valid][0])  # raises, naming the first bad belief
    q = np.clip(q, BELIEF_EPS, 1.0 - BELIEF_EPS)
    return np.log(q) - np.log1p(-q)  # np.log over rows, log_odds per belief in _local_rates


def batch_risk(template: NetworkTemplate, q0, q_local) -> np.ndarray:
    """Exact risks of every fusion belief against every row of local beliefs.

    ``q0`` is a sequence of fusion beliefs and ``q_local`` has one row of
    ``n_local`` local beliefs per network; entry ``[i, j]`` of the result is
    the risk of fusion belief ``q0[i]`` with local row ``j``. Every belief
    must be finite and strictly inside (0, 1), as ``clamp_belief`` requires.
    The per-count fusion errors are computed once per fusion belief and the
    count pmf once per local row; the two are mixed for every pair, over
    chunks of local rows holding at most ``BATCH_CHUNK_ROWS`` pairs, and no
    chunking changes a value. Agrees with ``exact_risk`` to a few ulp.
    """
    n = template.n_local
    q_local = np.atleast_2d(np.asarray(q_local, dtype=float))
    if q_local.shape[1] != n:
        raise ValueError(f"expected {n} local belief columns, got {q_local.shape[1]}")
    ell0 = _belief_log_odds(np.atleast_1d(np.asarray(q0, dtype=float)))
    ell = _belief_log_odds(q_local)
    model, costs = template.model, template.costs
    fa, md, _, _ = _fusion_count_errors(model, costs, ell0, n)
    out = np.empty((ell0.shape[0], ell.shape[0]))
    step = max(1, BATCH_CHUNK_ROWS // max(1, ell0.shape[0]))
    for start in range(0, ell.shape[0], step):
        pmf = _poisson_binomial_pmf(*_rate_columns(model, costs, ell[start:start + step]))
        out[:, start:start + step] = _bayes_risk(
            template.pi0, costs,
            np.sum(pmf[0][None] * fa[:, None], axis=-1),
            np.sum(pmf[1][None] * md[:, None], axis=-1))
    return out


def exact_risk_bruteforce(config: NetworkConfig) -> float:
    """Risk by explicit enumeration of all 2^N decision vectors, chaining the
    public update/threshold operations. Each vector is thresholded at the
    unclamped fusion log-odds of its count of ones, so the oracle stays exact
    far into the tails. Test oracle only; refuses N > 20."""
    n = config.n_local
    if n > 20:
        raise ValueError(f"bruteforce enumeration rejected for N={n} > 20")
    model, costs = config.model, config.costs
    ones, zeros = (cols[..., 0].tolist() for cols in _local_rates(model, costs, config.q_local))
    errors = [error_probs(model, threshold_from_log_odds(model, costs, fusion_log_odds(config, k)))
              for k in range(n + 1)]
    c_fa, c_md = costs.c_fa, costs.c_md
    pi0 = config.pi0
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        p_fa, p_md = errors[sum(bits)]
        w0, w1 = map(math.prod, zip(*(ones[i] if b else zeros[i] for i, b in enumerate(bits))))
        total += c_fa * pi0 * w0 * p_fa + c_md * (1.0 - pi0) * w1 * p_md
    return total


def pinned_fusion_sweep(config: NetworkConfig, revise) -> tuple[float, ...]:
    """One leave-one-out pass over the local agents, in order, in which each
    agent's belief may be revised as soon as its pinned errors are known.

    For j = 1..N calls ``revise(j, pinned0, pinned1)``: ``pinned{d}`` is the
    length-2 array (fusion false-alarm probability, fusion missed-detection
    probability) with agent ``j``'s decision pinned to ``d``, mixed over the
    count distribution of the other agents, those before ``j`` at their
    revised beliefs and those after ``j`` at their beliefs in ``config``.
    ``revise`` returns agent ``j``'s belief for the rest of the pass (its
    current one to keep it). Returns the revised local beliefs.

    Leave-one-out by prefix and suffix: a backward pass folds the agents
    after ``j`` into the expected fusion error per count of ones among agents
    ``1..j``, and a forward pass folds each agent's revised decide-1 rates
    into the count pmf of the agents before it and mixes the two. Both passes
    are convex-combination recurrences, so nothing is divided out (unlike
    deconvolving agent ``j`` from the full pmf, which is unstable; Hong
    2013), and the whole pass costs O(N^2). A revised belief only costs its
    own decide-1 rates, since the agents after it have not moved yet.
    """
    n = config.n_local
    model, costs = config.model, config.costs
    beliefs = list(config.q_local)
    p_cols, q_cols = _local_rates(model, costs, beliefs)
    fa, md, _, _ = _fusion_count_errors(model, costs, log_odds(config.q0), n)
    # after[j][h, c]: expected fusion error (FA under H0, MD under H1) given
    # c ones among agents 1..j+1, mixed over the agents after j+1.
    after = [None] * n
    after[n - 1] = np.stack((fa, md))
    for j in range(n - 1, 0, -1):
        g = after[j]
        after[j - 1] = g[:, :-1] * q_cols[j] + g[:, 1:] * p_cols[j]
    before = np.zeros((2, n + 1))
    before[:, 0] = 1.0
    for j in range(n):
        prefix = before[:, :j + 1]
        g = after[j]
        q = revise(j + 1, np.einsum("hc,hc->h", prefix, g[:, :-1]),
                   np.einsum("hc,hc->h", prefix, g[:, 1:]))
        p, not_p = p_cols[j], q_cols[j]
        if q != beliefs[j]:
            beliefs[j] = q
            (p,), (not_p,) = _local_rates(model, costs, [q])
        _add_agent(before, p, not_p, j)
    return tuple(beliefs)


def pinned_fusion_errors(config: NetworkConfig):
    """Fusion (false-alarm, missed-detection) probabilities with each local
    agent's decision pinned, for every agent at once.

    Returns ``(fa, md)``, each of shape (2, N): entry ``[d, j - 1]`` mixes
    the fusion error over the other agents' count distribution with agent
    ``j``'s decision pinned to ``d``. One ``pinned_fusion_sweep`` that
    revises no belief, so all N agents cost O(N^2) together.
    """
    out = np.empty((2, 2, config.n_local))

    def record(j, pinned0, pinned1):
        out[:, 0, j - 1] = pinned0
        out[:, 1, j - 1] = pinned1
        return config.q_local[j - 1]

    pinned_fusion_sweep(config, record)
    return out[0], out[1]


# Not exported; kept by name for the TRACED table of perfbench/tracing.py.
def conditional_fusion_errors(config: NetworkConfig, j: int, pinned: int):
    """Fusion (false-alarm, missed-detection) probability with local agent
    ``j``'s decision pinned to ``pinned``; mixes over the remaining agents'
    count distribution.

    One entry of ``pinned_fusion_errors``, so it costs O(N^2); callers that
    need every agent should call that directly.
    """
    if not 1 <= j <= config.n_local:
        raise IndexError(f"local agent index {j} out of range 1..{config.n_local}")
    if pinned not in (0, 1):
        raise ValueError("pinned decision must be 0 or 1")
    fa, md = pinned_fusion_errors(config)
    return float(fa[pinned, j - 1]), float(md[pinned, j - 1])
