"""Star network of selfish Bayesian agents around a fusion agent.

Local agents threshold their own signals using private beliefs about the
prior. The fusion agent, believing its own prior and assuming every local
shares it, folds the observed decisions into an updated belief and runs one
final threshold test on its own signal. The true Bayes risk of that final
decision is computed exactly two ways, both from the decision rates and
fusion log factors of ``observation``: a count-distribution dynamic program
(the default path) and full enumeration of decision vectors (kept as a test
oracle). The dynamic program is one loop, ``_fold_agents``, which can
continue a fold, on helpers that take any leading shape: ``exact_risk``
runs it for one network and ``fusion_error_rates`` for every pairing of
many fusion beliefs with many rows of local beliefs. That is two steps: a
``fusion_error_table`` of per-count fusion errors, once per fusion belief,
which depends on no local belief, and ``mix_fusion_table``, which builds
the count pmf once per local row (tied rows from one rate column each) and
mixes it with the table, so a caller can keep a table for many rows.
``tied_exact_risks`` folds one tied
local's rates on up to each size of an increasing ladder in turn, so every
size's ``exact_risk`` r0 comes from one fold of the largest. The true
prior enters only the final weighting, ``bayes_risk``, so those fusion error
rates serve every prior: ``batch_risk`` weights them at one.
``pinned_fusion_sweep`` is the one leave-one-out pass behind
``pinned_fusion_errors`` and ``pbpo_exact``; ``pbpo_exact`` keeps the
locals' rate columns from one pass to the next, so a local's rates are
formed once per belief value.

Both pipelines that turn log-odds into rates, the locals' rate columns
(``_rate_columns``) and the per-count fusion errors
(``_fusion_count_errors``), take one of two paths by input size. Fewer than
``PER_FLOAT_BELOW`` entries go one float at a time through ``observation``'s
scalar functions, which give a float the same double as an array element,
so a network of a few agents pays numpy's per-call cost once per pipeline,
not once per operation; larger inputs (every grid stage, every large
network) go as arrays. Both paths give the same doubles.
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

# (fusion belief, local row) pairs per pass of batch_risk and per block of a
# grid search stage, and table entries per fusion_error_rates call of a grid
# search stage; bounds their working memory.
BATCH_CHUNK_ROWS = 200_000

# Inputs with fewer entries than this (log-odds of _rate_columns, count
# entries of _fusion_count_errors) are evaluated one float at a time, with
# the array path's values; larger ones pay numpy's fixed cost per call once.
# Measured on a 2-core Xeon (numpy 2.4, scipy 1.17): the per-float path
# breaks even at about 7 log-odds for _rate_columns and 12 count entries for
# _fusion_count_errors, and is 1.6-3.3x faster at 1-3 entries; one
# constant between the two.
PER_FLOAT_BELOW = 8


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
    ``[i, h]`` is agent ``i``'s under H=h, with a trailing axis to broadcast.
    Fewer than ``PER_FLOAT_BELOW`` log-odds go one float at a time, with the
    array path's values."""
    axes = (ell.ndim - 1, *range(ell.ndim - 1))  # np.moveaxis(ell, -1, 0), minus its overhead
    ell = ell.transpose(axes)[..., None]
    if ell.size < PER_FLOAT_BELOW:
        tails = np.array(list(zip(*(decision_tails(model, threshold_from_log_odds(model, costs, x))
                                    for x in ell.ravel().tolist()))))
    else:
        # inf * 0 at a neutral belief where sigma**2 overflows: the nan is the caller's to report.
        with np.errstate(invalid="ignore"):
            tails = decision_tails(model, threshold_from_log_odds(model, costs, ell))
    rates = tails.reshape((2, 2) + ell.shape).swapaxes(1, 2)
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
    return ell0 + (n - k) * l_zero + k * l_one


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
    before it stay scalar Python, and below ``PER_FLOAT_BELOW`` agents so do
    the rate columns.
    """
    return _poisson_binomial_pmf(*_local_rates(config.model, config.costs, config.q_local))


def _fold_agents(pmf: np.ndarray, p_cols, q_cols, done: int) -> None:
    """Fold agents ``done``, ``done + 1``, ... with the decide-1 columns
    ``p_cols`` and the decide-0 columns ``q_cols`` into ``pmf``, which holds
    on its last axis the count pmfs of the ``done`` agents before them. In
    place; entries past the last agent's count stay zero, so a longer
    ``pmf`` holds, in its first n + 1 entries, exactly the pmfs of the first
    n agents. The one count-DP loop: one iteration per agent, of three array
    operations, pmf[c] * q + pmf[c - 1] * p.
    """
    for i, (p, q) in enumerate(zip(p_cols, q_cols), done):
        head = pmf[..., :i + 1]
        moved = head * p
        head *= q
        pmf[..., 1:i + 2] += moved


def _poisson_binomial_pmf(p_cols, q_cols) -> np.ndarray:
    """Count pmfs on the last axis, one per hypothesis and batch index of the
    ``_rate_columns`` ``p_cols`` and ``q_cols`` (or of non-empty sequences of
    their per-agent columns): every agent folded into the pmf of no agent."""
    pmf = np.zeros(p_cols[0].shape[:-1] + (len(p_cols) + 1,))
    pmf[..., 0] = 1.0
    _fold_agents(pmf, p_cols, q_cols, 0)
    return pmf


def _fusion_count_errors(model: ObservationModel, costs: CostPair, ell0, n):
    """Fusion (false-alarm, missed-detection) probability after each count
    0..n of local ones among ``n`` decisions, with the updated log-odds and
    fusion thresholds. A scalar fusion log-odds ``ell0`` gives arrays of shape
    (n + 1,); an array of them gives one row per entry. A list of sizes ``n``
    puts the counts 0..n of each size after one another on the last axis,
    each entry the same double as at that size alone. Fewer than
    ``PER_FLOAT_BELOW`` entries in all go one float at a time, with the
    array path's values."""
    ell0 = np.asarray(ell0)
    sizes = n if isinstance(n, list) else [n]
    width = sum(sizes) + len(sizes)
    if ell0.size * width < PER_FLOAT_BELOW:
        rows = []
        for e0 in ell0.ravel().tolist():
            l_zero, l_one = fusion_log_factors(model, costs, e0)
            for size in sizes:
                for k in range(size + 1):
                    ell = e0 + (size - k) * l_zero + k * l_one
                    lam = threshold_from_log_odds(model, costs, ell)
                    rows.append((*error_probs(model, lam), ell, lam))
        # Stacked by zip, C-contiguous as the array path's: a strided fa
        # changes the last bit of exact_risk's ``@``.
        return tuple(np.array(list(zip(*rows))).reshape((4,) + ell0.shape + (width,)))
    if isinstance(n, list):
        k = np.concatenate([np.arange(size + 1) for size in n])
        n = np.repeat(n, [size + 1 for size in n])
    else:
        k = np.arange(n + 1)
    # inf - inf or 0 * inf at an extreme sigma: the nan risk is the caller's to report.
    with np.errstate(invalid="ignore"):
        l_zero, l_one = fusion_log_factors(model, costs, ell0)
        ell = ell0[..., None] + (n - k) * l_zero[..., None] + k * l_one[..., None]
        lam = threshold_from_log_odds(model, costs, ell)
    return (*error_probs(model, lam), ell, lam)


def _mixed_errors(pmf: np.ndarray, fa: np.ndarray, md: np.ndarray) -> tuple[float, float]:
    """Fusion (false-alarm, missed-detection) probabilities of one network:
    its per-count fusion errors mixed over its (2, N + 1) count pmf."""
    # ``@`` here and a row np.sum in fusion_error_rates differ in the last bit; tests pin each.
    return float(pmf[0] @ fa), float(pmf[1] @ md)


def bayes_risk(pi0: float, costs: CostPair, p_fa0, p_md0):
    """The fusion risk at true prior ``pi0`` of fusion false-alarm and
    missed-detection probabilities ``p_fa0`` and ``p_md0`` (floats or arrays):
    the one place the prior enters the risk."""
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
    p_fa0, p_md0 = _mixed_errors(pmf, fa, md)
    per_count = tuple(zip(range(n + 1), from_log_odds(ell).tolist(), lam.tolist()))
    return RiskReport(r0=bayes_risk(config.pi0, config.costs, p_fa0, p_md0),
                      p_fa0=p_fa0, p_md0=p_md0, per_count=per_count)


def tied_exact_risks(pi0: float, costs: CostPair, model: ObservationModel, q0: float, q1: float,
                     sizes) -> list[float]:
    """``exact_risk(...).r0`` of the network with fusion belief ``q0`` and
    ``n`` locals all holding ``q1``, for each ``n`` of the strictly
    increasing ``sizes`` (each at least 1), equal to it bit for bit.

    The locals are tied, so the count pmf of a smaller size is the first
    entries of a larger size's fold: one agent's rate columns are taken
    once and folded on up to each size in turn, one fold of the largest
    size in all, O(max N^2) in place of a sum of O(N^2) per size. Each size
    mixes its own fusion errors as ``exact_risk`` does; those of every size
    come from one ``_fusion_count_errors`` call. Beliefs and the prior are
    checked as ``NetworkConfig`` checks them.
    """
    NetworkConfig(pi0, costs, model, q0, (q1,))
    sizes = [int(n) for n in sizes]
    if any(b <= a for a, b in zip([0] + sizes, sizes)):
        raise ValueError(f"sizes must be strictly increasing and at least 1, got {sizes}")
    if not sizes:
        return []
    (p,), (q,) = _local_rates(model, costs, [q1])
    fa, md, _, _ = _fusion_count_errors(model, costs, log_odds(q0), sizes)
    pmf = np.zeros((2, sizes[-1] + 1))
    pmf[:, 0] = 1.0
    risks, done, start = [], 0, 0
    for n in sizes:
        _fold_agents(pmf, itertools.repeat(p, n - done), itertools.repeat(q, n - done), done)
        counts = slice(start, start + n + 1)  # this size's entries of fa and md
        risks.append(bayes_risk(pi0, costs, *_mixed_errors(pmf[:, :n + 1], fa[counts], md[counts])))
        done, start = n, start + n + 1
    return risks


def _belief_log_odds(q: np.ndarray) -> np.ndarray:
    """Log-odds of an array of beliefs, each checked as ``clamp_belief`` does."""
    valid = np.isfinite(q) & (q > 0.0) & (q < 1.0)
    if not valid.all():
        clamp_belief(q[~valid][0])  # raises, naming the first bad belief
    q = np.clip(q, BELIEF_EPS, 1.0 - BELIEF_EPS)
    return np.log(q) - np.log1p(-q)  # np.log over rows, log_odds per belief in _local_rates


def fusion_error_table(model: ObservationModel, costs: CostPair, q0, n: int):
    """Per-count fusion (false-alarm, missed-detection) probabilities of the
    fusion beliefs ``q0`` at ``n`` local decisions: a pair of arrays of shape
    ``(len(q0), n + 1)``, entry ``[i, k]`` after ``k`` ones. Neither the prior
    nor any local belief enters the table, so one table serves every prior
    and every row of local beliefs that ``mix_fusion_table`` mixes it with.
    Every fusion belief must be finite and strictly inside (0, 1), as
    ``clamp_belief`` requires.
    """
    ell0 = _belief_log_odds(np.atleast_1d(np.asarray(q0, dtype=float)))
    return _fusion_count_errors(model, costs, ell0, n)[:2]


def mix_fusion_table(model: ObservationModel, costs: CostPair, blocks):
    """Fusion (false-alarm, missed-detection) probabilities of blocks of
    ``fusion_error_table`` tables against rows of local beliefs; no prior
    enters them.

    ``blocks`` is a non-empty sequence of ``(table, q_local)`` pairs: a table
    of fusion beliefs at N local decisions and an array with one row of N
    local beliefs per network, the same N in every block. Yields one
    ``(p_fa0, p_md0)`` pair of arrays per block, in order, each of shape
    ``(fusion beliefs, len(q_local))``; entry ``[i, j]`` pairs the table's
    fusion belief ``i`` with local row ``j``, and ``bayes_risk`` of the pair
    at any prior is its risk there. Every local belief must be finite and
    strictly inside (0, 1), as ``clamp_belief`` requires, and a row whose
    width is not the table's N raises ``ValueError``.

    The count pmfs of every block's rows come from one
    ``_poisson_binomial_pmf`` call, on the first request; each block is then
    mixed on its own when it is yielded, one product of (fusion beliefs,
    rows, counts) summed over the counts, so only one block's rates are held
    at a time. A block's values do not depend on the blocks beside it. When
    every block's rows are an ``np.broadcast_to`` view of one belief per row
    (zero stride along the agents, as tied grid stages pass them), each
    row's rates are formed once and folded in for every agent, with the same
    values as for the rows written out.
    """
    tables = [table for table, _ in blocks]
    rows = [np.atleast_2d(np.asarray(beliefs, dtype=float)) for _, beliefs in blocks]
    for (fa, _), r in zip(tables, rows):
        if r.shape[1] != fa.shape[-1] - 1:
            raise ValueError(f"expected {fa.shape[-1] - 1} local belief columns, got {r.shape[1]}")
    n = rows[0].shape[1]
    # Rows with a zero stride along the agents hold one belief each: one rate
    # column per row, folded in for every agent.
    tied = n > 1 and not any(r.strides[1] for r in rows)
    local = np.concatenate([r[:, :1] for r in rows] if tied else rows)
    p_cols, q_cols = _rate_columns(model, costs, _belief_log_odds(local))
    if tied:
        p_cols, q_cols = [p_cols[0]] * n, [q_cols[0]] * n
    pmf = _poisson_binomial_pmf(p_cols, q_cols)
    j = np.cumsum([0] + [len(b) for b in rows]).tolist()
    for (fa, md), j0, j1 in zip(tables, j, j[1:]):
        yield (np.sum(pmf[0, j0:j1] * fa[:, None], axis=-1),
               np.sum(pmf[1, j0:j1] * md[:, None], axis=-1))


def fusion_error_rates(model: ObservationModel, costs: CostPair, blocks):
    """Fusion (false-alarm, missed-detection) probabilities of blocks of
    fusion beliefs against rows of local beliefs; no prior enters them.

    ``blocks`` is a non-empty sequence of ``(q0, q_local)`` pairs: a sequence
    of fusion beliefs and an array with one row of local beliefs per
    network, the same number of columns in every block. Yields one
    ``(p_fa0, p_md0)`` pair of arrays per block, in order, each of shape
    ``(len(q0), len(q_local))``; entry ``[i, j]`` pairs fusion belief
    ``q0[i]`` with local row ``j``, and ``bayes_risk`` of the pair at any
    prior is its risk there. Every belief must be finite and strictly inside
    (0, 1), as ``clamp_belief`` requires.

    One ``fusion_error_table`` of every block's fusion beliefs, mixed by one
    ``mix_fusion_table`` call with each block's rows, on the first request.
    Callers bound the size of the tables: ``batch_risk`` by
    ``BATCH_CHUNK_ROWS`` pairs per call.
    """
    q0 = [np.atleast_1d(np.asarray(beliefs, dtype=float)) for beliefs, _ in blocks]
    rows = [np.atleast_2d(np.asarray(beliefs, dtype=float)) for _, beliefs in blocks]
    fa, md = fusion_error_table(model, costs, np.concatenate(q0), rows[0].shape[1])
    i = np.cumsum([0] + [len(b) for b in q0]).tolist()
    yield from mix_fusion_table(model, costs, [((fa[i0:i1], md[i0:i1]), r)
                                               for i0, i1, r in zip(i, i[1:], rows)])


def batch_risk(template: NetworkTemplate, q0, q_local) -> np.ndarray:
    """Exact risks of every fusion belief against every row of local beliefs.

    ``q0`` is a sequence of fusion beliefs and ``q_local`` has one row of
    ``n_local`` local beliefs per network; entry ``[i, j]`` of the result is
    the risk of fusion belief ``q0[i]`` with local row ``j``. Every belief
    must be finite and strictly inside (0, 1), as ``clamp_belief`` requires.
    The ``fusion_error_rates`` of chunks of local rows holding at most
    ``BATCH_CHUNK_ROWS`` pairs each, weighted by ``bayes_risk`` at the
    template's prior; no chunking changes a value. Agrees with
    ``exact_risk`` to a few ulp.
    """
    n = template.n_local
    q_local = np.atleast_2d(np.asarray(q_local, dtype=float))
    if q_local.shape[1] != n:
        raise ValueError(f"expected {n} local belief columns, got {q_local.shape[1]}")
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    out = np.empty((q0.shape[0], q_local.shape[0]))
    step = max(1, BATCH_CHUNK_ROWS // max(1, q0.shape[0]))
    # At least one pass, so the fusion beliefs are checked even against no rows.
    for start in range(0, max(1, q_local.shape[0]), step):
        [rates] = fusion_error_rates(template.model, template.costs,
                                     [(q0, q_local[start:start + step])])
        out[:, start:start + step] = bayes_risk(template.pi0, template.costs, *rates)
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


def pinned_fusion_sweep(config: NetworkConfig, revise, columns=None):
    """One leave-one-out pass over the local agents, in order, in which each
    agent's belief may be revised as soon as its pinned errors are known.

    For j = 1..N calls ``revise(j, pinned0, pinned1)``: ``pinned{d}`` is the
    length-2 array (fusion false-alarm probability, fusion missed-detection
    probability) with agent ``j``'s decision pinned to ``d``, mixed over the
    count distribution of the other agents, those before ``j`` at their
    revised beliefs and those after ``j`` at their beliefs in ``config``.
    ``revise`` returns agent ``j``'s belief for the rest of the pass (its
    current one to keep it). Returns the revised local beliefs and their
    per-agent rate columns. A caller that runs pass after pass passes those
    columns back as ``columns`` with the returned beliefs as the next
    ``config``'s locals; without them the pass forms every agent's.

    Leave-one-out by prefix and suffix: a backward pass folds the agents
    after ``j`` into the expected fusion error per count of ones among agents
    ``1..j``, and a forward pass folds each agent's revised decide-1 rates
    into the count pmf of the agents before it and mixes the two. Both passes
    are convex-combination recurrences, so nothing is divided out (unlike
    deconvolving agent ``j`` from the full pmf, which is unstable; Hong
    2013), and the whole pass costs O(N^2). A revised belief only costs its
    own rate columns, which replace its old ones in place, since the agents
    after it have not moved yet; the last agent is not folded, since no
    agent comes after it.
    """
    n = config.n_local
    model, costs = config.model, config.costs
    beliefs = list(config.q_local)
    p_cols, q_cols = columns if columns is not None else _local_rates(model, costs, beliefs)
    fa, md, _, _ = _fusion_count_errors(model, costs, log_odds(config.q0), n)
    # after[j][h, c]: expected fusion error (FA under H0, MD under H1) given
    # c ones among agents 1..j+1, mixed over the agents after j+1.
    after = [None] * n
    after[n - 1] = np.stack((fa, md))
    for j in range(n - 1, 0, -1):
        g = after[j]
        after[j - 1] = g[:, :-1] * q_cols[j] + g[:, 1:] * p_cols[j]
    before = np.zeros((2, n))  # counts 0..n-1 of the agents before j
    before[:, 0] = 1.0
    for j in range(n):
        prefix = before[:, :j + 1]
        g = after[j]
        q = revise(j + 1, np.einsum("hc,hc->h", prefix, g[:, :-1]),
                   np.einsum("hc,hc->h", prefix, g[:, 1:]))
        if q != beliefs[j]:
            beliefs[j] = q
            (p_cols[j],), (q_cols[j],) = _local_rates(model, costs, [q])
        if j < n - 1:
            _fold_agents(before, p_cols[j:j + 1], q_cols[j:j + 1], j)
    return tuple(beliefs), (p_cols, q_cols)


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
