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
many fusion beliefs with many rows of local beliefs, from one
``fusion_error_table`` of per-count fusion errors (which depends on no
local belief, so ``optimize``'s line search keeps one for its scan) and one
count pmf per local row (tied rows from one rate column each) per pass,
mixed piece by piece in the same call (the line search's scan mixes the
table with its own evaluator's count pmfs). ``fusion_error_rates`` plans
its own passes, bounded by ``BATCH_CHUNK_ROWS`` at any N, so ``batch_risk``
and each grid stage make one call however many rows they hold. Every array
path mixes count pmfs with per-count fusion errors through one expression,
``mix``, a row sum of their products, so ``exact_risk``,
``tied_exact_risks``, ``batch_risk``, the line search's scan and the
leave-one-out pass give a network's errors one double.
A tied network of ``BINOMIAL_FROM`` locals or more skips the fold: its
count is Binomial, and ``_binomial_pmf`` gives the pmf in O(N) array work
by Loader's saddle-point form, within a few ulp times the larger of N and
the log of each entry. ``tied_exact_risks`` takes every size of an
increasing ladder from there at or above the constant, all from one kernel
call, and folds one tied local's rates on up to each smaller size in turn,
so every size's ``exact_risk`` r0 comes from one fold of the largest such
size. ``exact_risk``'s report keeps its per-count profile as two float
arrays, the fusion log-odds and thresholds, and builds ``per_count``'s
tuples from them only when it is read. The true prior enters only the
final weighting, ``bayes_risk``, so those fusion error rates serve every
prior: ``batch_risk`` weights them at one. ``pinned_fusion_sweep`` is the one
leave-one-out pass behind ``pinned_fusion_errors`` and ``pbpo_exact``; each
pass forms its locals' rates afresh. A tied network of more than
``BINOMIAL_FROM`` locals skips the pass in ``pinned_fusion_errors``: every
agent's pinned pair mixes the other N - 1 locals' Binomial pmf, one kernel
call and two ``mix`` calls for all N agents.

One rule picks between a per-float and an array path, in one kernel: a
network of fewer than ``PER_FLOAT_BELOW`` agents goes one float at a time
in the O(N^2) leave-one-out pass, ``pinned_fusion_sweep``, so it pays
numpy's per-call cost once per pass, not once per operation.
``exact_risk`` is array code at every size: its count pmf from
``count_distribution`` and its O(N) per-count fusion errors from
``_fusion_count_errors``. Each helper has one path: the array helpers
(``_rate_columns``, ``_fusion_count_errors``, ``_fold_agents``) take
arrays, and the scalar ones (``_local_tails``, ``fold_agent``, ``_dot``)
floats, with tails and errors from ``observation.per_float_rates``. It and
``fold_agent``, the one scalar count fold, serve ``optimize``'s evaluator
too, whose count pmfs its fusion line search scans. Both paths give the
same doubles; the per-float mixes, fewer than ``PER_FLOAT_BELOW`` terms
each, go left to right as ``mix`` sums such a short row (``_dot``), which
no ``np.einsum`` or matrix product would let them do. The evaluator's mix
adds left to right too, so it is ``exact_risk``'s below 8 counts (N <= 6)
and may differ in the last bit above. It takes the pmfs of N - 1 locals
and the last local's tails, and forms each count of that local's
``fold_agent`` as it mixes it, with the same operations in the same order,
so a descent probe builds no pmf lists for the last local. Both paths start
from one log-odds kernel, ``observation.clamped_log_odds``: the per-float
helpers call it per belief, and ``_distinct_log_odds`` takes its array form
over the distinct beliefs of an array, so ``batch_risk``, ``exact_risk``
and the evaluator give a belief one double.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .observation import (
    CostPair,
    ObservationModel,
    check_beliefs,
    check_integer,
    check_prior,
    clamp,
    clamp_belief,
    clamped_log_odds,
    clamped_log_odds_array,
    decision_one_log_tails,
    decision_tails,
    error_probs,
    from_log_odds,
    fusion_log_factors,
    log_odds,
    per_float_rates,
    threshold_from_log_odds,
)

# (fusion belief, local row, count) triples per piece, and table entries per
# pass, of fusion_error_rates; bounds its working memory.
BATCH_CHUNK_ROWS = 200_000

# Networks of fewer agents than this go one float at a time in the O(N^2)
# leave-one-out pass (pinned_fusion_sweep), with the array path's values;
# larger ones pay numpy's fixed cost per call once. _dot's left-to-right
# row sum is np.add.reduce's only below 8 terms, so the constant stays at
# most 8. Measured on a 2-core Xeon (numpy 2.4, scipy 1.17): the per-float
# pipelines break even at about 7 local rates and 12 per-count fusion
# errors (7 and 11 agents), and are 1.6-3.3x faster at 1-3 agents.
PER_FLOAT_BELOW = 8

# Tied networks of at least this many locals take their Binomial count pmf
# from Loader's saddle-point form (_binomial_pmf, O(N) array work) in place
# of the O(N^2) fold; only count_distribution, tied_exact_risks and
# pinned_fusion_errors (whose tied pmf of the other N - 1 follows the same
# rule) read it.
# Measured on a 2-core Xeon (numpy 2.4), exact_risk of a tied network: the
# kernel's fixed cost of about 70-100 us breaks even with the fold at 12-14
# agents and is 1.3x faster at 20, where the constant sits so that timing
# drift cannot make a network near it slower.
BINOMIAL_FROM = 20

# Stirling's error log(k!) - log(sqrt(2 pi k) (k / e)^k) at k = 0..15
# (k = 0 unused), correctly rounded from a 60-digit evaluation.
_STIRLERR_SMALL = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


@dataclass(frozen=True)
class NetworkConfig:
    """Fully specified network: true prior, costs, signal model, beliefs."""

    pi0: float
    costs: CostPair
    model: ObservationModel
    q0: float
    q_local: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "q_local", tuple(map(float, self.q_local)))
        if len(self.q_local) < 1:
            raise ValueError("q_local must contain at least one local belief (N >= 1)")
        object.__setattr__(self, "pi0", check_prior(self.pi0))
        clamp_belief(self.q0)
        check_beliefs(self.q_local)

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
        object.__setattr__(self, "pi0", check_prior(self.pi0))
        check_integer("n_local", self.n_local)
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


@dataclass(frozen=True, eq=False, repr=False)
class RiskReport:
    """Exact fusion risk with its error decomposition and per-count profile.

    The profile is two read-only float64 arrays of N + 1 entries, entry k
    after k local 1-decisions: ``log_odds``, the fusion agent's updated
    log-odds, and ``thresholds``, its fusion threshold, 16 bytes a count.
    ``per_count`` is built from them on each read: one (count, updated
    belief, fusion threshold) triple of an int and two floats for every
    possible number of local 1-decisions. ``repr``, ``==`` and ``hash`` see
    a report as its r0, p_fa0, p_md0 and ``per_count``.
    """

    r0: float
    p_fa0: float
    p_md0: float
    log_odds: np.ndarray
    thresholds: np.ndarray

    @property
    def per_count(self) -> tuple[tuple[int, float, float], ...]:
        return tuple(zip(range(len(self.thresholds)), from_log_odds(self.log_odds).tolist(),
                         self.thresholds.tolist()))

    def _key(self) -> tuple:
        return self.r0, self.p_fa0, self.p_md0, self.per_count

    def __repr__(self) -> str:
        return "RiskReport(r0={!r}, p_fa0={!r}, p_md0={!r}, per_count={!r})".format(*self._key())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _rate_columns(model: ObservationModel, costs: CostPair, ell):
    """Per-agent columns of the decide-1 and the decide-0 rates of threshold
    tests at the local log-odds ``ell`` (agents on its last axis): entry
    ``[i, h]`` is agent ``i``'s under H=h, with a trailing axis to broadcast.
    ``_local_tails`` gives the same doubles one float at a time."""
    axes = (ell.ndim - 1, *range(ell.ndim - 1))  # np.moveaxis(ell, -1, 0), minus its overhead
    ell = ell.transpose(axes)[..., None]
    # inf * 0 at a neutral belief where sigma**2 overflows: the nan is the caller's to report.
    with np.errstate(invalid="ignore"):
        tails = decision_tails(model, threshold_from_log_odds(model, costs, ell))
    rates = tails.reshape((2, 2) + ell.shape).swapaxes(1, 2)
    return rates[0], rates[1]


def _local_rates(model: ObservationModel, costs: CostPair, beliefs):
    """``_rate_columns`` of local agents with the given beliefs, which
    ``NetworkConfig`` has already checked."""
    return _rate_columns(model, costs, np.array(list(map(clamped_log_odds, beliefs))))


def _local_tails(model: ObservationModel, costs: CostPair, beliefs) -> list:
    """The rates of ``_local_rates`` one float at a time: ``per_float_rates``'
    decision tails of each local's threshold test, one (p(1|0), p(1|1),
    p(0|0), p(0|1)) tuple of floats per belief, the array path's doubles."""
    return list(map(per_float_rates(model, costs)[0], map(clamped_log_odds, beliefs)))


def fusion_log_odds(config: NetworkConfig, k: int, n: int | None = None) -> float:
    """Log-odds of the fusion agent's updated belief after ``k`` ones among
    ``n`` observed local decisions (``n`` defaults to the network size).

    Kept in log-odds space end to end; no clamping is needed here, so the
    value stays exact however many decisions pile up on one side.
    """
    n = config.n_local if n is None else n
    check_integer("k", k)
    check_integer("n", n)
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"count k={k} out of range 0..{n}")
    ell0 = log_odds(config.q0)
    l_zero, l_one = fusion_log_factors(config.model, config.costs, ell0)
    return ell0 + (n - k) * l_zero + k * l_one


def update_belief_count(config: NetworkConfig, k: int, n: int | None = None) -> float:
    """Updated fusion belief given only the count of local 1-decisions."""
    return clamp(float(from_log_odds(fusion_log_odds(config, k, n))))


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
    before it stay scalar Python. ``fold_agent`` folds the same doubles one
    float at a time for ``optimize``'s evaluator. A tied network (every
    belief equal) of ``BINOMIAL_FROM`` agents or more takes its Binomial
    pmf from ``_binomial_pmf`` in O(N) instead, not bit for bit the fold's
    but as close to the exact pmf, and past where the fold mixes subnormal
    rounding noise (a risk of 4.2e-347 at N = 10^4 came out 4.5e-321) the
    kernel's entries round correctly to 0.
    """
    model, costs, beliefs = config.model, config.costs, config.q_local
    if len(beliefs) >= BINOMIAL_FROM and beliefs == beliefs[:1] * len(beliefs):
        return _binomial_pmf(model, costs, beliefs[0], len(beliefs))
    return _poisson_binomial_pmf(*_local_rates(model, costs, beliefs))


def _stirlerr(n_max: int) -> np.ndarray:
    """Stirling's error log(k!) - log(sqrt(2 pi k) (k / e)^k) at k = 0..n_max
    (k = 0 a placeholder): the table below 16, and from there its asymptotic
    series to the k^-9 term, whose remainder is below 2e-16."""
    k = np.arange(16.0, n_max + 1)
    kk = k * k
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k
    return np.concatenate((_STIRLERR_SMALL, series))[:n_max + 1]


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The deviance x log(x / m) + m - x of Loader's saddle point. Where the
    direct form cancels, |v| < 0.1 for v = (x - m) / (x + m), it is the
    series (x - m) v + 2 x sum_j v^(2j + 1) / (2j + 1) to j = 8, whose first
    term left out is below 1e-18 of the sum there."""
    d = x - m
    v = d / (x + m)
    v2 = v * v
    tail = 1 / 17
    for j in range(7, 0, -1):
        tail = tail * v2 + 1 / (2 * j + 1)
    near = d * v + 2 * x * v * v2 * tail
    return np.where(np.abs(v) < 0.1, near, x * np.log(x / m) - d)


def _binomial_pmf(model: ObservationModel, costs: CostPair, q1: float, sizes):
    """Count pmfs of a tied network whose locals all hold ``q1``: the
    Binomial(N, p(1|h)) pmf under each hypothesis h, in ``count_distribution``'s
    (2, N + 1) layout for one size ``N``. A list of sizes puts the counts
    0..N of each size after one another on the last axis, as
    ``_fusion_count_errors`` does, each entry the same double as at that
    size alone.

    Loader's saddle-point form (Loader 2000, the algorithm of R's
    ``dbinom``): entry 0 < k < N is exp(s(N) - s(k) - s(N - k) - bd0(k, N
    t) - bd0(N - k, N (1 - t))) / sqrt(2 pi k (N - k) / N), with Stirling's
    error s (``_stirlerr``) and the deviance bd0 (``_bd0``) of
    ``_local_tails``' rates t = p(1|h) and 1 - t = p(0|h), each on its own
    side. Entries k = 0 and k = N are exp(N log p(0|h)) and exp(N log
    p(1|h)), from ``decision_one_log_tails``. O(N) array work in place of
    the fold's O(N^2). An entry's relative error is a few ulp times the
    larger of N and the log of the entry, from the rounding of N t and of
    k / (N t). Against a 50-digit Binomial sum at the same thresholds
    (``tests/test_network.py``, N up to 2000, sigma 1e-3 to 100), every
    entry above 1e-300 is within 5.1e-13 relative and each risk within
    1.6e-13 (the fold's: 2.3e-13 and 1.6e-13); at N = 3200 the worst entry
    is within 9.0e-13 and the risk 1.6e-13 (the fold's: 4.0e-13, 1.0e-14).
    """
    ell = clamped_log_odds(q1)
    t0, t1, s0, s1 = per_float_rates(model, costs)[0](ell)
    lt0, lt1, ls0, ls1 = decision_one_log_tails(model, threshold_from_log_odds(model, costs, ell))
    sizes = sizes if isinstance(sizes, list) else [sizes]
    k = np.concatenate([np.arange(size + 1) for size in sizes])
    n = np.repeat(sizes, [size + 1 for size in sizes])
    stirlerr = _stirlerr(max(sizes))
    # (ones, zeros) by hypothesis: bd0(k, N t) and bd0(N - k, N (1 - t)) in one call.
    counts = np.stack((k, n - k))[:, None]
    means = n * np.array([[[t0], [t1]], [[s0], [s1]]])
    # A rate that underflows to 0 gives bd0 = inf and its entries 0. At k = 0
    # and k = N the form gives nan; those entries are set below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bd0 = _bd0(counts, means)
        lc = stirlerr[n] - stirlerr[k] - stirlerr[n - k] - bd0[0] - bd0[1]
        pmf = np.exp(lc) / np.sqrt(2 * math.pi * k * (n - k) / n)
    first = list(itertools.accumulate((size + 1 for size in sizes[:-1]), initial=0))
    pmf[:, first] = np.exp(np.multiply(sizes, [[ls0], [ls1]]))
    pmf[:, [i + size for i, size in zip(first, sizes)]] = np.exp(np.multiply(sizes, [[lt0], [lt1]]))
    return pmf


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


# Count pmfs (under H0, under H1) of no agents, for fold_agent. Public, not exported.
NO_AGENTS = ((1.0,), (1.0,))


def fold_agent(pmfs, tail):
    """``_fold_agents`` for one agent of one network, one float at a time:
    folds the agent with ``_local_tails`` tuple ``tail`` into ``pmfs``, a
    pair of count-pmf sequences (under H0, under H1), and returns the longer
    pair, as lists. Each entry is the same double: count c keeps pmf[c] * q
    and takes pmf[c - 1] * p; the new top, the old top times p, adds to a
    0.0."""
    t0, t1, s0, s1 = tail
    pmf0, pmf1 = pmfs
    new0, new1 = [pmf0[0] * s0], [pmf1[0] * s1]
    for k in range(1, len(pmf0)):
        new0.append(pmf0[k] * s0 + pmf0[k - 1] * t0)
        new1.append(pmf1[k] * s1 + pmf1[k - 1] * t1)
    new0.append(pmf0[-1] * t0)
    new1.append(pmf1[-1] * t1)
    return new0, new1


def _fusion_count_errors(model: ObservationModel, costs: CostPair, ell0, n):
    """Fusion (false-alarm, missed-detection) probability after each count
    0..n of local ones among ``n`` decisions, with the updated log-odds and
    fusion thresholds, as arrays. A scalar fusion log-odds ``ell0`` gives
    arrays of shape (n + 1,); an array of them gives one row per entry. A
    list of sizes ``n`` puts the counts 0..n of each size after one another
    on the last axis, each entry the same double as at that size alone.
    ``observation.per_float_rates``' ``count_errors`` gives the same
    false-alarm and missed-detection doubles one float at a time."""
    ell0 = np.asarray(ell0)
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


def mix(pmf: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Per-count fusion errors mixed over count pmfs: the sum over the counts
    of pmf * errors, the counts on the last axis and every other axis
    broadcast; a call that mixes both hypotheses puts H0 (false alarms) and
    H1 (missed detections) on the first. The one array form of the mix, so
    every array path gives a network's fusion errors one double. Public,
    not exported.

    ``np.add.reduce`` sums each row in numpy's pairwise order, which goes
    left to right below 8 terms: there it is the sum that ``_dot`` and
    ``optimize``'s evaluator take one float at a time. From 8 terms on the
    pairwise order and theirs may differ in the last bit."""
    return np.add.reduce(pmf * errors, axis=-1)


def bayes_risk(pi0: float, costs: CostPair, p_fa0, p_md0):
    """The fusion risk at true prior ``pi0`` of fusion false-alarm and
    missed-detection probabilities ``p_fa0`` and ``p_md0`` (floats or arrays):
    the one place the prior enters the risk."""
    return costs.c_fa * pi0 * p_fa0 + costs.c_md * (1.0 - pi0) * p_md0


def exact_risk(config: NetworkConfig) -> RiskReport:
    """True Bayes risk of the fusion agent, exactly.

    Mixes the per-count fusion error probabilities over the count pmf with
    ``mix``; the decomposition identity r0 = c_fa*pi0*p_fa0 +
    c_md*(1-pi0)*p_md0 holds by construction. The count pmf and the
    per-count fusion errors take the array path at every size. The report
    keeps the per-count fusion log-odds and thresholds as two arrays of
    their own, so nothing else of the call stays alive, and builds
    ``per_count`` from them only when it is read.
    """
    fa, md, ell, lam = _fusion_count_errors(config.model, config.costs, log_odds(config.q0),
                                            config.n_local)
    p_fa0, p_md0 = mix(count_distribution(config), np.array((fa, md))).tolist()
    ell.flags.writeable = lam.flags.writeable = False
    return RiskReport(r0=bayes_risk(config.pi0, config.costs, p_fa0, p_md0),
                      p_fa0=p_fa0, p_md0=p_md0, log_odds=ell, thresholds=lam)


def tied_exact_risks(pi0: float, costs: CostPair, model: ObservationModel, q0: float, q1: float,
                     sizes) -> list[float]:
    """``exact_risk(...).r0`` of the network with fusion belief ``q0`` and
    ``n`` locals all holding ``q1``, for each ``n`` of the strictly
    increasing ``sizes`` (each at least 1), equal to it bit for bit.

    Every size takes the count pmf ``count_distribution`` gives it. The
    sizes of ``BINOMIAL_FROM`` locals or more take theirs from one
    ``_binomial_pmf`` call over their list, O(sum of N) in all. Below it,
    the count pmf of a smaller size is the first entries of a larger size's
    fold: one agent's rate columns are taken once and folded on up to each
    size in turn, one fold of the largest such size. Each size mixes its own
    fusion errors as ``exact_risk`` does; those of every size come from one
    ``_fusion_count_errors`` call. Beliefs and the prior are checked as
    ``NetworkConfig`` checks them.
    """
    pi0 = NetworkConfig(pi0, costs, model, q0, (q1,)).pi0
    sizes = [int(n) for n in sizes]
    if any(b <= a for a, b in zip([0] + sizes, sizes)):
        raise ValueError(f"sizes must be strictly increasing and at least 1, got {sizes}")
    if not sizes:
        return []
    small = [n for n in sizes if n < BINOMIAL_FROM]
    large = sizes[len(small):]
    [(t0, t1, s0, s1)] = _local_tails(model, costs, [q1])
    p, q = np.array([[t0], [t1]]), np.array([[s0], [s1]])
    pmf = np.zeros((2, max(small, default=0) + 1))
    pmf[:, 0] = 1.0
    pmfs, done = [], 0
    for n in small:
        _fold_agents(pmf, itertools.repeat(p, n - done), itertools.repeat(q, n - done), done)
        pmfs.append(pmf[:, :n + 1].copy())  # the next sizes' folds write these entries
        done = n
    if large:
        starts = list(itertools.accumulate(n + 1 for n in large[:-1]))
        pmfs += np.split(_binomial_pmf(model, costs, q1, large), starts, axis=1)
    errors = np.array(_fusion_count_errors(model, costs, log_odds(q0), sizes)[:2])
    ends = list(itertools.accumulate((n + 1 for n in sizes), initial=0))  # each size's errors
    return [bayes_risk(pi0, costs, *mix(pmf, errors[:, a:b]).tolist())
            for pmf, a, b in zip(pmfs, ends, ends[1:])]


def _distinct_log_odds(q: np.ndarray):
    """(``ell``, ``where``) of an array of beliefs, each checked as
    ``clamp_belief`` does: ``ell`` holds ``clamped_log_odds_array`` of the
    distinct beliefs, so every belief has the double that the per-float paths
    give it, and ``ell[where]``, of ``q``'s shape, the log-odds of ``q``. A
    grid, which repeats a few values along each axis, maps the kernel over
    only the values it holds."""
    valid = np.isfinite(q) & (q > 0.0) & (q < 1.0)
    if not valid.all():
        clamp_belief(q[~valid][0])  # raises, naming the first bad belief
    values, where = np.unique(q, return_inverse=True)
    # NumPy 1 returns the inverse flat, NumPy 2 in q's shape.
    return clamped_log_odds_array(values), where.reshape(q.shape)


def fusion_error_table(model: ObservationModel, costs: CostPair, q0, n: int):
    """Per-count fusion (false-alarm, missed-detection) probabilities of the
    fusion beliefs ``q0`` at ``n`` local decisions: an array of shape
    ``(2, len(q0), n + 1)``, entry ``[0, i, k]`` the false alarm and
    ``[1, i, k]`` the missed detection after ``k`` ones, as ``mix`` takes
    them. Neither the prior nor any local belief enters the table, so one
    table serves every prior and every row of local beliefs whose count pmf
    it is mixed with. Every fusion belief must be finite and strictly inside
    (0, 1), as ``clamp_belief`` requires.
    """
    ell0, where = _distinct_log_odds(np.atleast_1d(np.asarray(q0, dtype=float)))
    return np.array(_fusion_count_errors(model, costs, ell0[where], n)[:2])


def fusion_error_rates(model: ObservationModel, costs: CostPair, blocks):
    """Fusion (false-alarm, missed-detection) probabilities of blocks of
    fusion beliefs against rows of local beliefs; no prior enters them.

    ``blocks`` is a non-empty sequence of ``(q0, q_local)`` pairs: a sequence
    of fusion beliefs and an array with one row of local beliefs per
    network, the same number of columns in every block, and at least one
    (no blocks, rows of no columns, or a block whose rows are wider or
    narrower than the first block's, raise ``ValueError``).
    Yields ``(block, first row, (p_fa0, p_md0))`` per piece of a block, block
    by block and in row order: the block's index, its first row in the piece,
    and two arrays of shape ``(len(q0), rows in the piece)``; entry ``[i, j]``
    pairs fusion belief ``q0[i]`` with local row ``first row + j``, and
    ``bayes_risk`` of the pair at any prior is its risk there. Every belief
    must be finite and strictly inside (0, 1), as ``clamp_belief`` requires.

    The working memory is bounded here: a piece holds at most
    ``BATCH_CHUNK_ROWS`` (fusion belief, local row, count) triples, N + 1
    counts a pair, so its count pmfs and its mix are bounded at any N (at
    least one row, and every block at least one piece, so its fusion beliefs
    are checked even against no rows); a pass takes pieces while their
    fusion beliefs and rows, N + 1 counts each, hold at most
    ``BATCH_CHUNK_ROWS`` table entries. A pass is one
    ``fusion_error_table`` of its pieces' fusion beliefs and the count pmfs
    of their rows from one ``_poisson_binomial_pmf`` call; each piece is then
    mixed on its own when it is yielded, one ``mix`` of (fusion beliefs,
    rows, counts) products per hypothesis, so only one such product is held
    at a time. A piece's values do not depend on the pieces beside it. Each
    distinct local belief's rates are formed once per pass. When every
    piece's rows are an ``np.broadcast_to`` view of one belief per row (zero
    stride along the agents, as tied grid stages pass them), each row's
    rates are folded in for every agent, with the same values as for the
    rows written out.
    """
    q0 = [np.atleast_1d(np.asarray(beliefs, dtype=float)) for beliefs, _ in blocks]
    rows = [np.atleast_2d(np.asarray(beliefs, dtype=float)) for _, beliefs in blocks]
    if not rows or rows[0].shape[1] < 1:
        raise ValueError("expected at least one block of rows of at least one local belief "
                         "(N >= 1)")
    n = rows[0].shape[1]
    for r in rows:
        if r.shape[1] != n:
            raise ValueError(f"expected {n} local belief columns, got {r.shape[1]}")
    batch, size = [], 0
    for block, (fusion, local) in enumerate(zip(q0, rows)):
        step = max(1, BATCH_CHUNK_ROWS // (max(1, len(fusion)) * (n + 1)))
        for start in range(0, max(1, len(local)), step):
            piece = local[start:start + step]
            cost = (len(fusion) + len(piece)) * (n + 1)
            if batch and size + cost > BATCH_CHUNK_ROWS:
                yield from _pass_rates(model, costs, batch, n)
                batch, size = [], 0
            batch.append((block, start, fusion, piece))
            size += cost
    yield from _pass_rates(model, costs, batch, n)


def _pass_rates(model: ObservationModel, costs: CostPair, pieces: list, n: int):
    """One pass of ``fusion_error_rates``: a generator of its own, so that its
    table and count pmfs are freed before the next pass is built."""
    table = fusion_error_table(model, costs, np.concatenate([q0 for _, _, q0, _ in pieces]), n)
    rows = [r for _, _, _, r in pieces]
    # Rows with a zero stride along the agents hold one belief each: one
    # rate column per row, folded in for every agent.
    tied = n > 1 and not any(r.strides[1] for r in rows)
    local = np.concatenate([r[:, :1] for r in rows] if tied else rows)
    # The rates of each distinct belief, gathered into every place that holds it.
    ell, where = _distinct_log_odds(local)
    p_cols, q_cols = (cols[where.T].swapaxes(1, 2) for cols in _rate_columns(model, costs, ell))
    if tied:
        p_cols, q_cols = [p_cols[0]] * n, [q_cols[0]] * n
    pmf = _poisson_binomial_pmf(p_cols, q_cols)
    i = list(itertools.accumulate((len(q0) for _, _, q0, _ in pieces), initial=0))
    j = list(itertools.accumulate(map(len, rows), initial=0))
    for (block, start, _, _), i0, i1, j0, j1 in zip(pieces, i, i[1:], j, j[1:]):
        # One hypothesis at a time, so one (fusion beliefs, rows, counts) product is held.
        yield block, start, tuple(mix(pmf[h, j0:j1], table[h, i0:i1, None]) for h in (0, 1))


def batch_risk(template: NetworkTemplate, q0, q_local) -> np.ndarray:
    """Exact risks of every fusion belief against every row of local beliefs.

    ``q0`` is a sequence of fusion beliefs and ``q_local`` has one row of
    ``n_local`` local beliefs per network; entry ``[i, j]`` of the result is
    the risk of fusion belief ``q0[i]`` with local row ``j``. Every belief
    must be finite and strictly inside (0, 1), as ``clamp_belief`` requires.
    One ``fusion_error_rates`` call, which bounds its own passes, each piece
    weighted by ``bayes_risk`` at the template's prior. Equals
    ``exact_risk``'s r0 bit for bit wherever that folds its count pmf too:
    all but tied networks of ``BINOMIAL_FROM`` locals or more, whose Binomial
    kernel agrees with the fold to a few ulp.

    Log-odds are formed per distinct belief (``_distinct_log_odds``), about
    0.2 us each through ``math``: a grid, which repeats few values, pays
    little, but rows whose beliefs are mostly distinct pay about twice what
    numpy's ``log`` over rows would (100,000 uniform random rows of N = 3
    against one fusion belief: 0.15 s against 0.065 s on 2 cores).
    """
    n = template.n_local
    q_local = np.atleast_2d(np.asarray(q_local, dtype=float))
    if q_local.shape[1] != n:
        raise ValueError(f"expected {n} local belief columns, got {q_local.shape[1]}")
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    out = np.empty((q0.shape[0], q_local.shape[0]))
    for _, start, rates in fusion_error_rates(template.model, template.costs, [(q0, q_local)]):
        risks = bayes_risk(template.pi0, template.costs, *rates)
        out[:, start:start + risks.shape[1]] = risks
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


def pinned_fusion_sweep(config: NetworkConfig, revise):
    """One leave-one-out pass over the local agents, in order, in which each
    agent's belief may be revised as soon as its pinned errors are known.

    For j = 1..N calls ``revise(j, pinned0, pinned1)``: ``pinned{d}`` is the
    pair (fusion false-alarm probability, fusion missed-detection
    probability) with agent ``j``'s decision pinned to ``d``, mixed over the
    count distribution of the other agents, those before ``j`` at their
    revised beliefs and those after ``j`` at their beliefs in ``config``.
    ``revise`` returns agent ``j``'s belief for the rest of the pass (its
    current one to keep it). Returns the revised local beliefs.

    Leave-one-out by prefix and suffix: a backward pass folds the agents
    after ``j`` into the expected fusion error per count of ones among agents
    ``1..j``, and a forward pass folds each agent's revised decide-1 rates
    into the count pmf of the agents before it and mixes the two, one
    ``mix`` per pinned pair. Both passes are convex-combination recurrences,
    so nothing is divided out (unlike deconvolving agent ``j`` from the full
    pmf, which is unstable; Hong 2013), and the whole pass costs O(N^2). A
    revised belief only costs its own rate columns, which replace its old
    ones in place, since the agents after it have not moved yet; the last
    agent is not folded, since no agent comes after it. Below
    ``PER_FLOAT_BELOW`` agents the pass goes one float at a time, with the
    same doubles (``pinned{d}`` is then a pair of floats, not an array).
    """
    n = config.n_local
    model, costs = config.model, config.costs
    beliefs = list(config.q_local)
    ell0 = log_odds(config.q0)
    if n < PER_FLOAT_BELOW:
        tails = _local_tails(model, costs, beliefs)
        fa, md = per_float_rates(model, costs)[1](ell0, n)[2:]
        after = [None] * n
        after[n - 1] = fa, md
        for j in range(n - 1, 0, -1):
            (g0, g1), (t0, t1, s0, s1) = after[j], tails[j]
            after[j - 1] = ([a * s0 + b * t0 for a, b in zip(g0, g0[1:])],
                            [a * s1 + b * t1 for a, b in zip(g1, g1[1:])])
        before = NO_AGENTS
        for j in range(n):
            (b0, b1), (g0, g1) = before, after[j]
            q = revise(j + 1, (_dot(b0, g0), _dot(b1, g1)), (_dot(b0, g0[1:]), _dot(b1, g1[1:])))
            if q != beliefs[j]:
                beliefs[j] = q
                tails[j:j + 1] = _local_tails(model, costs, [q])
            if j < n - 1:
                before = fold_agent(before, tails[j])
        return tuple(beliefs)
    p_cols, q_cols = _local_rates(model, costs, beliefs)
    fa, md, _, _ = _fusion_count_errors(model, costs, ell0, n)
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
        q = revise(j + 1, mix(prefix, g[:, :-1]), mix(prefix, g[:, 1:]))
        if q != beliefs[j]:
            beliefs[j] = q
            [(t0, t1, s0, s1)] = _local_tails(model, costs, [q])
            p_cols[j], q_cols[j] = [[t0], [t1]], [[s0], [s1]]
        if j < n - 1:
            _fold_agents(before, p_cols[j:j + 1], q_cols[j:j + 1], j)
    return tuple(beliefs)


def _dot(a, b) -> float:
    """``mix`` of one row one float at a time: the sum of a[c] * b[c] over
    the entries of ``a``, left to right, as ``np.add.reduce`` sums a row of
    fewer than 8 of those products; a row of the per-float pass has fewer
    than ``PER_FLOAT_BELOW`` terms."""
    return functools.reduce(operator.add, map(operator.mul, a, b))


def pinned_fusion_errors(config: NetworkConfig):
    """Fusion (false-alarm, missed-detection) probabilities with each local
    agent's decision pinned, for every agent at once.

    Returns ``(fa, md)``, each of shape (2, N): entry ``[d, j - 1]`` mixes
    the fusion error over the other agents' count distribution with agent
    ``j``'s decision pinned to ``d``.

    A tied network whose other N - 1 locals number ``BINOMIAL_FROM`` or more
    (the rule ``count_distribution`` applies to the pmf mixed here) gives
    every agent the same pair in O(N): the Binomial(N - 1) pmf of
    ``_binomial_pmf`` mixed with the network's per-count fusion errors
    shifted by the pinned decision (counts 0..N - 1 for a pinned 0, 1..N
    for a pinned 1), one ``mix`` each, repeated across the N columns. Each
    entry is within a few ulp times the larger of N and its log of the
    fold's, as the kernel's entries are. Any other network takes one
    ``pinned_fusion_sweep`` that revises no belief, so all N agents cost
    O(N^2) together.
    """
    n, beliefs = config.n_local, config.q_local
    if n - 1 >= BINOMIAL_FROM and beliefs == beliefs[:1] * n:
        model, costs = config.model, config.costs
        pmf = _binomial_pmf(model, costs, beliefs[0], n - 1)
        errors = np.array(_fusion_count_errors(model, costs, log_odds(config.q0), n)[:2])
        pinned = np.stack((mix(pmf, errors[:, :-1]), mix(pmf, errors[:, 1:])), axis=1)
        fa, md = np.repeat(pinned[..., None], n, axis=-1)  # pinned[h, d]: entry [h, d, j]
        return fa, md
    out = np.empty((2, 2, n))

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

    One entry of ``pinned_fusion_errors``, so it costs what that costs:
    O(N^2), or O(N) for a tied network of more than ``BINOMIAL_FROM``
    locals; callers that need every agent should call that directly.
    """
    if not 1 <= j <= config.n_local:
        raise IndexError(f"local agent index {j} out of range 1..{config.n_local}")
    if pinned not in (0, 1):
        raise ValueError("pinned decision must be 0 or 1")
    fa, md = pinned_fusion_errors(config)
    return float(fa[pinned, j - 1]), float(md[pinned, j - 1])
