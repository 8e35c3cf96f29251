"""Forward simulation of the network, the stochastic oracle; and a log-linear
fit of exact risks that measures how fast the fusion risk approaches its
many-agent limit.

``simulate`` draws how many of its trials are under H=1 once, from a
binomial, and orders the trials by hypothesis: H=0 first, then H=1. The
trials are exchangeable, so the counts have the law of one independent
hypothesis per trial. Every trial reads N + 1 uniforms of one PCG64DXSM
stream keyed by the seed (O'Neill 2014), at a fixed position, and the
trials are counted on every usable CPU. The trial range is cut into one
contiguous slice per worker; each worker advances its own copy of the
stream to the first trial of its slice, so every trial reads the same
uniforms whatever the split, and the integer counts are summed at the end.
Results are therefore identical for any number of cores and any chunk
size. The workers share one budget of ``CHUNK_UNIFORMS`` doubles
(``CHUNK_UNIFORMS`` * 8 bytes in all, each worker holding its share in one
buffer), plus a cutoff table of the same size and a one-byte mask per
uniform, whatever the network size and the core count. Each worker
compares a whole chunk with its tiled cutoffs in one call and counts each
trial's local decide-ones without a wider integer type than N needs.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .asymptotics import PhaseRegion, classify_phase
from .network import NetworkConfig, exact_risk, tied_exact_risks
from .observation import (CostPair, ObservationModel, check_integer, decides_one,
                          threshold_from_belief)


@dataclass(frozen=True)
class SimulationSpec:
    config: NetworkConfig
    trials: int
    seed: int

    def __post_init__(self):
        check_integer("trials", self.trials)
        check_integer("seed", self.seed)
        if self.trials < 2:
            raise ValueError(f"trials {self.trials} is below 2: "
                             f"fewer than 2 trials have no standard error")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SimulationResult:
    empirical_risk: float
    fa_count: int
    md_count: int
    trials: int
    std_error: float
    h0_trials: int
    h1_trials: int


# Uniforms in flight across all workers: each of w workers draws chunks of
# max(1, CHUNK_UNIFORMS // (stride * w)) trials, so the buffers total
# CHUNK_UNIFORMS * 8 bytes (512 KiB) at any network size and core count, as
# long as one trial's stride fits in a worker's share.
CHUNK_UNIFORMS = 65_536

# Widest network whose counts add the chunk's mask one local column at a
# time; wider ones write the mask locals-major and sum its N + 1 rows. At a
# 2-worker chunk (32,768 uniforms) the count costs per trial, column loop
# against row sum: 7 against 9 ns at N=5, within 1 ns of each other from
# N=7 to 10, 16 against 15 ns at N=12 and 22-28 against 17 ns at N=16
# (numpy 2.4, 2 shared x86-64 cores). The column loop's per-column calls
# grow with N; the row sum's strided mask writes cost more at small N.
_COLUMN_LOOP_MAX_N = 8

# Bit pattern of 1.0. For non-negative doubles the int64 order of the bit
# patterns is the float order.
_ONE_BITS = int(np.float64(1.0).view(np.int64))


def _uniform_cutoffs(model: ObservationModel, lam) -> np.ndarray:
    """Smallest double u* in [0, 1] at which ``decides_one(model, h, u*, l)``
    holds, for h = 0 in row 0 and h = 1 in row 1 and every threshold l of the
    1-D ``lam``; 1.0 where even u = 1 fails (a nan or +inf threshold), which
    no draw in [0, 1) reaches.

    The test is non-decreasing in u, so a uniform draw u passes exactly when
    u >= u* (inverse-transform sampling; Devroye 1986, ch. 2). All cutoffs
    are bisected together on the int64 bit patterns, about 62 rounds, and
    then checked: the test fails at the double just below each cutoff and
    passes at each cutoff below 1.
    """
    h, lam = np.broadcast_arrays(np.array([[0.0], [1.0]]), np.asarray(lam, dtype=float)[None, :])
    lo = np.zeros(h.shape, dtype=np.int64)  # u = 0 fails: Phi^-1(0) is -inf
    hi = np.full(h.shape, _ONE_BITS, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        # Invariant: the test fails at lo and, unless hi is 1.0, passes at hi.
        # Once hi - lo is 1, mid is lo and neither moves.
        while (hi - lo > 1).any():
            mid = lo + (hi - lo) // 2
            passes = decides_one(model, h, mid.view(np.float64), lam)
            hi = np.where(passes, mid, hi)
            lo = np.where(passes, lo, mid)
        cut = hi.view(np.float64)
        if (decides_one(model, h, np.nextafter(cut, 0.0), lam).any()
                or not decides_one(model, h, cut, lam)[cut < 1.0].all()):
            raise AssertionError("threshold test is not monotone in the uniform draw")
    return cut


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stream(seed: int, stream: int) -> np.random.PCG64DXSM:
    """Stream ``stream`` of ``seed``: 0 draws the hypothesis count, 1 the
    signal uniforms. A double is one 64-bit PCG64DXSM output, so ``advance(k)``
    skips exactly k uniforms."""
    return np.random.PCG64DXSM(np.random.SeedSequence([int(seed), stream]))


def _count_trials(seed: int, h0_trials: int, cut_local: np.ndarray, cut_fusion: np.ndarray,
                  chunk_size: int, first: int, stop: int) -> tuple[int, int]:
    """(false alarms, missed detections) of trials [first, stop), of which
    those below ``h0_trials`` are under H=0 and the rest under H=1.

    Trial t reads the N + 1 uniforms at position t*(N + 1) of the signal
    stream of ``seed``: the fusion signal, then one per local. The stream is
    advanced to trial ``first`` and drawn chunk after chunk of at most
    ``chunk_size`` trials of one hypothesis into one buffer, so any
    partition of the trial range gives counts that sum to those of one pass.
    ``cut_local`` is the (2, N) and ``cut_fusion`` the (2, N + 1) cutoff
    table of ``_uniform_cutoffs``.

    Each chunk is compared whole, in one call, with its hypothesis's cutoff
    row tiled to the chunk; the fusion column's cutoff there is 1.0, which
    no draw reaches, so a trial's ones are its local decide-ones. Up to
    ``_COLUMN_LOOP_MAX_N`` locals the mask's byte columns are added into the
    count; above it the mask is written locals-major and its rows summed.
    The count has the smallest unsigned type that holds N, so neither sum
    casts below 256 locals. Per trial, beyond its N + 1 draws at about
    2.2 ns each, counting costs about 4 ns at N=2, 18-19 at N=16, 22-23 at
    N=20 and 190-203 at N=200 (one thread, 2-worker chunks, numpy 2.4,
    2 shared x86-64 cores).
    """
    n = cut_local.shape[1]
    stride = n + 1
    gen = np.random.Generator(_stream(seed, 1).advance(first * stride))
    rows = min(chunk_size, stop - first)
    buf = np.empty((rows, stride))
    cut_rows = np.empty((rows, stride))
    cut_rows[:, 0] = 1.0
    column_loop = n <= _COLUMN_LOOP_MAX_N
    mask = np.empty((rows, stride) if column_loop else (stride, rows), dtype=bool)
    mask_bytes = mask.view(np.uint8)
    count = np.empty(rows, dtype=np.min_scalar_type(n))
    ones = [0, 0]  # fusion decide-ones under H=0 and under H=1
    # The slice holds at most one run of each hypothesis.
    for h, run_first, run_stop in ((0, first, min(stop, h0_trials)),
                                   (1, max(first, h0_trials), stop)):
        cut_rows[:, 1:] = cut_local[h]
        for start in range(run_first, run_stop, chunk_size):
            size = min(chunk_size, run_stop - start)
            u, c = buf[:size], count[:size]
            gen.random(out=u)
            # Each trial's count of local decide-ones indexes its fusion cutoff.
            if column_loop:
                np.greater_equal(u, cut_rows[:size], out=mask[:size])
                c.fill(0)
                for j in range(1, stride):
                    np.add(c, mask_bytes[:size, j], out=c)
            else:
                np.greater_equal(u, cut_rows[:size], out=mask[:, :size].T)
                np.add.reduce(mask_bytes[:, :size], axis=0, out=c)
            ones[h] += int(np.count_nonzero(u[:, 0] >= np.take(cut_fusion[h], c)))
    h1_trials = max(0, stop - max(first, h0_trials))
    return ones[0], h1_trials - ones[1]


def simulate(spec: SimulationSpec) -> SimulationResult:
    """Simulate the full network forward and average the incurred cost.

    The number of trials under H=1 is drawn once, h1 ~ Binomial(trials,
    1 - pi0), from stream 0 of the seed; trials [0, trials - h1) are under
    H=0 and the rest under H=1. The trials are exchangeable, so the counts
    have exactly the joint law of one independent hypothesis per trial.
    Signal draws are at fixed positions: trial t reads the N + 1 uniforms
    at position t*(N + 1) of stream 1 of the seed, a PCG64DXSM generator
    (O'Neill 2014) keyed by ``SeedSequence([seed, 1])``: the fusion signal,
    then one per local signal. The stride is unpadded, since each uniform
    is one 64-bit output. A signal is never formed: each test
    h + sigma*Phi^-1(u) > lam is decided as u >= u*, with the cutoff u* of
    every (hypothesis, threshold) pair from ``_uniform_cutoffs``, so the
    counts are those of that test on the inverse-CDF signal. A chunk holds
    trials of one hypothesis and is compared, in one call, with that
    hypothesis's row of cutoffs tiled to the chunk (``_count_trials``).

    Time is O(trials * N) after the one-off cutoff bisection. The trial range
    is cut into one contiguous slice per worker, one worker per usable CPU
    but no more than there are chunks; a single worker runs inline, more run
    on threads that are joined before this returns (PCG64DXSM draws and
    numpy comparisons release the GIL). Each worker advances its own copy of
    stream 1 to the first trial of its slice, so every trial sees the same
    uniforms on any number of cores, and the integer counts are summed:
    results are identical for any core count and any chunking. Each of w
    workers draws chunks of ``CHUNK_UNIFORMS`` / w uniforms (at least one
    trial) into one buffer and compares them with a tiled cutoff table of
    the same size, so the two total ``CHUNK_UNIFORMS`` * 16 bytes (1 MiB)
    and the traced peak stays about 1.3 MB at any N and any core count
    (1.1-1.3 MB for N from 2 to 2000 on 1, 2 and 16 workers; 1.4 MB at
    N=2000 on 16).

    Raises ``FloatingPointError`` naming sigma, before any draw, when the
    network's ``exact_risk`` is not finite (only a sigma outside about
    [1e-154, 1e152] brings that about): its fusion thresholds are then not
    finite, and the counts would be those of a test that is not defined.
    """
    cfg = spec.config
    n = cfg.n_local
    sigma = cfg.model.sigma
    lam_local = np.array(
        [threshold_from_belief(cfg.model, cfg.costs, q) for q in cfg.q_local]
    )
    report = exact_risk(cfg)
    if not math.isfinite(report.r0):
        raise FloatingPointError(f"exact risk is not finite (R0={report.r0!r}) at sigma={sigma!r}: "
                                 f"the fusion thresholds to simulate are not finite")
    cut_local = _uniform_cutoffs(cfg.model, lam_local)
    cut_fusion = _uniform_cutoffs(cfg.model, report.thresholds)

    h1 = int(np.random.Generator(_stream(spec.seed, 0)).binomial(spec.trials, 1.0 - cfg.pi0))
    stride = n + 1
    workers = min(_usable_cpus(), -(-spec.trials // max(1, CHUNK_UNIFORMS // stride)))
    # The workers share one budget of CHUNK_UNIFORMS, so memory does not grow
    # with the core count either.
    chunk_size = max(1, CHUNK_UNIFORMS // (stride * workers))
    bounds = [spec.trials * k // workers for k in range(workers + 1)]

    def count(first, stop):
        return _count_trials(spec.seed, spec.trials - h1, cut_local, cut_fusion, chunk_size,
                             first, stop)

    if workers == 1:
        parts = [count(0, spec.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(count, bounds[:-1], bounds[1:]))
    fa, md = map(sum, zip(*parts))

    c_fa, c_md = cfg.costs.c_fa, cfg.costs.c_md
    cost_sum = c_fa * fa + c_md * md
    mean = cost_sum / spec.trials
    sq_sum = c_fa * c_fa * fa + c_md * c_md * md
    var = max(0.0, (sq_sum - spec.trials * mean * mean) / (spec.trials - 1))
    return SimulationResult(
        empirical_risk=mean,
        fa_count=fa,
        md_count=md,
        trials=spec.trials,
        std_error=math.sqrt(var / spec.trials),
        h0_trials=spec.trials - h1,
        h1_trials=h1,
    )


@dataclass(frozen=True)
class ExponentFit:
    beta_hat: float
    intercept: float
    r_squared: float
    n_used: tuple[int, ...]
    risks: tuple[float, ...]
    limit: float
    region: PhaseRegion
    truncated: bool


def estimate_exponent(pi0: float, costs: CostPair, model: ObservationModel,
                      q0: float, q1: float, n_list,
                      exact_max_n: int = 2000) -> tuple[float, ExponentFit]:
    """Decay rate of the excess fusion risk in the number of local agents.

    Identical tied beliefs throughout. Every risk is exact, all from one
    ``network.tied_exact_risks`` call, each equal to ``exact_risk``'s r0 at
    its size: sizes from ``network.BINOMIAL_FROM`` on from one O(N) Binomial
    kernel call, smaller ones from one count-DP fold (on a 2-core x86-64,
    about 0.4 ms for the ladder 5:60:5 and 0.5 ms for one size of 2000,
    against 13 ms for a fold to 2000 agents). ``exact_max_n`` bounds the
    ladder: a size above it raises ``ValueError`` naming the bound, before
    any work. With the kernel the bound no longer guards a cost; it stays
    until the benchmark no longer passes the parameter (ROADMAP item 4). The
    distance to the classified limit is fit log-linearly against the size by
    least squares; once that distance collapses to floating-point resolution
    the remaining sizes are dropped and the fit is flagged as truncated
    (fewer than 3 left: ``FloatingPointError``). Returns (slope, diagnostics).
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])) or n_list[0] < 1:
        raise ValueError("n_list must hold at least 3 strictly increasing sizes >= 1")
    if n_list[-1] > exact_max_n:
        raise ValueError(f"size {n_list[-1]} is above exact_max_n={exact_max_n}, "
                         f"the largest size of an exact ladder")
    cls = classify_phase(model, costs, q0, q1, pi0)
    if cls.region is PhaseRegion.BOUNDARY:
        raise ValueError("beliefs sit on a phase-region boundary; the limit is undefined")
    limit = cls.limit_risk
    risks = tied_exact_risks(pi0, costs, model, q0, q1, n_list)

    residuals = [abs(r - limit) for r in risks]
    floor = 64.0 * np.finfo(float).eps * max(1.0, limit, max(risks))
    keep = len(residuals)
    for idx, res in enumerate(residuals):
        if res <= floor:
            keep = idx
            break
    truncated = keep < len(residuals)
    if keep < 3:
        raise FloatingPointError("fewer than 3 sizes with resolvable excess risk; shrink n_list")

    ns = np.asarray(n_list[:keep], dtype=float)
    y = -np.log(np.asarray(residuals[:keep]))
    slope, intercept = np.polyfit(ns, y, 1)
    fitted = slope * ns + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    fit = ExponentFit(
        beta_hat=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        n_used=tuple(n_list[:keep]),
        risks=tuple(float(r) for r in risks),
        limit=limit,
        region=cls.region,
        truncated=truncated,
    )
    return float(slope), fit
