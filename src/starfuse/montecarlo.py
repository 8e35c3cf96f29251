"""Stochastic oracle: forward simulation of the network and an empirical
estimate of how fast the fusion risk approaches its many-agent limit."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .asymptotics import PhaseRegion, classify_phase
from .network import NetworkConfig, exact_risk
from .observation import CostPair, ObservationModel, threshold_from_belief


@dataclass(frozen=True)
class SimulationSpec:
    config: NetworkConfig
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= int(self.seed) < 2**64:
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


# Uniforms drawn per chunk of trials: a chunk holds max(1, CHUNK_UNIFORMS //
# stride) trials, so its working memory does not grow with the network size.
CHUNK_UNIFORMS = 262_144

# Bit pattern of 1.0. For non-negative doubles the int64 order of the bit
# patterns is the float order.
_ONE_BITS = int(np.float64(1.0).view(np.int64))


def _decides_one(h, sigma: float, u, lam):
    """The threshold test of a signal drawn from uniform ``u`` by inverse
    transform under hypothesis ``h`` (0.0 or 1.0): h + sigma*Phi^-1(u) > lam."""
    return h + sigma * ndtri(u) > lam


def _uniform_cutoffs(sigma: float, lam) -> np.ndarray:
    """Smallest double u* in [0, 1] at which ``_decides_one(h, sigma, u*, l)``
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
    lo = np.zeros(h.shape, dtype=np.int64)  # u = 0 fails: ndtri(0) is -inf
    hi = np.full(h.shape, _ONE_BITS, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        # Invariant: the test fails at lo and, unless hi is 1.0, passes at hi.
        # Once hi - lo is 1, mid is lo and neither moves.
        while (hi - lo > 1).any():
            mid = lo + (hi - lo) // 2
            passes = _decides_one(h, sigma, mid.view(np.float64), lam)
            hi = np.where(passes, mid, hi)
            lo = np.where(passes, lo, mid)
        cut = hi.view(np.float64)
        if (_decides_one(h, sigma, np.nextafter(cut, 0.0), lam).any()
                or not _decides_one(h, sigma, cut, lam)[cut < 1.0].all()):
            raise AssertionError("threshold test is not monotone in the uniform draw")
    return cut


def simulate(spec: SimulationSpec) -> SimulationResult:
    """Simulate the full network forward and average the incurred cost.

    Draws are counter-based: trial t consumes a fixed stride of uniforms
    starting at position t*stride of the Philox stream keyed by the seed
    (stride padded to the 4-word block size): the hypothesis, the fusion
    signal, then one per local signal. A signal is never formed: each test
    h + sigma*Phi^-1(u) > lam is decided as u >= u*, with the cutoff u* of
    every (hypothesis, threshold) pair from ``_uniform_cutoffs``, so the
    counts are those of that test on the inverse-CDF signal.

    Time is O(trials * N) after the one-off cutoff bisection. Trials run in
    chunks of ``CHUNK_UNIFORMS`` uniforms (at least one trial), so the
    working memory stays about 4.5 MB at any N; results are bit-identical
    for any partition of the trial range.
    """
    cfg = spec.config
    n = cfg.n_local
    sigma = cfg.model.sigma
    lam_local = np.array(
        [threshold_from_belief(cfg.model, cfg.costs, q) for q in cfg.q_local]
    )
    lam_fusion = np.array([lam for _, _, lam in exact_risk(cfg).per_count])
    cut_local = _uniform_cutoffs(sigma, lam_local)
    cut_fusion = _uniform_cutoffs(sigma, lam_fusion)

    stride = 4 * ((n + 2 + 3) // 4)
    chunk_size = max(1, CHUNK_UNIFORMS // stride)
    fa = md = h1 = 0
    for start in range(0, spec.trials, chunk_size):
        m = min(chunk_size, spec.trials - start)
        bitgen = np.random.Philox(key=spec.seed)
        if start:
            bitgen.advance(start * stride // 4)
        u = np.random.Generator(bitgen).random((m, stride))
        h = u[:, 0] >= cfg.pi0  # True -> H=1
        row = h.view(np.int8)  # cutoff row of each trial's hypothesis
        counts = np.count_nonzero(u[:, 2:n + 2] >= cut_local[row], axis=1)
        decide_one = u[:, 1] >= cut_fusion[row, counts]
        fa += int(np.count_nonzero(decide_one & ~h))
        md += int(np.count_nonzero(~decide_one & h))
        h1 += int(np.count_nonzero(h))

    c_fa, c_md = cfg.costs.c_fa, cfg.costs.c_md
    cost_sum = c_fa * fa + c_md * md
    mean = cost_sum / spec.trials
    if spec.trials > 1:
        sq_sum = c_fa * c_fa * fa + c_md * c_md * md
        var = max(0.0, (sq_sum - spec.trials * mean * mean) / (spec.trials - 1))
    else:
        var = 0.0
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
                      q0: float, q1: float, n_list, trials: int = 200_000,
                      seed: int = 0, exact_max_n: int = 200) -> tuple[float, ExponentFit]:
    """Decay rate of the excess fusion risk in the number of local agents.

    Risks are exact (count dynamic program) for sizes up to ``exact_max_n``
    and simulated with the given budget beyond; identical tied beliefs
    throughout. The distance to the classified limit is fit log-linearly
    against the size by least squares; once that distance collapses to
    floating-point resolution the remaining sizes are dropped and the fit is
    flagged as truncated. Returns (slope, diagnostics).
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])) or n_list[0] < 1:
        raise ValueError("n_list must hold at least 3 strictly increasing sizes >= 1")
    cls = classify_phase(model, costs, q0, q1, pi0)
    if cls.region is PhaseRegion.BOUNDARY:
        raise ValueError("beliefs sit on a phase-region boundary; the limit is undefined")
    limit = cls.limit_risk

    risks = []
    for idx, n in enumerate(n_list):
        config = NetworkConfig(pi0, costs, model, q0, (q1,) * n)
        if n <= exact_max_n:
            risks.append(exact_risk(config).r0)
        else:
            risks.append(simulate(SimulationSpec(config, trials, seed + idx)).empirical_risk)

    residuals = [abs(r - limit) for r in risks]
    floor = 64.0 * np.finfo(float).eps * max(1.0, limit, max(risks))
    keep = len(residuals)
    for idx, res in enumerate(residuals):
        if res <= floor:
            keep = idx
            break
    truncated = keep < len(residuals)
    if keep < 3:
        raise ValueError("fewer than 3 sizes with resolvable excess risk; shrink n_list")

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
