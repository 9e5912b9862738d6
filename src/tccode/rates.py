"""Coding-rate evaluation: exact and Monte-Carlo overflow-rate distributions,
the three-term asymptotic prediction, and a normality diagnostic for the
information density, exact at every length it accepts: that density depends
on a sequence only through its integer statistic sum."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .dictionary import Dictionary, DictionaryError, TCProfile, length_masses
from .models import ExpFamilyModel, ModelError, entropy_varentropy, log_partition, probs
from .normal import gaussian_quantile, gaussian_tail
from .qtypes import CountingCapError, scaled_statistics


@dataclass
class RateDistribution:
    """Law of the first-segment length, with the rate read as log2(M)/length."""

    masses: Dict[int, float]
    m_for_rate: int
    mode: str = "exact"
    n_samples: Optional[int] = None

    def __post_init__(self):
        if any(p < 0 for p in self.masses.values()):
            raise ValueError("negative probability mass")
        self.masses = dict(sorted(self.masses.items()))

    def rate_support(self) -> List[float]:
        logm = math.log2(self.m_for_rate)
        return sorted((logm / ell for ell in self.masses), reverse=True)

    def tail_at_rate(self, rate: float) -> float:
        """P(log2 M / length >= rate)."""
        logm = math.log2(self.m_for_rate)
        return math.fsum(p for ell, p in self.masses.items() if logm / ell >= rate)


@dataclass
class RateEstimate:
    rate: float
    attained: bool
    mode: str
    ci_halfwidth: Optional[float] = None


def exact_rate_distribution(dictionary: Dictionary, theta) -> RateDistribution:
    """Exact length distribution of a dictionary, from its leaf classes."""
    return RateDistribution(
        length_masses(dictionary.model, dictionary.leaf_classes(), theta),
        dictionary.m_target)


def profile_rate_distribution(profile: TCProfile, model: ExpFamilyModel, theta,
                              m_for_rate: int) -> RateDistribution:
    """Exact length distribution from the aggregated leaf-class profile."""
    return RateDistribution(length_masses(model, profile.leaf_classes, theta),
                            m_for_rate)


# Samples walked together by mc_rate_distribution: its arrays hold at most
# this many entries besides the table.
MC_BLOCK_ROWS = 4096


def mc_rate_distribution(dictionary: Dictionary, theta, n_samples: int,
                         seed: int) -> RateDistribution:
    """Empirical first-segment length distribution over sampled streams.

    The samples walk the table in blocks of MC_BLOCK_ROWS, each from the
    root.  At each depth every sample still walking draws one letter under
    p_theta, all from one generator of the seed, so a sample draws only the
    letters its parse reads.  A missing child raises DictionaryError.
    """
    import numpy as np

    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    k = dictionary.model.alphabet_size
    p = np.array(probs(dictionary.model, theta))
    cells = np.array(dictionary.trie().cells, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    ended: Dict[int, int] = {}
    for start in range(0, n_samples, MC_BLOCK_ROWS):
        node = np.zeros(min(MC_BLOCK_ROWS, n_samples - start), dtype=np.int64)
        depth = 0
        while node.size:
            depth += 1
            entry = cells[node + rng.choice(k, size=node.size, p=p)]
            if not entry.all():
                raise DictionaryError("letter not parseable at depth %d" % depth)
            node = entry[entry > 0]
            ended[depth] = ended.get(depth, 0) + entry.size - node.size
    masses = {ell: c / n_samples for ell, c in ended.items() if c}
    return RateDistribution(masses, dictionary.m_target, mode="mc",
                            n_samples=n_samples)


def eps_coding_rate(dist: RateDistribution, eps: float) -> RateEstimate:
    """inf{R : P(log2 M / length >= R) <= eps} from the exact step function."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly inside (0, 1)")
    support = dist.rate_support()
    if not support:
        raise ValueError("empty rate distribution")
    rate, attained = _largest_exceeding(dist, support, eps)
    ci = None
    if dist.mode == "mc":
        n = dist.n_samples or 1
        half = 1.96 * math.sqrt(eps * (1.0 - eps) / n)
        lo_eps = max(eps - half, 1e-12)
        hi_eps = min(eps + half, 1.0 - 1e-12)
        bounds = [_largest_exceeding(dist, support, e)[0] for e in (lo_eps, hi_eps)]
        ci = max(abs(b - rate) for b in bounds)
    return RateEstimate(rate, attained, dist.mode, ci)


def _largest_exceeding(dist: RateDistribution, support: List[float],
                       eps: float) -> Tuple[float, bool]:
    """(largest support rate whose tail exceeds eps, False), or
    (smallest support rate, True) when no tail exceeds eps.

    The tail only grows along the descending support, so the rates whose
    tail exceeds eps form a suffix of it; bisection finds where it starts.
    """
    lo, hi = 0, len(support)
    while lo < hi:
        mid = (lo + hi) // 2
        if dist.tail_at_rate(support[mid]) > eps:
            hi = mid
        else:
            lo = mid + 1
    if lo < len(support):
        return support[lo], False
    return support[-1], True


@dataclass
class AsymptoticPrediction:
    first: float
    second: float
    third: float
    iterative_rate: Optional[float] = None

    @property
    def total(self) -> float:
        return self.first + self.second + self.third


def predicted_rate(entropy: float, sigma: float, stat_dim: int, m: int,
                   eps: float, mode: str = "formula") -> AsymptoticPrediction:
    """Three-term rate expansion, optionally solved self-consistently.

    The iterative mode runs the fixed point
    R <- H + sigma sqrt(R/log2 M) Qinv(eps) + R (d/2) log2 log2 M / log2 M
    to 1e-12.
    """
    if entropy <= 0 or sigma < 0 or m < 4 or not 0.0 < eps < 1.0:
        raise ValueError("require H > 0, sigma >= 0, M >= 4, eps in (0, 1)")
    logm = math.log2(m)
    qinv = gaussian_quantile(eps)

    def terms(rate: float) -> Tuple[float, float]:
        """Second and third terms, with the rate in place of H."""
        return (sigma * math.sqrt(rate / logm) * qinv,
                rate * 0.5 * stat_dim * math.log2(logm) / logm)

    second, third = terms(entropy)
    pred = AsymptoticPrediction(entropy, second, third)
    if mode == "iterative":
        r = entropy
        for _ in range(10000):
            if r <= 0:
                raise RuntimeError("fixed-point iteration left the positive axis")
            second_r, third_r = terms(r)
            nxt = entropy + second_r + third_r
            if abs(nxt - r) < 1e-12:
                pred.iterative_rate = nxt
                return pred
            r = nxt
        raise RuntimeError("fixed-point iteration did not converge")
    if mode != "formula":
        raise ValueError("mode must be 'formula' or 'iterative'")
    return pred


# A normality call costs about ell * (mass-table cells) * k float adds; one
# past either cap fails before it allocates anything.
NORMALITY_MAX_ADDS = 10 ** 10
NORMALITY_MAX_CELLS = 2 ** 22


def _sum_masses(model: ExpFamilyModel, theta, ell: int):
    """(masses, low, D): masses[j] is the probability under p_theta that a
    length-ell sequence has statistic sum (j + ell * low) / D, with D and
    the integer letter statistics from qtypes.scaled_statistics.  Each letter
    adds k shifted, weighted copies: TypeCounter's convolution, in floats."""
    import numpy as np

    scale, stats, _ = scaled_statistics(model)
    low = np.min(stats, axis=0)
    shifts = np.array(stats) - low
    span = shifts.max(axis=0).tolist()
    cells = math.prod(s * ell + 1 for s in span)
    adds = ell * cells * model.alphabet_size
    if adds > NORMALITY_MAX_ADDS or cells > NORMALITY_MAX_CELLS:
        raise CountingCapError(
            "normality at ell=%d needs %d adds over %d cells (caps %d, %d)"
            % (ell, adds, cells, NORMALITY_MAX_ADDS, NORMALITY_MAX_CELLS))
    p = probs(model, theta)
    masses = np.ones((1,) * model.stat_dim)
    for length in range(1, ell + 1):
        grown = np.zeros([s * length + 1 for s in span])
        for px, shift in zip(p, shifts):
            window = tuple(slice(a, a + n) for a, n in zip(shift, masses.shape))
            grown[window] += px * masses
        masses = grown
    return masses, low, scale


def normality_deviation(model: ExpFamilyModel, theta, ell: int) -> float:
    """sup over a fixed z grid of |P(normalized information > z) - Q(z)|.

    The information density ell psi - <theta, A>/D of a sequence with
    integer statistic sum A is read off _sum_masses.  Degenerate
    (zero-varentropy) sources are rejected.

    Ties are decided in floats.  A sum whose exact z is a grid point falls
    on whichever side float rounding puts it: at bernoulli theta=-2 and
    ell=16384 the sums 3136, 3264 and 3392 have z = -2.75, -0.25 and 2.25
    exactly, come out just above them and so count in P(. > z).  Exact
    arithmetic would leave them out; the deviation there is 0.0042383
    instead of 0.0044949, one atom (2.6e-4) apart.
    """
    import numpy as np

    if ell < 1:
        raise ValueError("ell must be at least 1")
    entropy, var = entropy_varentropy(model, theta)
    if var <= 1e-14:
        raise ModelError("zero varentropy: the normal approximation is degenerate")
    masses, low, scale = _sum_masses(model, theta, ell)
    sums = np.indices(masses.shape) + (ell * low).reshape((-1,) + (1,) * masses.ndim)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    info = ell * log_partition(model, theta) - np.tensordot(theta, sums / scale, axes=1)
    z_values = (info - ell * entropy) / (math.sqrt(var) * math.sqrt(ell))
    return max(abs(float(masses[z_values > z].sum()) - gaussian_tail(float(z)))
               for z in np.linspace(-3.0, 3.0, 121))


def task_seed(master_seed: int, *coords) -> int:
    """Stable per-task seed derived from the master seed and coordinates."""
    import zlib

    import numpy as np

    material = (int(master_seed),) + tuple(
        zlib.crc32(repr(c).encode("utf-8")) for c in coords
    )
    return int(np.random.SeedSequence(material).generate_state(1)[0])
