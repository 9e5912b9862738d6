"""Coding-rate evaluation: exact and Monte-Carlo overflow-rate distributions,
the three-term asymptotic prediction, and a normality diagnostic for the
information density, exact at every length it accepts: that density depends
on a sequence only through its integer statistic sum."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .dictionary import Dictionary, DictionaryError, TCProfile, length_masses
from .models import ExpFamilyModel, ModelError, entropy_varentropy, log_partition, probs
from .normal import gaussian_quantile, gaussian_tail
from .qtypes import CountingCapError, lattice


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


def mc_rate_distribution(dictionary: Dictionary, theta, n_samples: int,
                         seed: int) -> RateDistribution:
    """Empirical first-segment length distribution over sampled streams.

    The samples that reach one table row are exchangeable, so they walk on
    as one count: at each depth every row of the frontier splits its count
    over the letters 0..k-1, letter x taking Binomial(rest, p_x / sum of
    p_y over y >= x) of the samples not yet placed and the last letter the
    rest, all drawn by _binomial from one random.Random of the seed.  Shares
    that reach a leaf end at that depth; shares that reach a row merge into
    the next frontier.  A nonzero share at a missing child raises
    DictionaryError.  The cost follows the rows walked, not the samples.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    k = dictionary.model.alphabet_size
    p = probs(dictionary.model, theta)
    split = []
    for x in range(k - 1):
        tail = math.fsum(p[x:])
        split.append(p[x] / tail if tail else 1.0)
    cells = dictionary.trie().cells
    rng = random.Random(int(seed))
    ended: Dict[int, int] = {}
    frontier = {0: n_samples}
    depth = 0
    while frontier:
        depth += 1
        nxt: Dict[int, int] = {}
        stopped = 0
        for base, rest in frontier.items():
            for x in range(k):
                share = rest if x == k - 1 else _binomial(rng, rest, split[x])
                if share:
                    rest -= share
                    child = cells[base + x]
                    if child > 0:
                        nxt[child] = nxt.get(child, 0) + share
                    elif child:
                        stopped += share
                    else:
                        raise DictionaryError("letter not parseable at depth %d"
                                              % depth)
                    if not rest:
                        break
        if stopped:
            ended[depth] = stopped
        frontier = nxt
    masses = {ell: c / n_samples for ell, c in ended.items()}
    return RateDistribution(masses, dictionary.m_target, mode="mc",
                            n_samples=n_samples)


# Below this mean a binomial draw sums geometric waiting times; from it on,
# BTRS's rejection constants hold (Hormann 1993 requires n p >= 10).
_BTRS_MIN_MEAN = 10.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """An exact Binomial(n, p) draw from rng.

    n = 1 is one Bernoulli draw; p > 1/2 is n minus the draw for 1 - p;
    a mean n p below _BTRS_MIN_MEAN counts the successes of geometric
    waiting times until they pass n (Devroye 1986, ch. X); a larger mean
    takes Hormann's transformed rejection with squeeze, BTRS.  p <= 0 and
    p >= 1 (and n = 0) draw nothing.
    """
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n == 1:
        return 1 if rng.random() < p else 0
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if n * p < _BTRS_MIN_MEAN:
        # Each waiting time is Geometric(p) on 1, 2, ...: P(> g) = (1 - p)^g.
        log_q = math.log1p(-p)
        successes = trials = 0
        while True:
            trials += math.floor(math.log(1.0 - rng.random()) / log_q) + 1
            if trials > n:
                return successes
            successes += 1
    return _btrs(rng, n, p)


def _btrs(rng: random.Random, n: int, p: float) -> int:
    """BTRS for p <= 1/2 and n p >= _BTRS_MIN_MEAN.  The acceptance test
    takes log f(k) / f(mode) from Loader's saddle-point terms, whose float
    error stays near one ulp of the result for any n, where lgamma's grows
    with n log n."""
    q = 1.0 - p
    spq = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    mode = math.floor((n + 1) * p)
    pn, qn = (n + 2) * p, (n + 2) * q

    def log_f(j: int) -> float:
        """log f(j) up to a term free of j."""
        return (0.5 * math.log((j + 1) * (n - j + 1))
                - _bd0(j + 1, pn) - _bd0(n - j + 1, qn)
                - _stirling_tail(j) - _stirling_tail(n - j))

    log_f_mode = log_f(mode)
    while True:
        u = rng.random() - 0.5
        v = 1.0 - rng.random()
        us = 0.5 - abs(u)
        if us <= 0.0:
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        if us >= 0.07 and v <= v_r:
            return k
        if math.log(v * alpha / (a / (us * us) + b)) <= log_f(k) - log_f_mode:
            return k


def _bd0(x: int, mean: float) -> float:
    """x log(x / mean) + mean - x, by its series in (x - mean) / (x + mean)
    where x is near mean and the closed form would cancel."""
    d = x - mean
    if abs(d) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = d / (x + mean)
    total, term, v2 = d * v, 2.0 * x * v, v * v
    j = 1
    while True:
        term *= v2
        nxt = total + term / (2 * j + 1)
        if nxt == total:
            return total
        total = nxt
        j += 1


def _stirling_tail(k: int) -> float:
    """lgamma(k + 1) minus its Stirling approximation
    (k + 1/2) log(k + 1) - (k + 1) + log(2 pi) / 2."""
    if k < 10:
        return math.lgamma(k + 1) - ((k + 0.5) * math.log(k + 1) - (k + 1)
                                     + _HALF_LOG_2PI)
    kp1sq = (k + 1) * (k + 1)
    return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / kp1sq) / kp1sq) / (k + 1)


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
    length-ell sequence has statistic sum (j + ell * low) / D, on the
    integer sums of the model's qtypes.lattice.  Each letter adds k shifted,
    weighted copies: TypeCounter's convolution, in floats."""
    import numpy as np

    scale, low, step, shifts = lattice(model)
    shifts = [[v * g for v, g in zip(shift, step)] for shift in shifts]
    span = [max(axis) for axis in zip(*shifts)]
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
    return masses, np.array(low), scale


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
    """Stable per-task seed derived from the master seed and coordinates:
    the first 8 bytes of the SHA-256 of their reprs, the same in every
    process whatever PYTHONHASHSEED is."""
    import hashlib

    material = repr((int(master_seed),) + coords).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
