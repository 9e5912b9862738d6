"""Coding-rate evaluation: exact and Monte-Carlo overflow-rate distributions,
the three-term asymptotic prediction, and a normality diagnostic for the
information density."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dictionary import Dictionary, TCProfile, choose_gamma_profile, length_masses
from .models import (
    ExpFamilyModel,
    ModelError,
    entropy_varentropy,
    letter_log_probs,
    sample_stream,
)
from .normal import gaussian_quantile, gaussian_tail
from .qtypes import (
    CountingCapError,
    Grid,
    TypeCounter,
    composition_count,
    compositions,
    multinomial,
)


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

    @property
    def total_mass(self) -> float:
        return math.fsum(self.masses.values())

    def rate_support(self) -> List[float]:
        logm = math.log2(self.m_for_rate)
        return sorted((logm / ell for ell in self.masses), reverse=True)

    def tail_at_rate(self, rate: float) -> float:
        """P(log2 M / length >= rate)."""
        logm = math.log2(self.m_for_rate)
        return math.fsum(p for ell, p in self.masses.items() if logm / ell >= rate)


@dataclass
class RateEstimate:
    epsilon: float
    rate: float
    attained: bool
    mode: str
    ci_halfwidth: Optional[float] = None


def exact_rate_distribution(dictionary: Dictionary, theta,
                            m_for_rate: Optional[int] = None) -> RateDistribution:
    """Exact length distribution of a materialized dictionary, from its leaf
    classes."""
    return RateDistribution(
        length_masses(dictionary.model, dictionary.leaf_classes(), theta),
        m_for_rate or dictionary.m_target)


def profile_rate_distribution(profile: TCProfile, model: ExpFamilyModel, theta,
                              m_for_rate: int) -> RateDistribution:
    """Exact length distribution from the aggregated leaf-class profile."""
    return RateDistribution(length_masses(model, profile.leaf_classes, theta),
                            m_for_rate)


def mc_rate_distribution(dictionary: Dictionary, theta, n_samples: int,
                         seed: int, m_for_rate: Optional[int] = None) -> RateDistribution:
    """Empirical first-segment length distribution over sampled streams."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    model = dictionary.model
    p = np.exp2(letter_log_probs(model, theta))
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    max_len = dictionary.max_segment_length()
    root = dictionary.trie()
    counts: Dict[int, int] = {}
    chunk = 4096
    for start in range(0, n_samples, chunk):
        block = min(chunk, n_samples - start)
        letters = rng.choice(model.alphabet_size, size=(block, max_len), p=p)
        for row in letters:
            node = root
            for depth in range(max_len):
                child = node[int(row[depth])]
                if isinstance(child, dict):
                    node = child
                else:
                    counts[depth + 1] = counts.get(depth + 1, 0) + 1
                    break
    masses = {ell: c / n_samples for ell, c in counts.items()}
    return RateDistribution(masses, m_for_rate or dictionary.m_target,
                            mode="mc", n_samples=n_samples)


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
    return RateEstimate(eps, rate, attained, dist.mode, ci)


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
    entropy: float
    sigma: float
    stat_dim: int
    m: int
    epsilon: float
    first: float
    second: float
    third: float
    mode: str
    iterative_rate: Optional[float] = None
    iterations: Optional[int] = None

    @property
    def total(self) -> float:
        return self.first + self.second + self.third

    @property
    def gap_scaled(self) -> Optional[float]:
        """(iterative - formula) times log2 M; bounded iff the gap is O(1/log M)."""
        if self.iterative_rate is None:
            return None
        return (self.iterative_rate - self.total) * math.log2(self.m)


def predicted_rate(entropy: float, sigma: float, stat_dim: int, m: int,
                   eps: float, mode: str = "formula",
                   extra_constant: float = 0.0) -> AsymptoticPrediction:
    """Three-term rate expansion, optionally solved self-consistently.

    The iterative mode runs the fixed point
    R <- H + sigma sqrt(R/log2 M) Qinv(eps) + R (d/2) log2 log2 M / log2 M + C/log2 M
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
    pred = AsymptoticPrediction(entropy, sigma, stat_dim, m, eps,
                                entropy, second, third, mode)
    if mode == "iterative":
        r = entropy
        for iteration in range(1, 10001):
            if r <= 0:
                raise RuntimeError("fixed-point iteration left the positive axis")
            second_r, third_r = terms(r)
            nxt = entropy + second_r + third_r + extra_constant / logm
            if abs(nxt - r) < 1e-12:
                pred.iterative_rate = nxt
                pred.iterations = iteration
                return pred
            r = nxt
        raise RuntimeError("fixed-point iteration did not converge")
    if mode != "formula":
        raise ValueError("mode must be 'formula' or 'iterative'")
    return pred


def normality_deviation(model: ExpFamilyModel, theta, ell: int,
                        z_grid: Optional[Sequence[float]] = None,
                        exact_cap: int = 10 ** 6,
                        n_samples: int = 10 ** 5, seed: int = 0) -> float:
    """sup over the z grid of |P(normalized information > z) - Q(z)|.

    Exact through composition enumeration when affordable, Monte-Carlo
    otherwise.  Degenerate (zero-varentropy) sources are rejected.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    entropy, var = entropy_varentropy(model, theta)
    if var <= 1e-14:
        raise ModelError("zero varentropy: the normal approximation is degenerate")
    sigma = math.sqrt(var)
    if z_grid is None:
        z_grid = np.linspace(-3.0, 3.0, 121)
    k = model.alphabet_size
    if composition_count(ell, k) <= exact_cap:
        infos = []
        masses = []
        lp = letter_log_probs(model, theta)
        for counts in compositions(ell, k):
            logp = float(sum(c * lp[x] for x, c in enumerate(counts)))
            infos.append(-logp)
            masses.append(2.0 ** (math.log2(multinomial(counts)) + logp))
        infos = np.array(infos)
        masses = np.array(masses)
    else:
        rng_infos = []
        lp = letter_log_probs(model, theta)
        for trial in range(n_samples):
            seq = sample_stream(model, theta, seed + trial, ell)
            rng_infos.append(float(-lp[seq].sum()))
        infos = np.array(rng_infos)
        masses = np.full(len(infos), 1.0 / len(infos))
    z_values = (infos - ell * entropy) / (sigma * math.sqrt(ell))
    worst = 0.0
    for z in z_grid:
        tail = float(masses[z_values > z].sum())
        worst = max(worst, abs(tail - gaussian_tail(float(z))))
    return worst


def sweep_row(model: ExpFamilyModel, theta, m: int, eps: float, gamma: float,
              profile: TCProfile) -> dict:
    """One SWEEP_COLUMNS row of numbers; mc_rate and ci are left empty.

    residual subtracts all three predicted terms; residual_scaled is the
    model-cost view (rate minus the first two terms) times log2 M / log2 log2 M,
    whose limit is H d/2.
    """
    est = eps_coding_rate(profile_rate_distribution(profile, model, theta, m), eps)
    entropy, var = entropy_varentropy(model, theta)
    pred = predicted_rate(entropy, math.sqrt(var), model.stat_dim, m, eps)
    logm = math.log2(m)
    return {
        "model_id": model.name,
        "theta": ",".join("%.12g" % t for t in theta),
        "M": m,
        "eps": eps,
        "gamma": gamma,
        "dict_size": profile.leaf_count,
        "exact_rate": est.rate,
        "mc_rate": "",
        "ci": "",
        "predicted_first": pred.first,
        "predicted_second": pred.second,
        "predicted_third": pred.third,
        "residual": est.rate - pred.first - pred.second - pred.third,
        "residual_scaled": (est.rate - pred.first - pred.second) * logm / math.log2(logm),
    }


def sup_residual(model: ExpFamilyModel, grid: Grid, thetas, m: int, eps: float,
                 counter: Optional[TypeCounter] = None) -> List[dict]:
    """One sweep_row per true parameter, on one threshold dictionary of size m."""
    counter = counter or TypeCounter(model, grid)
    gamma, profile = choose_gamma_profile(model, grid, m, counter=counter)
    return [sweep_row(model, np.atleast_1d(np.asarray(theta, dtype=float)), m, eps,
                      gamma, profile) for theta in thetas]


SWEEP_COLUMNS = [
    "model_id", "theta", "M", "eps", "gamma", "dict_size", "exact_rate",
    "mc_rate", "ci", "predicted_first", "predicted_second", "predicted_third",
    "residual", "residual_scaled",
]


def task_seed(master_seed: int, *coords) -> int:
    """Stable per-task seed derived from the master seed and coordinates."""
    import zlib

    material = (int(master_seed),) + tuple(
        zlib.crc32(repr(c).encode("utf-8")) for c in coords
    )
    return int(np.random.SeedSequence(material).generate_state(1)[0])
