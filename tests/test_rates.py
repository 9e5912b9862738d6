import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tccode import dictionary as D
from tccode import models as M
from tccode import qtypes as Q
from tccode import rates as R
from tccode.normal import gaussian_quantile, gaussian_tail

from oracles import FRAC, eps_rate_scan, normality_oracle, sum_masses_oracle


BERN = M.bernoulli()
GRID = Q.construction_grid()


# ---------------------------------------------------------------------------
# Normal utilities.

def test_gaussian_tail_values():
    assert gaussian_tail(0.0) == pytest.approx(0.5, abs=1e-15)
    assert gaussian_tail(1.2815515655446004) == pytest.approx(0.1, abs=1e-12)
    assert gaussian_tail(-1e9) == pytest.approx(1.0, abs=1e-15)


def test_gaussian_quantile_values():
    assert gaussian_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert gaussian_quantile(0.1) == pytest.approx(1.2815515655446004, abs=1e-10)
    assert gaussian_quantile(0.9) == pytest.approx(-1.2815515655446004, abs=1e-10)
    with pytest.raises(ValueError):
        gaussian_quantile(0.0)
    with pytest.raises(ValueError):
        gaussian_quantile(1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
def test_quantile_inverts_tail(eps):
    assert gaussian_tail(gaussian_quantile(eps)) == pytest.approx(eps, rel=1e-9)


# ---------------------------------------------------------------------------
# Rate distributions.

def test_rate_distribution_tunstall_m3():
    theta = [math.log2(0.3 / 0.7)]
    d = D.build_tunstall(BERN, theta, 3)
    dist = R.exact_rate_distribution(d, theta)
    assert math.fsum(dist.masses.values()) == pytest.approx(1.0, abs=1e-12)
    assert dist.masses == pytest.approx({1: 0.3, 2: 0.7})
    assert dist.rate_support() == pytest.approx([math.log2(3), math.log2(3) / 2])
    assert dist.tail_at_rate(math.log2(3)) == pytest.approx(0.3, abs=1e-12)
    est = R.eps_coding_rate(dist, 0.2)
    assert est.rate == pytest.approx(math.log2(3), abs=1e-12)
    assert not est.attained
    # With eps above the one-letter mass the quantile drops to the two-letter
    # rate; the infimum itself is never attained for a discrete length law.
    est = R.eps_coding_rate(dist, 0.35)
    assert est.rate == pytest.approx(math.log2(3) / 2, abs=1e-12)
    assert not est.attained


def test_eps_coding_rate_validates_eps():
    d = D.build_tunstall(BERN, [0.0], 4)
    dist = R.exact_rate_distribution(d, [0.0])
    with pytest.raises(ValueError):
        R.eps_coding_rate(dist, 0.0)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(1, 60), st.integers(1, 1000), min_size=1,
                       max_size=25),
       st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
       st.integers(min_value=1, max_value=10 ** 6), st.integers(0, 30))
def test_eps_coding_rate_matches_support_scan(weights, eps, n_samples, at):
    # Bisection over the descending support agrees with testing every point,
    # for the rate and for both Monte-Carlo confidence bounds, also when eps
    # equals a tail value.
    total = sum(weights.values())
    masses = {ell: w / total for ell, w in weights.items()}
    support = R.RateDistribution(masses, 1024).rate_support()
    tail = R.RateDistribution(masses, 1024).tail_at_rate(support[at % len(support)])
    if at % 2 and 0.0 < tail < 1.0:
        eps = tail
    for mode in ("exact", "mc"):
        dist = R.RateDistribution(masses, 1024, mode=mode, n_samples=n_samples)
        est = R.eps_coding_rate(dist, eps)
        assert (est.rate, est.attained) == eps_rate_scan(dist, eps)
        if mode == "mc":
            half = 1.96 * math.sqrt(eps * (1.0 - eps) / n_samples)
            bounds = [eps_rate_scan(dist, e)[0]
                      for e in (max(eps - half, 1e-12), min(eps + half, 1.0 - 1e-12))]
            assert est.ci_halfwidth == max(abs(b - est.rate) for b in bounds)


def test_profile_matches_exact_distribution():
    counter = Q.TypeCounter(BERN, GRID)
    _, searched = D.choose_gamma_profile(BERN, GRID, 64)
    dictionary = D.tc_dictionary(BERN, GRID, searched, m_target=64)
    profile = D.tc_leaf_profile(BERN, GRID, searched.max_internal_size,
                                counter=counter)
    for theta in (-2.0, 0.7):
        a = R.exact_rate_distribution(dictionary, [theta])
        b = R.profile_rate_distribution(profile, BERN, [theta], 64)
        assert set(a.masses) == set(b.masses)
        for ell in a.masses:
            assert a.masses[ell] == pytest.approx(b.masses[ell], abs=1e-12)


def test_mc_distribution_deterministic_and_consistent():
    _, dictionary = D.choose_gamma(BERN, GRID, 64)
    mc1 = R.mc_rate_distribution(dictionary, [-2.0], 4000, seed=11)
    mc2 = R.mc_rate_distribution(dictionary, [-2.0], 4000, seed=11)
    assert mc1.masses == mc2.masses
    exact = R.exact_rate_distribution(dictionary, [-2.0])
    for ell, p in exact.masses.items():
        if p > 0.01:
            assert mc1.masses.get(ell, 0.0) == pytest.approx(p, abs=0.05)
    est = R.eps_coding_rate(mc1, 0.1)
    assert est.mode == "mc"
    assert est.ci_halfwidth is not None and est.ci_halfwidth >= 0.0


def test_mc_memory_does_not_grow_with_the_longest_segment():
    """The walk reads the table in place and holds one frontier dict of at
    most min(samples, rows) entries per depth, so 4096 samples stay below
    2 MB however long the longest segment.  4096 samples spelled out at
    its full length of 1 721 letters would be 56 MB of int64 letters
    alone."""
    _, d = D.choose_gamma(BERN, GRID, 2 ** 24)
    assert d.max_segment_length() >= 1700
    tracemalloc.start()
    try:
        R.mc_rate_distribution(d, (0.0,), 4096, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        R.RateDistribution({1: -0.1}, 4)


# ---------------------------------------------------------------------------
# Asymptotic prediction.

H02 = 0.7219280948873623


def test_predicted_rate_terms():
    pred = R.predicted_rate(H02, 0.8, 1, 2 ** 20, 0.1)
    assert pred.first == pytest.approx(H02, abs=1e-12)
    assert pred.second == pytest.approx(0.194786138, abs=1e-8)
    assert pred.third == pytest.approx(0.078003033, abs=1e-8)
    assert pred.total == pred.first + pred.second + pred.third


def test_predicted_rate_iterative_fixed_point():
    pred = R.predicted_rate(H02, 0.8, 1, 2 ** 20, 0.1, mode="iterative")
    r, logm = pred.iterative_rate, 20.0
    rhs = (H02 + 0.8 * math.sqrt(r / logm) * gaussian_quantile(0.1)
           + r * 0.5 * math.log2(logm) / logm)
    assert r == pytest.approx(rhs, abs=1e-10)


def test_iterative_formula_gap_bounded():
    gaps = []
    for j in range(10, 25, 2):
        pred = R.predicted_rate(H02, 0.8, 1, 2 ** j, 0.1, mode="iterative")
        gaps.append(abs((pred.iterative_rate - pred.total) * math.log2(2 ** j)))
    assert max(gaps) < 10.0
    # No growth trend across M.
    slope = np.polyfit(range(len(gaps)), gaps, 1)[0]
    assert slope <= 0.05


def test_predicted_rate_validation():
    with pytest.raises(ValueError):
        R.predicted_rate(0.0, 0.8, 1, 2 ** 10, 0.1)
    with pytest.raises(ValueError):
        R.predicted_rate(1.0, 0.8, 1, 2 ** 10, 0.1, mode="nope")


# ---------------------------------------------------------------------------
# Normality diagnostic.

def test_normality_deviation_exact_values():
    dev16 = R.normality_deviation(BERN, [-2.0], 16)
    dev64 = R.normality_deviation(BERN, [-2.0], 64)
    assert dev16 == pytest.approx(0.137962, abs=1e-4)
    assert dev64 == pytest.approx(0.061163, abs=1e-4)
    assert dev64 < dev16


def test_normality_rejects_degenerate():
    with pytest.raises(M.ModelError):
        R.normality_deviation(BERN, [0.0], 16)


def _model_theta_ell(models, max_ell):
    """A model, a parameter vector drawn from its box and a length."""
    return st.sampled_from(models).flatmap(lambda model: st.tuples(
        st.just(model),
        st.tuples(*(st.floats(lo, hi) for lo, hi in model.theta_box)),
        st.integers(1, max_ell)))


@settings(max_examples=80, deadline=None)
@given(_model_theta_ell([BERN, M.ternary(), M.quaternary(), FRAC], 10))
def test_sum_masses_match_composition_oracle(case):
    # Every cell of the convolved table is the mass of one integer statistic
    # sum; the oracle sums multinomial masses per rational sum.
    model, theta, ell = case
    masses, low, scale = R._sum_masses(model, theta, ell)
    oracle = sum_masses_oracle(model, theta, ell)
    assert np.count_nonzero(masses) == len(oracle)
    for idx in np.ndindex(masses.shape):
        stat_sum = tuple(Fraction(j + ell * int(lo), scale) for j, lo in zip(idx, low))
        assert masses[idx] == pytest.approx(oracle.get(stat_sum, 0.0), rel=1e-12, abs=0.0)
    assert math.fsum(masses.flat) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("model, theta, ell", [
    (BERN, [-2.0], 16), (BERN, [-2.0], 64), (BERN, [0.5], 64),
    (M.ternary(), [1.0], 16), (M.ternary(), [1.0], 64),
    (M.quaternary(), [0.5, -1.0], 16), (FRAC, [0.5], 16),
])
def test_normality_matches_enumeration_oracle(model, theta, ell):
    assert R.normality_deviation(model, theta, ell) == pytest.approx(
        normality_oracle(model, theta, ell), abs=1e-12)



# ---------------------------------------------------------------------------
# Binomial draws.

# Draws per law test.
LAW_DRAWS = 50_000


@pytest.mark.parametrize("n, p, seed", [
    (1, 0.3, 1), (60, 0.85, 2), (400, 0.9, 3), (1000, 0.004, 4), (30, 0.3, 5),
    (100, 0.1, 6), (500, 0.37, 7)],
    ids=["bernoulli", "flip-waiting", "flip-btrs", "waiting-small-p",
         "waiting-np-9", "btrs-np-10", "btrs-np-185"])
def test_binomial_law_on_each_branch(n, p, seed):
    """LAW_DRAWS = N draws of _binomial(n, p) from random.Random(seed) have
    an empirical law within total variation

        sum_j sqrt(f_j (1 - f_j) / N) / 2 + sqrt(log(10^9) / (2 N))

    of the Binomial(n, p) pmf f computed with math.comb.  The first term
    bounds the expected distance (Jensen, one j at a time); one draw moves
    the distance by at most 1/N, so by McDiarmid's inequality a correct
    sampler exceeds the bound with probability at most 10^-9 per case.
    The cases cover n = 1, p > 1/2 flipped onto waiting times (n p' = 9)
    and onto BTRS (n p' = 40), waiting times at n p = 4 and 9, and BTRS at
    n p = 10 and 185."""
    rng = random.Random(seed)
    counts = [0] * (n + 1)
    for _ in range(LAW_DRAWS):
        counts[R._binomial(rng, n, p)] += 1
    pmf = [math.comb(n, j) * p ** j * (1.0 - p) ** (n - j) for j in range(n + 1)]
    distance = 0.5 * sum(abs(c / LAW_DRAWS - f) for c, f in zip(counts, pmf))
    bound = (0.5 * sum(math.sqrt(f * (1.0 - f) / LAW_DRAWS) for f in pmf)
             + math.sqrt(math.log(1e9) / (2 * LAW_DRAWS)))
    assert distance <= bound


def test_binomial_moments_at_a_huge_count():
    """BTRS at n = 10^15, a count no pmf table reaches: N = 20 000 draws,
    standardized as z = (x - n p) / sqrt(n p q), have mean within
    6 / sqrt(N) of 0 and mean square within 6 sqrt(2 / N) of 1.  Under the
    normal approximation a correct sampler fails either with probability
    about 2 * 10^-9.  An acceptance test through lgamma, whose float error
    is several units at this n, fails it."""
    n, p, draws = 10 ** 15, 0.25, 20_000
    rng = random.Random(8)
    sd = math.sqrt(n * p * (1.0 - p))
    z = [(R._binomial(rng, n, p) - n * p) / sd for _ in range(draws)]
    assert abs(math.fsum(z) / draws) <= 6.0 / math.sqrt(draws)
    assert abs(math.fsum(v * v for v in z) / draws - 1.0) <= 6.0 * math.sqrt(2.0 / draws)


@pytest.mark.parametrize("n, p, want", [(50, 0.0, 0), (50, -0.5, 0), (50, 1.0, 50),
                                        (50, 1.5, 50), (0, 0.4, 0)])
def test_binomial_edges_draw_nothing(n, p, want):
    rng = random.Random(9)
    state = rng.getstate()
    assert R._binomial(rng, n, p) == want
    assert rng.getstate() == state


# Letter statistics 0 and 10^6: at ell=70 the table would have 7*10^7 cells
# (560 MB) for fewer adds than NORMALITY_MAX_ADDS allows.
WIDE = M.ExpFamilyModel(alphabet_size=2, stat_dim=1, tau=((0,), (10 ** 6,)),
                        theta_box=((-1e-6, 1e-6),), name="wide")


@pytest.mark.parametrize("model, theta, ell", [
    (M.quaternary(), [0.5, -1.0], 4096), (WIDE, [1e-7], 70)])
def test_normality_cap_fails_before_allocating(model, theta, ell):
    tracemalloc.start()
    try:
        with pytest.raises(Q.CountingCapError):
            R.normality_deviation(model, theta, ell)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_normality_caps_admit_quaternary_1024():
    # The caps still admit quaternary at ell=1024: 1025^2 cells, 4 letters.
    assert 1024 * 1025 ** 2 * 4 <= R.NORMALITY_MAX_ADDS
    assert 1025 ** 2 <= R.NORMALITY_MAX_CELLS


# ---------------------------------------------------------------------------
# Task seeds.

def test_task_seed_stable():
    a = R.task_seed(0, (-2.0,), 256, 0.1)
    assert a == R.task_seed(0, (-2.0,), 256, 0.1)
    assert a != R.task_seed(1, (-2.0,), 256, 0.1)
    assert a != R.task_seed(0, (-2.0,), 512, 0.1)
