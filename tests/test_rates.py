import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tccode import dictionary as D
from tccode import models as M
from tccode import qtypes as Q
from tccode import rates as R
from tccode.normal import gaussian_quantile, gaussian_tail

from oracles import eps_rate_scan


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
    assert dist.total_mass == pytest.approx(1.0, abs=1e-12)
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
    gamma, dictionary = D.choose_gamma(BERN, GRID, 64)
    profile = D.tc_leaf_profile(BERN, GRID, gamma, counter=counter)
    for theta in (-2.0, 0.7):
        a = R.exact_rate_distribution(dictionary, [theta], m_for_rate=64)
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
        gaps.append(abs(pred.gap_scaled))
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


def test_normality_mc_branch():
    dev = R.normality_deviation(BERN, [-2.0], 32, exact_cap=1,
                                n_samples=2000, seed=3)
    assert 0.0 <= dev <= 0.2


# ---------------------------------------------------------------------------
# Sweep rows.

def test_sup_residual_rows():
    rows = R.sup_residual(BERN, GRID, [[-2.0], [0.5]], 256, 0.1)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == set(R.SWEEP_COLUMNS)
        recomputed = (row["exact_rate"] - row["predicted_first"]
                      - row["predicted_second"]) * 8.0 / 3.0
        assert row["residual_scaled"] == pytest.approx(recomputed, abs=1e-9)
        assert row["residual"] == pytest.approx(
            row["exact_rate"] - row["predicted_first"]
            - row["predicted_second"] - row["predicted_third"], abs=1e-12)


def test_task_seed_stable():
    a = R.task_seed(0, (-2.0,), 256, 0.1)
    assert a == R.task_seed(0, (-2.0,), 256, 0.1)
    assert a != R.task_seed(1, (-2.0,), 256, 0.1)
    assert a != R.task_seed(0, (-2.0,), 512, 0.1)
