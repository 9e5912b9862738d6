"""Acceptance gate: twelve end-to-end criteria, one verdict line each.

Each test prints a single PASS/FAIL line directly to the terminal (via the
capture-disabling verdict fixture) before asserting, so a full run always
shows twelve verdicts.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from tccode import converse as C
from tccode import dictionary as D
from tccode import models as M
from tccode import qtypes as Q
from tccode import rates as R
from tccode.normal import gaussian_quantile, gaussian_tail

from oracles import (band_cell_count, compositions, enumerate_complete_trees,
                     info_increment_counts, leaf_mass, letter_counts,
                     log_type_size_core_counts, row_sizes, size_for_counts,
                     suff_stat_of_counts)


BERN = M.bernoulli()
TERN = M.ternary()
GRID = Q.construction_grid()

_COUNTER = Q.TypeCounter(BERN, GRID)

H02 = 0.7219280948873623  # h(0.2)
TARGET = H02 * 0.5  # H * d/2 = 0.361


def _brute_force_row(model, grid, ell):
    tally = {}
    for seq in itertools.product(range(model.alphabet_size), repeat=ell):
        stat = suff_stat_of_counts(model, letter_counts(model, seq))
        idx, _ = Q.cell_of(model, grid, ell, stat)
        tally[idx] = tally.get(idx, 0) + 1
    return tally


def test_01_counting_oracle_equivalence(verdict):
    mismatches = 0
    checked = 0
    for model in (BERN, TERN):
        for grid in (Q.Grid(), GRID):
            counter = Q.TypeCounter(model, grid)
            for ell in range(1, 11):
                brute = _brute_force_row(model, grid, ell)
                row = row_sizes(counter, ell)
                checked += len(brute)
                if brute != row:
                    mismatches += 1
    verdict(1, "counting-oracle", mismatches == 0,
             "%d cells checked, %d mismatching rows" % (checked, mismatches))


def test_02_partition_identity(verdict):
    worst = 0
    for ell in range(1, 13):
        total = sum(row_sizes(_COUNTER, ell).values())
        worst = max(worst, abs(total - 2 ** ell))
    verdict(2, "partition-identity", worst == 0,
             "max |sum - 2^l| = %d over l <= 12" % worst)


def test_03_dictionary_structure(verdict):
    thetas = (-2.0, 0.0, 1.0)
    problems = []
    for m in (8, 64, 1024, 2 ** 14):
        gamma, dictionary = D.choose_gamma(BERN, GRID, m, counter=_COUNTER)
        try:
            dictionary.check_structure()
        except D.DictionaryError as exc:
            problems.append("M=%d structure: %s" % (m, exc))
            continue
        if dictionary.size > m:
            problems.append("M=%d oversize" % m)
        for theta in thetas:
            if abs(leaf_mass(dictionary, [theta]) - 1.0) > 1e-9:
                problems.append("M=%d theta=%s mass" % (m, theta))
        for index, seg in enumerate(dictionary.segments):
            parsed = dictionary.parse_one(iter(seg))
            if parsed.index != index or dictionary.decode(index) != seg:
                problems.append("M=%d round trip at %d" % (m, index))
                break
    verdict(3, "dictionary-structure", not problems, "; ".join(problems) or
             "4 sizes x 3 thetas, all structural checks hold")


def test_04_two_sided_size_band(verdict):
    counter = Q.TypeCounter(BERN, Q.Grid())
    per_ell_max = []
    values = []
    for ell in range(4, 11):
        best = -math.inf
        for counts in compositions(ell, 2):
            v = math.log2(size_for_counts(counter, counts)) \
                - log_type_size_core_counts(BERN, counts)
            values.append(v)
            best = max(best, v)
        per_ell_max.append(best)
    band = max(values) - min(values)
    slope = float(np.polyfit(np.log2(np.arange(4, 11)), per_ell_max, 1)[0])
    ok = band <= 6.0 and slope <= 0.1
    verdict(4, "two-sided-size-band", ok,
             "band=%.3f bits (<=6), max slope=%.3f (<=0.1)" % (band, slope))


def test_05_increment_boundedness(verdict):
    by_ell = {}
    for ell in range(1, 12):
        best = -math.inf
        for counts in compositions(ell, 2):
            for x in range(2):
                best = max(best, info_increment_counts(BERN, counts, x))
        by_ell[ell] = best
    bound = by_ell[2] + 1.0
    worst = max(by_ell.values())
    verdict(5, "increment-bound", worst <= bound,
             "max increment %.4f <= %.4f" % (worst, bound))


def test_06_converse_event_equivalence(verdict):
    dictionaries = [
        D.build_tunstall(BERN, [-2.0], 64),
        D.choose_gamma(BERN, GRID, 64, counter=_COUNTER)[1],
    ]
    counterexamples = 0
    worst_gap = 0.0
    for d in dictionaries:
        for n in range(1, 13):
            rep = C.check_event_equivalence(d, n)
            assert rep.checked == 2 ** n
            counterexamples += rep.mismatches
            code = C.vf_to_fv(d, n)
            for theta in (-2.0, 0.0, 1.0):
                gap = abs(C.vf_short_mass(d, [theta], n)
                          - C.fv_overflow_mass(code, [theta]))
                worst_gap = max(worst_gap, gap)
    ok = counterexamples == 0 and worst_gap <= 1e-12
    verdict(6, "converse-equivalence", ok,
             "%d counterexamples, max mass gap %.2e" % (counterexamples, worst_gap))


def test_07_tunstall_optimality(verdict):
    worst = 0.0
    for theta in ([-2.0], [0.85]):
        for m in (2, 3, 4, 5):
            best = D.build_tunstall(BERN, theta, m).expected_length(theta)
            for segs in enumerate_complete_trees(2, m):
                rival = D.Dictionary(model=BERN, grid=GRID, segments=segs,
                                     m_target=m)
                worst = max(worst, rival.expected_length(theta) - best)
    verdict(7, "tunstall-optimality", worst <= 1e-12,
             "max shortfall vs exhaustive trees %.2e" % worst)


def test_08_third_order_scaling(verdict):
    qinv = gaussian_quantile(0.1)
    js = [10, 12, 14, 16, 18, 20]
    distances = []
    final_scaled = None
    for j in js:
        m = 2 ** j
        gamma, profile = D.choose_gamma_profile(BERN, GRID, m, counter=_COUNTER)
        dist = R.profile_rate_distribution(profile, BERN, [-2.0], m)
        rate = R.eps_coding_rate(dist, 0.1).rate
        scaled = (rate - H02 - 0.8 * math.sqrt(H02 / j) * qinv) * j / math.log2(j)
        distances.append(abs(scaled - TARGET))
        if j == 20:
            final_scaled = scaled
    in_band = 0.5 * TARGET <= final_scaled <= 2.0 * TARGET
    rho = float(scipy_stats.spearmanr(js, distances).statistic)
    ok = in_band and rho <= 0.0
    verdict(8, "third-order-scaling", ok,
             "scaled residual at M=2^20 = %.4f (target %.3f, band [%.3f, %.3f]); "
             "distance trend spearman=%.3f (<=0)"
             % (final_scaled, TARGET, 0.5 * TARGET, 2.0 * TARGET, rho))


def test_09_degenerate_dispersion(verdict):
    js = [10, 12, 14, 16, 18, 20]
    distances = []
    final_scaled = None
    for j in js:
        m = 2 ** j
        gamma, profile = D.choose_gamma_profile(BERN, GRID, m, counter=_COUNTER)
        dist = R.profile_rate_distribution(profile, BERN, [0.0], m)
        rate = R.eps_coding_rate(dist, 0.1).rate
        scaled = (rate - 1.0) * j / math.log2(j)
        distances.append(abs(scaled - 0.5))
        if j == 20:
            final_scaled = scaled
    slope = float(np.polyfit(js, distances, 1)[0])
    ok = 0.25 <= final_scaled <= 2.0 and slope <= 0.0
    verdict(9, "degenerate-dispersion", ok,
             "scaled excess at M=2^20 = %.4f (band [0.25, 2.0]); "
             "distance slope=%.4f (<=0)" % (final_scaled, slope))


def test_10_band_cell_scaling(verdict):
    counter = Q.TypeCounter(BERN, Q.Grid())
    ells = [16, 32, 64, 128]
    counts = [band_cell_count(counter, ell, 0.72 * ell, 0.0, 4.0) for ell in ells]
    slope = float(np.polyfit(np.log2(ells),
                             np.log2(np.maximum(counts, 1)), 1)[0])
    verdict(10, "band-cell-scaling", slope <= 0.5,
             "counts=%s, log-log slope=%.3f (<=0.5)" % (counts, slope))


def test_11_gaussian_utilities(verdict):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    sqrt2 = mpmath.sqrt(2)
    worst_q = 0.0
    for z in np.linspace(-8.0, 8.0, 500):
        oracle = float(0.5 * mpmath.erfc(mpmath.mpf(float(z)) / sqrt2))
        worst_q = max(worst_q, abs(gaussian_tail(float(z)) - oracle))
    worst_inv = 0.0
    eps_points = np.concatenate([
        np.geomspace(1e-10, 0.5, 250),
        1.0 - np.geomspace(1e-10, 0.5, 250),
    ])
    for eps in eps_points:
        oracle = float(sqrt2 * mpmath.erfinv(1 - 2 * mpmath.mpf(float(eps))))
        worst_inv = max(worst_inv, abs(gaussian_quantile(float(eps)) - oracle))
    ok = worst_q <= 1e-10 and worst_inv <= 1e-10
    verdict(11, "gaussian-utilities", ok,
             "1000 points: max |Q err|=%.2e, max |Qinv err|=%.2e" % (worst_q, worst_inv))


def test_12_normality_trend(verdict):
    ells = [16, 64, 256]
    scaled = [R.normality_deviation(BERN, [-2.0], ell) * math.sqrt(ell)
              for ell in ells]
    slope = float(np.polyfit(np.log2(ells), scaled, 1)[0])
    verdict(12, "normality-trend", slope <= 0.05,
             "scaled deviations=%s, slope=%.4f (<=0.05)"
             % (["%.3f" % s for s in scaled], slope))
