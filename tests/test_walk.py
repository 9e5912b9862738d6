"""The Monte-Carlo walk and the converse check's co-walk of both tables
against the scalar oracle walk, sample by sample and word by word."""

import itertools
import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tccode import converse as C
from tccode import dictionary as D
from tccode import models as M
from tccode import qtypes as Q
from tccode import rates as R

from oracles import event_counterexamples, mc_length_masses, walk


BERN = M.bernoulli()
TERN = M.ternary()
QUAT = M.quaternary()
GRID = Q.construction_grid()


@st.composite
def dictionaries(draw):
    """Random Tunstall dictionaries and threshold dictionaries, the latter
    as explicit segments or as their count-class DAG, over k = 2, 3, 4."""
    model = draw(st.sampled_from([BERN, TERN, QUAT]))
    kind = draw(st.sampled_from(["tunstall", "explicit", "dag"]))
    if kind == "tunstall":
        theta = draw(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                              min_size=model.stat_dim, max_size=model.stat_dim))
        return D.build_tunstall(model, theta, draw(st.integers(min_value=4,
                                                               max_value=200)))
    limit = draw(st.sampled_from([2, 5, 16, 45]))
    build = D.build_tc_dictionary if kind == "explicit" else D.tc_dictionary
    return build(model, GRID, D.tc_leaf_profile(model, GRID, limit))


def test_parse_rejects_foreign_letters():
    d = D.build_tunstall(TERN, [0.3], 20)
    for bad in (-1, 3):
        with pytest.raises(D.DictionaryError, match="out of range"):
            d.parse([0, bad])


def test_walks_reject_a_missing_child():
    d = D.Dictionary(model=BERN, grid=GRID, segments=((0, 0), (1,)), m_target=3)
    with pytest.raises(D.DictionaryError):
        d.parse([0, 1])
    # At theta = 0 a quarter of the samples draw 0 then 1.
    with pytest.raises(D.DictionaryError, match="not parseable at depth 2"):
        R.mc_rate_distribution(d, [0.0], 64, 0)


@settings(max_examples=15, deadline=None)
@example(D.tc_dictionary(QUAT, GRID, D.tc_leaf_profile(QUAT, GRID, 45)),
         [0.5, -1.0], 9000, 7)
@given(dictionaries(), st.lists(st.floats(min_value=-3.0, max_value=3.0),
                                min_size=2, max_size=2),
       st.integers(min_value=1, max_value=10 ** 6), st.integers(min_value=0, max_value=2 ** 32))
def test_mc_masses_match_scalar_oracle(d, theta, n_samples, seed):
    theta = theta[:d.model.stat_dim]
    dist = R.mc_rate_distribution(d, theta, n_samples, seed)
    assert dist.masses == dict(sorted(mc_length_masses(d, theta, n_samples, seed).items()))



@settings(max_examples=30, deadline=None)
@given(dictionaries(), st.lists(st.floats(min_value=-3.0, max_value=3.0),
                                min_size=2, max_size=2),
       st.integers(min_value=1, max_value=10 ** 6), st.integers(min_value=0, max_value=2 ** 32))
def test_mc_masses_lie_in_a_band_around_the_exact_law(d, theta, n_samples, seed):
    """Every sample ends at some length, and the number ending at each
    length is Binomial(n_samples, exact mass), so by Hoeffding's inequality
    and a union bound over the L lengths each MC mass lies within
    sqrt(log(2 L / 10^-9) / (2 n_samples)) of the exact one except with
    probability at most 10^-9 per example."""
    theta = theta[:d.model.stat_dim]
    mc = R.mc_rate_distribution(d, theta, n_samples, seed)
    exact = R.exact_rate_distribution(d, theta).masses
    assert mc.n_samples == n_samples
    assert sum(round(mass * n_samples) for mass in mc.masses.values()) == n_samples
    assert set(mc.masses) <= set(exact)
    band = math.sqrt(math.log(2 * len(exact) / 1e-9) / (2 * n_samples))
    for ell, mass in exact.items():
        assert abs(mc.masses.get(ell, 0.0) - mass) <= band


@settings(max_examples=25, deadline=None)
@given(dictionaries(), st.integers(min_value=1, max_value=8),
       st.sampled_from([None, -2, -1, 1]))
def test_exhaustive_counterexamples_match_oracle(d, n, shift):
    # Base widths around the code's: below it every codeword overflows, above
    # it a short suffix no longer does.
    width = C.vf_to_fv(d, n).base_width
    base_width = None if shift is None else width + shift
    words = itertools.product(range(d.model.alphabet_size), repeat=n)
    report = C.check_event_equivalence(d, n, base_width=base_width)
    oracle = event_counterexamples(d, n, words, base_width)
    assert report.checked == d.model.alphabet_size ** n
    assert report.base_width == (width if shift is None else base_width)
    assert report.mismatches == len(oracle)
    assert report.counterexamples == oracle[:20]
    assert report.passed == (oracle == [])
    assert report.passed or shift is not None


@pytest.mark.parametrize("model,m,n", [(BERN, 4096, 15), (TERN, 2048, 9), (QUAT, 16384, 8)])
def test_narrow_threshold_check_counts_the_long_parses(model, m, n):
    # One bit below the code's base width every codeword overflows, so the
    # counterexamples are the words that no segment shorter than n starts:
    # k^n minus mult k^(n - ell) over the leaf classes of length ell < n, a
    # count that depends on neither walk.  The count-class DAG shares its
    # rows among many paths, so this exercises the co-walk's memo.
    _, d = D.choose_gamma(model, GRID, m)
    k = model.alphabet_size
    base_width = C.vf_to_fv(d, n).base_width - 1
    report = C.check_event_equivalence(d, n, base_width=base_width)
    short = sum(mult * k ** (n - ell) for ell, _, mult in d.leaf_classes() if ell < n)
    assert 0 < report.mismatches == k ** n - short < k ** n
    # The listed prefix: the first mismatched words in lexicographic order.
    first = itertools.islice(
        (word for word in itertools.product(range(k), repeat=n)
         if event_counterexamples(d, n, [word], base_width)), 20)
    assert report.counterexamples == [(word, False, True) for word in first]


@pytest.mark.parametrize("model,segments,n", [
    (BERN, ((0, 0), (1,)), 2),
    (QUAT, ((0,), (1,), (2, 0), (2, 1), (2, 2), (3,)), 3),
])
def test_converse_check_rejects_a_missing_child(model, segments, n):
    d = D.Dictionary(model=model, grid=GRID, segments=segments, m_target=8)
    with pytest.raises(D.DictionaryError, match="not parseable at depth 2"):
        C.check_event_equivalence(d, n)


@pytest.mark.parametrize("theta", [-2.0, 2.0])
@pytest.mark.parametrize("base_width", [None, 2])
def test_counterexamples_at_either_end_of_the_order_match_oracle(theta, base_width):
    # 3^9 = 19683 words.  The dictionary has segments up to length 13 along
    # the letter 0 (theta < 0) or 2 (theta > 0), so a base width below the
    # code's makes the words parsed at length >= 9, first or last in
    # lexicographic order, counterexamples.
    d = D.build_tunstall(TERN, [theta], 27)
    words = itertools.product(range(3), repeat=9)
    report = C.check_event_equivalence(d, 9, base_width=base_width)
    assert report.checked == 3 ** 9
    oracle = event_counterexamples(d, 9, words, base_width)
    assert report.mismatches == len(oracle)
    assert report.counterexamples == oracle[:20]
    assert bool(oracle) == (base_width is not None)


@pytest.mark.parametrize("base_width", [None, 3])
def test_counterexamples_of_segments_longer_than_n_match_oracle(base_width):
    # Segments reach length 11, so some of the 4^7 words parse at length 7
    # or more; with 3 base bits they are the counterexamples.
    d = D.build_tunstall(QUAT, [3.0, 3.0], 40)
    report = C.check_event_equivalence(d, 7, base_width=base_width)
    assert report.checked == 4 ** 7
    words = itertools.product(range(4), repeat=7)
    oracle = event_counterexamples(d, 7, words, base_width)
    assert report.mismatches == len(oracle)
    assert report.counterexamples == oracle[:20]
    assert bool(oracle) == (base_width is not None)


@pytest.fixture(scope="module")
def ternary_64k():
    return D.choose_gamma(TERN, GRID, 2 ** 16)[1]


@pytest.mark.parametrize("n", [1919, 1920, 2000])
def test_check_decides_n_past_the_recursion_limit(ternary_64k, n):
    # Ternary M = 2^16 has segments of up to 1 920 letters, so the co-walk
    # goes about n states deep: far past Python's recursion limit.
    d = ternary_64k
    assert d.max_segment_length() == 1920
    start = time.perf_counter()
    report = C.check_event_equivalence(d, n)
    assert time.perf_counter() - start < 2.0
    assert report.passed and report.checked == 3 ** n
