import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tccode import converse as C
from tccode import dictionary as D
from tccode import models as M
from tccode import qtypes as Q
from tccode import rates as R

from oracles import (enumerate_complete_trees, first_passage_oracle,
                     segment_length_masses)


BERN = M.bernoulli()
TERN = M.ternary()
QUAT = M.quaternary()
GRID = Q.construction_grid()


def tc64():
    gamma, dictionary = D.choose_gamma(BERN, GRID, 64)
    return gamma, dictionary


def test_tc_structure_and_size():
    gamma, dictionary = tc64()
    dictionary.check_structure()
    assert dictionary.size <= 64
    assert dictionary.kind == "tc"
    assert dictionary.gamma == pytest.approx(gamma)


def test_tc_first_passage_semantics():
    # Every leaf crosses the threshold exactly at its full length and at no
    # proper prefix.
    gamma, dictionary = tc64()
    counter = Q.TypeCounter(BERN, GRID)
    for seg in dictionary.segments:
        assert counter.size_of_sequence(seg) > 2 ** gamma * (1 - 1e-12)
        for cut in range(1, len(seg)):
            assert counter.log2_size_for_counts(
                (seg[:cut].count(0), seg[:cut].count(1))) <= gamma + 1e-12


def test_profile_matches_explicit_build():
    counter = Q.TypeCounter(BERN, GRID)
    for gamma in (2.0, 3.5, 5.0):
        explicit = D.build_tc_dictionary(BERN, GRID, gamma, leaf_cap=10 ** 6,
                                         counter=counter)
        profile = D.tc_leaf_profile(BERN, GRID, gamma, counter=counter)
        assert profile.leaf_count == explicit.size
        assert profile.length_histogram() == explicit.segment_length_histogram()
        assert profile.monotone_mismatch_leaves == explicit.monotone_mismatches
        assert profile.max_length() == explicit.max_segment_length()
        assert profile.leaf_classes == explicit.leaf_classes()


def test_profile_matches_explicit_build_ternary():
    counter = Q.TypeCounter(TERN, GRID)
    explicit = D.build_tc_dictionary(TERN, GRID, 4.0, leaf_cap=10 ** 6,
                                     counter=counter)
    profile = D.tc_leaf_profile(TERN, GRID, 4.0, counter=counter)
    assert profile.leaf_count == explicit.size
    assert profile.length_histogram() == explicit.segment_length_histogram()
    assert profile.leaf_classes == explicit.leaf_classes()


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from([BERN, TERN, QUAT]),
       side=st.builds(Fraction, st.integers(8, 30), st.integers(1, 7)),
       origin=st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)),
       gamma=st.floats(min_value=-0.5, max_value=5.0))
def test_threshold_builds_match_definition(model, side, origin, gamma):
    # Integer limits and integer dip checks reproduce the definition (float
    # log2 against gamma, strict size decrease) on random rational grids.
    grid = Q.Grid(side=side, origin=origin)
    oracle = first_passage_oracle(model, grid, gamma)
    assume(oracle is not None)
    segments, dipped = oracle
    counter = Q.TypeCounter(model, grid)
    explicit = D.build_tc_dictionary(model, grid, gamma, leaf_cap=10 ** 6,
                                     counter=counter)
    assert explicit.segments == segments
    assert explicit.monotone_mismatches == dipped
    profile = D.tc_leaf_profile(model, grid, gamma, counter=counter)
    assert profile.leaf_classes == explicit.leaf_classes()
    assert profile.monotone_mismatch_leaves == dipped


def test_leaf_mass_normalizes():
    _, dictionary = tc64()
    for theta in (-2.0, 0.0, 1.3):
        assert dictionary.leaf_mass([theta]) == pytest.approx(1.0, abs=1e-9)


def test_choose_gamma_tracks_reference():
    counter = Q.TypeCounter(BERN, GRID)
    for j in range(8, 17, 2):
        gamma, profile = D.choose_gamma_profile(BERN, GRID, 2 ** j, counter=counter)
        assert profile.leaf_count <= 2 ** j
        assert abs(gamma - D.gamma_reference(2 ** j, 1)) <= 8.0


def test_choose_gamma_is_maximal_step():
    # The returned threshold sits on a step boundary: raising it past the next
    # achievable class size must blow past the leaf budget.
    counter = Q.TypeCounter(BERN, GRID)
    gamma, profile = D.choose_gamma_profile(BERN, GRID, 64, counter=counter)
    bigger = D.tc_leaf_profile(BERN, GRID, gamma + 1e-9, counter=counter)
    assert bigger.leaf_count > 64 or bigger.leaf_count == profile.leaf_count


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=2 ** 70),
       st.floats(min_value=-2.0, max_value=80.0), st.booleans())
def test_size_limit_matches_log2(size, gamma, on_size):
    if on_size:
        gamma = math.log2(size)  # gamma exactly at an achievable log size
    limit = D.size_limit(gamma)
    assert limit == 0 or math.log2(limit) <= gamma < math.log2(limit + 1)
    for n in (size, limit - 1, limit, limit + 1, limit + 2):
        if n >= 1:
            assert (n > limit) == (math.log2(n) > gamma)


def _exhaustive_gamma_profile(model, m, counter):
    """The profile of the largest integer limit with at most m leaves, trying
    every limit below m."""
    best = D.tc_leaf_profile(model, GRID, -1.0, counter=counter)
    for n in range(1, m):
        profile = D.tc_leaf_profile(model, GRID, math.log2(n), counter=counter)
        if profile.leaf_count <= m:
            best = profile
    return best


@pytest.mark.parametrize("model,m", [(BERN, 16), (BERN, 64), (BERN, 200),
                                     (TERN, 40), (TERN, 150), (QUAT, 100)])
def test_choose_gamma_matches_exhaustive_search(model, m):
    counter = Q.TypeCounter(model, GRID)
    gamma, profile = D.choose_gamma_profile(model, GRID, m, counter=counter)
    best = _exhaustive_gamma_profile(model, m, counter)
    assert profile.leaf_classes == best.leaf_classes
    # gamma is log2 of the largest internal size, and reproduces the profile.
    assert gamma == (best.max_internal_value if best.max_internal_size else -1.0)
    again = D.tc_leaf_profile(model, GRID, gamma, counter=counter)
    assert again.leaf_classes == profile.leaf_classes


@pytest.mark.parametrize("model,m", [(BERN, 64), (BERN, 4096), (TERN, 500),
                                     (QUAT, 1000)])
def test_next_size_above_gamma_exceeds_m(model, m):
    # The next class size the dictionary can change at is its smallest leaf
    # size; a threshold there must blow past the leaf budget.
    counter = Q.TypeCounter(model, GRID)
    gamma, profile = D.choose_gamma_profile(model, GRID, m, counter=counter)
    leaf_sizes = {counter.size_for_counts(c) for _, c, _ in profile.leaf_classes}
    assert tuple(sorted(leaf_sizes)) == profile.leaf_sizes
    nxt = profile.min_leaf_size
    assert math.log2(nxt) > gamma
    assert D.tc_leaf_profile(model, GRID, math.log2(nxt),
                             counter=counter).leaf_count > m


def test_ternary_gamma_at_scale():
    # Out of reach for composition enumeration with rational cells.
    gamma, profile = D.choose_gamma_profile(TERN, GRID, 2 ** 14)
    assert gamma == 8.88264304936184
    assert profile.leaf_count == 14519
    assert profile.max_length() == 474


def test_depth_cap_on_aligned_grid():
    # The aligned W=1 grid pins the all-zeros path at class size 1 forever.
    with pytest.raises(D.DepthCapExceeded):
        D.build_tc_dictionary(BERN, Q.default_grid(), 2.0, leaf_cap=10 ** 6,
                              max_depth=200)
    with pytest.raises(D.DepthCapExceeded):
        D.tc_leaf_profile(BERN, Q.default_grid(), 2.0, max_depth=200)


def test_leaf_cap():
    with pytest.raises(D.LeafCapExceeded):
        D.build_tc_dictionary(BERN, GRID, 8.0, leaf_cap=16)
    with pytest.raises(D.LeafCapExceeded):
        D.tc_leaf_profile(BERN, GRID, 8.0, leaf_cap=16)


def test_parse_and_decode_round_trip():
    _, dictionary = tc64()
    for index, seg in enumerate(dictionary.segments):
        result = dictionary.parse_one(iter(seg + (0, 1)))
        assert result.index == index
        assert result.length == len(seg)
        assert int(result.codeword, 2) == index
        assert len(result.codeword) == dictionary.codeword_width
        assert dictionary.decode(index) == seg


def test_parse_errors():
    _, dictionary = tc64()
    with pytest.raises(D.DictionaryError):
        dictionary.parse_one(iter((2,)))
    with pytest.raises(D.DictionaryError):
        dictionary.parse_one(iter(()))
    with pytest.raises(D.DictionaryError):
        dictionary.decode(dictionary.size)


def test_segment_order_enforced():
    with pytest.raises(D.DictionaryError):
        D.Dictionary(model=BERN, grid=GRID, segments=((1,), (0, 0), (0, 1)),
                     m_target=3)


def test_check_structure_rejects_incomplete():
    d = D.Dictionary(model=BERN, grid=GRID, segments=((0, 0), (1,)), m_target=3)
    with pytest.raises(D.DictionaryError):
        d.check_structure()


def test_tunstall_oracle_p07():
    theta = [math.log2(0.3 / 0.7)]
    d3 = D.build_tunstall(BERN, theta, 3)
    assert d3.segments == ((0, 0), (0, 1), (1,))
    assert d3.expected_length(theta) == pytest.approx(1.7, abs=1e-12)
    d5 = D.build_tunstall(BERN, theta, 5)
    assert d5.segments == ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1), (0, 1), (1,))
    assert d5.expected_length(theta) == pytest.approx(2.533, abs=1e-12)


def test_tunstall_uniform_source_balanced():
    d = D.build_tunstall(BERN, [0.0], 8)
    assert d.segments == tuple(sorted(
        (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)))


def test_tunstall_optimal_among_complete_trees():
    theta = [-2.0]
    for m in (3, 4, 5):
        best = D.build_tunstall(BERN, theta, m).expected_length(theta)
        for segs in enumerate_complete_trees(2, m):
            rival = D.Dictionary(model=BERN, grid=GRID, segments=segs, m_target=m)
            assert best >= rival.expected_length(theta) - 1e-12


def test_enumerate_complete_trees_count():
    # Full binary trees with 2..5 leaves: 1 + 2 + 5 + 14.
    trees = set(enumerate_complete_trees(2, 5))
    assert len(trees) == 22
    for segs in trees:
        D.Dictionary(model=BERN, grid=GRID, segments=segs,
                     m_target=5).check_structure()


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0), st.integers(min_value=2, max_value=40))
def test_tunstall_mass_and_structure(theta, m):
    d = D.build_tunstall(BERN, [theta], m)
    d.check_structure()
    assert d.size <= m
    assert d.leaf_mass([theta]) == pytest.approx(1.0, abs=1e-9)


def _assert_masses_match_segment_oracle(d, theta, n):
    oracle = segment_length_masses(d, theta)
    exact = R.exact_rate_distribution(d, theta).masses
    assert sorted(exact) == sorted(oracle)
    for ell, p in oracle.items():
        assert exact[ell] == pytest.approx(p, abs=1e-12)
    assert d.leaf_mass(theta) == pytest.approx(math.fsum(oracle.values()), abs=1e-12)
    assert d.expected_length(theta) == pytest.approx(
        math.fsum(ell * p for ell, p in oracle.items()), abs=1e-12)
    assert C.vf_short_mass(d, theta, n) == pytest.approx(
        math.fsum(p for ell, p in oracle.items() if ell < n), abs=1e-12)


_THETAS = st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=2)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([BERN, TERN, QUAT]), _THETAS,
       st.integers(min_value=4, max_value=200), st.integers(min_value=1, max_value=12))
def test_leaf_class_masses_match_segments_tunstall(model, theta, m, n):
    theta = theta[:model.stat_dim]
    d = D.build_tunstall(model, theta, m)
    _assert_masses_match_segment_oracle(d, theta, n)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([BERN, TERN, QUAT]), st.sampled_from([1.0, 2.5, 4.0, 5.5]),
       _THETAS, st.integers(min_value=1, max_value=12))
def test_leaf_class_masses_match_segments_threshold(model, gamma, theta, n):
    theta = theta[:model.stat_dim]
    d = D.build_tc_dictionary(model, GRID, gamma, leaf_cap=10 ** 6)
    _assert_masses_match_segment_oracle(d, theta, n)


def test_serialization_round_trip(tmp_path):
    _, dictionary = tc64()
    path = tmp_path / "dict.txt"
    D.save_dictionary(dictionary, path)
    loaded = D.load_dictionary(path)
    assert loaded.segments == dictionary.segments
    assert loaded.gamma == dictionary.gamma
    assert loaded.model == dictionary.model
    assert loaded.grid == dictionary.grid
    assert D.dictionary_to_text(loaded) == D.dictionary_to_text(dictionary)


def test_load_rejects_corruption(tmp_path):
    _, dictionary = tc64()
    path = tmp_path / "dict.txt"
    D.save_dictionary(dictionary, path)
    text = path.read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace("\n0 ", "\n9 ", 1))
    with pytest.raises((D.DictionaryError, M.ModelError)):
        D.load_dictionary(bad)
    bad.write_text("")
    with pytest.raises(D.DictionaryError):
        D.load_dictionary(bad)
    # Dropping a segment breaks the header count.
    lines = text.strip().splitlines()
    bad.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(D.DictionaryError):
        D.load_dictionary(bad)


def test_gamma_reference_value():
    assert D.gamma_reference(2 ** 20, 1) == pytest.approx(
        20.0 - math.log2(20.0), abs=1e-12)
