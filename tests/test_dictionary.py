import copy
import dataclasses
import json
import logging
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tccode import converse as C
from tccode import dictionary as D
from tccode import models as M
from tccode import qtypes as Q
from tccode import rates as R

from oracles import (CUBE, FRAC, SIMPLEX, composition_count,
                     enumerate_complete_trees, first_passage_oracle,
                     format1_text, format2_text, fraction_length_masses,
                     lattice_point, leaf_classes_of, leaf_mass, letter_counts,
                     rerun_gamma_profile, segment_length_masses,
                     size_for_counts, size_for_counts_leaf_profile,
                     size_for_counts_leaves)


BERN = M.bernoulli()
TERN = M.ternary()
QUAT = M.quaternary()
GRID = Q.construction_grid()


def limits(bits):
    """Integer class-size limits up to 2**bits, spread evenly over their
    log2."""
    return st.integers(0, bits).flatmap(
        lambda b: st.integers((1 << b) >> 1, 1 << b))


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
        size = size_for_counts(counter, letter_counts(BERN, seg))
        assert size > 2 ** gamma * (1 - 1e-12)
        for cut in range(1, len(seg)):
            assert math.log2(size_for_counts(
                counter, letter_counts(BERN, seg[:cut]))) <= gamma + 1e-12


def _assert_expansion_matches_oracle(model, limit, counter):
    # The explicit dictionary, expanded from the profile, equals the
    # first-passage definition segment by segment, dips included.
    oracle = first_passage_oracle(model, GRID, limit, max_depth=200,
                                  max_nodes=10 ** 5)
    assert oracle is not None
    segments, dipped = oracle
    profile = D.tc_leaf_profile(model, GRID, limit, counter=counter)
    explicit = D.build_tc_dictionary(model, GRID, profile)
    assert explicit.segments == segments
    assert explicit.monotone_mismatches == dipped
    assert explicit.gamma == profile.gamma
    assert profile.leaf_count == explicit.size
    assert profile.length_histogram() == explicit.segment_length_histogram()
    assert profile.monotone_mismatch_leaves == dipped
    assert profile.max_length() == explicit.max_segment_length()
    assert leaf_classes_of(model, explicit.segments) == explicit.leaf_classes()


@pytest.mark.parametrize("model,m", [(BERN, 1024), (TERN, 512), (QUAT, 1024)])
def test_expansion_hands_over_the_profile_leaf_classes(model, m):
    # The leaf classes the explicit dictionary reads off its table, those of
    # its segments counted one by one, and the profile's are the same list.
    _, profile = D.choose_gamma_profile(model, GRID, m)
    explicit = D.build_tc_dictionary(model, GRID, profile)
    assert explicit.leaf_classes() == leaf_classes_of(model, explicit.segments)
    assert explicit.leaf_classes() == profile.leaf_classes


def test_profile_matches_explicit_build():
    counter = Q.TypeCounter(BERN, GRID)
    for limit in (4, 11, 32, 256):
        _assert_expansion_matches_oracle(BERN, limit, counter)


def test_profile_matches_explicit_build_ternary():
    _assert_expansion_matches_oracle(TERN, 16, Q.TypeCounter(TERN, GRID))


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from([BERN, TERN, QUAT]),
       side=st.builds(Fraction, st.integers(8, 30), st.integers(1, 7)),
       origin=st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)),
       limit=limits(5))
def test_threshold_builds_match_definition(model, side, origin, limit):
    # The walk over count classes, with its integer dip checks, reproduces
    # the definition (each sequence's size against the limit, strict size
    # decrease) on random rational grids.
    grid = Q.Grid(side=side, origin=origin)
    oracle = first_passage_oracle(model, grid, limit)
    assume(oracle is not None)
    segments, dipped = oracle
    profile = D.tc_leaf_profile(model, grid, limit)
    explicit = D.build_tc_dictionary(model, grid, profile)
    assert explicit.segments == segments
    assert explicit.monotone_mismatches == dipped
    assert profile.leaf_classes == explicit.leaf_classes()
    assert profile.monotone_mismatch_leaves == dipped


def _profile_or_raised(build, *args, **kwargs):
    """The profile build returns, or the type of the cap error it raises."""
    try:
        return build(*args, **kwargs)
    except (D.LeafCapExceeded, D.DictionaryError, Q.CountingCapError) as exc:
        return type(exc)


@settings(max_examples=100, deadline=None)
@given(model=st.sampled_from([BERN, TERN, QUAT, FRAC]),
       side=st.builds(Fraction, st.integers(1, 30), st.integers(1, 7)),
       origin=st.lists(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)),
                       min_size=1, max_size=2),
       limit=limits(10))
def test_leaf_profile_matches_size_for_counts_oracle(model, side, origin, limit):
    # Carrying each class's statistic sum from its parent reads the same
    # sizes as looking every child up from its counts: every TCProfile field
    # is equal, or both builds raise the same cap error.
    grid = Q.Grid(side=side, origin=tuple(origin))
    counter = Q.TypeCounter(model, grid)
    kwargs = dict(leaf_cap=3000, counter=counter)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Q, "MAX_LENGTH", 80)
        got = _profile_or_raised(D.tc_leaf_profile, model, grid, limit, **kwargs)
        want = _profile_or_raised(size_for_counts_leaf_profile, model, grid,
                                  limit, **kwargs)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from([BERN, TERN, QUAT, FRAC, SIMPLEX, CUBE]),
       side=st.builds(Fraction, st.integers(1, 30), st.integers(1, 7)),
       origin=st.lists(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)),
                       min_size=1, max_size=3),
       limit=limits(10))
def test_lattice_classes_are_the_count_classes_merged(model, side, origin, limit):
    # Keying each class by (ell, t) gives the leaves of the walk over
    # letter-count classes merged by (ell, t): every size and clean and
    # dipped path count, and the largest internal size, or the same error.
    # Where the tree has at most 2000 segments and the composition oracle
    # is cheap (at most 5000 count vectors at the longest length), each
    # index unranks from the class DAG to the oracle's segment of that rank.
    grid = Q.Grid(side=side, origin=tuple(origin))
    counter = Q.TypeCounter(model, grid)
    tree = D.ThresholdTree(model, grid, counter)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Q, "MAX_LENGTH", 80)
        got = _raised_or_error(tree, limit, 3000)
        want = _profile_or_raised(size_for_counts_leaves, model, grid, limit,
                                  leaf_cap=3000, counter=counter)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert (tree.leaves, tree.max_internal_size) == want
    profile = tree.profile()
    if (profile.leaf_count > 2000
            or composition_count(profile.max_length(), model.alphabet_size) > 5000):
        return
    segments, _ = first_passage_oracle(model, grid, limit,
                                       max_depth=profile.max_length(),
                                       max_nodes=10 ** 4)
    dag = D.class_dag(Q.lattice(model).shifts, profile.leaf_classes)
    assert [D.unrank(dag, index) for index in range(dag.leaves)] == list(segments)


@pytest.mark.parametrize("model", [BERN, TERN, QUAT])
def test_leaf_profile_matches_oracle_at_a_limit_below_the_cap(model):
    # With the cap one above the limit every leaf size reads the cap itself.
    cap = 40
    counter = Q.TypeCounter(model, GRID, cap=cap)
    profile = D.tc_leaf_profile(model, GRID, cap - 1, counter=counter)
    assert profile == size_for_counts_leaf_profile(model, GRID, cap - 1,
                                                   counter=counter)
    assert profile.leaf_sizes == (cap,)
    with pytest.raises(D.DictionaryError, match="limit 40 .* cap 40"):
        D.tc_leaf_profile(model, GRID, cap, counter=counter)


def _raised_or_error(tree, limit, leaf_cap):
    """The number of classes raising tree walked, or the type of the cap
    error it raised."""
    return _profile_or_raised(tree.raise_limit, limit, leaf_cap)


def _tree_state(tree):
    """Each leaf class's [size, clean, dipped], and the tree's largest
    internal size and leaf count."""
    return tree.leaves, tree.max_internal_size, tree.leaf_count


@settings(max_examples=100, deadline=None)
@given(model=st.sampled_from([BERN, TERN, QUAT, FRAC, SIMPLEX]),
       side=st.builds(Fraction, st.integers(1, 30), st.integers(1, 7)),
       origin=st.lists(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)),
                       min_size=1, max_size=2),
       limit=limits(10), step=st.integers(0, 4), nudge=st.integers(0, 15),
       tight_cap=st.integers(0, 3000))
def test_extending_a_profile_equals_the_walk_from_the_root(model, side, origin,
                                                           limit, step, nudge,
                                                           tight_cap):
    # Extending a threshold tree: raising it to limit, then trying up to
    # about 2^step-fold more under a leaf cap that may stop it, then raising
    # again under the full cap, walks on from the leaf classes that split.
    # It leaves every leaf class's size and clean and dipped path counts,
    # and so every TCProfile field, as one raise from limit 0 (the walk
    # from the root) does, or the same error.
    grid = Q.Grid(side=side, origin=tuple(origin))
    counter = Q.TypeCounter(model, grid)
    raised = (limit << step) + nudge
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Q, "MAX_LENGTH", 80)
        tree = D.ThresholdTree(model, grid, counter)
        assume(not isinstance(_raised_or_error(tree, limit, 3000), type))
        _raised_or_error(tree, raised, tight_cap)
        got = _raised_or_error(tree, raised, 3000)
        once = D.ThresholdTree(model, grid, counter)
        want = _raised_or_error(once, raised, 3000)
    if (got, want) == (D.LeafCapExceeded, Q.CountingCapError):
        # The raised tree counts its kept leaves from the start, so it can
        # pass the leaf cap before the walk from limit 0 reaches a length
        # past MAX_LENGTH.
        return
    assert isinstance(got, type) == isinstance(want, type)
    if isinstance(want, type):
        assert got is want
        return
    assert _tree_state(tree) == _tree_state(once)
    assert tree.profile() == once.profile()


@pytest.mark.parametrize("model,n,extended_n", [(BERN, 8, 10), (TERN, 5, 7),
                                                (QUAT, 50, 100)])
def test_extension_merges_into_kept_leaves_and_jumps_over_depths(model, n,
                                                                 extended_n):
    # The walk from the classes that split brings paths to leaf classes the
    # tree keeps, and its frontier empties before the depth of a class it
    # starts from, so the rows it reads skip a length.
    counter = Q.TypeCounter(model, GRID)
    tree = D.ThresholdTree(model, GRID, counter)
    tree.raise_limit(n)
    base = copy.deepcopy(tree.leaves)
    rows = []
    real_row = Q.TypeCounter.row

    def row(self, ell):
        rows.append(ell)
        return real_row(self, ell)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Q.TypeCounter, "row", row)
        walked = tree.raise_limit(extended_n)
    once = D.ThresholdTree(model, GRID, counter)
    walked_once = once.raise_limit(extended_n)
    assert _tree_state(tree) == _tree_state(once)
    assert tree.profile() == once.profile() == D.tc_leaf_profile(
        model, GRID, extended_n, counter=counter)
    assert any(size > extended_n and sum(tree.leaves[key][1:]) > clean + dipped
               for key, (size, clean, dipped) in base.items())
    assert set(range(min(rows), max(rows) + 1)) - set(rows)
    # Fewer than the raise from limit 0, which walks all but the root.
    assert walked < walked_once


def test_an_extension_over_the_cap_leaves_its_base_as_it_was():
    counter = Q.TypeCounter(BERN, GRID)
    tree = D.ThresholdTree(BERN, GRID, counter)
    tree.raise_limit(8)
    before = copy.deepcopy(tree)
    # One cap stops the walk at its end, and the other after it has brought
    # paths to classes that split at a later depth.
    for limit, leaf_cap in ((10, 47), (32, 100)):
        with pytest.raises(D.LeafCapExceeded):
            tree.raise_limit(limit, leaf_cap=leaf_cap)
        assert _tree_state(tree) == _tree_state(before)
        assert tree.profile() == before.profile()
    # A limit below the tree's internal sizes cannot be reached by raising.
    with pytest.raises(D.DictionaryError, match="only rises"):
        tree.raise_limit(2)
    assert _tree_state(tree) == _tree_state(before)


@pytest.mark.parametrize("model", [BERN, TERN, QUAT])
def test_limit_0_has_the_k_one_letter_leaves_and_the_cap_checks(model):
    # The tree starts at limit 0 with k leaves, so a cap below k refuses even
    # a raise that splits no class, and a limit from the counter's cap on
    # is refused before any walk.
    k = model.alphabet_size
    for limit in (0, 1):
        with pytest.raises(D.LeafCapExceeded):
            D.tc_leaf_profile(model, GRID, limit, leaf_cap=k - 1)
    assert D.tc_leaf_profile(model, GRID, 0, leaf_cap=k).leaf_count == k
    counter = Q.TypeCounter(model, GRID, cap=40)
    for limit in (40, 41):
        with pytest.raises(D.DictionaryError, match="cap 40"):
            D.tc_leaf_profile(model, GRID, limit, counter=counter)


def test_leaf_mass_normalizes():
    _, dictionary = tc64()
    for theta in (-2.0, 0.0, 1.3):
        assert leaf_mass(dictionary, [theta]) == pytest.approx(1.0, abs=1e-9)


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
    bigger = D.tc_leaf_profile(BERN, GRID, profile.max_internal_size,
                               counter=counter)
    assert bigger.leaf_count > 64 or bigger.leaf_count == profile.leaf_count


def _exhaustive_gamma_profile(model, m, counter):
    """The profile of the largest integer limit with at most m leaves, trying
    every limit below m."""
    best = D.tc_leaf_profile(model, GRID, 0, counter=counter)
    for n in range(1, m):
        profile = D.tc_leaf_profile(model, GRID, n, counter=counter)
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
    # gamma is log2 of the largest internal size, a limit that reproduces
    # the profile.
    assert gamma == (math.log2(best.max_internal_size) if best.max_internal_size
                     else -1.0)
    again = D.tc_leaf_profile(model, GRID, profile.max_internal_size,
                              counter=counter)
    assert again.leaf_classes == profile.leaf_classes


@pytest.mark.parametrize("model,m", [(BERN, 64), (BERN, 4096), (TERN, 500),
                                     (QUAT, 1000)])
def test_next_size_above_gamma_exceeds_m(model, m):
    # The next class size the dictionary can change at is its smallest leaf
    # size; a threshold there must blow past the leaf budget.
    counter = Q.TypeCounter(model, GRID)
    gamma, profile = D.choose_gamma_profile(model, GRID, m, counter=counter)
    leaf_sizes = {counter.size_of_sum(counter.row(ell), t)
                  for ell, t, _ in profile.leaf_classes}
    assert tuple(sorted(leaf_sizes)) == profile.leaf_sizes
    nxt = profile.min_leaf_size
    assert math.log2(nxt) > gamma
    assert D.tc_leaf_profile(model, GRID, nxt, counter=counter).leaf_count > m


@settings(max_examples=25, deadline=None)
@given(model=st.sampled_from([BERN, TERN, QUAT]), m=st.integers(4, 512))
def test_gamma_search_is_exact_at_a_cap_just_above_m(model, m):
    # Every size the search decides on is below m, so saturating at m + 1
    # leaves its outcome as it is at the real cap.
    gamma, profile = D.choose_gamma_profile(
        model, GRID, m, counter=Q.TypeCounter(model, GRID))
    capped_gamma, capped = D.choose_gamma_profile(
        model, GRID, m, counter=Q.TypeCounter(model, GRID, cap=m + 1))
    assert capped_gamma == gamma
    assert capped.leaf_classes == profile.leaf_classes
    assert capped.monotone_mismatch_leaves == profile.monotone_mismatch_leaves
    assert capped.max_length() == profile.max_length()


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from([BERN, TERN, QUAT, FRAC, SIMPLEX]),
       side=st.builds(Fraction, st.integers(1, 30), st.integers(1, 7)),
       origin=st.lists(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)),
                       min_size=1, max_size=2),
       m=st.integers(4, 400))
def test_gamma_search_at_cap_m_matches_the_full_cap(model, side, origin, m):
    # The search's own counter saturates at m: it finds the profile of a
    # counter capped at SIZE_CAP, with every leaf size above m read as m.
    assume(m >= model.alphabet_size)
    grid = Q.Grid(side=side, origin=tuple(origin))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Q, "MAX_LENGTH", 80)
        full = _profile_or_raised(D.choose_gamma_profile, model, grid, m,
                                  counter=Q.TypeCounter(model, grid))
        capped = _profile_or_raised(D.choose_gamma_profile, model, grid, m)
    if isinstance(full, type):
        assert capped is full
        return
    (gamma, full), (capped_gamma, capped) = full, capped
    assert capped_gamma == gamma
    assert capped.leaf_sizes == tuple(sorted({min(v, m) for v in full.leaf_sizes}))
    assert capped == dataclasses.replace(full, leaf_sizes=capped.leaf_sizes)


def _probed(search, model, grid, m):
    """search's result or error type, the limits it raised threshold trees
    to, and the leaves of the last tree a raise fitted (None with none), with
    MAX_LENGTH at 80."""
    probes, fitted = [], [None]
    real = D.ThresholdTree.raise_limit

    def probe(tree, limit, *args, **kwargs):
        probes.append(limit)
        walked = real(tree, limit, *args, **kwargs)
        fitted.append(tree)
        return walked

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Q, "MAX_LENGTH", 80)
        patch.setattr(D.ThresholdTree, "raise_limit", probe)
        got = _profile_or_raised(search, model, grid, m)
    return got, probes, fitted[-1] and fitted[-1].leaves


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from([BERN, TERN, QUAT, FRAC, SIMPLEX]),
       side=st.builds(Fraction, st.integers(1, 30), st.integers(1, 7)),
       origin=st.lists(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)),
                       min_size=1, max_size=2),
       m=st.integers(4, 4096))
def test_gamma_search_matches_the_rerun_oracle(model, side, origin, m):
    # Raising one tree probes the limits the search that walks every probe
    # from the root probes, and returns its gamma and profile, with the same
    # size and clean and dipped path counts in each leaf class.
    assume(m >= model.alphabet_size)
    grid = Q.Grid(side=side, origin=tuple(origin))
    got, got_probes, got_leaves = _probed(D.choose_gamma_profile, model, grid, m)
    want, want_probes, want_leaves = _probed(rerun_gamma_profile, model, grid, m)
    if want is Q.CountingCapError and got is not want:
        # A probe over m can stop on the leaf cap before the walk from the
        # root reaches a length past MAX_LENGTH; the search then goes on.
        assert got_probes[:len(want_probes)] == want_probes
        return
    assert got_probes == want_probes
    assert got == want
    if not isinstance(want, type):
        assert got_leaves == want_leaves


def test_gamma_search_logs_each_probe_at_debug(caplog, monkeypatch):
    probes = []
    real = D.ThresholdTree.raise_limit

    def probe(tree, limit, *args, **kwargs):
        probes.append(limit)
        return real(tree, limit, *args, **kwargs)

    monkeypatch.setattr(D.ThresholdTree, "raise_limit", probe)
    with caplog.at_level(logging.DEBUG, logger="tccode.dictionary"):
        D.choose_gamma_profile(TERN, GRID, 500)
    assert len(probes) > 2
    assert [r.args[0] for r in caplog.records] == probes
    assert all(r.name == "tccode.dictionary" and r.levelno == logging.DEBUG
               for r in caplog.records)
    messages = [r.getMessage() for r in caplog.records]
    assert any(" fits, " in text for text in messages)
    assert any(" over m=500," in text for text in messages)
    assert all("classes walked" in text for text in messages)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        D.choose_gamma_profile(TERN, GRID, 500)
    assert not caplog.records


def test_gamma_search_refuses_sizes_past_the_cap():
    with pytest.raises(D.DictionaryError, match="cap"):
        D.choose_gamma_profile(BERN, GRID, Q.SIZE_CAP)
    for build in (D.tc_leaf_profile, size_for_counts_leaf_profile):
        with pytest.raises(D.DictionaryError, match="cap"):
            build(BERN, GRID, Q.SIZE_CAP)


def test_a_float_limit_is_a_type_error():
    # A threshold of 3.5 stood for the limit 11, not 3: a float is refused
    # instead of being read as some integer.
    for build in (D.tc_leaf_profile, size_for_counts_leaf_profile):
        with pytest.raises(TypeError):
            build(BERN, GRID, 3.5)


def test_gamma_search_probes_the_limits_it_chose_past_2_47():
    # Past 2^47 a float log2 no longer names every integer, so a probe at
    # log2(n) would test some other limit.  Each feasible probe's profile
    # brackets its limit exactly, and the limit just below its smallest leaf
    # size, often the same float log2, keeps that leaf size a leaf.  Every
    # probe after the first feasible one is a leaf size of the best profile
    # so far, and the search returns what the search walking every probe
    # from the root returns.
    grid = Q.Grid(side=Fraction(11, 2), origin=(Fraction(-1, 3),))
    m = 2 ** 52
    probes = []
    real = D.ThresholdTree.raise_limit

    def probe(tree, limit, *args, **kwargs):
        try:
            walked = real(tree, limit, *args, **kwargs)
        except D.LeafCapExceeded:
            probes.append((limit, None, None))
            raise
        probes.append((limit, tree.profile(), tree.counter))
        return walked

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(D.ThresholdTree, "raise_limit", probe)
        got = D.choose_gamma_profile(BERN, grid, m)
    assert got == rerun_gamma_profile(BERN, grid, m)
    assert any(limit > 2 ** 47 for limit, profile, _ in probes if profile)
    best = None
    for limit, profile, counter in probes:
        if best is not None:
            assert limit in best.leaf_sizes
        if profile is not None:
            assert profile.max_internal_size <= limit < profile.min_leaf_size
            below = D.tc_leaf_profile(BERN, grid, profile.min_leaf_size - 1,
                                      counter=counter)
            assert below == profile
            best = profile
    assert got[1] == best


def test_ternary_gamma_at_scale():
    # Out of reach for composition enumeration with rational cells.
    counter = Q.TypeCounter(TERN, GRID)
    for m, gamma, leaves, max_length in [
            (2 ** 14, 8.88264304936184, 14519, 474),
            (2 ** 16, 10.905387005018131, 63645, 1920)]:
        got, profile = D.choose_gamma_profile(TERN, GRID, m, counter=counter)
        assert got == gamma
        assert profile.leaf_count == leaves
        assert profile.max_length() == max_length


def test_depth_cap_on_aligned_grid():
    # The aligned W=1 grid pins the all-zeros path at class size 1 forever.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Q, "MAX_LENGTH", 200)
        for build in (D.tc_leaf_profile, size_for_counts_leaf_profile):
            with pytest.raises(Q.CountingCapError, match="ell=201 .*isolate"):
                build(BERN, Q.Grid(), 4)


def test_leaf_cap():
    for build in (D.tc_leaf_profile, size_for_counts_leaf_profile):
        with pytest.raises(D.LeafCapExceeded):
            build(BERN, GRID, 256, leaf_cap=16)


def test_expansion_rejects_a_foreign_profile():
    # A ternary node of letter 2 repeated has t = 3 ell, above every
    # bernoulli leaf's t <= ell, so the expansion stops at the profile's
    # longest segment instead of descending forever.
    profile = D.tc_leaf_profile(BERN, GRID, 11)
    with pytest.raises(D.DictionaryError):
        D.build_tc_dictionary(TERN, GRID, profile)


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


def test_tunstall_cap_admits_its_own_m(monkeypatch):
    monkeypatch.setattr(D, "MAX_TUNSTALL_M", 8)
    assert D.build_tunstall(BERN, [0.0], 8).size == 8
    with pytest.raises(D.DictionaryError, match="above the cap 8"):
        D.build_tunstall(BERN, [0.0], 9)


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
    assert leaf_mass(d, [theta]) == pytest.approx(1.0, abs=1e-9)


def _assert_masses_match_segment_oracle(d, theta, n):
    oracle = segment_length_masses(d, theta)
    exact = R.exact_rate_distribution(d, theta).masses
    assert sorted(exact) == sorted(oracle)
    for ell, p in oracle.items():
        assert exact[ell] == pytest.approx(p, abs=1e-12)
    assert leaf_mass(d, theta) == pytest.approx(math.fsum(oracle.values()), abs=1e-12)
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
@given(st.sampled_from([BERN, TERN, QUAT]), st.sampled_from([2, 5, 16, 45]),
       _THETAS, st.integers(min_value=1, max_value=12))
def test_leaf_class_masses_match_segments_threshold(model, limit, theta, n):
    theta = theta[:model.stat_dim]
    d = D.build_tc_dictionary(model, GRID, D.tc_leaf_profile(model, GRID, limit))
    _assert_masses_match_segment_oracle(d, theta, n)


@st.composite
def _leaf_classes(draw, model):
    """Leaf classes with short and long lengths and multiplicities on both
    sides of 2^53."""
    classes = []
    for _ in range(draw(st.integers(1, 12))):
        ell = draw(st.one_of(st.integers(1, 64), st.integers(65, 10 ** 6)))
        cuts = sorted(draw(st.integers(0, ell))
                      for _ in range(model.alphabet_size - 1))
        counts = tuple(b - a for a, b in zip([0] + cuts, cuts + [ell]))
        mult = draw(st.one_of(st.integers(1, 2 ** 20),
                              st.integers(2 ** 53 + 1, 2 ** 70)))
        classes.append((ell, counts, mult))
    return classes


@st.composite
def _mass_cases(draw):
    model = draw(st.sampled_from([BERN, TERN, QUAT, FRAC]))
    theta = [draw(st.floats(min_value=lo, max_value=hi))
             for lo, hi in model.theta_box]
    return model, theta, draw(_leaf_classes(model))


@settings(max_examples=200, deadline=None)
@given(_mass_cases())
@example((BERN, [3.17], [(5000, (0, 5000), 2 ** 60 + 1), (7, (3, 4), 3)]))
@example((FRAC, [-0.7], [(999_999, (333_333, 333_333, 333_333), 2 ** 53 + 3)]))
@example((QUAT, [2.0, -2.0], [(40_000, (1, 39_997, 1, 1), 2 ** 54 - 1)]))
def test_length_masses_equal_fraction_oracle(case):
    # Integer statistic sums divided once per coordinate give the same bits
    # as the float of each class's rational average statistic.  The classes
    # are drawn by letter counts, each passed to length_masses at its
    # lattice point.
    model, theta, classes = case
    points = [(ell, lattice_point(model, counts), mult)
              for ell, counts, mult in classes]
    assert D.length_masses(model, points, theta) == \
        fraction_length_masses(model, classes, theta)


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
    # The segment lines of a format-1 file of the same threshold build.
    _, profile = D.choose_gamma_profile(BERN, GRID, 64)
    dictionary = D.build_tc_dictionary(BERN, GRID, profile, m_target=64)
    text = format1_text(dictionary)
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


def test_trie_rejects_foreign_letters():
    # Three children under the root, but -1 is no ternary letter; the table
    # is built, and the letters checked, when the dictionary is.
    with pytest.raises(D.DictionaryError):
        D.Dictionary(model=TERN, grid=GRID, segments=((-1,), (0,), (1,)), m_target=3)
    with pytest.raises(D.DictionaryError):
        D.Dictionary(model=BERN, grid=GRID, segments=((0,), (1,), (2,)), m_target=3)
    _, dictionary = tc64()
    with pytest.raises(D.DictionaryError):
        dictionary.parse_one(iter((-1,)))


def test_trie_rejects_duplicates_and_prefixes():
    for segs in (((0,), (0,), (1,)), ((0,), (0, 1), (1,)), ((),)):
        with pytest.raises(D.DictionaryError):
            D.Dictionary(model=BERN, grid=GRID, segments=segs, m_target=3)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
_HEADER_KEYS = ["format", "kind", "gamma", "m_target", "size", "codeword_width",
                "monotone_mismatches", "model", "grid"]


@st.composite
def corrupted_dictionary_texts(draw):
    """A valid small dictionary file with its header, a segment line or a
    leaf-class line broken: a Tunstall dictionary in format 1, or a threshold
    dictionary in format 2."""
    model = draw(st.sampled_from([BERN, TERN]))
    if draw(st.booleans()):
        d = D.build_tunstall(model, [0.5], draw(st.integers(min_value=3, max_value=12)))
    else:
        limit = draw(st.sampled_from([2, 5, 16]))
        d = D.tc_dictionary(model, GRID, D.tc_leaf_profile(model, GRID, limit))
    header_line, *lines = D.dictionary_to_text(d).splitlines()
    header = json.loads(header_line)
    how = draw(st.sampled_from(["header", "drop-key", "set-key", "set-nested",
                                "segment", "letters", "field"]))
    if how == "header":
        header_line = json.dumps(draw(_JSON))
    elif how == "drop-key":
        del header[draw(st.sampled_from(_HEADER_KEYS))]
    elif how == "set-key":
        header[draw(st.sampled_from(_HEADER_KEYS))] = draw(_JSON)
    elif how == "set-nested":
        part = draw(st.sampled_from(["model", "grid"]))
        header[part][draw(st.sampled_from(sorted(header[part])))] = draw(_JSON)
    i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    if how == "segment":
        lines[i] = draw(st.text(alphabet=" -0123456789x\t", max_size=8))
    elif how == "letters":
        lines[i] = " ".join(map(str, draw(st.lists(st.integers(min_value=-3, max_value=4),
                                                   max_size=5))))
    elif how == "field":
        fields = lines[i].split()
        j = draw(st.integers(min_value=0, max_value=len(fields) - 1))
        fields[j] = str(int(fields[j]) + draw(st.integers(min_value=-3, max_value=3)))
        lines[i] = " ".join(fields)
    if how in ("drop-key", "set-key", "set-nested"):
        header_line = json.dumps(header)
    return "\n".join([header_line] + lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(corrupted_dictionary_texts())
def test_corrupted_files_load_or_raise_dictionary_error(text):
    try:
        d = D.dictionary_from_text(text)
    except D.DictionaryError:
        return
    # Whatever loads is a usable dictionary.
    d.check_structure()
    saved = D.dictionary_to_text(d)
    assert D.dictionary_to_text(D.dictionary_from_text(saved)) == saved
    assert d.parse_one(iter(d.segments[0])).index == 0


def _format2_text(model=TERN, m=256):
    _, profile = D.choose_gamma_profile(model, GRID, m)
    return format2_text(D.build_tc_dictionary(model, GRID, profile, m_target=m))


def _format3_text(model=TERN, m=256):
    _, profile = D.choose_gamma_profile(model, GRID, m)
    return D.dictionary_to_text(D.tc_dictionary(model, GRID, profile, m_target=m))


def _edit_format2(edit, model=TERN, text=_format2_text):
    """A format-2 file (or another file of leaf-class lines, from text) with
    its header and class lines, parsed to integers, changed by
    edit(header, classes)."""
    header_line, *lines = text(model).splitlines()
    header = json.loads(header_line)
    classes = [[int(v) for v in line.split()] for line in lines]
    edit(header, classes)
    return "\n".join([json.dumps(header)]
                     + [" ".join(map(str, c)) for c in classes]) + "\n"


def _mult(i, delta, size_too=True):
    """Change class i's multiplicity, and the header's size with it."""
    def edit(header, classes):
        classes[i][-1] += delta
        header["size"] += delta if size_too else 0
    return edit


def _drop(i):
    def edit(header, classes):
        header["size"] -= classes.pop(i)[-1]
    return edit


def _add(counts_of):
    """Add a class of multiplicity 1 in sorted place, and count it in size."""
    def edit(header, classes):
        counts = counts_of(classes)
        classes.append([sum(counts)] + list(counts) + [1])
        classes.sort(key=lambda c: (c[0], c[1:-1]))
        header["size"] += 1
    return edit


def _below_first_leaf(classes):
    """Counts one letter below the first leaf class: no path reaches them."""
    counts = classes[0][1:-1]
    return [counts[0] + 1] + counts[1:]


def _internal_at_depth_1(classes):
    """Counts of a depth-1 node that is not a leaf."""
    leaves = [c[1:-1] for c in classes]
    return next(c for c in ([1, 0, 0], [0, 1, 0], [0, 0, 1]) if c not in leaves)


def _line(i, fields):
    def edit(header, classes):
        classes[i] = fields(classes[i])
    return edit


def _header(key, value):
    def edit(header, classes):
        header[key] = value(header) if callable(value) else value
    return edit


def _swap_first_two(header, classes):
    classes[0], classes[1] = classes[1], classes[0]


def _duplicate_second(header, classes):
    classes.insert(1, list(classes[1]))
    header["size"] += classes[1][-1]


# Ternary M=256 classes are [ell, c0, c1, c2, mult]; every edit but the
# header ones keeps size equal to the sum of the multiplicities.
_FORMAT2_CORRUPTIONS = {
    "mult-up": _mult(0, 1),
    "mult-down": _mult(3, -1),
    "mult-size-unchanged": _mult(0, 1, size_too=False),
    "mult-zero": lambda h, c: _mult(2, -c[2][-1])(h, c),
    "drop-class": lambda h, c: _drop(len(c) // 2)(h, c),
    "drop-last-class": _drop(-1),
    "add-unreachable-class": _add(_below_first_leaf),
    "add-internal-class": _add(_internal_at_depth_1),
    "duplicate-class": _duplicate_second,
    "swap-lines": _swap_first_two,
    "size": _header("size", lambda h: h["size"] + 1),
    "m-target-below-size": _header("m_target", lambda h: h["size"] - 1),
    "codeword-width": _header("codeword_width", lambda h: h["codeword_width"] + 1),
    "counts-short": _line(0, lambda c: c[:1] + c[2:]),
    "counts-long": _line(0, lambda c: c[:1] + [0] + c[1:]),
    "counts-negative": _line(0, lambda c: [c[0], c[1] + c[2] + 1, -1] + c[3:]),
    "length-off": _line(0, lambda c: [c[0] + 1] + c[1:]),
    "kind-tunstall": _header("kind", "tunstall"),
    "kind-unknown": _header("kind", "banana"),
    "format-3": _header("format", 3),
    "no-classes": lambda h, c: c.clear(),
}


@pytest.mark.parametrize("how", sorted(_FORMAT2_CORRUPTIONS))
def test_corrupted_format2_files_raise(how):
    assert D.dictionary_from_text(_edit_format2(lambda h, c: None)).size > 0
    text = _edit_format2(_FORMAT2_CORRUPTIONS[how])
    assert text != _format2_text()
    with pytest.raises(D.DictionaryError):
        D.dictionary_from_text(text)


def _add_point(key_of):
    """Add a format-3 class [ell, t] of multiplicity 1 in sorted place, and
    count it in size."""
    def edit(header, classes):
        classes.append(list(key_of(classes)) + [1])
        classes.sort(key=lambda c: c[:-1])
        header["size"] += 1
    return edit


# Ternary M=256 classes are [ell, t, mult], with shifts 0, 1 and 3.
_FORMAT3_CORRUPTIONS = dict(
    {how: _FORMAT2_CORRUPTIONS[how] for how in (
        "mult-up", "mult-down", "mult-size-unchanged", "mult-zero", "drop-class",
        "drop-last-class", "duplicate-class", "swap-lines", "size",
        "m-target-below-size", "codeword-width", "kind-tunstall", "kind-unknown",
        "no-classes")},
    **{
        # Letter 0 does not move t: the class below the first leaf.
        "add-unreachable-class": _add_point(lambda c: [c[0][0] + 1, c[0][1]]),
        "add-internal-class": _add_point(lambda c: next(
            [1, t] for t in (0, 1, 3) if [1, t] not in [x[:2] for x in c])),
        "point-short": _line(0, lambda c: c[:1] + c[2:]),
        "point-long": _line(0, lambda c: c[:1] + [0] + c[1:]),
        "point-negative": _line(0, lambda c: [c[0], -1, c[2]]),
        "point-past-the-box": _line(0, lambda c: [c[0], 3 * c[0] + 1, c[2]]),
        "length-off": _line(0, lambda c: [c[0] + 1] + c[1:]),
        "format-2": _header("format", 2),
    })


@pytest.mark.parametrize("how", sorted(_FORMAT3_CORRUPTIONS))
def test_corrupted_format3_files_raise(how):
    assert D.dictionary_from_text(_edit_format2(lambda h, c: None,
                                                text=_format3_text)).size > 0
    text = _edit_format2(_FORMAT3_CORRUPTIONS[how], text=_format3_text)
    assert text != _format3_text()
    with pytest.raises(D.DictionaryError):
        D.dictionary_from_text(text)


def test_format3_classes_past_the_longest_possible_length_fail_fast():
    # One class cannot end a tree of length 10^6; the DAG is never built.
    header_line = _format3_text(BERN, 64).splitlines()[0]
    header = dict(json.loads(header_line), size=1, codeword_width=1)
    text = json.dumps(header) + "\n1000000 500000 1\n"
    with pytest.raises(D.DictionaryError, match="cannot reach"):
        D.dictionary_from_text(text)


@pytest.mark.parametrize("bad", [(1, "0"), (2, "1 0 0 1"), (5, "2 1 1 1")],
                         ids=["single-letter-line", "ell-mismatch", "wrong-width"])
def test_format2_line_shapes_raise(bad):
    index, line = bad
    header_line, *lines = _format2_text().splitlines()
    lines[index] = line
    with pytest.raises(D.DictionaryError):
        D.dictionary_from_text("\n".join([header_line] + lines) + "\n")


def test_format2_classes_past_the_longest_possible_length_fail_fast():
    # One class cannot end a tree of length 10^6; the DAG is never built.
    header_line = _format2_text(BERN, 64).splitlines()[0]
    header = dict(json.loads(header_line), size=1, codeword_width=1)
    text = json.dumps(header) + "\n1000000 500000 500000 1\n"
    with pytest.raises(D.DictionaryError, match="cannot reach"):
        D.dictionary_from_text(text)
