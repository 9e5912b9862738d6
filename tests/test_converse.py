import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tccode import converse as C
from tccode import dictionary as D
from tccode import models as M
from tccode import qtypes as Q

from oracles import fv_codeword, fv_length, table_segments


BERN = M.bernoulli()
GRID = Q.construction_grid()


def tunstall3():
    return D.build_tunstall(BERN, [math.log2(0.3 / 0.7)], 3)


def test_hand_case_tunstall_m3_n2():
    d = tunstall3()
    code = C.vf_to_fv(d, 2)
    assert code.base_width == 2
    assert table_segments(code.table) == ((0, 0), (0, 1), (1,))
    # The only short parse is the word starting with letter 1.
    assert fv_length(code, (1, 0)) == 3
    assert fv_length(code, (0, 0)) == 2
    assert fv_length(code, (0, 1)) == 2
    report = C.check_event_equivalence(d, 2)
    assert report.passed and report.mismatches == 0 and report.checked == 4
    theta = [math.log2(0.3 / 0.7)]
    assert C.vf_short_mass(d, theta, 2) == pytest.approx(0.3, abs=1e-12)
    assert C.fv_overflow_mass(code, theta) == pytest.approx(0.3, abs=1e-12)


def test_full_depth_pruning_is_trivial():
    d = tunstall3()
    n = d.max_segment_length()
    code = C.vf_to_fv(d, n)
    assert table_segments(code.table) == d.segments
    for word in itertools.product(range(2), repeat=n):
        assert fv_length(code, word) <= code.base_width + (
            n - 1) * code.per_letter_suffix_bits
    report = C.check_event_equivalence(d, n)
    assert report.passed


def test_pruned_leaves_at_most_n():
    _, d = D.choose_gamma(BERN, GRID, 64)
    for n in (2, 4, 8):
        code = C.vf_to_fv(d, n)
        assert max(len(s) for s in table_segments(code.table)) <= n
        assert code.leaf_count <= d.size


def test_fv_codewords_prefix_free_and_decodable():
    _, d = D.choose_gamma(BERN, GRID, 16)
    n = 5
    code = C.vf_to_fv(d, n)
    words = list(itertools.product(range(2), repeat=n))
    codewords = {}
    for word in words:
        bits = fv_codeword(code, word)
        assert len(bits) == fv_length(code, word)
        codewords[word] = bits
    # Fixed-to-variable prefix code on length-n inputs must be injective and
    # prefix-free.
    values = sorted(codewords.values())
    assert len(set(values)) == len(values)
    for a, b in zip(values, values[1:]):
        assert not b.startswith(a)


def test_mass_identity_exact():
    _, d = D.choose_gamma(BERN, GRID, 64)
    for n in (3, 6, 10):
        code = C.vf_to_fv(d, n)
        for theta in (-2.0, 0.0, 1.0):
            short = C.vf_short_mass(d, [theta], n)
            over = C.fv_overflow_mass(code, [theta])
            assert short == pytest.approx(over, abs=1e-12)


def test_check_decides_all_words_past_the_longest_segment():
    # n = 20 is past every segment of the dictionary; all 2^20 words are
    # decided, none of them spelled out.
    _, d = D.choose_gamma(BERN, GRID, 64)
    report = C.check_event_equivalence(d, 20)
    assert report.checked == 2 ** 20
    assert report.passed and report.counterexamples == []


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=32), st.integers(min_value=1, max_value=10))
def test_equivalence_property(m, n):
    d = D.build_tunstall(BERN, [-1.0], m)
    report = C.check_event_equivalence(d, n)
    assert report.passed
