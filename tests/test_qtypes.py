import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tccode import models as M
from tccode import qtypes as Q

from oracles import (CORNER, CUBE, FRAC, SIMPLEX, band_cell_count,
                     composition_count, composition_row,
                     compositions, info_increment_counts, letter_counts,
                     log_type_size_core_counts, multinomial, row_sizes,
                     size_for_counts, suff_stat_of_counts)


BERN = M.bernoulli()
TERN = M.ternary()
QUAT = M.quaternary()
# The simplex and corner models reach only part of their box of sums, which
# the counter must read as 0, not as saturated.
MODELS = [BERN, TERN, QUAT, FRAC, SIMPLEX, CUBE, CORNER]


def test_cell_of_oracle_values():
    grid = Q.Grid()
    idx, center = Q.cell_of(BERN, grid, 4, (Fraction(1, 2),))
    assert idx == (1,)
    assert center == (Fraction(3, 8),)
    # Upper-closed: a statistic exactly on a boundary belongs to the lower cell.
    idx, _ = Q.cell_of(BERN, grid, 4, (Fraction(1, 4),))
    assert idx == (0,)
    idx, _ = Q.cell_of(BERN, grid, 4, (Fraction(0),))
    assert idx == (-1,)


def test_cell_membership_is_lower_open_upper_closed():
    grid = Q.construction_grid()
    for ell in (3, 7, 11):
        for num in range(ell + 1):
            tau = Fraction(num, ell)
            idx, _ = Q.cell_of(BERN, grid, ell, (tau,))
            lo = grid.origin_at(0) + idx[0] * grid.side / ell
            hi = grid.origin_at(0) + (idx[0] + 1) * grid.side / ell
            assert lo < tau <= hi


def test_grid_validation():
    with pytest.raises(ValueError):
        Q.Grid(side=Fraction(0))
    with pytest.raises(ValueError):
        Q.Grid(side=-1)
    g = Q.Grid(side="5/2", origin="-1/3")
    assert g.side == Fraction(5, 2)
    assert g.origin_at(0) == g.origin_at(3) == Fraction(-1, 3)


def test_multinomial_and_compositions():
    assert multinomial((2, 2)) == 6
    assert multinomial((1, 2, 3)) == math.factorial(6) // (1 * 2 * 6)
    for total, parts in [(5, 2), (4, 3), (0, 2)]:
        rows = list(compositions(total, parts))
        assert len(rows) == composition_count(total, parts)
        assert len(set(rows)) == len(rows)
        assert all(sum(r) == total for r in rows)


@pytest.mark.parametrize("grid", [Q.Grid(), Q.construction_grid()])
def test_partition_identity_binary(grid):
    counter = Q.TypeCounter(BERN, grid)
    for ell in range(1, 13):
        assert sum(row_sizes(counter, ell).values()) == 2 ** ell


def test_partition_identity_ternary():
    counter = Q.TypeCounter(TERN, Q.construction_grid())
    for ell in range(1, 9):
        assert sum(row_sizes(counter, ell).values()) == 3 ** ell


@pytest.mark.parametrize("model,max_ell", [(BERN, 8), (TERN, 6)])
def test_counter_matches_brute_force(model, max_ell):
    grid = Q.construction_grid()
    counter = Q.TypeCounter(model, grid)
    k = model.alphabet_size
    for ell in range(1, max_ell + 1):
        tally = {}
        for seq in itertools.product(range(k), repeat=ell):
            stat = suff_stat_of_counts(model, letter_counts(model, seq))
            idx, _ = Q.cell_of(model, grid, ell, stat)
            tally[idx] = tally.get(idx, 0) + 1
        assert tally == row_sizes(counter, ell)


def test_size_of_sequence():
    counter = Q.TypeCounter(BERN, Q.Grid())
    # On the aligned grid each cell is one exact type: C(4, 1) = 4.
    assert size_for_counts(counter, (3, 1)) == 4
    assert size_for_counts(counter, (0, 4)) == 1
    assert size_for_counts(counter, (2, 2)) == 6


def test_counting_cap():
    counter = Q.TypeCounter(TERN, Q.Grid())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Q, "MAX_ENTRIES", 10)
        with pytest.raises(Q.CountingCapError, match="cap 10;"):
            counter.row(10)
    # A refused count leaves the counter as it was.
    assert sum(row_sizes(counter, 10).values()) == 3 ** 10


def test_counting_cap_fails_before_allocating():
    # The caps admit the rows the ternary M=2^20 search counts (cap 2^20 up
    # to ell 17214), and refuse a far longer length without counting.
    Q.TypeCounter(TERN, Q.construction_grid(), cap=2 ** 20).row(17214)
    counter = Q.TypeCounter(TERN, Q.construction_grid())
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(Q.CountingCapError, match=r"ell=100000 .*cap 32768;"):
            counter.row(100000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert time.perf_counter() - start < 1.0
    assert row_sizes(counter, 3) == composition_row(TERN, Q.construction_grid(), 3)


def test_wide_span_fails_before_allocating(tmp_path):
    # A model file whose letter statistics lie 2^30 lattice steps apart puts
    # 2^30 + 1 sums in the box of one letter: refused at ell=1 before counting.
    path = tmp_path / "wide.json"
    path.write_text('{"name": "wide", "alphabet_size": 3, "stat_dim": 1, '
                    '"tau": [["0"], ["1"], ["%d"]], "theta_box": [[-1e-10, 1e-10]]}'
                    % 2 ** 30)
    wide = M.load_model(path)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        counter = Q.TypeCounter(wide, Q.construction_grid())
        with pytest.raises(Q.CountingCapError, match=r"ell=1 .*cap 33554432;"):
            counter.row(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert time.perf_counter() - start < 1.0


def test_the_box_cap_binds_only_while_reached_sums_are_kept():
    # Quaternary's shifts are the corners of the unit square, so its reached
    # sums fill the box at ell = 1 and are dropped: no box past the cap of
    # 2^10 sums (ell >= 32) holds a bit set.  The simplex never reaches its
    # far corner, keeps its bit set and is refused at ell = 32.
    grid = Q.construction_grid()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Q, "MAX_BOX", 2 ** 10)
        quaternary = Q.TypeCounter(QUAT, grid)
        for ell in range(1, 41):
            quaternary.row(ell)
        simplex = Q.TypeCounter(SIMPLEX, grid)
        for ell in range(1, 32):
            simplex.row(ell)
        with pytest.raises(Q.CountingCapError, match=r"ell=32 .*cap 1024;"):
            simplex.row(32)
    assert row_sizes(quaternary, 40) == _capped(composition_row(QUAT, grid, 40),
                                                Q.SIZE_CAP)


def _capped(row, cap):
    return {idx: min(n, cap) for idx, n in row.items()}


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS),
       side=st.builds(Fraction, st.integers(1, 12), st.integers(1, 7)),
       origin=st.lists(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)),
                       min_size=1, max_size=3),
       ells=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       cap=st.integers(1, 300))
def test_saturated_rows_match_capped_oracle(model, side, origin, ells, cap):
    # Keeping only the sums and cells of at most cap sequences gives
    # min(exact size, cap) in every cell, through the sum table and the row.
    grid = Q.Grid(side=side, origin=tuple(origin))
    counter = Q.TypeCounter(model, grid, cap=cap)
    for ell in ells:
        oracle = composition_row(model, grid, ell)
        assert row_sizes(counter, ell) == _capped(oracle, cap)
        for counts in compositions(ell, model.alphabet_size):
            idx, _ = Q.cell_of(model, grid, ell,
                               suff_stat_of_counts(model, counts))
            assert size_for_counts(counter, counts) == min(oracle[idx], cap)


@pytest.mark.parametrize("model,ell", [(BERN, 80), (TERN, 80), (QUAT, 40)])
def test_long_rows_match_capped_oracle(model, ell):
    # Exact counts pass 2^63 at these lengths; saturated ones stay exact
    # below SIZE_CAP.
    grid = Q.construction_grid()
    row = row_sizes(Q.TypeCounter(model, grid), ell)
    assert row == _capped(composition_row(model, grid, ell), Q.SIZE_CAP)
    assert max(row.values()) == Q.SIZE_CAP


@pytest.mark.parametrize("model,ell", [(SIMPLEX, 30), (CORNER, 14), (FRAC, 30)])
@pytest.mark.parametrize("cap", [1, 40, 10 ** 6])
def test_partly_reached_rows_match_capped_oracle(model, ell, cap):
    # Sums no sequence reaches read as 0 at every length, also after the
    # bit set of reached sums is laid out on wider axes.
    grid = Q.construction_grid()
    counter = Q.TypeCounter(model, grid, cap=cap)
    for n in range(1, ell + 1):
        assert row_sizes(counter, n) == _capped(composition_row(model, grid, n), cap)


@pytest.mark.parametrize("side", [2 ** 40, Fraction(2 ** 40, 3)])
def test_wide_grid_counts_or_fails_fast(side):
    # Sums and cells are Python integers: wide cells count exactly, however
    # many sizes a window adds, and a length past the cap fails before
    # counting.
    grid = Q.Grid(side=side, origin=(Fraction(-1, 3),))
    counter = Q.TypeCounter(BERN, grid)
    for ell in range(1, 10):
        assert row_sizes(counter, ell) == composition_row(BERN, grid, ell)
    start = time.perf_counter()
    with pytest.raises(Q.CountingCapError, match="longest length"):
        counter.row(2 ** 23 + 5)
    assert time.perf_counter() - start < 1.0
    # Scaled sums past 2^63, where int64 counting refused.
    wide = Q.Grid(side=2 ** 63)
    counter = Q.TypeCounter(BERN, wide)
    for ell in range(1, 10):
        assert row_sizes(counter, ell) == composition_row(BERN, wide, ell)


def test_suff_stat_is_exact_rational():
    stat = suff_stat_of_counts(TERN, (1, 1, 1))
    assert stat == (Fraction(4, 3),)


def test_suff_stat_of_counts_rejects_bad_counts():
    for counts in ((0, 0), (1, -1), (1,)):
        with pytest.raises(M.ModelError):
            suff_stat_of_counts(BERN, counts)


def test_size_for_counts_rejects_bad_counts():
    counter = Q.TypeCounter(BERN, Q.construction_grid())
    for counts in ((1, -1), (1,), (1, 1, 1)):
        with pytest.raises(M.ModelError):
            size_for_counts(counter, counts)


def test_log_type_size_core_values():
    # counts (2, 2): 4 * h(1/2) - (1/2) log2 4 = 3.
    assert log_type_size_core_counts(BERN, (2, 2)) == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(M.ModelError):
        log_type_size_core_counts(BERN, (1, 0))


def test_core_tracks_exact_log_count():
    # |log2 C(4,2) - core| for the centered type.
    gap = abs(math.log2(6) - log_type_size_core_counts(BERN, (2, 2)))
    assert gap == pytest.approx(math.log2(8.0 / 6.0), abs=1e-9)


def test_info_increment_value():
    # (1, 1) counts extended by letter 1: 3 h(2/3) - 2.
    h23 = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
    got = info_increment_counts(BERN, (1, 1), 1)
    assert got == pytest.approx(3 * h23 - 2.0, abs=1e-9)
    with pytest.raises(M.ModelError):
        info_increment_counts(BERN, (1, 0), 2)
    with pytest.raises(M.ModelError):
        info_increment_counts(BERN, (0, 0), 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=14))
def test_class_size_at_least_own_type(seq):
    # A quantized class contains at least the exact type of its member.
    counter = Q.TypeCounter(BERN, Q.construction_grid())
    counts = (seq.count(0), seq.count(1))
    assert size_for_counts(counter, counts) >= multinomial(counts)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=40))
def test_cell_center_lies_in_cell(ell, num):
    grid = Q.Grid(side=Fraction(7, 3), origin=(Fraction(-1, 5),))
    tau = (Fraction(num % (ell + 1), ell),)
    idx, center = Q.cell_of(BERN, grid, ell, tau)
    idx2, _ = Q.cell_of(BERN, grid, ell, center)
    assert idx2 == idx
    assert center == Q.cell_center(BERN, grid, ell, idx)


def test_band_cell_count_basic():
    counter = Q.TypeCounter(BERN, Q.Grid())
    # An all-covering band counts every occupied cell.
    total = band_cell_count(counter, 16, 8.0, -100.0, 100.0)
    assert total == len(row_sizes(counter, 16))
    # An empty band counts none.
    assert band_cell_count(counter, 16, 8.0, 5.0, 5.0) == 0


_RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS),
       side=st.builds(Fraction, st.integers(1, 12), st.integers(1, 7)),
       origin=st.lists(_RATIONALS, min_size=1, max_size=3),
       ells=st.lists(st.integers(1, 9), min_size=1, max_size=3))
def test_row_matches_composition_oracle(model, side, origin, ells):
    # Rows come from integer convolution over statistic sums in any order of
    # lengths; cells from integer floor division.  Both must agree with the
    # rational cell_of over enumerated compositions, on any rational grid.
    grid = Q.Grid(side=side, origin=tuple(origin))
    counter = Q.TypeCounter(model, grid)
    for ell in ells:
        row = row_sizes(counter, ell)
        assert row == composition_row(model, grid, ell)
        for counts in compositions(ell, model.alphabet_size):
            idx, _ = Q.cell_of(model, grid, ell, suff_stat_of_counts(model, counts))
            assert size_for_counts(counter, counts) == row[idx]
