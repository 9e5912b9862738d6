import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tccode import models as M
from tccode import qtypes as Q

from oracles import composition_row


BERN = M.bernoulli()
TERN = M.ternary()
QUAT = M.quaternary()
# Fractional letter statistics: the integer lattice needs a common denominator.
FRAC = M.ExpFamilyModel(
    alphabet_size=3, stat_dim=1,
    tau=((Fraction(1, 2),), (Fraction(3, 4),), (Fraction(-2),)),
    theta_box=((-1.0, 1.0),), name="fractional",
)


def test_cell_of_oracle_values():
    grid = Q.default_grid()
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
    assert Q.multinomial((2, 2)) == 6
    assert Q.multinomial((1, 2, 3)) == math.factorial(6) // (1 * 2 * 6)
    for total, parts in [(5, 2), (4, 3), (0, 2)]:
        rows = list(Q.compositions(total, parts))
        assert len(rows) == Q.composition_count(total, parts)
        assert len(set(rows)) == len(rows)
        assert all(sum(r) == total for r in rows)


@pytest.mark.parametrize("grid", [Q.default_grid(), Q.construction_grid()])
def test_partition_identity_binary(grid):
    counter = Q.TypeCounter(BERN, grid)
    for ell in range(1, 13):
        assert sum(counter.row(ell).values()) == 2 ** ell


def test_partition_identity_ternary():
    counter = Q.TypeCounter(TERN, Q.construction_grid())
    for ell in range(1, 9):
        assert sum(counter.row(ell).values()) == 3 ** ell


@pytest.mark.parametrize("model,max_ell", [(BERN, 8), (TERN, 6)])
def test_counter_matches_brute_force(model, max_ell):
    grid = Q.construction_grid()
    counter = Q.TypeCounter(model, grid)
    k = model.alphabet_size
    for ell in range(1, max_ell + 1):
        tally = {}
        for seq in itertools.product(range(k), repeat=ell):
            stat = M.suff_stat_avg(model, seq)
            idx, _ = Q.cell_of(model, grid, ell, stat)
            tally[idx] = tally.get(idx, 0) + 1
        assert tally == counter.row(ell)


def test_size_of_sequence():
    counter = Q.TypeCounter(BERN, Q.default_grid())
    # On the aligned grid each cell is one exact type: C(4, 1) = 4.
    assert counter.size_of_sequence((0, 1, 0, 0)) == 4
    assert counter.size_of_sequence((1, 1, 1, 1)) == 1
    assert counter.size_for_counts((2, 2)) == 6


def test_counting_cap():
    counter = Q.TypeCounter(TERN, Q.default_grid(), max_compositions=10)
    with pytest.raises(Q.CountingCapError):
        counter.row(10)


def test_log_type_size_core_values():
    # counts (2, 2): 4 * h(1/2) - (1/2) log2 4 = 3.
    assert Q.log_type_size_core_counts(BERN, (2, 2)) == pytest.approx(3.0, abs=1e-9)
    assert Q.log_type_size_core(BERN, (1, 0, 1, 0)) == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(M.ModelError):
        Q.log_type_size_core_counts(BERN, (1, 0))


def test_core_tracks_exact_log_count():
    # |log2 C(4,2) - core| for the centered type.
    gap = abs(math.log2(6) - Q.log_type_size_core_counts(BERN, (2, 2)))
    assert gap == pytest.approx(math.log2(8.0 / 6.0), abs=1e-9)


def test_info_increment_value():
    # (1, 1) counts extended by letter 1: 3 h(2/3) - 2.
    h23 = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
    got = Q.info_increment(BERN, (1, 0), 1)
    assert got == pytest.approx(3 * h23 - 2.0, abs=1e-9)
    with pytest.raises(M.ModelError):
        Q.info_increment_counts(BERN, (1, 0), 2)
    with pytest.raises(M.ModelError):
        Q.info_increment_counts(BERN, (0, 0), 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=14))
def test_class_size_at_least_own_type(seq):
    # A quantized class contains at least the exact type of its member.
    counter = Q.TypeCounter(BERN, Q.construction_grid())
    counts = (seq.count(0), seq.count(1))
    assert counter.size_of_sequence(seq) >= Q.multinomial(counts)


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
    counter = Q.TypeCounter(BERN, Q.default_grid())
    # An all-covering band counts every occupied cell.
    total = Q.band_cell_count(BERN, Q.default_grid(), 16, 8.0, -100.0, 100.0,
                              counter=counter)
    assert total == len(counter.row(16))
    # An empty band counts none.
    assert Q.band_cell_count(BERN, Q.default_grid(), 16, 8.0, 5.0, 5.0,
                             counter=counter) == 0


_RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from([BERN, TERN, QUAT, FRAC]),
       side=st.builds(Fraction, st.integers(1, 12), st.integers(1, 7)),
       origin=st.lists(_RATIONALS, min_size=1, max_size=2),
       ells=st.lists(st.integers(1, 9), min_size=1, max_size=3))
def test_row_matches_composition_oracle(model, side, origin, ells):
    # Rows come from integer convolution over statistic sums in any order of
    # lengths; cells from integer floor division.  Both must agree with the
    # rational cell_of over enumerated compositions, on any rational grid.
    grid = Q.Grid(side=side, origin=tuple(origin))
    counter = Q.TypeCounter(model, grid)
    for ell in ells:
        row = counter.row(ell)
        assert row == composition_row(model, grid, ell)
        for counts in Q.compositions(ell, model.alphabet_size):
            idx, _ = Q.cell_of(model, grid, ell, M.suff_stat_of_counts(model, counts))
            assert counter.cell_for_counts(counts) == idx
            assert counter.size_for_counts(counts) == row[idx]
