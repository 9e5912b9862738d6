"""Quantized type classes: the cuboid partition of statistic space.

Sequences of length l share a quantized type class when their average
sufficient statistics fall in the same cuboid of side W/l.  Cells are
lower-open and upper-closed in every coordinate, and all membership tests are
exact so that boundary points classify deterministically: cell_of works in
rational arithmetic, TypeCounter on an integer lattice of statistic sums.
Class sizes are exact counts saturated at SIZE_CAP, obtained by convolving
the number of sequences per statistic sum one letter at a time in int64.
scaled_statistics is the one scaling of the rational letter statistics onto
that lattice; the normality diagnostic in rates convolves float masses over
the same sums.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .models import ExpFamilyModel, ModelError, _as_fraction

CellIndex = Tuple[int, ...]


class CountingCapError(RuntimeError):
    """The length asked for would cost more than a resource cap allows."""


@dataclass(frozen=True)
class Grid:
    """Cuboid covering of statistic space: side W/l at sequence length l.

    The covering position is a free design choice but must stay fixed for the
    lifetime of any dictionary built on it.  The default W=1, origin=0 grid
    aligns cells with the achievable statistic lattice of the bundled binary
    model, which makes quantized types coincide with exact empirical types
    there (class sizes are then prefix-monotone).  That alignment also traps
    the extreme statistics in singleton cells, so threshold *construction*
    should use a misaligned grid such as construction_grid(); see there.
    """

    side: Fraction = Fraction(1)
    origin: Tuple[Fraction, ...] = (Fraction(0),)

    def __post_init__(self):
        side = _as_fraction(self.side)
        if side <= 0:
            raise ValueError("grid side W must be positive")
        object.__setattr__(self, "side", side)
        if isinstance(self.origin, (int, Fraction, str)):
            origin = (_as_fraction(self.origin),)
        else:
            origin = tuple(_as_fraction(v) for v in self.origin)
        if not origin:
            raise ValueError("grid origin needs at least one coordinate")
        object.__setattr__(self, "origin", origin)

    def origin_at(self, i: int) -> Fraction:
        # A scalar origin broadcasts across dimensions.
        return self.origin[i] if i < len(self.origin) else self.origin[-1]


def construction_grid() -> Grid:
    """Grid used by default when building threshold dictionaries.

    A cell boundary that permanently isolates an extreme statistic (as the
    aligned default grid does on the binary model) leaves the corresponding
    monochrome parse path with class size 1 forever, and the threshold rule
    never fires along it.  A fractional side with an offset origin keeps
    every path's class size growing, so construction terminates for any
    threshold.
    """
    return Grid(side=Fraction(5, 2), origin=(Fraction(-1, 3),))


def cell_of(model: ExpFamilyModel, grid: Grid, ell: int, tau
            ) -> Tuple[CellIndex, Tuple[Fraction, ...]]:
    """Index and exact center of the cell containing tau at length ell.

    Cell j occupies (origin + j*W/l, origin + (j+1)*W/l] per coordinate.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    tau = tuple(_as_fraction(v) for v in (tau if hasattr(tau, "__len__") else (tau,)))
    if len(tau) != model.stat_dim:
        raise ValueError("tau must have dimension %d" % model.stat_dim)
    idx = tuple(math.ceil((tau[i] - grid.origin_at(i)) * ell / grid.side) - 1
                for i in range(model.stat_dim))
    return idx, cell_center(model, grid, ell, idx)


def cell_center(model: ExpFamilyModel, grid: Grid, ell: int, idx: CellIndex
                ) -> Tuple[Fraction, ...]:
    return tuple(
        grid.origin_at(i) + Fraction(2 * idx[i] + 1, 2) * grid.side / ell
        for i in range(model.stat_dim)
    )


def scaled_statistics(model: ExpFamilyModel, origin: Sequence[Fraction] = ()
                      ) -> Tuple[int, Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """(D, letter statistics times D, origin times D): D is the least common
    denominator of both, so every statistic sum is an integer vector."""
    scale = math.lcm(*(v.denominator for row in model.tau for v in row),
                     *(o.denominator for o in origin))
    return (scale,
            tuple(tuple(int(v * scale) for v in row) for row in model.tau),
            tuple(int(o * scale) for o in origin))


# Class sizes saturate here.  Every construction decision compares a size
# with an integer limit below m < SIZE_CAP, and saturation commutes with
# addition: min(a + b, C) == min(min(a, C) + min(b, C), C) for a, b >= 0.
SIZE_CAP = 2 ** 40
_INT64_MAX = 2 ** 63 - 1
# Most cells of memoized rows plus sum table that one TypeCounter may hold.
MAX_CELLS = 2 ** 25


class Row:
    """Class sizes of length ell: a dense int64 array over the box of cells
    the length's statistic sums reach, whose lowest cell is first."""

    __slots__ = ("sizes", "first", "ell", "_view")

    def __init__(self, sizes, first: CellIndex, ell: int):
        self.sizes = sizes
        self.first = first
        self.ell = ell
        # Indexing a memoryview returns a Python int, faster than item().
        self._view = memoryview(sizes)

    def at(self, offset) -> int:
        """The size of the cell offset cells past first; 0 outside the box."""
        if min(offset) < 0:
            return 0
        try:
            return self._view[offset]
        except IndexError:
            return 0


class TypeCounter:
    """Quantized-type-class sizes for one (model, grid) pair, exact up to
    SIZE_CAP and saturated there.

    The letter statistics and the grid origin are scaled by one common
    denominator D, so a letter's statistic is an integer vector a_x and a
    sequence's statistic sum an integer vector A.  Axis i of the sum table
    at length l holds A_i = l low_i + g_i t for t = 0 .. l span_i, where
    low_i = min_x a_{x,i} and g_i is the gcd of the differences
    a_{x,i} - low_i.  The number of sequences per sum at length l comes from
    the table at l - 1 by k shifted slice-adds, one per letter, and a sum lies
    in cell j_i = ceil((A_i - O_i l) / (D W)) - 1 with O_i = D origin_i.  The
    cell index is monotone along each axis, so a length's row sums the table
    over cell windows one axis at a time.  Only the latest sum table is kept;
    the row of every length passed is memoized as a Row, and rows may be read
    concurrently once construction-time writes have finished.

    No int64 sum overflows: every table entry and every row entry is clipped
    to SIZE_CAP after each step, a step adds at most k entries and a row
    window at most min(cell window, axis length) entries, and row() checks
    that these counts times SIZE_CAP, and the scaled sums times the cell
    width's denominator, stay below 2^63 before it counts anything.  It also
    refuses a length whose rows and sum table would hold more than MAX_CELLS
    cells.
    """

    def __init__(self, model: ExpFamilyModel, grid: Grid):
        import numpy as np

        self.model = model
        self.grid = grid
        d = model.stat_dim
        scale, stats, self._origin = scaled_statistics(
            model, [grid.origin_at(i) for i in range(d)])
        # a_x per letter x: a sequence's statistic sum adds its letters' a_x.
        self.letter_stats = stats
        self._axis_stats = tuple(tuple(a[i] for a in stats) for i in range(d))
        # Cell width D*W = cell_den / cell_num in units of the integer sums.
        self._cell_num = grid.side.denominator
        self._cell_den = scale * grid.side.numerator
        low = [min(a[i] for a in stats) for i in range(d)]
        # A statistic constant along an axis has gcd 0; its axis has one sum.
        self._step = tuple(math.gcd(*(a[i] - low[i] for a in stats)) or 1
                           for i in range(d))
        self._low = tuple(low)
        self._shifts = [tuple((a[i] - low[i]) // self._step[i] for i in range(d))
                        for a in stats]
        self._span = tuple(max(s[i] for s in self._shifts) for i in range(d))
        # Most sums on one axis that a cell can hold.
        self._window = tuple(self._cell_den // (self._cell_num * g) + 1
                             for g in self._step)
        self._rows: Dict[int, Row] = {}
        self._row_cells = 0
        self._sums = np.ones((1,) * d, dtype=np.int64)
        self._sums_len = 0

    def _cell(self, ell: int, stat_sum) -> CellIndex:
        # ceil(p / q) - 1 == (p - 1) // q for integer p and q > 0.  Works on
        # Python ints and on int64 arrays alike.
        return tuple(((a - o * ell) * self._cell_num - 1) // self._cell_den
                     for a, o in zip(stat_sum, self._origin))

    def _stat_sum(self, counts) -> Tuple[int, ...]:
        if len(counts) != self.model.alphabet_size or min(counts) < 0:
            raise ModelError("counts must be nonnegative, one per letter")
        return tuple(sum(map(operator.mul, counts, axis))
                     for axis in self._axis_stats)

    def _sum_range(self, ell: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Lowest and highest statistic sum of length ell, per axis."""
        return (tuple(ell * lo for lo in self._low),
                tuple(ell * (lo + g * s) for lo, g, s
                      in zip(self._low, self._step, self._span)))

    def _box_cells(self, ell: int) -> int:
        lowest, highest = (self._cell(ell, a) for a in self._sum_range(ell))
        return math.prod(hi - lo + 1 for lo, hi in zip(lowest, highest))

    def _check_caps(self, ell: int) -> None:
        """Raise CountingCapError, before any allocation, when counting up to
        ell could overflow an int64 or would hold more than MAX_CELLS cells."""
        terms = max(self.model.alphabet_size,
                    *(min(w, ell * s + 1) for w, s in zip(self._window, self._span)))
        reach = (max(abs(a) + abs(o * ell) for ends in self._sum_range(ell)
                     for a, o in zip(ends, self._origin)) * self._cell_num
                 + self._cell_den)
        if terms * SIZE_CAP > _INT64_MAX or reach > _INT64_MAX:
            raise CountingCapError(
                "counting at ell=%d could overflow int64 sums on this grid "
                "(sizes are capped at %d); use a narrower or simpler grid side W"
                % (ell, SIZE_CAP))
        cells = self._row_cells + math.prod(ell * s + 1 for s in self._span)
        length = self._sums_len
        while cells <= MAX_CELLS and length < ell:
            length += 1
            cells += self._box_cells(length)
        if cells > MAX_CELLS:
            raise CountingCapError(
                "counting at ell=%d would hold more cells of rows and sum "
                "table than the cap %d; use a smaller M, ell or alphabet"
                % (ell, MAX_CELLS))

    def row(self, ell: int) -> Row:
        """Class sizes of length ell, saturated at SIZE_CAP."""
        if ell < 1:
            raise ValueError("ell must be at least 1")
        cached = self._rows.get(ell)
        if cached is not None:
            return cached
        self._check_caps(ell)
        while self._sums_len < ell:
            self._extend()
        return self._rows[ell]

    def _extend(self) -> None:
        """Advance the sum table by one letter and memoize that length's row."""
        import numpy as np

        ell = self._sums_len + 1
        old = self._sums
        sums = np.zeros([ell * s + 1 for s in self._span], dtype=np.int64)
        for shift in self._shifts:
            sums[tuple(slice(a, a + n) for a, n in zip(shift, old.shape))] += old
        np.minimum(sums, SIZE_CAP, out=sums)
        self._sums, self._sums_len = sums, ell
        lowest, _ = self._sum_range(ell)
        axes = [lo + g * np.arange(n, dtype=np.int64)
                for lo, g, n in zip(lowest, self._step, sums.shape)]
        sizes, first = sums, []
        for i, cells in enumerate(self._cell(ell, axes)):
            starts = np.flatnonzero(np.diff(cells)) + 1
            starts = np.concatenate(([0], starts))
            sizes = np.add.reduceat(sizes, starts, axis=i)
            np.minimum(sizes, SIZE_CAP, out=sizes)
            ids = cells[starts] - cells[0]
            first.append(int(cells[0]))
            if ids[-1] + 1 != len(ids):
                # Cells narrower than a sum step: some hold no sum at all.
                shape = list(sizes.shape)
                shape[i] = int(ids[-1]) + 1
                box = np.zeros(shape, dtype=np.int64)
                box[(slice(None),) * i + (ids,)] = sizes
                sizes = box
        self._rows[ell] = Row(sizes, tuple(first), ell)
        self._row_cells += sizes.size

    def size_of_sum(self, row: Row, stat_sum) -> int:
        """Size of the class whose integer statistic sum is stat_sum, read
        from row, the row of the sum's length: the cell of _cell minus the
        row's first cell, 0 outside the row's box."""
        ell, num, den = row.ell, self._cell_num, self._cell_den
        # A loop: for one or two axes a generator expression costs more.
        offset = []
        for a, o, f in zip(stat_sum, self._origin, row.first):
            offset.append(((a - o * ell) * num - 1) // den - f)
        return row.at(tuple(offset))

    def size_for_counts(self, counts) -> int:
        stat_sum = self._stat_sum(counts)
        return self.size_of_sum(self.row(sum(counts)), stat_sum)

