"""Quantized type classes: the cuboid partition of statistic space.

Sequences of length l share a quantized type class when their average
sufficient statistics fall in the same cuboid of side W/l.  Cells are
lower-open and upper-closed in every coordinate, and all membership tests are
exact so that boundary points classify deterministically: cell_of works in
rational arithmetic, TypeCounter on an integer lattice of statistic sums,
whose point t is the one integer form of a sum in counting and in
construction, placed in its cell by TypeCounter.cell alone.  Class sizes are
exact counts saturated at a counter's cap, obtained by counting the
sequences per statistic sum one letter at a time in Python integers and
keeping only the sums and cells whose count is at most the cap.
lattice() is the one scaling of the rational letter statistics onto that
lattice, and a model's alone: threshold classes are keyed by their length and
lattice point, and the normality diagnostic in rates convolves float masses
over the same points.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .models import ExpFamilyModel, _as_fraction

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


Lattice = collections.namedtuple("Lattice", "scale low step shifts")


def lattice(model: ExpFamilyModel) -> Lattice:
    """The integer lattice of the model's statistic sums, which no grid
    moves.  scale D is the least common denominator of the letter
    statistics, so a_x = D tau(x) is an integer vector; on axis i, low_i is
    min_x a_{x,i}, step_i the gcd of the a_{x,i} - low_i (1 where all are
    0), and letter x moves the lattice point t by shifts[x] = (a_x - low) /
    step.  A sequence of length l at t has statistic sum A = l low + step t,
    in units of 1/D."""
    scale = math.lcm(*(v.denominator for row in model.tau for v in row))
    stats = [[int(v * scale) for v in row] for row in model.tau]
    low = tuple(map(min, zip(*stats)))
    step = tuple(math.gcd(*(a - lo for a in axis)) or 1
                 for axis, lo in zip(zip(*stats), low))
    return Lattice(scale, low, step, tuple(
        tuple((a - lo) // g for a, lo, g in zip(row, low, step)) for row in stats))


# Class sizes saturate at a counter's cap, SIZE_CAP unless it is given one.
# Every construction decision compares a size with an integer limit below
# m <= cap, and saturation commutes with addition:
# min(a + b, C) == min(min(a, C) + min(b, C), C) for a, b >= 0.
# SIZE_CAP is also the one bound on M.  The CLI and the gamma search refuse
# M >= SIZE_CAP before any output, where the counting caps below can take
# seconds to refuse.
SIZE_CAP = 2 ** 62
# Longest length one TypeCounter counts, refused before counting anything.
MAX_LENGTH = 2 ** 15
# Most statistic sums in the box of one length while the reached sums are
# kept as bits, refused before counting.
MAX_BOX = 2 ** 25
# Most sums and row cells one TypeCounter may count, over all its lengths.
MAX_ENTRIES = 2 ** 20


class Row:
    """Class sizes of one length, saturated at cap: the cells whose size is
    known to be at most the cap, keyed by cell index.  Any other cell that
    holds a sequence of the length reads as the cap.  base is the length's
    per-axis cell base, TypeCounter's input to placing a sum in its cell."""

    __slots__ = ("cells", "cap", "base")

    def __init__(self, cells: Dict[CellIndex, int], cap: int, base: Tuple[int, ...]):
        self.cells = cells
        self.cap = cap
        self.base = base

    def at(self, cell: CellIndex) -> int:
        """The size of the class of cell, a cell that holds some sequence of
        the row's length."""
        return self.cells.get(cell, self.cap)


class TypeCounter:
    """Quantized-type-class sizes for one (model, grid) pair, exact up to cap
    and saturated there.  A search for at most m leaves needs cap >= m.

    A statistic sum of length l is the point t of the model's lattice(), on
    axis i t_i = 0 .. l span_i, which stands for A_i = l low_i + g_i t_i.  The
    lattice point is the one integer form of a sum, in counting and in
    construction: letter x moves it by shifts[x].  The sums and the grid
    origin are scaled by one common denominator D, a multiple of the
    lattice's own, and cell() places t in cell
    j_i = ceil((A_i - O_i l) / (D W)) - 1 with O_i = D origin_i, which is
    monotone along each axis.

    The sum table of length l maps t to its number of sequences, in Python
    integers, and keeps only the sums that some sequence reaches and whose
    number is at most cap.  The number at t adds the numbers at t - shift
    over the letters, so a sum with a saturated predecessor is saturated too.
    The row of l keeps each cell whose reached sums are all in the table and
    whose size is at most cap.  Only the latest sum table is kept; the row of
    every length passed is memoized, and rows may be read concurrently once
    construction-time writes have finished.

    A sum of the box outside the table is either saturated or reached by no
    sequence; which one, a bit set of the length's reached sums tells.  That
    set is the previous one shifted by each letter, one Python integer with
    axis i at stride prod_{j>i} w_j.  It is dropped once it fills the box of
    some l >= 1: only a letter at a corner of the box of one letter, repeated,
    reaches the same corner of the box of l, so every corner is a letter's
    shift, and those shifts carry a full box of l onto the full box of l + 1.

    Counting refuses a length above MAX_LENGTH, or, while the bit set is
    kept, one whose box holds more than MAX_BOX sums, before it counts
    anything, and stops once the sums and row cells it has counted pass
    MAX_ENTRIES; each raises CountingCapError.
    """

    def __init__(self, model: ExpFamilyModel, grid: Grid, cap: int = SIZE_CAP):
        if cap < 1:
            raise ValueError("cap must be at least 1")
        self.model = model
        self.grid = grid
        self.cap = cap
        d = model.stat_dim
        scale, low, step, self.shifts = lattice(model)
        origin = [grid.origin_at(i) for i in range(d)]
        denominator = math.lcm(scale, *(o.denominator for o in origin))
        to_common = denominator // scale
        self._origin = tuple(int(o * denominator) for o in origin)
        # Cell width D*W = cell_den / cell_num in units of the integer sums.
        self._cell_num = grid.side.denominator
        self._cell_den = denominator * grid.side.numerator
        self._low = tuple(to_common * lo for lo in low)
        self._span = tuple(map(max, zip(*self.shifts)))
        # t_i moves the cell's numerator by g_i * cell_num per lattice step.
        self._cell_step = tuple(to_common * g * self._cell_num for g in step)
        # Reached sums of the latest length as bits, None once they fill the
        # box for good.  Axis i > 0 is widths[i] bits wide, the last axis a
        # multiple of 8, so every line of the last axis starts on a byte.
        self._reach = 1
        self._widths = (1,) * (d - 1) + (8,)
        self._rows: Dict[int, Row] = {}
        self._counted = 0
        self._sums: Dict[Tuple[int, ...], int] = {(0,) * d: 1}
        self._sums_len = 0

    def _cell_base(self, ell: int) -> Tuple[int, ...]:
        """Per axis, the numerator of t_i = 0's cell at ell, less one."""
        return tuple([ell * (lo - o) * self._cell_num - 1
                      for lo, o in zip(self._low, self._origin)])

    def cell(self, base: Sequence[int], t) -> CellIndex:
        """The cell of the statistic sum t of the length whose cell base is
        base: (base_i + cell_step_i t_i) // cell_den on axis i."""
        den = self._cell_den
        return tuple([(b + g * v) // den for b, g, v in zip(base, self._cell_step, t)])

    def size_of_sum(self, row: Row, t) -> int:
        """Size of the class of the statistic sum t, read from row, the row
        of the sum's length."""
        return row.at(self.cell(row.base, t))

    def _strides(self, widths) -> List[int]:
        strides = [1]
        for w in reversed(widths[1:]):
            strides.append(strides[-1] * w)
        return strides[::-1]

    def _box_bytes(self, ell: int, strides) -> int:
        """Bytes that hold a bit for every sum of the box of ell."""
        return sum(ell * s * k for s, k in zip(self._span, strides)) // 8 + 1

    def _widen(self, ell: int) -> None:
        """Lay the reached sums of length ell - 1 out on axis widths that fit
        the box of ell, moving whole lines of the last axis."""
        need = [ell * s + 1 for s in self._span]
        if all(n <= w for n, w in zip(need[1:], self._widths[1:])):
            return
        widths = [max(w, n + n // 2) for n, w in zip(need, self._widths)]
        widths[-1] = -(-widths[-1] // 8) * 8
        old, new = self._strides(self._widths), self._strides(widths)
        data = self._reach.to_bytes(self._box_bytes(ell - 1, old), "little")
        out = bytearray(self._box_bytes(ell - 1, new))
        line = ((ell - 1) * self._span[-1]) // 8 + 1
        for prefix in itertools.product(*(range((ell - 1) * s + 1)
                                          for s in self._span[:-1])):
            src = sum(map(operator.mul, prefix, old)) // 8
            dst = sum(map(operator.mul, prefix, new)) // 8
            out[dst:dst + line] = data[src:src + line]
        self._reach, self._widths = int.from_bytes(out, "little"), tuple(widths)

    def row(self, ell: int) -> Row:
        """Class sizes of length ell, saturated at cap."""
        if ell < 1:
            raise ValueError("ell must be at least 1")
        cached = self._rows.get(ell)
        if cached is not None:
            return cached
        if ell > MAX_LENGTH:
            raise CountingCapError(
                "counting at ell=%d would pass the longest length, the cap %d; "
                "use a smaller M, a wider grid side W, or a grid that does not "
                "isolate an extreme statistic" % (ell, MAX_LENGTH))
        if (self._reach is not None
                and math.prod(ell * s + 1 for s in self._span) > MAX_BOX):
            raise CountingCapError(
                "counting at ell=%d would pass the most sums of one length, "
                "the cap %d; use a smaller M or a model whose statistics span "
                "fewer lattice steps" % (ell, MAX_BOX))
        while self._sums_len < ell:
            self._extend()
        return self._rows[ell]

    def _extend(self) -> None:
        """Advance the sum table by one letter and memoize that length's row."""
        ell = self._sums_len + 1
        cap, shifts, old = self.cap, self.shifts, self._sums
        top = tuple((ell - 1) * s for s in self._span)
        # Which absent sums of length ell - 1 are reached, and so saturated.
        reach = self._reach
        if reach is not None:
            self._widen(ell)
            strides = self._strides(self._widths)
            old_bits = self._reach.to_bytes(self._box_bytes(ell - 1, strides), "little")
            reach = 0
            for shift in shifts:
                reach |= self._reach << sum(map(operator.mul, shift, strides))
            new_bits = reach.to_bytes(self._box_bytes(ell, strides), "little")
            if reach.bit_count() == math.prod(ell * s + 1 for s in self._span):
                reach = None
        sums = {}
        for t in {tuple(map(operator.add, base, shift))
                  for base in old for shift in shifts}:
            total = 0
            for s in shifts:
                p = tuple(map(operator.sub, t, s))
                n = old.get(p)
                if n is not None:
                    total += n
                elif min(p) >= 0 and min(map(operator.sub, top, p)) >= 0:
                    if self._reach is None:
                        break  # a saturated sum of the previous box
                    i = sum(map(operator.mul, p, strides))
                    if old_bits[i >> 3] >> (i & 7) & 1:
                        break
            else:
                if total <= cap:
                    sums[t] = total
        cells = self._row_cells(ell, sums, None if self._reach is None
                                else (new_bits, strides))
        counted = self._counted + len(sums) + len(cells)
        if counted > MAX_ENTRIES:
            raise CountingCapError(
                "counting at ell=%d would count more sums and row cells than "
                "the cap %d; use a smaller M, ell or alphabet" % (ell, MAX_ENTRIES))
        self._counted, self._sums, self._sums_len = counted, sums, ell
        self._reach = reach
        self._rows[ell] = Row(cells, cap, self._cell_base(ell))

    def _row_cells(self, ell: int, sums: Dict[Tuple[int, ...], int], bits
                   ) -> Dict[CellIndex, int]:
        """The cells of length ell whose reached sums are all in sums, and
        whose size is at most cap, with their sizes.  bits is the reached
        sums of ell as bytes with their strides, or None when every sum of
        the box is reached."""
        base, steps, den = self._cell_base(ell), self._cell_step, self._cell_den
        cell_of_sum = self.cell
        found: Dict[CellIndex, list] = {}
        for t, n in sums.items():
            cell = cell_of_sum(base, t)
            slot = found.get(cell)
            if slot is None:
                found[cell] = [n, 1]
            else:
                slot[0] += n
                slot[1] += 1
        cells = {}
        for cell, (size, known) in found.items():
            if size > self.cap:
                continue
            # Per axis, the t with j den <= b + g t < (j + 1) den in 0 .. ell s.
            window = [(max(0, -((b - j * den) // g)),
                       min(ell * s, ((j + 1) * den - 1 - b) // g))
                      for j, b, g, s in zip(cell, base, steps, self._span)]
            if bits is None:
                reached = math.prod(last - first + 1 for first, last in window)
            else:
                reached = _bits_in(*bits, window)
            if known == reached:
                cells[cell] = size
        return cells


def _bits_in(data: bytes, strides, window) -> int:
    """How many bits of data are set in the box of window, one (first, last)
    pair per axis, at the given strides."""
    first, last = window[-1]
    width = last - first + 1
    mask = (1 << width) - 1
    count = 0
    for prefix in itertools.product(*(range(f, l + 1) for f, l in window[:-1])):
        i = sum(map(operator.mul, prefix, strides)) + first
        chunk = int.from_bytes(data[i >> 3:((i + width - 1) >> 3) + 1], "little")
        count += (chunk >> (i & 7) & mask).bit_count()
    return count
