"""Quantized type classes: the cuboid partition of statistic space.

Sequences of length l share a quantized type class when their average
sufficient statistics fall in the same cuboid of side W/l.  Cells are
lower-open and upper-closed in every coordinate, and all membership tests are
exact so that boundary points classify deterministically: cell_of works in
rational arithmetic, TypeCounter on an integer lattice of statistic sums.
Class sizes are exact big-integer counts, obtained by convolving the number
of sequences per statistic sum one letter at a time.  scaled_statistics is
the one scaling of the rational letter statistics onto that lattice; the
normality diagnostic in rates convolves float masses over the same sums.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .models import (
    ExpFamilyModel,
    ModelError,
    _as_fraction,
    _counts_of,
    ml_code_length,
    suff_stat_of_counts,
    validate_sequence,
)

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


def default_grid() -> Grid:
    return Grid()


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
    idx = []
    center = []
    for i in range(model.stat_dim):
        t = (tau[i] - grid.origin_at(i)) * ell / grid.side
        j = math.ceil(t) - 1
        idx.append(j)
        center.append(grid.origin_at(i) + Fraction(2 * j + 1, 2) * grid.side / ell)
    return tuple(idx), tuple(center)


def cell_center(model: ExpFamilyModel, grid: Grid, ell: int, idx: CellIndex
                ) -> Tuple[Fraction, ...]:
    return tuple(
        grid.origin_at(i) + Fraction(2 * idx[i] + 1, 2) * grid.side / ell
        for i in range(model.stat_dim)
    )


def composition_count(total: int, parts: int) -> int:
    """Number of letter-count vectors of a length-total sequence over parts
    letters: the measure of TypeCounter's max_compositions cap."""
    return math.comb(total + parts - 1, parts - 1)


def scaled_statistics(model: ExpFamilyModel, origin: Sequence[Fraction] = ()
                      ) -> Tuple[int, Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """(D, letter statistics times D, origin times D): D is the least common
    denominator of both, so every statistic sum is an integer vector."""
    scale = math.lcm(*(v.denominator for row in model.tau for v in row),
                     *(o.denominator for o in origin))
    return (scale,
            tuple(tuple(int(v * scale) for v in row) for row in model.tau),
            tuple(int(o * scale) for o in origin))


class TypeCounter:
    """Exact quantized-type-class sizes for one (model, grid) pair.

    The letter statistics and the grid origin are scaled by one common
    denominator D, so a letter's statistic is an integer vector a_x and a
    sequence's statistic sum an integer vector A.  The number of sequences per
    sum at length l comes from the table at l - 1 by one convolution step (one
    big-int add per letter per sum), and a sum lies in cell
    j_i = ceil((A_i - O_i l) / (D W)) - 1 with O_i = D origin_i, by integer
    floor division.  Only the latest sum table is kept; the cell rows of every
    length passed are memoized, and may be read concurrently once
    construction-time writes have finished.
    """

    def __init__(self, model: ExpFamilyModel, grid: Grid,
                 max_compositions: int = 10 ** 8):
        self.model = model
        self.grid = grid
        self.max_compositions = max_compositions
        d = model.stat_dim
        scale, self._letter_stats, self._origin = scaled_statistics(
            model, [grid.origin_at(i) for i in range(d)])
        # Cell width D*W = cell_den / cell_num in units of the integer sums.
        self._cell_num = grid.side.denominator
        self._cell_den = scale * grid.side.numerator
        self._rows: Dict[int, Dict[CellIndex, int]] = {}
        self._sums: Dict[Tuple[int, ...], int] = {(0,) * d: 1}
        self._sums_len = 0

    def _cell(self, ell: int, stat_sum) -> CellIndex:
        # ceil(p / q) - 1 == (p - 1) // q for integer p and q > 0.
        return tuple(((a - o * ell) * self._cell_num - 1) // self._cell_den
                     for a, o in zip(stat_sum, self._origin))

    def _stat_sum(self, counts) -> Tuple[int, ...]:
        return tuple(sum(c * a[i] for c, a in zip(counts, self._letter_stats))
                     for i in range(self.model.stat_dim))

    def row(self, ell: int) -> Dict[CellIndex, int]:
        """Mapping cell index -> exact class size, over occupied cells."""
        if ell < 1:
            raise ValueError("ell must be at least 1")
        cached = self._rows.get(ell)
        if cached is not None:
            return cached
        k = self.model.alphabet_size
        if composition_count(ell, k) > self.max_compositions:
            raise CountingCapError(
                "counting at ell=%d needs %d compositions (cap %d); "
                "use a smaller ell or alphabet"
                % (ell, composition_count(ell, k), self.max_compositions)
            )
        while self._sums_len < ell:
            self._extend()
        return self._rows[ell]

    def _extend(self) -> None:
        """Advance the sum table by one letter and memoize that length's row."""
        add = operator.add
        sums: Dict[Tuple[int, ...], int] = {}
        for stat_sum, n in self._sums.items():
            for a in self._letter_stats:
                key = tuple(map(add, stat_sum, a))
                sums[key] = sums.get(key, 0) + n
        self._sums = sums
        self._sums_len += 1
        row: Dict[CellIndex, int] = {}
        for stat_sum, n in sums.items():
            idx = self._cell(self._sums_len, stat_sum)
            row[idx] = row.get(idx, 0) + n
        self._rows[self._sums_len] = row

    def size(self, ell: int, idx: CellIndex) -> int:
        return self.row(ell).get(tuple(idx), 0)

    def log2_size(self, ell: int, idx: CellIndex) -> float:
        n = self.size(ell, idx)
        return math.log2(n) if n else float("-inf")

    def cell_for_counts(self, counts) -> CellIndex:
        if len(counts) != self.model.alphabet_size or min(counts) < 0:
            raise ModelError("counts must be nonnegative, one per letter")
        return self._cell(sum(counts), self._stat_sum(counts))

    def size_for_counts(self, counts) -> int:
        return self.size(sum(counts), self.cell_for_counts(counts))

    def log2_size_for_counts(self, counts) -> float:
        n = self.size_for_counts(counts)
        return math.log2(n) if n else float("-inf")

    def size_of_sequence(self, seq) -> int:
        seq = validate_sequence(self.model, seq)
        return self.size_for_counts(_counts_of(self.model, seq))


def log_type_size_core(model: ExpFamilyModel, seq) -> float:
    """-log2 p_{theta_hat}(x^l) - (d/2) log2 l, the common core of the
    two-sided type-class size bounds."""
    seq = validate_sequence(model, seq)
    return log_type_size_core_counts(model, _counts_of(model, seq))


def log_type_size_core_counts(model: ExpFamilyModel, counts) -> float:
    ell = sum(counts)
    if ell < 2:
        raise ModelError("core statistic requires ell >= 2")
    tau = suff_stat_of_counts(model, counts)
    return ml_code_length(model, ell, tau) - 0.5 * model.stat_dim * math.log2(ell)


def info_increment(model: ExpFamilyModel, seq, letter: int) -> float:
    """Increase of the maximum-likelihood code length from one more letter."""
    seq = validate_sequence(model, seq)
    if not seq:
        raise ModelError("ell must be at least 1")
    return info_increment_counts(model, _counts_of(model, seq), letter)


def info_increment_counts(model: ExpFamilyModel, counts, letter: int) -> float:
    letter = int(letter)
    if letter < 0 or letter >= model.alphabet_size:
        raise ModelError("letter index out of range")
    ell = sum(counts)
    if ell < 1:
        raise ModelError("ell must be at least 1")
    extended = tuple(c + (1 if x == letter else 0) for x, c in enumerate(counts))
    before = ml_code_length(model, ell, suff_stat_of_counts(model, counts))
    after = ml_code_length(model, ell + 1, suff_stat_of_counts(model, extended))
    return after - before


def band_cell_count(model: ExpFamilyModel, grid: Grid, ell: int, gamma: float,
                    lo_slack: float, hi_slack: float,
                    counter: Optional[TypeCounter] = None) -> int:
    """Number of occupied cells whose representative ML code length falls in
    (gamma + (d/2) log2 ell - hi_slack, gamma + (d/2) log2 ell - lo_slack).

    The representative is the cell center clamped componentwise into the
    statistic range (the bundled models all have box-shaped statistic hulls).
    """
    if ell < 2:
        raise ValueError("ell must be at least 2")
    counter = counter or TypeCounter(model, grid)
    mid = gamma + 0.5 * model.stat_dim * math.log2(ell)
    lo_edge, hi_edge = mid - hi_slack, mid - lo_slack
    lo_stat, hi_stat = model.stat_lower, model.stat_upper
    hits = 0
    for idx in counter.row(ell):
        center = cell_center(model, grid, ell, idx)
        rep = tuple(min(max(c, lo_stat[i]), hi_stat[i]) for i, c in enumerate(center))
        value = ml_code_length(model, ell, rep)
        if lo_edge < value < hi_edge:
            hits += 1
    return hits
