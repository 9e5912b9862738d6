"""Parsing dictionaries: threshold construction, Tunstall baseline, parsing.

The threshold dictionary turns a sequence into a segment at the first length
where the log quantized-type-class size exceeds gamma (first-passage rule).
This is equivalent to the two-condition membership rule whenever the log size
is monotone along the path, and it guarantees a complete, proper parse tree
unconditionally; paths on which monotonicity failed are counted and reported.
The rule is applied in one place, tc_leaf_profile, over letter-count classes;
build_tc_dictionary expands that profile into explicit segments.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import models as _models
from .models import ExpFamilyModel
from .qtypes import SIZE_CAP, Grid, TypeCounter, scaled_statistics

Segment = Tuple[int, ...]
# (segment length, letter counts, number of segments with both).
LeafClass = Tuple[int, Tuple[int, ...], int]
# Deepest level the first-passage rule descends before giving up.
MAX_DEPTH = 50000


class DictionaryError(ValueError):
    pass


class LeafCapExceeded(RuntimeError):
    """Construction aborted: the leaf count passed the configured cap."""

    def __init__(self, cap: int):
        super().__init__("leaf count exceeded cap %d" % cap)
        self.cap = cap


class DepthCapExceeded(RuntimeError):
    """Construction aborted: some parse path never crossed the threshold
    within the depth guard (symptom of a boundary-aligned grid)."""


@dataclass
class ParseResult:
    index: int
    length: int
    codeword: str


@dataclass
class Dictionary:
    """A complete, proper parse tree given by its leaf segments."""

    model: ExpFamilyModel
    grid: Grid
    segments: Tuple[Segment, ...]
    m_target: int
    gamma: Optional[float] = None
    kind: str = "tc"
    monotone_mismatches: int = 0
    size: int = field(init=False, repr=False, compare=False)
    codeword_width: int = field(init=False, repr=False, compare=False)
    _trie: Optional[Trie] = field(default=None, repr=False, compare=False)
    _leaf_classes: Optional[List[LeafClass]] = field(default=None, repr=False,
                                                     compare=False)

    def __post_init__(self):
        # Letters are checked against the alphabet when the trie is built.
        self.segments = tuple(map(tuple, self.segments))
        segs = self.segments
        if any(a > b for a, b in zip(segs, segs[1:])):
            raise DictionaryError("segments must be in lexicographic order")
        self.size = len(segs)
        # ceil(log2(size)), at least one bit.
        self.codeword_width = max(1, (self.size - 1).bit_length())
        self._codeword_format = "0%db" % self.codeword_width

    def trie(self) -> Trie:
        if self._trie is None:
            self._trie = build_trie(self.segments, self.model.alphabet_size)
        return self._trie

    def leaf_classes(self) -> List[LeafClass]:
        """Sorted (length, letter counts, multiplicity) classes of the segments.

        The same aggregation TCProfile.leaf_classes holds for a threshold
        build; every probability mass of the dictionary is computed from it.
        """
        if self._leaf_classes is None:
            self._leaf_classes = leaf_classes_of(self.model, self.segments)
        return self._leaf_classes

    def check_structure(self) -> None:
        """Raise unless the segment set forms a complete proper k-ary tree."""
        if not self.segments:
            raise DictionaryError("empty dictionary")
        if self.size > self.m_target:
            raise DictionaryError("dictionary exceeds its target size")
        # build_trie rejects duplicates, prefix conflicts and foreign letters;
        # what is left to check is that no internal node lacks a child.
        k = self.model.alphabet_size
        for row in self.trie().rows:
            if 0 in row:
                raise DictionaryError("internal node with %d != %d children"
                                      % (k - row.count(0), k))

    def parse_one(self, stream: Iterable[int]) -> ParseResult:
        """Consume letters until a segment is identified; fixed-width output."""
        index, length = walk(self.trie(), stream)
        if index is None:
            raise DictionaryError("stream exhausted before a segment was identified")
        return ParseResult(index, length, format(index, self._codeword_format))

    def decode(self, index: int) -> Segment:
        if not 0 <= index < self.size:
            raise DictionaryError("index %d out of range [0, %d)" % (index, self.size))
        return self.segments[index]

    def max_segment_length(self) -> int:
        return self.leaf_classes()[-1][0]

    def segment_length_histogram(self) -> Dict[int, int]:
        return length_histogram(self.leaf_classes())

    def leaf_mass(self, theta) -> float:
        return math.fsum(length_masses(self.model, self.leaf_classes(), theta).values())

    def expected_length(self, theta) -> float:
        masses = length_masses(self.model, self.leaf_classes(), theta)
        return math.fsum(ell * p for ell, p in masses.items())


# ---------------------------------------------------------------------------
# The parse tree as one integer transition table.  Row 0 is the root; row r
# holds one entry per letter: an entry >= 1 is the child's row, ~index (< 0)
# is the leaf of segment `index`, and 0 is a missing child (no row points
# back to the root).  `walk` descends it one stream at a time, `walk_block`
# descends a block of rows of letters at once.

class Trie:
    """Integer transition table of a parse tree over the letters 0..k-1."""

    def __init__(self, rows: List[List[int]], k: int):
        self.rows = rows  # the table as lists, for the scalar walk
        self.k = k
        self._table: Optional[np.ndarray] = None

    @property
    def table(self) -> np.ndarray:
        """The table as a (rows, k) array, for the bulk walk.  int32 holds
        it: a dictionary with 2^31 segments would not fit in memory anyway."""
        if self._table is None:
            self._table = np.array(self.rows, dtype=np.int32).reshape(-1, self.k)
        return self._table


def build_trie(segments: Iterable[Segment], k: int) -> Trie:
    """The transition table of the segments, each a leaf of its index.

    Raises DictionaryError on an empty segment, a letter outside 0..k-1, or
    a segment that repeats or is a prefix of another.
    """
    rows = [[0] * k]
    for index, seg in enumerate(segments):
        if not seg:
            raise DictionaryError("empty segment at index %d" % index)
        node = 0
        last = len(seg) - 1
        for depth, letter in enumerate(seg):
            if not 0 <= letter < k:
                raise DictionaryError("segment %r has letter %r outside [0, %d)"
                                      % (seg, letter, k))
            row = rows[node]
            child = row[letter]
            if depth == last:
                if child:
                    raise DictionaryError("segment %r conflicts with a prefix" % (seg,))
                row[letter] = ~index
            elif child > 0:
                node = child
            elif child == 0:
                node = row[letter] = len(rows)
                rows.append([0] * k)
            else:
                raise DictionaryError("segment %r conflicts with a prefix" % (seg,))
    return Trie(rows, k)


def walk(trie: Trie, letters: Iterable[int]) -> Tuple[Optional[int], int]:
    """Descend the trie along the letters, reading no more than needed.

    Returns (leaf index, depth) at the first leaf reached, or (None, letters
    read) when the letters run out first.  A letter outside the alphabet or
    with no child raises DictionaryError.
    """
    rows, k = trie.rows, trie.k
    node = 0
    depth = 0
    for letter in letters:
        depth += 1
        if not 0 <= letter < k:
            raise DictionaryError("letter %r not parseable at depth %d"
                                  % (letter, depth))
        node = rows[node][letter]
        if node <= 0:
            if node < 0:
                return ~node, depth
            raise DictionaryError("letter %r not parseable at depth %d"
                                  % (letter, depth))
    return None, depth


def walk_block(trie: Trie, letters: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """walk on every row of a (rows, width) letter array at once.

    Returns (leaf index, depth) arrays; a row that reaches no leaf within
    the width has index -1 and depth width.  Raises DictionaryError where
    walk would on some row.
    """
    letters = np.asarray(letters)
    n, width = letters.shape
    if letters.size and (letters.min() < 0 or letters.max() >= trie.k):
        raise DictionaryError("letter outside [0, %d) in block" % trie.k)
    table = trie.table
    index = np.full(n, -1, dtype=np.int64)
    depth = np.full(n, width, dtype=np.int64)
    active = np.arange(n)
    node = np.zeros(n, dtype=table.dtype)
    for d in range(width):
        entry = table[node, letters[active, d]]
        if not entry.all():
            raise DictionaryError("letter not parseable at depth %d" % (d + 1))
        leaf = entry < 0
        done = active[leaf]
        index[done] = ~entry[leaf]
        depth[done] = d + 1
        inner = ~leaf
        active = active[inner]
        if not active.size:
            break
        node = entry[inner]
    return index, depth


# ---------------------------------------------------------------------------
# Leaf classes, kept sorted: p_theta of a segment depends only on its length
# and letter counts, so every mass over a leaf set is a sum over its classes.

def _merge_classes(rows: Iterable[LeafClass]) -> List[LeafClass]:
    """Sum the multiplicities of equal (length, counts) rows; sorted."""
    merged: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    for ell, counts, mult in rows:
        merged[(ell, counts)] = merged.get((ell, counts), 0) + mult
    return sorted((ell, counts, mult) for (ell, counts), mult in merged.items())


def leaf_classes_of(model: ExpFamilyModel, segments: Iterable[Segment]
                    ) -> List[LeafClass]:
    """Leaf classes of an explicit segment list."""
    return _merge_classes((len(s), _models._counts_of(model, s), 1) for s in segments)


def length_masses(model: ExpFamilyModel, leaf_classes: Iterable[LeafClass],
                  theta) -> Dict[int, float]:
    """Probability mass per segment length under p_theta.

    The one mass routine of the package: each class adds
    mult * p_theta(counts), and the terms are summed exactly per length.
    log2 p_theta(counts) = ell (<theta, A / (D ell)> - psi(theta)), with A the
    class's integer statistic sum and D the denominator of
    qtypes.scaled_statistics; each coordinate A_i / (D ell) is one correctly
    rounded integer division, the float of the exact rational average.
    """
    theta = [float(t) for t in np.atleast_1d(np.asarray(theta, dtype=float))]
    psi = _models.log_partition(model, theta)
    scale, stats, _ = scaled_statistics(model)
    axes = [(tuple(a[i] for a in stats), t) for i, t in enumerate(theta)]
    by_len: Dict[int, List[float]] = {}
    for ell, counts, mult in leaf_classes:
        den = scale * ell
        dot = 0.0
        for axis, t in axes:
            dot += sum(map(operator.mul, counts, axis)) / den * t
        by_len.setdefault(ell, []).append(mult * 2.0 ** (ell * (dot - psi)))
    return {ell: math.fsum(ps) for ell, ps in by_len.items()}


def length_histogram(leaf_classes: Iterable[LeafClass]) -> Dict[int, int]:
    hist: Dict[int, int] = {}
    for ell, _, mult in leaf_classes:
        hist[ell] = hist.get(ell, 0) + mult
    return dict(sorted(hist.items()))


# ---------------------------------------------------------------------------
# Threshold construction.  Class sizes are exact integers, so the threshold
# gamma is turned once into an integer limit and every decision compares
# integers.

def size_limit(gamma: float) -> int:
    """Largest n >= 0 with math.log2(n) <= gamma, reading log2(0) as -inf.

    A class size exceeds the limit exactly when its log2 exceeds gamma.
    """
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    if gamma < 0:
        return 0
    # log2 is exact on powers of two: log2(lo) <= gamma < log2(hi).
    lo, hi = 1 << int(gamma), 1 << (int(gamma) + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.log2(mid) <= gamma:
            lo = mid
        else:
            hi = mid
    return lo


def _bump(counts: Tuple[int, ...], x: int) -> Tuple[int, ...]:
    return counts[:x] + (counts[x] + 1,) + counts[x + 1:]


@dataclass
class TCProfile:
    """Aggregate view of the threshold dictionary over letter-count classes.

    All sequences with equal letter counts behave identically under the
    first-passage rule once path feasibility is accounted for, so the leaf set
    aggregates exactly into (length, counts, multiplicity) classes.  This is
    what makes size-2^20 dictionaries evaluable without materializing them.
    The dictionary is the same for every gamma whose size_limit lies in
    [max_internal_size, min_leaf_size); above that, it changes only where
    the limit reaches one of leaf_sizes.  Sizes come from TypeCounter,
    saturated at qtypes.SIZE_CAP: every internal size is at most the limit,
    below the cap, and so exact, while leaf_sizes may hold SIZE_CAP itself
    for leaves whose class is larger.
    """

    gamma: float
    leaf_classes: List[LeafClass]
    max_internal_size: int
    leaf_sizes: Tuple[int, ...]  # distinct leaf class sizes, ascending
    monotone_mismatch_leaves: int

    @property
    def min_leaf_size(self) -> int:
        return self.leaf_sizes[0]

    @property
    def max_internal_value(self) -> float:
        """log2 of the largest internal class size; -inf with no internal node."""
        n = self.max_internal_size
        return math.log2(n) if n else float("-inf")

    @property
    def leaf_count(self) -> int:
        return sum(m for _, _, m in self.leaf_classes)

    def length_histogram(self) -> Dict[int, int]:
        return length_histogram(self.leaf_classes)

    def max_length(self) -> int:
        return self.leaf_classes[-1][0]


def tc_leaf_profile(model: ExpFamilyModel, grid: Grid, gamma: float,
                    leaf_cap: Optional[int] = None,
                    counter: Optional[TypeCounter] = None) -> TCProfile:
    """The first-passage rule as a dynamic program over letter-count classes,
    linear in the number of reachable count classes rather than in the number
    of segments; the test suite checks it against a per-sequence oracle.

    Each class carries its integer statistic sum, so a child's sum is its
    parent's plus one letter's and its size one lookup in the row of its
    length, fetched once per depth."""
    limit = size_limit(gamma)
    if limit >= SIZE_CAP:
        # A size saturated at the cap no longer says whether it passes.
        raise DictionaryError("gamma=%.6g needs class sizes above the counting "
                              "cap %d" % (gamma, SIZE_CAP))
    counter = counter or TypeCounter(model, grid)
    size_of_sum = counter.size_of_sum
    letters = tuple(enumerate(counter.letter_stats))
    # counts -> [class size, integer statistic sum on the counter's lattice,
    #            clean multiplicity, dipped multiplicity]
    frontier: Dict[Tuple[int, ...], list] = {
        (0,) * model.alphabet_size: [0, (0,) * model.stat_dim, 1, 0]}
    leaf_classes: List[LeafClass] = []
    leaf_total = 0
    mismatch_total = 0
    max_internal = 0
    leaf_sizes = set()
    depth = 0
    while frontier:
        if depth > MAX_DEPTH:
            raise DepthCapExceeded(
                "no threshold crossing within depth %d at gamma=%.6g; "
                "the grid likely isolates an extreme statistic" % (MAX_DEPTH, gamma)
            )
        depth += 1
        row = counter.row(depth)
        children: Dict[Tuple[int, ...], list] = {}
        for counts, (parent_size, parent_sum, clean, dipped) in frontier.items():
            for x, stat in letters:
                child = _bump(counts, x)
                slot = children.get(child)
                if slot is None:
                    child_sum = tuple(map(operator.add, parent_sum, stat))
                    slot = children[child] = [size_of_sum(row, child_sum),
                                              child_sum, 0, 0]
                if slot[0] < parent_size:
                    # A dip makes every path through the parent a dipped one.
                    slot[3] += clean + dipped
                else:
                    slot[2] += clean
                    slot[3] += dipped
        frontier = {}
        for child, slot in children.items():
            size, _, clean, dipped = slot
            if size > limit:
                leaf_classes.append((depth, child, clean + dipped))
                leaf_total += clean + dipped
                mismatch_total += dipped
                leaf_sizes.add(size)
            else:
                frontier[child] = slot
                if size > max_internal:
                    max_internal = size
        if leaf_cap is not None and leaf_total > leaf_cap:
            raise LeafCapExceeded(leaf_cap)
    # Each (length, counts) pair is one child of one depth: no merge needed.
    return TCProfile(float(gamma), sorted(leaf_classes), max_internal,
                     tuple(sorted(leaf_sizes)), mismatch_total)


def build_tc_dictionary(model: ExpFamilyModel, grid: Grid, profile: TCProfile,
                        m_target: Optional[int] = None) -> Dictionary:
    """The threshold dictionary whose leaf classes the profile holds.

    A node is a leaf or internal according to its letter counts alone, so
    the dictionary is the profile expanded: descending from the root, a node
    whose counts are those of a leaf class is a segment, and any other node
    is expanded.  Segments emerge in lexicographic order.  gamma, the
    mismatch count and the leaf classes are the profile's.
    """
    leaf_counts = {counts for _, counts, _ in profile.leaf_classes}
    max_length = profile.max_length()
    k = model.alphabet_size
    segments: List[Segment] = []
    stack = [((), (0,) * k)]
    while stack:
        path, counts = stack.pop()
        if counts in leaf_counts:
            segments.append(path)
        elif len(path) < max_length:
            # Letters pushed in reverse so the smallest is expanded first.
            stack.extend((path + (x,), _bump(counts, x)) for x in reversed(range(k)))
        else:
            raise DictionaryError("profile does not describe a parse tree of "
                                  "model %s" % model.name)
    return Dictionary(
        model=model, grid=grid, segments=tuple(segments),
        m_target=m_target if m_target is not None else len(segments),
        gamma=profile.gamma, kind="tc",
        monotone_mismatches=profile.monotone_mismatch_leaves,
        _leaf_classes=list(profile.leaf_classes),
    )


def gamma_reference(m: int, stat_dim: int) -> float:
    """Closed-form threshold log2 M - d log2 log2 M (constant omitted)."""
    logm = math.log2(m)
    return logm - stat_dim * math.log2(logm)


def choose_gamma_profile(model: ExpFamilyModel, grid: Grid, m: int,
                         counter: Optional[TypeCounter] = None
                         ) -> Tuple[float, TCProfile]:
    """Largest observed-crossing threshold whose dictionary has at most m leaves.

    The dictionary depends on gamma only through its integer limit
    size_limit(gamma): the internal nodes are the paths whose class sizes all
    stay within the limit, a set that grows with it, and there are
    1 + (k-1) * #internal leaves.  The search narrows [lo, hi): limits below
    lo, the smallest leaf size of the best feasible dictionary, give no larger
    dictionary, and limits from hi on give more than m leaves.  hi starts at
    m: every node of depth at most log_k(m) has class size at most m, which
    makes more than m leaves.  Each probe, at gamma = log2(n), takes for n the
    best dictionary's leaf size nearest the geometric middle of [lo, hi) (the
    geometric middle itself before any probe was feasible): a leaf splits
    once the limit reaches its size.  The returned gamma is log2 of the
    largest internal class size, the smallest threshold with the same
    dictionary.  Every probed limit is below m < SIZE_CAP and the search
    reads only leaf sizes below hi <= m, so class sizes saturated at
    SIZE_CAP decide it exactly.
    """
    if m < model.alphabet_size:
        raise DictionaryError("m must be at least the alphabet size")
    if m >= SIZE_CAP:
        raise DictionaryError("m must be below the class-size counting cap %d"
                              % SIZE_CAP)
    counter = counter or TypeCounter(model, grid)
    best: Optional[TCProfile] = None
    lo, hi = 1, m
    while lo < hi:
        if best is None:
            n = math.isqrt(lo * hi)
        else:
            mid = 0.5 * (math.log(lo) + math.log(hi))
            n = min((v for v in best.leaf_sizes if v < hi),
                    key=lambda v: abs(math.log(v) - mid))
        try:
            best = tc_leaf_profile(model, grid, math.log2(n), leaf_cap=m,
                                   counter=counter)
            lo = best.min_leaf_size
        except LeafCapExceeded:
            hi = n
    if best is None:
        best = tc_leaf_profile(model, grid, -1.0, counter=counter)
    best.gamma = best.max_internal_value if best.max_internal_size else -1.0
    return best.gamma, best


def choose_gamma(model: ExpFamilyModel, grid: Grid, m: int,
                 counter: Optional[TypeCounter] = None
                 ) -> Tuple[float, Dictionary]:
    """As choose_gamma_profile, but materializes the dictionary."""
    gamma, profile = choose_gamma_profile(model, grid, m, counter=counter)
    return gamma, build_tc_dictionary(model, grid, profile, m_target=m)


# ---------------------------------------------------------------------------
# Tunstall baseline.

def build_tunstall(model: ExpFamilyModel, theta, m: int,
                   grid: Optional[Grid] = None) -> Dictionary:
    """Classical most-probable-leaf splitting for a known source.

    Ties between equal-probability leaves break toward the lexicographically
    smallest segment so construction is deterministic.
    """
    k = model.alphabet_size
    if m < k:
        raise DictionaryError("m must be at least the alphabet size")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    lp = _models.letter_log_probs(model, theta)
    heap = [(-float(lp[x]), (x,)) for x in range(k)]
    heapq.heapify(heap)
    leaves = k
    while leaves + (k - 1) <= m:
        neg, seg = heapq.heappop(heap)
        for x in range(k):
            heapq.heappush(heap, (neg - float(lp[x]), seg + (x,)))
        leaves += k - 1
    segments = tuple(sorted(seg for _, seg in heap))
    return Dictionary(
        model=model, grid=grid or Grid(), segments=segments, m_target=m,
        gamma=None, kind="tunstall",
    )


# ---------------------------------------------------------------------------
# Serialization: one JSON header line, then one segment per line.

FORMAT_VERSION = 1


def save_dictionary(dictionary: Dictionary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dictionary_to_text(dictionary))


def dictionary_to_text(dictionary: Dictionary) -> str:
    header = {
        "format": FORMAT_VERSION,
        "kind": dictionary.kind,
        "gamma": dictionary.gamma,
        "m_target": dictionary.m_target,
        "size": dictionary.size,
        "codeword_width": dictionary.codeword_width,
        "monotone_mismatches": dictionary.monotone_mismatches,
        "model": _models.model_to_dict(dictionary.model),
        "grid": {
            "W": _frac_str(dictionary.grid.side),
            "origin": [_frac_str(dictionary.grid.origin_at(i))
                       for i in range(dictionary.model.stat_dim)],
        },
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines.extend(" ".join(str(x) for x in seg) for seg in dictionary.segments)
    return "\n".join(lines) + "\n"


def _frac_str(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


def load_dictionary(path) -> Dictionary:
    with open(path, "r", encoding="utf-8") as fh:
        return dictionary_from_text(fh.read())


def dictionary_from_text(text: str) -> Dictionary:
    """Parse a dictionary file; any malformed content raises DictionaryError."""
    lines = text.splitlines()
    if not lines:
        raise DictionaryError("empty dictionary file")
    try:
        header = json.loads(lines[0])
        if not isinstance(header, dict):
            raise DictionaryError("header is not a JSON object")
        if header.get("format") != FORMAT_VERSION:
            raise DictionaryError("unsupported format version %r" % header.get("format"))
        model = _models.model_from_dict(header["model"])
        grid = Grid(
            side=Fraction(header["grid"]["W"]),
            origin=tuple(Fraction(v) for v in header["grid"]["origin"]),
        )
        segments = tuple(tuple(map(int, line.split()))
                         for line in lines[1:] if line)
        dictionary = Dictionary(
            model=model, grid=grid, segments=segments,
            m_target=int(header["m_target"]),
            gamma=None if header["gamma"] is None else float(header["gamma"]),
            kind=str(header["kind"]),
            monotone_mismatches=int(header.get("monotone_mismatches", 0)),
        )
        size = int(header["size"])
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise DictionaryError("malformed dictionary file: %s" % exc) from None
    if dictionary.size != size:
        raise DictionaryError("segment count disagrees with header")
    dictionary.check_structure()
    return dictionary
