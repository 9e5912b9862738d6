"""Parsing dictionaries: threshold construction, Tunstall baseline, parsing.

The threshold dictionary turns a sequence into a segment at the first length
where its quantized-type-class size exceeds the limit (first-passage rule).
This is equivalent to the two-condition membership rule whenever the log size
is monotone along the path, and it guarantees a complete, proper parse tree
unconditionally; paths on which monotonicity failed are counted and reported.
The rule is applied in one place, ThresholdTree.raise_limit, over classes
(ell, t): a node's class size, and so whether it is a leaf, its subtree and
its probability, depend only on its length ell and its statistic sum, the
point t of the model's qtypes.lattice.  A ThresholdTree holds the leaf
classes of the parse tree of one limit and grows in place as the limit
rises: the gamma search raises one tree through its probes, and
tc_leaf_profile is a tree raised once from limit 0.  The parse tree is the
unfolding of a DAG over the classes: class_dag builds it from the leaf
classes, and a segment's index is its enumerative rank along it.
build_tc_dictionary, the test oracle, expands the classes into explicit
segments instead.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from . import models as _models
from .models import ExpFamilyModel
from .qtypes import SIZE_CAP, Grid, TypeCounter, lattice

log = logging.getLogger("tccode.dictionary")

Segment = Tuple[int, ...]
Point = Tuple[int, ...]
# (segment length ell, lattice point t, number of segments with both).
LeafClass = Tuple[int, Point, int]


class DictionaryError(ValueError):
    pass


class LeafCapExceeded(RuntimeError):
    """Construction aborted: the leaf count passed the configured cap after
    the walk had expanded walked internal classes."""

    def __init__(self, cap: int, walked: int = 0):
        super().__init__("leaf count exceeded cap %d" % cap)
        self.cap = cap
        self.walked = walked


@dataclass
class ParseResult:
    index: int
    length: int
    codeword: str


class Dictionary:
    """A complete, proper parse tree whose segments are indexed in
    lexicographic order, held as one rank-offset table.

    It is given either by its segments (Tunstall dictionaries, format-1
    files, the build_tc_dictionary oracle), whose table is their explicit
    trie, or, for a threshold dictionary, by its leaf classes alone, which
    fix the tree because a node is a leaf by its class (ell, t); its table
    is then their class DAG.
    """

    def __init__(self, model: ExpFamilyModel, grid: Grid, *, m_target: int,
                 segments: Optional[Iterable[Segment]] = None,
                 leaf_classes: Optional[Iterable[LeafClass]] = None,
                 gamma: Optional[float] = None, kind: str = "tc",
                 monotone_mismatches: int = 0):
        self.model = model
        self.grid = grid
        self.m_target = m_target
        self.gamma = gamma
        self.kind = kind
        self.monotone_mismatches = monotone_mismatches
        if (segments is None) == (leaf_classes is None):
            raise DictionaryError("a dictionary is given by its segments or by "
                                  "its leaf classes, exactly one of them")
        self._shifts = lattice(model).shifts
        if segments is not None:
            segs = list(map(tuple, segments))
            if any(a > b for a, b in zip(segs, segs[1:])):
                raise DictionaryError("segments must be in lexicographic order")
            self._trie = build_trie(segs, model.alphabet_size)
            self._leaf_classes = table_leaf_classes(self._trie, self._shifts)
        else:
            self._leaf_classes = list(leaf_classes)
            self._trie = class_dag(self._shifts, self._leaf_classes)
        self.size = sum(mult for _, _, mult in self._leaf_classes)
        # ceil(log2(size)), at least one bit.
        self.codeword_width = max(1, (self.size - 1).bit_length())

    @property
    def segments(self) -> Tuple[Segment, ...]:
        """The segments in index order, each unranked from the table."""
        return tuple(unrank(self._trie, index) for index in range(self.size))

    def trie(self) -> Trie:
        return self._trie

    def leaf_classes(self) -> List[LeafClass]:
        """Sorted (length, lattice point, multiplicity) classes of the
        segments.

        The same aggregation TCProfile.leaf_classes holds for a threshold
        build; every probability mass of the dictionary is computed from it.
        """
        return self._leaf_classes

    def check_structure(self) -> None:
        """Raise unless the dictionary is a complete proper k-ary tree of at
        most m_target leaves whose leaf classes are exactly those of its
        table."""
        if not self.size:
            raise DictionaryError("empty dictionary")
        if self.size > self.m_target:
            raise DictionaryError("dictionary exceeds its target size")
        # Construction already refused duplicates, prefix conflicts and
        # foreign letters (build_trie) and classes that leave a path without
        # a leaf (class_dag).
        if 0 in self._trie.cells:
            raise DictionaryError("internal node with a missing child")
        if table_leaf_classes(self._trie, self._shifts) != self._leaf_classes:
            raise DictionaryError("leaf classes disagree with the parse tree they "
                                  "describe: a multiplicity is wrong, or a class "
                                  "is missing, unreachable or out of order")

    def parse_stream(self, letters: Iterable[int]) -> Iterator[Tuple[int, int]]:
        """The scalar descent of the table: split the letters into segments,
        yielding each one's index and the position of its last letter, and
        read no letter past the one that ends a segment.

        A letter outside 0..k-1 or with no child raises DictionaryError; a
        tail that completes no segment yields nothing.
        """
        cells, offsets, k = self._trie.cells, self._trie.offsets, self._trie.k
        node = rank = 0
        for position, letter in enumerate(letters, 1):
            if not 0 <= letter < k:
                raise DictionaryError("letter %r at position %d is out of range "
                                      "[0, %d)" % (letter, position, k))
            cell = node + letter
            node = cells[cell]
            rank += offsets[cell]
            if node <= 0:
                if not node:
                    raise DictionaryError("letter %r not parseable at position %d"
                                          % (letter, position))
                yield rank, position
                node = rank = 0

    def parse_one(self, stream: Iterable[int]) -> ParseResult:
        """The first segment of the stream, read letter by letter."""
        for index, length in self.parse_stream(stream):
            return ParseResult(index, length,
                               format(index, "0%db" % self.codeword_width))
        raise DictionaryError("stream exhausted before a segment was identified")

    def parse(self, letters: Iterable[int]) -> Tuple[List[int], int]:
        """The indices of the segments of the letters, and the number of
        letters they cover; a tail that completes no segment is left over."""
        indices: List[int] = []
        covered = 0
        for index, covered in self.parse_stream(letters):
            indices.append(index)
        return indices, covered

    def decode(self, index: int) -> Segment:
        if not 0 <= index < self.size:
            raise DictionaryError("index %d out of range [0, %d)" % (index, self.size))
        return unrank(self._trie, index)

    def max_segment_length(self) -> int:
        return self.leaf_classes()[-1][0]

    def segment_length_histogram(self) -> Dict[int, int]:
        return length_histogram(self.leaf_classes())

    def expected_length(self, theta) -> float:
        masses = length_masses(self.model, self.leaf_classes(), theta)
        return math.fsum(ell * p for ell, p in masses.items())


# ---------------------------------------------------------------------------
# The parse tree as one integer rank-offset table.

# The table entry of a letter that ends a segment.
LEAF = -1


class Trie:
    """Rank-offset transition table of a parse tree over the letters 0..k-1.

    Row r holds cells[r*k : r*k + k], one entry per letter: the child's row
    as its first cell r'*k (>= k: no entry points back to the root, row 0),
    LEAF, or 0 for a missing child.  Every row comes after the rows that
    point to it.  offsets[r*k + x] is the number of leaves below the letters
    before x, so the sum of the offsets along a path is the rank of its leaf,
    the index of its segment in lexicographic order.  An explicit tree has
    one row per internal node; the class DAG shares one row among all nodes
    of equal length and lattice point.
    """

    def __init__(self, cells: List[int], k: int):
        self.cells = cells
        self.k = k
        offsets = [0] * len(cells)
        below = [0] * (len(cells) // k)  # leaves below each row
        for base in range(len(cells) - k, -1, -k):
            total = 0
            for cell in range(base, base + k):
                offsets[cell] = total
                child = cells[cell]
                if child > 0:
                    total += below[child // k]
                elif child:
                    total += 1
            below[base // k] = total
        self.offsets = offsets
        self.leaves = below[0]


def build_trie(segments: Iterable[Segment], k: int) -> Trie:
    """The explicit table of the segments, one row per internal node.

    Raises DictionaryError on an empty segment, a letter outside 0..k-1, or
    a segment that repeats or is a prefix of another.
    """
    cells = [0] * k
    for index, seg in enumerate(segments):
        if not seg:
            raise DictionaryError("empty segment at index %d" % index)
        base = 0
        last = len(seg) - 1
        for depth, letter in enumerate(seg):
            if not 0 <= letter < k:
                raise DictionaryError("segment %r has letter %r outside [0, %d)"
                                      % (seg, letter, k))
            cell = base + letter
            child = cells[cell]
            if depth == last:
                if child:
                    raise DictionaryError("segment %r conflicts with a prefix" % (seg,))
                cells[cell] = LEAF
            elif child > 0:
                base = child
            elif child == 0:
                base = cells[cell] = len(cells)
                cells.extend([0] * k)
            else:
                raise DictionaryError("segment %r conflicts with a prefix" % (seg,))
    return Trie(cells, k)


def class_dag(shifts: Tuple[Point, ...], leaf_classes: Iterable[LeafClass]) -> Trie:
    """The table of the threshold parse tree with these leaf classes, over
    letters with these lattice shifts: one row per reachable internal class
    (ell, t), built level by level from the root.

    With k' >= 2 distinct shifts and I_l the internal classes of length l,
    a sum set in Z^d makes the classes of length l at least |I_{l-1}| + k' - 1,
    all but |I_l| of them leaves; summed up to the longest length L, a parse
    tree has at least 1 + (k' - 1) L leaf classes, more than the internal ones
    of any length.  Classes that break either bound, or leave a path without
    a leaf at length L, raise DictionaryError before the table grows past them.
    """
    k = len(shifts)
    leaf_keys = set()
    max_length = 0
    for ell, t, _ in leaf_classes:
        leaf_keys.add((ell, t))
        max_length = max(max_length, ell)
    least = 1 + (len(set(shifts)) - 1) * max_length
    if least > len(leaf_keys):
        raise DictionaryError("%d leaf classes cannot reach length %d: a parse "
                              "tree that long has at least %d"
                              % (len(leaf_keys), max_length, least))
    cells = [0] * k
    level = {(0,) * len(shifts[0]): 0}  # the internal points of a length, by row
    depth = 0
    while level:
        depth += 1
        children: Dict[Point, int] = {}
        for t, base in level.items():
            for x, shift in enumerate(shifts):
                child = tuple(map(operator.add, t, shift))
                if (depth, child) in leaf_keys:
                    cells[base + x] = LEAF
                    continue
                child_base = children.get(child)
                if child_base is None:
                    if depth >= max_length or len(children) >= len(leaf_keys):
                        raise DictionaryError("leaf classes do not describe a "
                                              "parse tree over %d letters" % k)
                    child_base = children[child] = len(cells)
                    cells.extend([0] * k)
                cells[base + x] = child_base
        level = children
    return Trie(cells, k)


def table_leaf_classes(trie: Trie, shifts: Tuple[Point, ...]) -> List[LeafClass]:
    """Sorted leaf classes of a table over the letters whose lattice shifts
    are given: each leaf entry adds the number of root paths to its row to
    the class of its length and lattice point."""
    k, cells = trie.k, trie.cells
    key_of = {0: (0, (0,) * len(shifts[0]))}
    paths = {0: 1}
    merged: Dict[Tuple[int, Point], int] = {}
    for base in range(0, len(cells), k):
        # Every path to a row has the same length and lattice point.
        (ell, t), n = key_of[base], paths[base]
        for x, shift in enumerate(shifts):
            child = cells[base + x]
            key = ell + 1, tuple(map(operator.add, t, shift))
            if child > 0:
                key_of[child] = key
                paths[child] = paths.get(child, 0) + n
            elif child:
                merged[key] = merged.get(key, 0) + n
    return [(ell, t, n) for (ell, t), n in sorted(merged.items())]


def prune(trie: Trie, n: int) -> Trie:
    """The table with every node of depth n made a leaf and the rows below
    dropped.  A row's depth is that of every path to it."""
    k, cells = trie.k, trie.cells
    depth = {0: 0}
    moved = {0: 0}  # row base -> its base in the pruned table
    out = [0] * k
    for base in range(0, len(cells), k):
        new = moved.get(base)
        if new is None:
            continue
        child_depth = depth[base] + 1
        for x in range(k):
            child = cells[base + x]
            if child > 0:
                if child_depth >= n:
                    child = LEAF
                elif child in moved:
                    child = moved[child]
                else:
                    depth[child] = child_depth
                    moved[child] = len(out)
                    child = len(out)
                    out.extend([0] * k)
            out[new + x] = child
    return Trie(out, k)


def unrank(trie: Trie, index: int) -> Segment:
    """The segment of rank index, 0 <= index < trie.leaves: at each row, the
    last present letter whose offset is at most the rank left."""
    cells, offsets = trie.cells, trie.offsets
    letters = []
    base = 0
    while base >= 0:
        cell = base + trie.k - 1
        while not cells[cell] or offsets[cell] > index:
            cell -= 1
        index -= offsets[cell]
        letters.append(cell - base)
        base = cells[cell]
    return tuple(letters)


# ---------------------------------------------------------------------------
# Leaf classes, kept sorted: p_theta of a segment depends only on its length
# and lattice point, so every mass over a leaf set is a sum over its classes.

def length_masses(model: ExpFamilyModel, leaf_classes: Iterable[LeafClass],
                  theta) -> Dict[int, float]:
    """Probability mass per segment length under p_theta.

    The one mass routine of the package: each class adds
    mult * p_theta(ell, t), and the terms are summed exactly per length.
    log2 p_theta(ell, t) = ell (<theta, A / (D ell)> - psi(theta)), with
    A = ell low + step t the class's integer statistic sum on the model's
    qtypes.lattice of denominator D; each coordinate A_i / (D ell) is one
    correctly rounded integer division, the float of the exact rational
    average.
    """
    theta = _models.theta_floats(theta)
    psi = _models.log_partition(model, theta)
    scale, low, step, _ = lattice(model)
    axes = list(zip(low, step, theta))
    by_len: Dict[int, List[float]] = {}
    for ell, t, mult in leaf_classes:
        den = scale * ell
        dot = 0.0
        for (lo, g, th), v in zip(axes, t):
            dot += (ell * lo + g * v) / den * th
        by_len.setdefault(ell, []).append(mult * 2.0 ** (ell * (dot - psi)))
    return {ell: math.fsum(ps) for ell, ps in by_len.items()}


def length_histogram(leaf_classes: Iterable[LeafClass]) -> Dict[int, int]:
    hist: Dict[int, int] = {}
    for ell, _, mult in leaf_classes:
        hist[ell] = hist.get(ell, 0) + mult
    return dict(sorted(hist.items()))


# ---------------------------------------------------------------------------
# Threshold construction.  Class sizes are exact integers, and so is the limit
# they are compared with: gamma is only reported, never decided on.

@dataclass
class TCProfile:
    """Aggregate view of the threshold dictionary over its classes.

    All sequences of equal length and lattice point behave identically under
    the first-passage rule once path feasibility is accounted for, so the leaf
    set aggregates exactly into (length, point, multiplicity) classes.  This is
    what makes size-2^20 dictionaries evaluable without materializing them.
    The dictionary is the same for every integer limit in
    [max_internal_size, min_leaf_size); above that, it changes only where
    the limit reaches one of leaf_sizes.  Sizes come from TypeCounter,
    saturated at its cap: every internal size is at most the limit, below
    the cap, and so exact, while leaf_sizes may hold the cap itself for
    leaves whose class is larger.  ThresholdTree.profile builds it.
    """

    leaf_classes: List[LeafClass]
    max_internal_size: int
    leaf_sizes: Tuple[int, ...]  # distinct leaf class sizes, ascending
    monotone_mismatch_leaves: int

    @property
    def min_leaf_size(self) -> int:
        return self.leaf_sizes[0]

    @property
    def gamma(self) -> float:
        """log2 of the largest internal class size, -1.0 with none."""
        n = self.max_internal_size
        return math.log2(n) if n else -1.0

    @property
    def leaf_count(self) -> int:
        return sum(m for _, _, m in self.leaf_classes)

    def length_histogram(self) -> Dict[int, int]:
        return length_histogram(self.leaf_classes)

    def max_length(self) -> int:
        return self.leaf_classes[-1][0]


class ThresholdTree:
    """The threshold parse tree of a class-size limit that only rises, held
    by its leaf classes and raised in place.

    leaves maps the class (ell, t) of each leaf class to [class size, clean
    multiplicity, dipped multiplicity]: its multiplicity, the number of its
    root paths, splits into those on which no class size dipped and those on
    which one did.  The tree starts at limit 0: the root, of size 0, is
    internal and the one-letter classes are its leaves.
    """

    def __init__(self, model: ExpFamilyModel, grid: Grid,
                 counter: Optional[TypeCounter] = None):
        self.counter = counter = counter or TypeCounter(model, grid)
        row = counter.row(1)
        self.leaves: Dict[Tuple[int, Point], list] = {}
        for shift in counter.shifts:
            self.leaves.setdefault(
                (1, shift), [counter.size_of_sum(row, shift), 0, 0])[1] += 1
        self.max_internal_size = 0
        self.leaf_count = model.alphabet_size

    def raise_limit(self, limit: int, leaf_cap: Optional[int] = None) -> int:
        """Raise the limit, an int (not a float), to limit, and return the
        number of internal classes the walk expanded.

        The first-passage rule as a dynamic program over the classes (ell, t),
        linear in the number of reachable classes rather than in the number
        of segments; the test suite checks it against a per-sequence
        oracle.  A class is a leaf when its size exceeds the limit.  Raising
        it turns internal exactly the leaf classes of size at most the new
        limit, and every path new to the tree runs through one of them.  Path
        counts, clean and dipped, add up along paths, so the walk starts from
        those classes alone, each at its own depth with its multiplicities,
        adds the paths it brings to a class it starts from later or to a leaf
        the tree keeps, and jumps over depths where it has no class.  Each
        depth keys its classes by t alone: a child's t is its parent's plus
        the letter's shift and its size one lookup in the row of its length,
        fetched once per depth.  The tree is that of the walk from the root
        at the new limit.

        The leaf count only grows while the walk runs.  Once it passes
        leaf_cap the raise stops with LeafCapExceeded, and the tree is left
        as it was: the walk writes to it only when it has finished.
        """
        limit = operator.index(limit)
        counter = self.counter
        if limit >= counter.cap:
            # A size saturated at the cap no longer says whether it passes.
            raise DictionaryError("limit %d needs class sizes above the counting "
                                  "cap %d" % (limit, counter.cap))
        if limit < self.max_internal_size:
            raise DictionaryError("the limit of a tree only rises: limit %d is "
                                  "below its internal class size %d"
                                  % (limit, self.max_internal_size))
        size_of_sum, shifts = counter.size_of_sum, counter.shifts
        # depth -> {t: [class size, clean multiplicity, dipped multiplicity]}:
        # the leaf classes that split, merged with the paths the walk brings
        # to them.
        seeds: Dict[int, Dict[Point, list]] = {}
        split = []
        leaf_total = self.leaf_count
        for key, slot in self.leaves.items():
            if slot[0] <= limit:
                seeds.setdefault(key[0], {})[key[1]] = slot[:]
                split.append(key)
                leaf_total -= slot[1] + slot[2]
        max_internal = self.max_internal_size
        reached: Dict[Tuple[int, Point], list] = {}  # the leaves the walk reached
        walked = 0
        frontier: Dict[Point, list] = {}
        depth = 0
        while True:
            if leaf_cap is not None and leaf_total > leaf_cap:
                raise LeafCapExceeded(leaf_cap, walked)
            if frontier:
                depth += 1
            elif seeds:
                depth = min(seeds)
            else:
                break
            children = seeds.pop(depth, {})
            if frontier:
                row = counter.row(depth)
                walked += len(frontier)
            for t, (parent_size, clean, dipped) in frontier.items():
                for shift in shifts:
                    child = tuple(map(operator.add, t, shift))
                    slot = children.get(child)
                    if slot is None:
                        slot = children[child] = [size_of_sum(row, child), 0, 0]
                    if slot[0] < parent_size:
                        # A dip makes every path through the parent a dipped one.
                        slot[2] += clean + dipped
                    else:
                        slot[1] += clean
                        slot[2] += dipped
            frontier = {}
            for child, slot in children.items():
                if slot[0] > limit:
                    reached[depth, child] = slot
                    leaf_total += slot[1] + slot[2]
                else:
                    frontier[child] = slot
                    if slot[0] > max_internal:
                        max_internal = slot[0]
        leaves = self.leaves
        for key in split:
            del leaves[key]
        for key, slot in reached.items():
            kept = leaves.setdefault(key, slot)
            if kept is not slot:
                kept[1] += slot[1]
                kept[2] += slot[2]
        self.max_internal_size = max_internal
        self.leaf_count = leaf_total
        return walked

    def leaf_sizes(self) -> Tuple[int, ...]:
        """The distinct leaf class sizes, ascending."""
        return tuple(sorted({slot[0] for slot in self.leaves.values()}))

    def profile(self) -> TCProfile:
        """The tree's TCProfile, its leaf classes sorted by (ell, t)."""
        return TCProfile(
            [(ell, t, clean + dipped)
             for (ell, t), (_, clean, dipped) in sorted(self.leaves.items())],
            self.max_internal_size, self.leaf_sizes(),
            sum(slot[2] for slot in self.leaves.values()))


def tc_leaf_profile(model: ExpFamilyModel, grid: Grid, limit: int,
                    leaf_cap: Optional[int] = None,
                    counter: Optional[TypeCounter] = None) -> TCProfile:
    """The profile of the threshold tree raised once, from limit 0 to limit;
    LeafCapExceeded once its leaf count passes leaf_cap."""
    tree = ThresholdTree(model, grid, counter)
    tree.raise_limit(limit, leaf_cap)
    return tree.profile()


def build_tc_dictionary(model: ExpFamilyModel, grid: Grid, profile: TCProfile,
                        m_target: Optional[int] = None) -> Dictionary:
    """The threshold dictionary whose leaf classes the profile holds.

    A node is a leaf or internal according to its class (ell, t) alone, so
    the dictionary is the profile expanded: descending from the root, a node
    whose class is a leaf class is a segment, and any other node is
    expanded.  Segments emerge in lexicographic order.  gamma and the
    mismatch count are the profile's.
    """
    leaf_keys = {(ell, t) for ell, t, _ in profile.leaf_classes}
    max_length = profile.max_length()
    # Letters pushed in reverse so the smallest is expanded first.
    letters = tuple(enumerate(lattice(model).shifts))[::-1]
    segments: List[Segment] = []
    stack = [((), (0,) * model.stat_dim)]
    while stack:
        path, t = stack.pop()
        if (len(path), t) in leaf_keys:
            segments.append(path)
        elif len(path) < max_length:
            stack.extend((path + (x,), tuple(map(operator.add, t, shift)))
                         for x, shift in letters)
        else:
            raise DictionaryError("profile does not describe a parse tree of "
                                  "model %s" % model.name)
    return Dictionary(
        model, grid, segments=segments,
        m_target=m_target if m_target is not None else len(segments),
        gamma=profile.gamma, kind="tc",
        monotone_mismatches=profile.monotone_mismatch_leaves,
    )


def tc_dictionary(model: ExpFamilyModel, grid: Grid, profile: TCProfile,
                  m_target: Optional[int] = None) -> Dictionary:
    """The threshold dictionary whose leaf classes the profile holds, given
    by those classes alone: its table is their class DAG."""
    return Dictionary(
        model, grid, leaf_classes=profile.leaf_classes,
        m_target=m_target if m_target is not None else profile.leaf_count,
        gamma=profile.gamma, kind="tc",
        monotone_mismatches=profile.monotone_mismatch_leaves,
    )


def gamma_reference(m: int, stat_dim: int) -> float:
    """Closed-form threshold log2 M - d log2 log2 M (constant omitted)."""
    logm = math.log2(m)
    return logm - stat_dim * math.log2(logm)


def choose_gamma_profile(model: ExpFamilyModel, grid: Grid, m: int,
                         counter: Optional[TypeCounter] = None
                         ) -> Tuple[float, TCProfile]:
    """Largest observed-crossing threshold whose dictionary has at most m leaves.

    The dictionary is that of an integer class-size limit: the internal
    nodes are the paths whose class sizes all stay within the limit, a set
    that grows with it, and there are 1 + (k-1) * #internal leaves.  The
    search narrows [lo, hi): limits below lo, the smallest leaf size of the
    best feasible dictionary, give no larger dictionary, and limits from hi
    on give more than m leaves.  hi starts at m: every node of depth at most
    log_k(m) has class size at most m, which makes more than m leaves.  Each
    probe takes for its limit n the best dictionary's leaf size nearest the
    geometric middle of [lo, hi) (the geometric middle itself before any
    probe was feasible): a leaf splits once the limit reaches its size.
    The probes raise one ThresholdTree, which starts as the dictionary of
    limit 0: every probe is at a limit of at least lo, so the tree grows
    from the leaf classes that split, and a probe over m leaves it as it
    was.  The returned profile is the tree's at the end, and gamma is
    log2 of its largest internal class size.
    Every probed limit is below m and the search reads only leaf sizes below
    hi <= m, so class sizes saturated at m decide it exactly: the counter it
    builds has cap m, and a given counter needs a cap of at least m.

    Each probe logs one DEBUG line to the "tccode.dictionary" logger: the
    limit, whether it fits in m, the leaf count, the classes walked and the
    wall time.
    """
    if m < model.alphabet_size:
        raise DictionaryError("m must be at least the alphabet size")
    if m >= SIZE_CAP:
        raise DictionaryError("m must be below the class-size counting cap %d"
                              % SIZE_CAP)
    tree = ThresholdTree(model, grid, counter or TypeCounter(model, grid, cap=m))
    sizes: Optional[Tuple[int, ...]] = None  # the leaf sizes once a probe fits
    lo, hi = 1, m
    while lo < hi:
        if sizes is None:
            n = math.isqrt(lo * hi)
        else:
            mid = 0.5 * (math.log(lo) + math.log(hi))
            n = min((v for v in sizes if v < hi),
                    key=lambda v: abs(math.log(v) - mid))
        start = perf_counter()
        try:
            walked = tree.raise_limit(n, leaf_cap=m)
            sizes = tree.leaf_sizes()
            lo, fits = sizes[0], True
        except LeafCapExceeded as exc:
            hi, fits, walked = n, False, exc.walked
        if log.isEnabledFor(logging.DEBUG):
            log.debug("gamma probe: limit %d %s, %d classes walked, %.3f ms", n,
                      "fits, %d leaves" % tree.leaf_count if fits
                      else "over m=%d" % m, walked, 1e3 * (perf_counter() - start))
    profile = tree.profile()
    return profile.gamma, profile


def choose_gamma(model: ExpFamilyModel, grid: Grid, m: int,
                 counter: Optional[TypeCounter] = None
                 ) -> Tuple[float, Dictionary]:
    """As choose_gamma_profile, but returns the dictionary of the profile."""
    gamma, profile = choose_gamma_profile(model, grid, m, counter=counter)
    return gamma, tc_dictionary(model, grid, profile, m_target=m)


# ---------------------------------------------------------------------------
# Tunstall baseline.

# Largest m build_tunstall accepts.  Its heap holds every segment, at about
# 360 bytes and 4.5 us each, so m = 2^20 takes some 5 s and 380 MB.
MAX_TUNSTALL_M = 2 ** 20


def build_tunstall(model: ExpFamilyModel, theta, m: int,
                   grid: Optional[Grid] = None) -> Dictionary:
    """Classical most-probable-leaf splitting for a known source.

    Ties between equal-probability leaves break toward the lexicographically
    smallest segment so construction is deterministic.  An m above
    MAX_TUNSTALL_M is refused before anything is built.
    """
    k = model.alphabet_size
    if m < k:
        raise DictionaryError("m must be at least the alphabet size")
    if m > MAX_TUNSTALL_M:
        raise DictionaryError("Tunstall m=%d is above the cap %d: it keeps every "
                              "segment in memory" % (m, MAX_TUNSTALL_M))
    lp = _models.letter_log_probs(model, theta)
    heap = [(-lp[x], (x,)) for x in range(k)]
    heapq.heapify(heap)
    leaves = k
    while leaves + (k - 1) <= m:
        neg, seg = heapq.heappop(heap)
        for x in range(k):
            heapq.heappush(heap, (neg - lp[x], seg + (x,)))
        leaves += k - 1
    segments = tuple(sorted(seg for _, seg in heap))
    return Dictionary(model, grid or Grid(), segments=segments, m_target=m,
                      gamma=None, kind="tunstall")


# ---------------------------------------------------------------------------
# Serialization: one JSON header line, then the dictionary.  Format 3, for a
# threshold dictionary, lists one leaf class per line as
# `ell t_1 ... t_d mult`; format 1, for a Tunstall dictionary, one segment
# per line.  Threshold files of format 1 and of format 2, which listed
# letter-count classes as `ell c_0 ... c_{k-1} mult`, still load, and are
# written back as format 3.

KINDS = ("tc", "tunstall")


def save_dictionary(dictionary: Dictionary, path) -> None:
    _models.write_text(path, dictionary_to_text(dictionary))


def dictionary_to_text(dictionary: Dictionary) -> str:
    explicit = dictionary.kind == "tunstall"
    header = {
        "format": 1 if explicit else 3,
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
    if explicit:
        lines.extend(" ".join(map(str, seg)) for seg in dictionary.segments)
    else:
        lines.extend(" ".join(map(str, (ell,) + t + (mult,)))
                     for ell, t, mult in dictionary.leaf_classes())
    return "\n".join(lines) + "\n"


def _frac_str(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


def load_dictionary(path) -> Dictionary:
    with open(path, "r", encoding="utf-8") as fh:
        return dictionary_from_text(fh.read())


def _class_line(fields: List[str], span: Point) -> LeafClass:
    """A format-3 line: a length, a lattice point in its box and a
    multiplicity."""
    ell, *t, mult = map(int, fields)
    if (len(t) != len(span) or ell < 1
            or not all(0 <= v <= ell * s for v, s in zip(t, span))):
        raise DictionaryError("leaf class %r is not a length ell, %d lattice "
                              "coordinates in 0 .. ell * %s and a multiplicity"
                              % (" ".join(fields), len(span), list(span)))
    return ell, tuple(t), mult


def _format2_classes(body: List[List[str]], shifts: Tuple[Point, ...]
                     ) -> List[LeafClass]:
    """The leaf classes of format-2 lines, letter-count classes in strictly
    ascending order: each count vector moved to its lattice point, and the
    classes of one point merged."""
    merged: Dict[Tuple[int, Point], int] = {}
    last: list = []
    for fields in body:
        ell, *counts, mult = line = list(map(int, fields))
        if (len(counts) != len(shifts) or min(counts) < 0 or ell != sum(counts)
                or ell < 1 or mult < 1 or line[:-1] <= last):
            raise DictionaryError("leaf class %r is not a length, %d letter counts "
                                  "summing to it and a multiplicity, after the "
                                  "class before it" % (" ".join(fields), len(shifts)))
        last = line[:-1]
        t = tuple(sum(map(operator.mul, counts, axis)) for axis in zip(*shifts))
        merged[ell, t] = merged.get((ell, t), 0) + mult
    return [(ell, t, n) for (ell, t), n in sorted(merged.items())]


def dictionary_from_text(text: str) -> Dictionary:
    """Parse a dictionary file; any malformed content raises DictionaryError."""
    lines = text.splitlines()
    if not lines:
        raise DictionaryError("empty dictionary file")
    try:
        header = json.loads(lines[0])
        if not isinstance(header, dict):
            raise DictionaryError("header is not a JSON object")
        fmt, kind = header.get("format"), header.get("kind")
        if type(fmt) is not int or fmt not in (1, 2, 3):
            raise DictionaryError("unsupported format version %r" % (fmt,))
        if kind not in KINDS:
            raise DictionaryError("unknown dictionary kind %r" % (kind,))
        if fmt != 1 and kind != "tc":
            raise DictionaryError("a format-%d file holds a threshold (tc) "
                                  "dictionary, not %r" % (fmt, kind))
        model = _models.model_from_dict(header["model"])
        grid = Grid(
            side=Fraction(header["grid"]["W"]),
            origin=tuple(Fraction(v) for v in header["grid"]["origin"]),
        )
        body = [line.split() for line in lines[1:] if line]
        shifts = lattice(model).shifts
        span = tuple(map(max, zip(*shifts)))
        classes = None
        if fmt == 2:
            classes = _format2_classes(body, shifts)
        elif fmt == 3:
            classes = [_class_line(f, span) for f in body]
        dictionary = Dictionary(
            model, grid,
            segments=[tuple(map(int, f)) for f in body] if fmt == 1 else None,
            leaf_classes=classes,
            m_target=int(header["m_target"]),
            gamma=None if header["gamma"] is None else float(header["gamma"]),
            kind=kind,
            monotone_mismatches=int(header.get("monotone_mismatches", 0)),
        )
        size = int(header["size"])
        width = header["codeword_width"]
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise DictionaryError("malformed dictionary file: %s" % exc) from None
    if dictionary.size != size:
        raise DictionaryError("segment count disagrees with header")
    if width != dictionary.codeword_width:
        raise DictionaryError("codeword_width %r disagrees with size %d, which "
                              "needs %d bits" % (width, size, dictionary.codeword_width))
    dictionary.check_structure()
    return dictionary
