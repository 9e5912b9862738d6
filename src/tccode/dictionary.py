"""Parsing dictionaries: threshold construction, Tunstall baseline, parsing.

The threshold dictionary turns a sequence into a segment at the first length
where the log quantized-type-class size exceeds gamma (first-passage rule).
This is equivalent to the two-condition membership rule whenever the log size
is monotone along the path, and it guarantees a complete, proper parse tree
unconditionally; paths on which monotonicity failed are counted and reported.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import models as _models
from .models import ExpFamilyModel, counts_log_prob_at
from .qtypes import Grid, TypeCounter

Segment = Tuple[int, ...]
# (segment length, letter counts, number of segments with both).
LeafClass = Tuple[int, Tuple[int, ...], int]


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
    _trie: Optional[dict] = field(default=None, repr=False, compare=False)
    _leaf_classes: Optional[List[LeafClass]] = field(default=None, repr=False,
                                                     compare=False)

    def __post_init__(self):
        self.segments = tuple(tuple(int(x) for x in s) for s in self.segments)
        if list(self.segments) != sorted(self.segments):
            raise DictionaryError("segments must be in lexicographic order")

    @property
    def size(self) -> int:
        return len(self.segments)

    @property
    def codeword_width(self) -> int:
        return max(1, math.ceil(math.log2(self.size)))

    def trie(self) -> dict:
        if self._trie is None:
            self._trie = build_trie(self.segments)
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
        if len(set(self.segments)) != len(self.segments):
            raise DictionaryError("duplicate segments")
        if self.size > self.m_target:
            raise DictionaryError("dictionary exceeds its target size")
        k = self.model.alphabet_size
        stack = [self.trie()]
        while stack:
            node = stack.pop()
            if len(node) != k:
                raise DictionaryError("internal node with %d != %d children" % (len(node), k))
            for child in node.values():
                if isinstance(child, dict):
                    stack.append(child)

    def parse_one(self, stream: Iterable[int]) -> ParseResult:
        """Consume letters until a segment is identified; fixed-width output."""
        node = self.trie()
        length = 0
        for letter in stream:
            length += 1
            try:
                child = node[int(letter)]
            except KeyError:
                raise DictionaryError("letter %r not parseable at depth %d" % (letter, length))
            if isinstance(child, dict):
                node = child
            else:
                return ParseResult(child, length, format(child, "0%db" % self.codeword_width))
        raise DictionaryError("stream exhausted before a segment was identified")

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


def build_trie(segments: Iterable[Segment]) -> dict:
    """Nested letter -> child maps; a leaf holds its segment's index."""
    root: dict = {}
    for index, seg in enumerate(segments):
        node = root
        for letter in seg[:-1]:
            node = node.setdefault(letter, {})
        if seg[-1] in node:
            raise DictionaryError("segment %r conflicts with a prefix" % (seg,))
        node[seg[-1]] = index
    return root


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
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    psi = _models.log_partition(model, theta)
    by_len: Dict[int, List[float]] = {}
    for ell, counts, mult in leaf_classes:
        lp = counts_log_prob_at(model, theta, psi, counts)
        by_len.setdefault(ell, []).append(mult * 2.0 ** lp)
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


def build_tc_dictionary(model: ExpFamilyModel, grid: Grid, gamma: float,
                        leaf_cap: int, m_target: Optional[int] = None,
                        counter: Optional[TypeCounter] = None,
                        max_depth: int = 50000) -> Dictionary:
    """Explicit depth-first construction of the threshold dictionary.

    A node becomes a leaf at the first depth where the log class size exceeds
    gamma, i.e. where the class size exceeds size_limit(gamma).  Aborts with
    LeafCapExceeded once the leaf count passes leaf_cap.
    """
    if leaf_cap < model.alphabet_size:
        raise DictionaryError("leaf_cap must be at least the alphabet size")
    counter = counter or TypeCounter(model, grid)
    limit = size_limit(gamma)
    k = model.alphabet_size
    segments: List[Segment] = []
    mismatches = 0
    root_counts = (0,) * k
    # Stack entries: (path, counts, parent_size, dipped); letters pushed in
    # reverse so segments emerge in lexicographic order.
    stack = [((x,), _bump(root_counts, x), 0, False) for x in reversed(range(k))]
    while stack:
        path, counts, parent_size, dipped = stack.pop()
        if len(path) > max_depth:
            raise DepthCapExceeded(
                "no threshold crossing within depth %d at gamma=%.6g; "
                "the grid likely isolates an extreme statistic" % (max_depth, gamma)
            )
        size = counter.size_for_counts(counts)
        dipped = dipped or size < parent_size
        if size > limit:
            segments.append(path)
            if dipped:
                mismatches += 1
            if len(segments) > leaf_cap:
                raise LeafCapExceeded(leaf_cap)
        else:
            for x in reversed(range(k)):
                stack.append((path + (x,), _bump(counts, x), size, dipped))
    return Dictionary(
        model=model, grid=grid, segments=tuple(sorted(segments)),
        m_target=m_target if m_target is not None else len(segments),
        gamma=float(gamma), kind="tc", monotone_mismatches=mismatches,
    )


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
    the limit reaches one of leaf_sizes.
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
                    counter: Optional[TypeCounter] = None,
                    max_depth: int = 50000) -> TCProfile:
    """Dynamic program over letter-count classes; equivalent to the explicit
    depth-first build (verified in the test suite) but linear in the number of
    reachable count classes rather than in the number of segments."""
    counter = counter or TypeCounter(model, grid)
    limit = size_limit(gamma)
    k = model.alphabet_size
    # frontier: counts -> [clean multiplicity, dipped multiplicity]
    frontier: Dict[Tuple[int, ...], List[int]] = {(0,) * k: [1, 0]}
    sizes: Dict[Tuple[int, ...], int] = {(0,) * k: 0}
    leaf_classes: List[LeafClass] = []
    leaf_total = 0
    mismatch_total = 0
    max_internal = 0
    leaf_sizes = set()
    depth = 0
    while frontier:
        if depth > max_depth:
            raise DepthCapExceeded(
                "no threshold crossing within depth %d at gamma=%.6g; "
                "the grid likely isolates an extreme statistic" % (max_depth, gamma)
            )
        nxt: Dict[Tuple[int, ...], List[int]] = {}
        nxt_sizes: Dict[Tuple[int, ...], int] = {}
        for counts, (clean, dipped) in frontier.items():
            parent_size = sizes[counts]
            for x in range(k):
                child = _bump(counts, x)
                size = nxt_sizes.get(child)
                if size is None:
                    size = counter.size_for_counts(child)
                    nxt_sizes[child] = size
                child_dips = size < parent_size
                c_clean = 0 if child_dips else clean
                c_dipped = dipped + (clean if child_dips else 0)
                if size > limit:
                    mult = clean + dipped
                    leaf_classes.append((depth + 1, child, mult))
                    leaf_total += mult
                    mismatch_total += c_dipped
                    if leaf_cap is not None and leaf_total > leaf_cap:
                        raise LeafCapExceeded(leaf_cap)
                    leaf_sizes.add(size)
                else:
                    slot = nxt.setdefault(child, [0, 0])
                    slot[0] += c_clean
                    slot[1] += c_dipped
                    if size > max_internal:
                        max_internal = size
        frontier = nxt
        sizes = nxt_sizes
        depth += 1
    # Merge duplicate (ell, counts) rows produced by leaf-vs-internal bookkeeping.
    return TCProfile(float(gamma), _merge_classes(leaf_classes), max_internal,
                     tuple(sorted(leaf_sizes)), mismatch_total)


def gamma_reference(m: int, stat_dim: int) -> float:
    """Closed-form threshold log2 M - d log2 log2 M (constant omitted)."""
    logm = math.log2(m)
    return logm - stat_dim * math.log2(logm)


def choose_gamma_profile(model: ExpFamilyModel, grid: Grid, m: int,
                         counter: Optional[TypeCounter] = None,
                         max_depth: int = 50000) -> Tuple[float, TCProfile]:
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
    dictionary.
    """
    if m < model.alphabet_size:
        raise DictionaryError("m must be at least the alphabet size")
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
                                   counter=counter, max_depth=max_depth)
            lo = best.min_leaf_size
        except LeafCapExceeded:
            hi = n
    if best is None:
        best = tc_leaf_profile(model, grid, -1.0, counter=counter,
                               max_depth=max_depth)
    best.gamma = best.max_internal_value if best.max_internal_size else -1.0
    return best.gamma, best


def choose_gamma(model: ExpFamilyModel, grid: Grid, m: int,
                 counter: Optional[TypeCounter] = None,
                 max_depth: int = 50000) -> Tuple[float, Dictionary]:
    """As choose_gamma_profile, but materializes the dictionary."""
    counter = counter or TypeCounter(model, grid)
    gamma, _ = choose_gamma_profile(model, grid, m, counter=counter,
                                    max_depth=max_depth)
    dictionary = build_tc_dictionary(model, grid, gamma, leaf_cap=m,
                                     m_target=m, counter=counter,
                                     max_depth=max_depth)
    return gamma, dictionary


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
    lines = text.splitlines()
    if not lines:
        raise DictionaryError("empty dictionary file")
    try:
        header = json.loads(lines[0])
        if header.get("format") != FORMAT_VERSION:
            raise DictionaryError("unsupported format version %r" % header.get("format"))
        model = _models.model_from_dict(header["model"])
        grid = Grid(
            side=Fraction(header["grid"]["W"]),
            origin=tuple(Fraction(v) for v in header["grid"]["origin"]),
        )
        segments = tuple(
            tuple(int(x) for x in line.split()) for line in lines[1:] if line
        )
        dictionary = Dictionary(
            model=model, grid=grid, segments=segments,
            m_target=int(header["m_target"]),
            gamma=None if header["gamma"] is None else float(header["gamma"]),
            kind=str(header["kind"]),
            monotone_mismatches=int(header.get("monotone_mismatches", 0)),
        )
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise DictionaryError("malformed dictionary file: %s" % exc)
    if dictionary.size != int(header["size"]):
        raise DictionaryError("segment count disagrees with header")
    dictionary.check_structure()
    return dictionary
