"""Constructive transform from a V-F dictionary to a fixed-input prefix code.

Step 1 prunes every subtree rooted at depth n, so all leaves sit at depth at
most n.  Step 2 is kept implicit: a length-n input that reaches a pruned leaf
at depth j is encoded by the leaf's fixed-width base index followed by the
remaining n - j letters at ceil(log2 k) bits each.  The overflow events of the
two codes coincide, which is what the length analysis needs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .dictionary import (Dictionary, DictionaryError, LeafClass, Segment, Trie,
                         length_masses, prune, table_leaf_classes)
from .models import ExpFamilyModel
from .qtypes import lattice


@dataclass
class FVCode:
    """Fixed-input-length prefix code induced by a pruned parse tree."""

    model: ExpFamilyModel
    n: int
    base_width: int
    per_letter_suffix_bits: int
    table: Trie  # the dictionary's table pruned at depth n

    @property
    def leaf_count(self) -> int:
        return self.table.leaves


def vf_to_fv(dictionary: Dictionary, n: int) -> FVCode:
    """Prune the dictionary tree at depth n and index the remaining leaves."""
    if n < 1:
        raise DictionaryError("n must be at least 1")
    k = dictionary.model.alphabet_size
    return FVCode(
        model=dictionary.model,
        n=n,
        base_width=max(1, math.ceil(math.log2(dictionary.m_target))),
        per_letter_suffix_bits=max(1, math.ceil(math.log2(k))),
        table=prune(dictionary.trie(), n),
    )


def vf_short_classes(dictionary: Dictionary, n: int) -> List[LeafClass]:
    """The leaf classes of the segments shorter than n."""
    return [c for c in dictionary.leaf_classes() if c[0] < n]


def fv_overflow_classes(code: FVCode) -> List[LeafClass]:
    """The pruned leaf classes shorter than n, the only ones followed by
    suffix letters: the dictionary's vf_short_classes, since pruning keeps
    every leaf shorter than n."""
    shifts = lattice(code.model).shifts
    return [c for c in table_leaf_classes(code.table, shifts) if c[0] < code.n]


def vf_short_mass(dictionary: Dictionary, theta, n: int) -> float:
    """P(first segment shorter than n) under p_theta, from the leaf classes."""
    short = vf_short_classes(dictionary, n)
    return math.fsum(length_masses(dictionary.model, short, theta).values())


def fv_overflow_mass(code: FVCode, theta) -> float:
    """P(codeword longer than base_width bits) under p_theta: the mass of
    fv_overflow_classes."""
    short = fv_overflow_classes(code)
    return math.fsum(length_masses(code.model, short, theta).values())


# Counterexamples a report lists, the first in lexicographic order.
LISTED = 20


@dataclass
class EquivalenceReport:
    n: int
    base_width: int
    checked: int  # k^n, every length-n word
    mismatches: int
    counterexamples: List[Tuple[Segment, bool, bool]]  # the first LISTED
    code: FVCode

    @property
    def passed(self) -> bool:
        return self.mismatches == 0


def check_event_equivalence(dictionary: Dictionary, n: int,
                            base_width: Optional[int] = None) -> EquivalenceReport:
    """Verify {VF parse length < n} iff {FV codeword length > base_width}
    on all k^n words, at a cost set by the rows of the class DAG, not
    by k^n (see _mismatched_words).
    """
    code = vf_to_fv(dictionary, n)
    width = code.base_width if base_width is None else int(base_width)
    mismatches, counterexamples = _mismatched_words(dictionary.trie(), code, width)
    return EquivalenceReport(n, width, dictionary.model.alphabet_size ** n, mismatches,
                             counterexamples, code)


def _mismatched_words(trie: Trie, code: FVCode, width: int
                      ) -> Tuple[int, List[Tuple[Segment, bool, bool]]]:
    """The number of length-n words whose VF parse is shorter than n while
    their codeword fits in width bits, or the other way round, and the first
    LISTED of them in lexicographic order, with their VF and FV events.

    The dictionary's table and the pruned one are walked letter by letter at
    once.  A walk's state is its row while it goes on and ~depth once it
    has ended at a leaf of that depth, so a word's events depend only on its
    path of states (VF walk, FV walk, depth).  Once both walks have ended,
    or at depth n, the events are decided for all k^(n - depth) words
    below.  Each state's mismatch count is computed once, so a DAG row that
    many paths share is walked once, and words are spelled out only under
    states with a nonzero count.  Explicit stacks keep n clear of the
    recursion limit.  A missing child raises DictionaryError.
    """
    k, n, table = trie.k, code.n, code.table

    def step(cells: List[int], node: int, x: int, depth: int) -> int:
        if node < 0:
            return node
        child = cells[node + x]
        if not child:
            raise DictionaryError("letter not parseable at depth %d" % depth)
        return child if child > 0 else ~depth

    def children(state: Tuple[int, int, int]) -> List[Tuple[int, int, int]]:
        vf, fv, depth = state
        return [(step(trie.cells, vf, x, depth + 1), step(table.cells, fv, x, depth + 1),
                 depth + 1) for x in range(k)]

    def events(state: Tuple[int, int, int]) -> Optional[Tuple[bool, bool]]:
        """The (VF, FV) events of every word below a decided state, or None."""
        vf, fv, depth = state
        if depth < n and (vf >= 0 or fv >= 0):
            return None
        suffix_bits = (n - ~fv if fv < 0 else 0) * code.per_letter_suffix_bits
        return vf < 0 and ~vf < n, code.base_width + suffix_bits > width

    root = (0, 0, 0)
    count = {}
    stack = [(root, None)]  # (state, its children once they are pushed)
    while stack:
        state, below = stack.pop()
        if state in count:
            continue
        decided = events(state)
        if decided is not None:
            count[state] = k ** (n - state[2]) if decided[0] != decided[1] else 0
        elif below is None:
            below = children(state)
            stack.append((state, below))
            stack.extend((child, None) for child in below if child not in count)
        else:
            count[state] = sum(count[child] for child in below)

    found: List[Tuple[Segment, bool, bool]] = []
    prefix: List[int] = []
    spell = [(root, None)]  # (state, the letter that led to it)
    while spell and len(found) < LISTED:
        state, letter = spell.pop()
        if letter is not None:
            prefix[state[2] - 1:] = [letter]
        decided = events(state)
        if decided is None:
            spell += [(c, x) for x, c in enumerate(children(state)) if count[c]][::-1]
            continue
        tails = itertools.product(range(k), repeat=n - state[2])
        for tail in itertools.islice(tails, LISTED - len(found)):
            found.append((tuple(prefix) + tail,) + decided)
    return count[root], found
