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
from typing import Callable, List, Optional, Tuple

from .dictionary import (Dictionary, DictionaryError, Segment, Trie, length_masses,
                         prune, table_leaf_classes, walk_block)
from .models import ExpFamilyModel, sample_blocks


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


def vf_short_mass(dictionary: Dictionary, theta, n: int) -> float:
    """P(first segment shorter than n) under p_theta, from the leaf classes."""
    short = [c for c in dictionary.leaf_classes() if c[0] < n]
    return math.fsum(length_masses(dictionary.model, short, theta).values())


def fv_overflow_mass(code: FVCode, theta) -> float:
    """P(codeword longer than base_width bits) under p_theta: the mass of the
    pruned leaves shorter than n, the only ones followed by suffix letters."""
    short = [c for c in table_leaf_classes(code.table) if c[0] < code.n]
    return math.fsum(length_masses(code.model, short, theta).values())


@dataclass
class EquivalenceReport:
    n: int
    base_width: int
    checked: int
    exhaustive: bool
    counterexamples: List[Tuple[Segment, bool, bool]]
    code: FVCode

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def check_event_equivalence(dictionary: Dictionary, n: int,
                            base_width: Optional[int] = None,
                            exhaustive_cap: int = 10 ** 7,
                            sample_budget: int = 10 ** 5,
                            theta=None, seed: int = 0) -> EquivalenceReport:
    """Verify {VF parse length < n} iff {FV codeword length > base_width}.

    When k^n <= exhaustive_cap the check covers all k^n words by co-walking
    the dictionary's table and the pruned table (see _mismatched_words), at
    a cost set by the rows of the count-class DAG, not by k^n; otherwise it
    checks sample_budget words drawn under p_theta (theta = 0 when not
    given) by models.sample_blocks.  exhaustive_cap thus only fixes when the
    report is sampled.  Counterexamples are listed in lexicographic order,
    or in the order drawn.
    """
    code = vf_to_fv(dictionary, n)
    width = code.base_width if base_width is None else int(base_width)
    k = dictionary.model.alphabet_size
    exhaustive = k ** n <= exhaustive_cap

    def overflows(depth):
        """The FV event of words whose pruned walk ends at depth (an int or
        an array of them)."""
        return code.base_width + (n - depth) * code.per_letter_suffix_bits > width

    if exhaustive:
        checked = k ** n
        counterexamples = _mismatched_words(dictionary.trie(), code.table, n, overflows)
    else:
        import numpy as np

        checked = sample_budget
        counterexamples = []
        if theta is None:
            theta = np.zeros(dictionary.model.stat_dim)
        for words in sample_blocks(dictionary.model, theta, seed, sample_budget, n):
            vf_index, vf_depth = walk_block(dictionary.trie(), words)
            vf_event = (vf_index >= 0) & (vf_depth < n)
            _, fv_depth = walk_block(code.table, words)
            fv_event = overflows(fv_depth)
            for row in np.flatnonzero(vf_event != fv_event):
                counterexamples.append((tuple(words[row].tolist()), bool(vf_event[row]),
                                        bool(fv_event[row])))
    return EquivalenceReport(n, width, checked, exhaustive, counterexamples, code)


def _mismatched_words(trie: Trie, table: Trie, n: int,
                      overflows: Callable[[int], bool]
                      ) -> List[Tuple[Segment, bool, bool]]:
    """Every length-n word whose two events differ, in lexicographic order,
    with its VF and FV events.

    Both tables are walked letter by letter at once.  A walk's state is its
    row while it goes on and ~depth once it has ended at a leaf of that
    depth, so a word's events depend only on its path of states (VF walk,
    FV walk, depth).  Once both walks have ended, or at depth n, the events
    are decided for every word below.  A state with no mismatch below is
    clean and is remembered, so a DAG row that many paths share is walked
    once; words are spelled out only under states that are not clean.  A
    missing child raises DictionaryError, as in walk_block.
    """
    k = trie.k
    clean = set()
    found: List[Tuple[Segment, bool, bool]] = []
    prefix: List[int] = []

    def step(cells: List[int], node: int, x: int, depth: int) -> int:
        if node < 0:
            return node
        child = cells[node + x]
        if not child:
            raise DictionaryError("letter not parseable at depth %d" % depth)
        return child if child > 0 else ~depth

    def visit(vf: int, fv: int, depth: int) -> bool:
        state = (vf, fv, depth)
        if state in clean:
            return True
        if depth == n or (vf < 0 and fv < 0):
            vf_event = vf < 0 and ~vf < n
            fv_event = overflows(~fv if fv < 0 else n)
            if vf_event == fv_event:
                return True
            for tail in itertools.product(range(k), repeat=n - depth):
                found.append((tuple(prefix) + tail, vf_event, fv_event))
            return False
        ok = True
        for x in range(k):
            prefix.append(x)
            ok = visit(step(trie.cells, vf, x, depth + 1),
                       step(table.cells, fv, x, depth + 1), depth + 1) and ok
            prefix.pop()
        if ok:
            clean.add(state)
        return ok

    visit(0, 0, 0)
    return found
