"""Constructive transform from a V-F dictionary to a fixed-input prefix code.

Step 1 prunes every subtree rooted at depth n, so all leaves sit at depth at
most n.  Step 2 is kept implicit: a length-n input that reaches a pruned leaf
at depth j is encoded by the leaf's fixed-width base index followed by the
remaining n - j letters at ceil(log2 k) bits each.  The overflow events of the
two codes coincide, which is what the length analysis needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .dictionary import (Dictionary, DictionaryError, Segment, Trie, length_masses,
                         prune, table_leaf_classes, walk_block)
from .models import BLOCK_ROWS, ExpFamilyModel, sample_blocks


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

    Exhaustive over all k^n words, in lexicographic order, when affordable;
    otherwise sample_budget words drawn under p_theta (theta = 0 when not
    given) by models.sample_blocks.  Counterexamples are listed in the order
    checked.
    """
    import numpy as np

    code = vf_to_fv(dictionary, n)
    width = code.base_width if base_width is None else int(base_width)
    k = dictionary.model.alphabet_size
    counterexamples: List[Tuple[Segment, bool, bool]] = []
    exhaustive = k ** n <= exhaustive_cap

    def check(words: np.ndarray) -> None:
        """Compare the two events on every row of a (rows, n) word block:
        a parse shorter than n, and a codeword longer than width, walked in
        bulk."""
        vf_index, vf_depth = walk_block(dictionary.trie(), words)
        vf_event = (vf_index >= 0) & (vf_depth < n)
        _, fv_depth = walk_block(code.table, words)
        fv_event = code.base_width + (n - fv_depth) * code.per_letter_suffix_bits > width
        for row in np.flatnonzero(vf_event != fv_event):
            counterexamples.append((tuple(words[row].tolist()), bool(vf_event[row]),
                                    bool(fv_event[row])))

    if exhaustive:
        checked = k ** n
        # Word i spells i in base k, most significant letter first.
        powers = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
        for start in range(0, checked, BLOCK_ROWS):
            ids = np.arange(start, min(start + BLOCK_ROWS, checked), dtype=np.int64)
            check(ids[:, None] // powers % k)
    else:
        checked = sample_budget
        if theta is None:
            theta = np.zeros(dictionary.model.stat_dim)
        for words in sample_blocks(dictionary.model, theta, seed, sample_budget, n):
            check(words)
    return EquivalenceReport(n, width, checked, exhaustive, counterexamples, code)
