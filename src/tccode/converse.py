"""Constructive transform from a V-F dictionary to a fixed-input prefix code.

Step 1 prunes every subtree rooted at depth n, so all leaves sit at depth at
most n.  Step 2 is kept implicit: a length-n input that reaches a pruned leaf
at depth j is encoded by the leaf's fixed-width base index followed by the
remaining n - j letters at ceil(log2 k) bits each.  The overflow events of the
two codes coincide, which is what the length analysis needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .dictionary import (Dictionary, DictionaryError, Segment, build_trie,
                         leaf_classes_of, length_masses)
from .models import ExpFamilyModel, sample_stream


@dataclass
class FVCode:
    """Fixed-input-length prefix code induced by a pruned parse tree."""

    model: ExpFamilyModel
    n: int
    base_width: int
    per_letter_suffix_bits: int
    pruned_segments: Tuple[Segment, ...]
    _trie: Optional[dict] = field(default=None, repr=False, compare=False)

    @property
    def leaf_count(self) -> int:
        return len(self.pruned_segments)

    def trie(self) -> dict:
        if self._trie is None:
            self._trie = build_trie(self.pruned_segments)
        return self._trie

    def parse_depth(self, word) -> Tuple[int, int]:
        """(leaf index, depth) of the pruned-tree leaf reached by the word."""
        word = tuple(int(x) for x in word)
        if len(word) != self.n:
            raise DictionaryError("input must have length %d" % self.n)
        node = self.trie()
        for depth, letter in enumerate(word, start=1):
            child = node[letter]
            if isinstance(child, dict):
                node = child
            else:
                return child, depth
        raise DictionaryError("pruned tree deeper than n")  # pragma: no cover


def vf_to_fv(dictionary: Dictionary, n: int) -> FVCode:
    """Prune the dictionary tree at depth n and index the remaining leaves."""
    if n < 1:
        raise DictionaryError("n must be at least 1")
    pruned = sorted({seg if len(seg) <= n else seg[:n] for seg in dictionary.segments})
    k = dictionary.model.alphabet_size
    return FVCode(
        model=dictionary.model,
        n=n,
        base_width=max(1, math.ceil(math.log2(dictionary.m_target))),
        per_letter_suffix_bits=max(1, math.ceil(math.log2(k))),
        pruned_segments=tuple(pruned),
    )


def fv_length(code: FVCode, word) -> int:
    """Codeword length in bits for a length-n input word."""
    _, depth = code.parse_depth(word)
    return code.base_width + (code.n - depth) * code.per_letter_suffix_bits


def fv_codeword(code: FVCode, word) -> str:
    """Explicit codeword; used as a small-n oracle for prefix-freeness."""
    word = tuple(int(x) for x in word)
    index, depth = code.parse_depth(word)
    bits = format(index, "0%db" % code.base_width)
    for letter in word[depth:]:
        bits += format(letter, "0%db" % code.per_letter_suffix_bits)
    return bits


def vf_parse_shorter_than(dictionary: Dictionary, word) -> bool:
    """Whether the first parsed segment of word-extended-arbitrarily is
    strictly shorter than len(word)."""
    node = dictionary.trie()
    for depth, letter in enumerate(word, start=1):
        child = node[int(letter)]
        if isinstance(child, dict):
            node = child
        else:
            return depth < len(word)
    return False  # segment length >= len(word)


def vf_short_mass(dictionary: Dictionary, theta, n: int) -> float:
    """P(first segment shorter than n) under p_theta, from the leaf classes."""
    short = [c for c in dictionary.leaf_classes() if c[0] < n]
    return math.fsum(length_masses(dictionary.model, short, theta).values())


def fv_overflow_mass(code: FVCode, theta) -> float:
    """P(codeword longer than base_width bits) under p_theta: the mass of the
    pruned leaves shorter than n, the only ones followed by suffix letters."""
    short = [c for c in leaf_classes_of(code.model, code.pruned_segments) if c[0] < code.n]
    return math.fsum(length_masses(code.model, short, theta).values())


@dataclass
class EquivalenceReport:
    n: int
    base_width: int
    checked: int
    exhaustive: bool
    counterexamples: List[Tuple[Segment, bool, bool]]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def check_event_equivalence(dictionary: Dictionary, n: int,
                            base_width: Optional[int] = None,
                            exhaustive_cap: int = 10 ** 7,
                            sample_budget: int = 10 ** 5,
                            theta=None, seed: int = 0) -> EquivalenceReport:
    """Verify {VF parse length < n} iff {FV codeword length > base_width}.

    Exhaustive over all k^n words when affordable, sampled otherwise.
    """
    code = vf_to_fv(dictionary, n)
    width = code.base_width if base_width is None else int(base_width)
    k = dictionary.model.alphabet_size
    counterexamples: List[Tuple[Segment, bool, bool]] = []
    exhaustive = k ** n <= exhaustive_cap

    def check(word) -> None:
        vf_event = vf_parse_shorter_than(dictionary, word)
        fv_event = fv_length(code, word) > width
        if vf_event != fv_event:
            counterexamples.append((tuple(word), vf_event, fv_event))

    if exhaustive:
        checked = k ** n
        word = [0] * n
        while True:
            check(word)
            i = n - 1
            while i >= 0 and word[i] == k - 1:
                word[i] = 0
                i -= 1
            if i < 0:
                break
            word[i] += 1
    else:
        checked = sample_budget
        if theta is None:
            theta = np.zeros(dictionary.model.stat_dim)
        for trial in range(sample_budget):
            word = sample_stream(dictionary.model, theta, seed + trial, n)
            check(tuple(int(x) for x in word))
    return EquivalenceReport(n, width, checked, exhaustive, counterexamples)
