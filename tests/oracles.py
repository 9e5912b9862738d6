"""Small-instance oracles shared by the tests; exponential, not for library use."""

import itertools
import math
from typing import Dict, Iterator, Tuple

from tccode import models as M
from tccode import qtypes as Q

Segment = Tuple[int, ...]


def enumerate_complete_trees(k: int, max_leaves: int) -> Iterator[Tuple[Segment, ...]]:
    """All complete proper k-ary segment sets with at most max_leaves leaves."""

    def trees(budget: int) -> Iterator[Tuple[Segment, ...]]:
        # A tree is either a single leaf (the empty segment) or k subtrees.
        yield ((),)
        if budget < k:
            return
        # Split the budget across k children, each getting at least one leaf.
        def splits(remaining: int, parts: int) -> Iterator[Tuple[int, ...]]:
            if parts == 1:
                yield (remaining,)
                return
            for first in range(1, remaining - parts + 2):
                for rest in splits(remaining - first, parts - 1):
                    yield (first,) + rest

        seen = set()
        for total in range(k, budget + 1):
            for split in splits(total, k):
                child_options = [list(trees(b)) for b in split]
                for combo in itertools.product(*child_options):
                    if any(len(c) != s for c, s in zip(combo, split)):
                        continue
                    segs = tuple(sorted(
                        (x,) + seg for x, child in enumerate(combo) for seg in child
                    ))
                    if segs not in seen:
                        seen.add(segs)
                        yield segs

    for segs in trees(max_leaves):
        if segs != ((),):  # the bare root is not a valid dictionary
            yield segs


def segment_length_masses(dictionary, theta) -> Dict[int, float]:
    """Per-length mass summed segment by segment, without leaf classes."""
    by_len: Dict[int, list] = {}
    for seg in dictionary.segments:
        by_len.setdefault(len(seg), []).append(
            2.0 ** M.sequence_log_prob(dictionary.model, theta, seg))
    return {ell: math.fsum(ps) for ell, ps in by_len.items()}


def composition_row(model, grid, ell) -> Dict[Tuple[int, ...], int]:
    """Cell -> class size at length ell, enumerating letter compositions and
    placing each with the rational cell_of."""
    row: Dict[Tuple[int, ...], int] = {}
    for counts in Q.compositions(ell, model.alphabet_size):
        idx, _ = Q.cell_of(model, grid, ell, M.suff_stat_of_counts(model, counts))
        row[idx] = row.get(idx, 0) + Q.multinomial(counts)
    return row


def first_passage_oracle(model, grid, gamma: float, max_depth: int = 12,
                         max_nodes: int = 2000):
    """(segments, dipped-leaf count) of the threshold dictionary from its
    definition: a path stops at the first length whose class size, from
    composition_row and rational cells, has log2 above gamma; a leaf is
    dipped when some class size on its path is smaller than the one before.
    None when a path runs past max_depth or the tree has more than max_nodes
    nodes."""
    rows: Dict[int, Dict[Tuple[int, ...], int]] = {}

    def size(seq) -> int:
        ell = len(seq)
        if ell not in rows:
            rows[ell] = composition_row(model, grid, ell)
        idx, _ = Q.cell_of(model, grid, ell, M.suff_stat_avg(model, seq))
        return rows[ell][idx]

    segments, dipped, nodes = [], 0, 0
    stack = [((x,), 0, False) for x in reversed(range(model.alphabet_size))]
    while stack:
        seq, parent, dip = stack.pop()
        nodes += 1
        if len(seq) > max_depth or nodes > max_nodes:
            return None
        n = size(seq)
        dip = dip or n < parent
        if math.log2(n) > gamma:
            segments.append(seq)
            dipped += dip
        else:
            stack.extend((seq + (x,), n, dip)
                         for x in reversed(range(model.alphabet_size)))
    return tuple(segments), dipped


def eps_rate_scan(dist, eps: float):
    """(rate, attained) of eps_coding_rate, testing the tail at every support
    point."""
    support = dist.rate_support()
    exceeding = [v for v in support if dist.tail_at_rate(v) > eps]
    return (max(exceeding), False) if exceeding else (min(support), True)
