"""Small-instance oracles shared by the tests; exponential, not for library use."""

import itertools
import math
from typing import Dict, Iterator, Tuple

from tccode import models as M

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
