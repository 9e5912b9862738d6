"""Small-instance oracles shared by the tests; exponential, not for library use."""

import functools
import itertools
import json
import math
import operator
import random
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from tccode import converse as C
from tccode import dictionary as D
from tccode import models as M
from tccode import qtypes as Q
from tccode import rates as R
from tccode.normal import gaussian_tail

Segment = Tuple[int, ...]

# Fractional letter statistics: the integer lattice needs a common denominator.
FRAC = M.ExpFamilyModel(
    alphabet_size=3, stat_dim=1,
    tau=((Fraction(1, 2),), (Fraction(3, 4),), (Fraction(-2),)),
    theta_box=((-1.0, 1.0),), name="fractional",
)


def _unit_model(name, tau):
    d = len(tau[0])
    return M.ExpFamilyModel(
        alphabet_size=len(tau), stat_dim=d,
        tau=tuple(tuple(Fraction(v) for v in row) for row in tau),
        theta_box=((-1.0, 1.0),) * d, name=name)


# d = 2 and d = 3 models on unit statistics: the cube's letters are the
# corners of its box; the simplex and corner models leave the far corner and
# the far edges of theirs unreached.
SIMPLEX = _unit_model("simplex", ((0, 0), (1, 0), (0, 1)))
CUBE = _unit_model("cube", tuple(itertools.product((0, 1), repeat=3)))
CORNER = _unit_model("corner", ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))


def compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def composition_count(total: int, parts: int) -> int:
    """Number of letter-count vectors of a length-total sequence over parts
    letters."""
    return math.comb(total + parts - 1, parts - 1)


def letter_counts(model, seq) -> Tuple[int, ...]:
    """Number of occurrences of each letter in seq."""
    return tuple(seq.count(x) for x in range(model.alphabet_size))


def suff_stat_of_counts(model, counts) -> Tuple[Fraction, ...]:
    """Average statistic of any sequence with the given letter counts."""
    counts = tuple(int(c) for c in counts)
    if len(counts) != model.alphabet_size or any(c < 0 for c in counts):
        raise M.ModelError("counts must be nonnegative, one per letter")
    ell = sum(counts)
    if ell == 0:
        raise M.ModelError("empty sequence has no sufficient statistic")
    return tuple(
        sum(counts[x] * model.tau[x][i] for x in range(model.alphabet_size)) / ell
        for i in range(model.stat_dim)
    )


@functools.lru_cache(maxsize=None)
def _shifts(model) -> Tuple[Tuple[int, ...], ...]:
    return Q.lattice(model).shifts


def lattice_point(model, counts) -> Tuple[int, ...]:
    """The lattice point t of the sequences with these letter counts: each
    letter adds its shift once per occurrence."""
    return tuple(sum(map(operator.mul, counts, axis)) for axis in zip(*_shifts(model)))


def size_for_counts(counter, counts) -> int:
    """Size of the class of the sequences with these letter counts, from the
    counter's row of their length: their statistic sum t adds each letter's
    shift once per occurrence."""
    if len(counts) != counter.model.alphabet_size or min(counts) < 0:
        raise M.ModelError("counts must be nonnegative, one per letter")
    return counter.size_of_sum(counter.row(sum(counts)),
                               lattice_point(counter.model, counts))


def row_sizes(counter, ell: int) -> Dict[Tuple[int, ...], int]:
    """Every class of length ell with its size from the counter's row: the
    cells that hold a sequence, found by walking the length's reachable sums
    one by one."""
    row = counter.row(ell)
    reached = {(0,) * counter.model.stat_dim}
    for _ in range(ell):
        reached = {tuple(map(operator.add, t, s))
                   for t in reached for s in counter.shifts}
    return {cell: row.at(cell)
            for cell in {counter.cell(row.base, t) for t in reached}}


def counts_log_prob(model, theta, counts) -> float:
    """log2 p_theta of any sequence with the given letter counts, through
    the rational average statistic: ell (<theta, float(stat)> - psi)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    counts = tuple(int(c) for c in counts)
    ell = sum(counts)
    if ell == 0:
        raise M.ModelError("sequence must be nonempty")
    stat = suff_stat_of_counts(model, counts)
    dot = float(sum(float(s) * t for s, t in zip(stat, theta)))
    return ell * (dot - M.log_partition(model, theta))


def mp_model_math(model, theta, prec: int = 160):
    """(psi, letter log-probabilities, letter probabilities, entropy,
    varentropy) of p_theta as mpmath numbers of prec bits, from the exact
    rational statistics and the float theta: the reference for the float
    math of tccode.models."""
    import mpmath

    with mpmath.workprec(prec):
        theta = [mpmath.mpf(t) for t in M.theta_floats(theta)]
        s = [mpmath.fsum(mpmath.mpf(v.numerator) / v.denominator * t
                         for v, t in zip(row, theta)) for row in model.tau]
        psi = mpmath.log(mpmath.fsum(mpmath.power(2, v) for v in s), 2)
        lp = [v - psi for v in s]
        p = [mpmath.power(2, v) for v in lp]
        h = -mpmath.fsum(px * v for px, v in zip(p, lp))
        var = mpmath.fsum(px * (v + h) ** 2 for px, v in zip(p, lp))
    return psi, lp, p, h, var


def mp_abs_error(value: float, ref, prec: int = 160) -> float:
    """|value - ref| for an mpmath reference, subtracted at prec bits."""
    import mpmath

    with mpmath.workprec(prec):
        return float(abs(mpmath.mpf(value) - ref))


def bernoulli_mle(model, tau: float) -> float:
    """Maximum-likelihood theta of the two-letter family with statistics 0
    and 1 at average statistic tau: log2(tau / (1 - tau)) clipped into the
    box."""
    if model.tau != ((0,), (1,)):
        raise ValueError("closed form holds only for statistics 0 and 1")
    lo, hi = model.theta_box[0]
    if tau <= 0:
        return lo
    if tau >= 1:
        return hi
    return min(max(math.log2(tau / (1 - tau)), lo), hi)


def ml_code_length(model, ell: int, tau) -> float:
    """-log2 p_{theta_hat}(x^l) for any x^l of the two-letter family with
    average statistic tau: ell (psi(theta_hat) - tau theta_hat)."""
    (t,) = (float(v) for v in tau)
    theta = bernoulli_mle(model, t)
    return ell * (M.log_partition(model, [theta]) - t * theta)


def log_type_size_core_counts(model, counts) -> float:
    """-log2 p_{theta_hat}(x^l) - (d/2) log2 l for any x^l with these letter
    counts, the common core of the two-sided type-class size bounds."""
    ell = sum(counts)
    if ell < 2:
        raise M.ModelError("core statistic requires ell >= 2")
    tau = suff_stat_of_counts(model, counts)
    return ml_code_length(model, ell, tau) - 0.5 * model.stat_dim * math.log2(ell)


def info_increment_counts(model, counts, letter: int) -> float:
    """Increase of the maximum-likelihood code length when a sequence with
    these letter counts grows by one letter."""
    if letter < 0 or letter >= model.alphabet_size:
        raise M.ModelError("letter index out of range")
    ell = sum(counts)
    if ell < 1:
        raise M.ModelError("ell must be at least 1")
    extended = tuple(c + (x == letter) for x, c in enumerate(counts))
    before = ml_code_length(model, ell, suff_stat_of_counts(model, counts))
    after = ml_code_length(model, ell + 1, suff_stat_of_counts(model, extended))
    return after - before


def band_cell_count(counter, ell: int, gamma: float, lo_slack: float,
                    hi_slack: float) -> int:
    """Number of occupied cells of the counter's row at ell whose
    representative ML code length falls in
    (gamma + (d/2) log2 ell - hi_slack, gamma + (d/2) log2 ell - lo_slack).

    The representative is the cell center clamped into the statistic range.
    """
    model, grid = counter.model, counter.grid
    mid = gamma + 0.5 * model.stat_dim * math.log2(ell)
    lo_stat, hi_stat = min(model.tau)[0], max(model.tau)[0]
    hits = 0
    for idx in row_sizes(counter, ell):
        (center,) = Q.cell_center(model, grid, ell, idx)
        rep = (min(max(center, lo_stat), hi_stat),)
        if mid - hi_slack < ml_code_length(model, ell, rep) < mid - lo_slack:
            hits += 1
    return hits


def multinomial(counts) -> int:
    """Exact multinomial coefficient l! / prod(counts!)."""
    out = 1
    rem = sum(counts)
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


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


def merge_classes(model, rows) -> List[Tuple[int, Tuple[int, ...], int]]:
    """(length, letter counts, multiplicity) rows as leaf classes: each
    count vector moved to its lattice point, and the multiplicities of equal
    (length, point) summed; sorted."""
    merged: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    for ell, counts, mult in rows:
        key = ell, lattice_point(model, counts)
        merged[key] = merged.get(key, 0) + mult
    return sorted((ell, t, mult) for (ell, t), mult in merged.items())


def leaf_classes_of(model, segments) -> List[Tuple[int, Tuple[int, ...], int]]:
    """Leaf classes of an explicit segment list, segment by segment."""
    return merge_classes(model, ((len(s), letter_counts(model, s), 1)
                                 for s in segments))


def leaf_mass(dictionary, theta) -> float:
    """Total probability of the dictionary's leaves under p_theta."""
    return math.fsum(D.length_masses(dictionary.model, dictionary.leaf_classes(),
                                     theta).values())


def walk(trie, letters) -> Tuple[Optional[int], int]:
    """Descend a rank-offset table along the letters, reading no more than
    needed: (leaf rank, depth) at the first leaf reached, or (None, letters
    read) when the letters run out first.  A letter outside the alphabet or
    with no child raises DictionaryError.  The scalar reference of
    the Monte-Carlo walk and of the converse check's co-walk."""
    cells, offsets, k = trie.cells, trie.offsets, trie.k
    node = rank = depth = 0
    for letter in letters:
        depth += 1
        if not 0 <= letter < k:
            raise D.DictionaryError("letter %r not parseable at depth %d"
                                    % (letter, depth))
        cell = node + letter
        node = cells[cell]
        rank += offsets[cell]
        if node <= 0:
            if node < 0:
                return rank, depth
            raise D.DictionaryError("letter %r not parseable at depth %d"
                                    % (letter, depth))
    return None, depth


def table_segments(trie) -> Tuple[Segment, ...]:
    """The leaves of a rank-offset table as segments, depth first with the
    smaller letter first, i.e. in lexicographic order."""
    out = []
    stack = [(0, ())]
    while stack:
        base, path = stack.pop()
        if base is None:
            out.append(path)
            continue
        for x in reversed(range(trie.k)):
            child = trie.cells[base + x]
            if child:
                stack.append((child if child > 0 else None, path + (x,)))
    return tuple(out)


def format1_text(dictionary) -> str:
    """The dictionary's file in format 1, one segment per line, as build-dict
    wrote threshold dictionaries before format 2 and format 3."""
    header_line, *_ = D.dictionary_to_text(dictionary).splitlines()
    header = dict(json.loads(header_line), format=1)
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines.extend(" ".join(map(str, seg)) for seg in dictionary.segments)
    return "\n".join(lines) + "\n"


def format2_text(dictionary) -> str:
    """The threshold dictionary's file in format 2, one letter-count class
    `ell c_0 ... c_{k-1} mult` per line, as build-dict wrote threshold
    dictionaries before format 3."""
    header_line, *_ = D.dictionary_to_text(dictionary).splitlines()
    header = dict(json.loads(header_line), format=2)
    merged: Dict[Tuple[int, ...], int] = {}
    for seg in dictionary.segments:
        key = (len(seg),) + letter_counts(dictionary.model, seg)
        merged[key] = merged.get(key, 0) + 1
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines.extend(" ".join(map(str, key + (mult,)))
                 for key, mult in sorted(merged.items()))
    return "\n".join(lines) + "\n"


def segment_length_masses(dictionary, theta) -> Dict[int, float]:
    """Per-length mass summed segment by segment, without leaf classes."""
    by_len: Dict[int, list] = {}
    for seg in dictionary.segments:
        by_len.setdefault(len(seg), []).append(
            2.0 ** counts_log_prob(dictionary.model, theta,
                                   letter_counts(dictionary.model, seg)))
    return {ell: math.fsum(ps) for ell, ps in by_len.items()}


def fraction_length_masses(model, leaf_classes, theta) -> Dict[int, float]:
    """length_masses class by class through the rational average statistic:
    float(Fraction) coordinates in counts_log_prob.  Its classes are
    (length, letter counts, multiplicity)."""
    by_len: Dict[int, list] = {}
    for ell, counts, mult in leaf_classes:
        by_len.setdefault(ell, []).append(
            mult * 2.0 ** counts_log_prob(model, theta, counts))
    return {ell: math.fsum(ps) for ell, ps in by_len.items()}


def size_for_counts_leaves(model, grid, limit: int, leaf_cap=None, counter=None):
    """The leaves of the threshold tree of limit, walked over letter-count
    classes with each child's size looked up from its whole count vector by
    size_for_counts, one leaf row per parent edge, merged at the end by
    (length, lattice point): ({(ell, t): [size, clean, dipped]}, largest
    internal size)."""
    limit = operator.index(limit)
    counter = counter or Q.TypeCounter(model, grid)
    if limit >= counter.cap:
        raise D.DictionaryError("limit %d needs class sizes above the "
                                "counting cap %d" % (limit, counter.cap))
    k = model.alphabet_size
    frontier = {(0,) * k: [1, 0]}
    sizes = {(0,) * k: 0}
    leaves: Dict[Tuple[int, Tuple[int, ...]], list] = {}
    leaf_total = max_internal = 0
    depth = 0
    while frontier:
        nxt, nxt_sizes = {}, {}
        for counts, (clean, dipped) in frontier.items():
            parent_size = sizes[counts]
            for x in range(k):
                child = counts[:x] + (counts[x] + 1,) + counts[x + 1:]
                size = nxt_sizes.get(child)
                if size is None:
                    size = nxt_sizes[child] = size_for_counts(counter, child)
                child_dips = size < parent_size
                c_clean = 0 if child_dips else clean
                c_dipped = dipped + (clean if child_dips else 0)
                if size > limit:
                    slot = leaves.setdefault(
                        (depth + 1, lattice_point(model, child)), [size, 0, 0])
                    slot[1] += c_clean
                    slot[2] += c_dipped
                    leaf_total += clean + dipped
                    if leaf_cap is not None and leaf_total > leaf_cap:
                        raise D.LeafCapExceeded(leaf_cap)
                else:
                    slot = nxt.setdefault(child, [0, 0])
                    slot[0] += c_clean
                    slot[1] += c_dipped
                    max_internal = max(max_internal, size)
        frontier, sizes = nxt, nxt_sizes
        depth += 1
    return leaves, max_internal


def size_for_counts_leaf_profile(model, grid, limit: int, leaf_cap=None,
                                 counter=None):
    """tc_leaf_profile from the leaves of size_for_counts_leaves."""
    leaves, max_internal = size_for_counts_leaves(model, grid, limit, leaf_cap,
                                                  counter)
    return D.TCProfile(
        [(ell, t, clean + dipped)
         for (ell, t), (_, clean, dipped) in sorted(leaves.items())],
        max_internal, tuple(sorted({slot[0] for slot in leaves.values()})),
        sum(slot[2] for slot in leaves.values()))


def rerun_gamma_profile(model, grid, m: int, counter=None):
    """choose_gamma_profile with every probe walking the first-passage DP
    from the root: the same bisection over the best profile's leaf sizes,
    with a new tree at each probe.  With no feasible probe, the result is
    the profile at limit 0, walked by size_for_counts_leaf_profile."""
    if m < model.alphabet_size:
        raise D.DictionaryError("m must be at least the alphabet size")
    if m >= Q.SIZE_CAP:
        raise D.DictionaryError("m must be below the class-size counting cap %d"
                                % Q.SIZE_CAP)
    counter = counter or Q.TypeCounter(model, grid, cap=m)
    best = None
    lo, hi = 1, m
    while lo < hi:
        if best is None:
            n = math.isqrt(lo * hi)
        else:
            mid = 0.5 * (math.log(lo) + math.log(hi))
            n = min((v for v in best.leaf_sizes if v < hi),
                    key=lambda v: abs(math.log(v) - mid))
        try:
            best = D.tc_leaf_profile(model, grid, n, leaf_cap=m,
                                     counter=counter)
            lo = best.min_leaf_size
        except D.LeafCapExceeded:
            hi = n
    if best is None:
        best = size_for_counts_leaf_profile(model, grid, 0, counter=counter)
    return best.gamma, best


def composition_row(model, grid, ell) -> Dict[Tuple[int, ...], int]:
    """Cell -> class size at length ell, enumerating letter compositions and
    placing each with the rational cell_of."""
    row: Dict[Tuple[int, ...], int] = {}
    for counts in compositions(ell, model.alphabet_size):
        idx, _ = Q.cell_of(model, grid, ell, suff_stat_of_counts(model, counts))
        row[idx] = row.get(idx, 0) + multinomial(counts)
    return row


def first_passage_oracle(model, grid, limit: int, max_depth: int = 12,
                         max_nodes: int = 2000):
    """(segments, dipped-leaf count) of the threshold dictionary from its
    definition: a path stops at the first length whose class size, from
    composition_row and rational cells, exceeds limit; a leaf is
    dipped when some class size on its path is smaller than the one before.
    None when a path runs past max_depth or the tree has more than max_nodes
    nodes."""
    rows: Dict[int, Dict[Tuple[int, ...], int]] = {}

    def size(seq) -> int:
        ell = len(seq)
        if ell not in rows:
            rows[ell] = composition_row(model, grid, ell)
        stat = suff_stat_of_counts(model, letter_counts(model, seq))
        idx, _ = Q.cell_of(model, grid, ell, stat)
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
        if n > limit:
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


def mc_length_masses(dictionary, theta, n_samples: int, seed: int) -> Dict[int, float]:
    """mc_rate_distribution's masses from the same rates._binomial draws in
    the same order, with the frontier keyed by prefix instead of by row.

    At each depth every frontier key, in order of first arrival, splits its
    count over the letters 0..k-1 (letter x takes Binomial(rest, p_x over
    the mass of the letters from x on), the last letter the rest), and the
    scalar walk of the key's first prefix plus the letter decides whether a
    share ends there, walks on or hits a missing child.  A class DAG shares
    one row among the prefixes of equal length and lattice point, so where a
    row has more than one parent (build_trie gives every row one) prefixes
    merge by their lattice points instead."""
    model, trie = dictionary.model, dictionary.trie()
    k = model.alphabet_size
    children = [child for child in trie.cells if child > 0]
    shared = len(set(children)) < len(children)
    p = M.probs(model, theta)
    split = [p[x] / math.fsum(p[x:]) for x in range(k - 1)]
    rng = random.Random(int(seed))
    counts: Dict[int, int] = {}
    frontier = {(): [(), n_samples]}
    while frontier:
        nxt: Dict[tuple, list] = {}
        for prefix, rest in frontier.values():
            for x in range(k):
                share = rest if x == k - 1 else R._binomial(rng, rest, split[x])
                if not share:
                    continue
                rest -= share
                word = prefix + (x,)
                leaf, depth = walk(trie, word)
                if leaf is not None:
                    counts[depth] = counts.get(depth, 0) + share
                else:
                    nxt.setdefault(lattice_point(model, letter_counts(model, word))
                                   if shared else word,
                                   [word, 0])[1] += share
                if not rest:
                    break
        frontier = nxt
    return {ell: c / n_samples for ell, c in counts.items()}


def vf_parse_shorter_than(dictionary, word) -> bool:
    """Whether the first parsed segment of word-extended-arbitrarily is
    strictly shorter than len(word)."""
    index, depth = walk(dictionary.trie(), word)
    return index is not None and depth < len(word)


def parse_depth(code, word) -> Tuple[int, int]:
    """(leaf index, depth) of the pruned-tree leaf reached by a length-n
    input word."""
    word = tuple(int(x) for x in word)
    assert len(word) == code.n
    index, depth = walk(code.table, word)
    assert index is not None, "pruned tree deeper than n"
    return index, depth


def fv_length(code, word) -> int:
    """Codeword length in bits for a length-n input word."""
    _, depth = parse_depth(code, word)
    return code.base_width + (code.n - depth) * code.per_letter_suffix_bits


def fv_codeword(code, word) -> str:
    """Explicit codeword; a small-n oracle for prefix-freeness."""
    word = tuple(int(x) for x in word)
    index, depth = parse_depth(code, word)
    bits = format(index, "0%db" % code.base_width)
    for letter in word[depth:]:
        bits += format(letter, "0%db" % code.per_letter_suffix_bits)
    return bits


def event_counterexamples(dictionary, n: int, words: Iterable, base_width=None
                          ) -> List[Tuple[Tuple[int, ...], bool, bool]]:
    """check_event_equivalence's counterexamples, word by word with the
    scalar vf_parse_shorter_than and fv_length."""
    code = C.vf_to_fv(dictionary, n)
    width = code.base_width if base_width is None else base_width
    out = []
    for word in words:
        word = tuple(int(x) for x in word)
        vf = vf_parse_shorter_than(dictionary, word)
        fv = fv_length(code, word) > width
        if vf != fv:
            out.append((word, vf, fv))
    return out


def sum_masses_oracle(model, theta, ell) -> Dict[Tuple[Fraction, ...], float]:
    """Probability of each rational statistic sum of a length-ell sequence,
    enumerating letter compositions: multinomial times p_theta of one member."""
    out: Dict[Tuple[Fraction, ...], float] = {}
    for counts in compositions(ell, model.alphabet_size):
        key = tuple(sum(c * row[i] for c, row in zip(counts, model.tau))
                    for i in range(model.stat_dim))
        mass = multinomial(counts) * 2.0 ** counts_log_prob(model, theta, counts)
        out[key] = out.get(key, 0.0) + mass
    return out


def normality_oracle(model, theta, ell) -> float:
    """normality_deviation by enumerating letter compositions, with
    big-integer multinomials, on the same z grid."""
    entropy, var = M.entropy_varentropy(model, theta)
    lp = M.letter_log_probs(model, theta)
    infos, masses = [], []
    for counts in compositions(ell, model.alphabet_size):
        logp = float(sum(c * lp[x] for x, c in enumerate(counts)))
        infos.append(-logp)
        masses.append(2.0 ** (math.log2(multinomial(counts)) + logp))
    z_values = (np.array(infos) - ell * entropy) / (math.sqrt(var) * math.sqrt(ell))
    masses = np.array(masses)
    return max(abs(float(masses[z_values > z].sum()) - gaussian_tail(float(z)))
               for z in np.linspace(-3.0, 3.0, 121))
