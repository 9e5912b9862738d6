"""Outside-in tracing of tccode: spans and counters around public functions.

The program is not edited.  `install` replaces each traced function by a
wrapper at the name its caller looks it up under, and `Patches.restore` puts
the originals back.  A hook whose target no longer exists is skipped and
listed in `Tracer.missing`, so the benchmark keeps running when a layer is
refactored away; its metrics then read 0.

Spans are kept in memory as (name, start, end, parent) and aggregated per
name into total time and self time (the duration minus the time covered by
child spans).  Counters are plain integers.
"""

from __future__ import annotations

import json
import math
import os
import weakref
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent span index or -1), filled when the span ends.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self._stack: List[list] = []  # [span index, name, start, child time]
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.missing: List[str] = []

    def begin(self, name: str) -> None:
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, name, perf_counter(), 0.0])

    def end(self) -> float:
        end = perf_counter()
        index, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = (name, start, end, parent[0] if parent else -1)
        if parent is not None:
            parent[3] += duration
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        return duration

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.tracer.missing.append("%s.%s" % (getattr(owner, "__name__", owner), attr))
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _span_wrapper(tracer: Tracer, name: str,
                  after: Optional[Callable] = None) -> Callable[[Callable], Callable]:
    """Wrap a function in a span; `after(result, args, duration)` adds counts."""

    def make(fn):
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.end()
            if after is not None:
                after(result, args, duration)
            return result
        return wrapper
    return make


def install(tracer: Tracer) -> Patches:
    """Patch tccode's layers.  Call after `tccode.cli` has been imported."""
    from tccode import cli, dictionary, qtypes, rates

    patches = Patches(tracer)
    counts = tracer.counts
    span = _span_wrapper

    # qtypes: a row call on a (counter, ell) pair not seen before is a miss,
    # i.e. one class-size row counted; only misses get a span, so lookups stay
    # in the caller's self time.
    seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def make_row(fn):
        def row(self, ell, *args, **kwargs):
            done = seen.setdefault(self, set())
            if ell in done:
                counts["qtypes.row.hits"] += 1
                return fn(self, ell, *args, **kwargs)
            tracer.begin("qtypes.row")
            try:
                result = fn(self, ell, *args, **kwargs)
            finally:
                tracer.end()
            done.add(ell)
            counts["qtypes.row.misses"] += 1
            k = self.model.alphabet_size
            counts["qtypes.row.compositions"] += math.comb(ell + k - 1, k - 1)
            return result
        return row

    def make_cell_of(fn):
        def cell_of(*args, **kwargs):
            counts["qtypes.cell_of.calls"] += 1
            return fn(*args, **kwargs)
        return cell_of

    patches.wrap(qtypes.TypeCounter, "row", make_row)
    patches.wrap(qtypes, "cell_of", make_cell_of)

    # dictionary: choose_gamma_profile looks tc_leaf_profile up as a module
    # global; cli reaches the rest through the module (`_dict.<name>`).
    def make_leaf_profile(fn):
        def tc_leaf_profile(*args, **kwargs):
            counts["dictionary.tc_leaf_profile.attempts"] += 1
            tracer.begin("dictionary.tc_leaf_profile")
            try:
                profile = fn(*args, **kwargs)
            finally:
                tracer.end()
            counts["dictionary.tc_leaf_profile.feasible"] += 1
            counts["dictionary.tc_leaf_profile.leaf_classes"] += len(
                getattr(profile, "leaf_classes", ()))
            return profile
        return tc_leaf_profile

    def after_save(result, args, duration):
        path = args[1] if len(args) > 1 else None
        if path is not None and os.path.exists(path):
            counts["dictionary.file_bytes"] += os.path.getsize(path)

    def after_parse(result, args, duration):
        tracer.durations["dictionary.parse_one"].append(duration)
        counts["dictionary.parse.letters"] += int(getattr(result, "length", 0))

    patches.wrap(dictionary, "tc_leaf_profile", make_leaf_profile)
    patches.wrap(dictionary, "choose_gamma_profile",
                 span(tracer, "dictionary.choose_gamma_profile"))
    patches.wrap(dictionary, "build_tc_dictionary",
                 span(tracer, "dictionary.build_tc_dictionary"))
    patches.wrap(dictionary, "save_dictionary",
                 span(tracer, "dictionary.save_dictionary", after_save))
    patches.wrap(dictionary, "load_dictionary",
                 span(tracer, "dictionary.load_dictionary"))
    patches.wrap(dictionary.Dictionary, "parse_one",
                 span(tracer, "dictionary.parse_one", after_parse))

    # rates: cli calls these as `_rates.<name>`.
    def after_mc(result, args, duration):
        counts["rates.mc.samples"] += int(getattr(result, "n_samples", 0) or 0)

    patches.wrap(rates, "mc_rate_distribution",
                 span(tracer, "rates.mc_rate_distribution", after_mc))
    patches.wrap(rates, "exact_rate_distribution",
                 span(tracer, "rates.exact_rate_distribution"))
    patches.wrap(rates, "profile_rate_distribution",
                 span(tracer, "rates.profile_rate_distribution"))

    # converse: cli imports these by name, so they are patched in cli.
    def after_check(result, args, duration):
        counts["converse.check_event_equivalence.words_checked"] += int(
            getattr(result, "checked", 0))

    patches.wrap(cli, "check_event_equivalence",
                 span(tracer, "converse.check_event_equivalence", after_check))
    patches.wrap(cli, "vf_short_mass", span(tracer, "converse.vf_short_mass"))
    patches.wrap(cli, "fv_overflow_mass", span(tracer, "converse.fv_overflow_mass"))
    return patches


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics from one traced pass; 0 where a layer did not run."""
    c, self_s = tracer.counts, tracer.self_s
    parse = tracer.durations["dictionary.parse_one"]
    row_calls = c["qtypes.row.hits"] + c["qtypes.row.misses"]
    attempts = c["dictionary.tc_leaf_profile.attempts"]
    return {
        "qtypes.row.self_s": self_s["qtypes.row"],
        "qtypes.row.rows_counted": c["qtypes.row.misses"],
        "qtypes.row.compositions": c["qtypes.row.compositions"],
        "qtypes.row.hit_ratio": _ratio(c["qtypes.row.hits"], row_calls),
        "qtypes.cell_of.calls": c["qtypes.cell_of.calls"],
        "dictionary.tc_leaf_profile.self_s": self_s["dictionary.tc_leaf_profile"],
        "dictionary.tc_leaf_profile.leaf_classes":
            c["dictionary.tc_leaf_profile.leaf_classes"],
        "dictionary.choose_gamma_profile.steps": attempts,
        "dictionary.choose_gamma_profile.feasible_ratio":
            _ratio(c["dictionary.tc_leaf_profile.feasible"], attempts),
        "dictionary.build_tc_dictionary.self_s":
            self_s["dictionary.build_tc_dictionary"],
        "dictionary.save_dictionary.self_s": self_s["dictionary.save_dictionary"],
        "dictionary.load_dictionary.self_s": self_s["dictionary.load_dictionary"],
        "dictionary.file_bytes": c["dictionary.file_bytes"],
        "dictionary.parse_one.calls": len(parse),
        "dictionary.parse_one.p50_us": 1e6 * _quantile(parse, 0.50),
        "dictionary.parse_one.p99_us": 1e6 * _quantile(parse, 0.99),
        "dictionary.parse.letters_per_s": _ratio(
            c["dictionary.parse.letters"], tracer.total_s["dictionary.parse_one"]),
        "rates.mc_rate_distribution.self_s": self_s["rates.mc_rate_distribution"],
        "rates.mc.samples_per_s": _ratio(
            c["rates.mc.samples"], tracer.total_s["rates.mc_rate_distribution"]),
        "rates.exact_rate_distribution.self_s":
            self_s["rates.exact_rate_distribution"],
        "rates.profile_rate_distribution.self_s":
            self_s["rates.profile_rate_distribution"],
        "converse.check_event_equivalence.self_s":
            self_s["converse.check_event_equivalence"],
        "converse.check_event_equivalence.words_checked":
            c["converse.check_event_equivalence.words_checked"],
        "converse.vf_short_mass.self_s": self_s["converse.vf_short_mass"],
        "converse.fv_overflow_mass.self_s": self_s["converse.fv_overflow_mass"],
        "cli.self_s": self_s["cli"],
    }
