"""Correctness checks on the outputs of tccode CLI calls.

Each check raises CheckError with a one-line reason.  References are stored
in `refs/` beside this file and were produced by the same CLI calls on the
commit that added the benchmark.  Only result-bearing fields are compared, so
outputs may gain fields (for example a `timings` block) without failing.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import List, Sequence

REFS = Path(__file__).resolve().parent / "refs"

SWEEP_KEY = ("model_id", "theta", "M", "eps")
SWEEP_FIELDS = ("gamma", "dict_size", "exact_rate", "residual", "residual_scaled")
STATS_FIELDS = ("gamma", "size", "max_length", "length_histogram",
                "monotone_mismatches")
EVALUATE_FIELDS = ("rate", "attained")


class CheckError(Exception):
    pass


def load_ref(name: str) -> str:
    return (REFS / name).read_text(encoding="utf-8")


def check_sweep(csv_text: str, ref_text: str) -> None:
    """Rows in the reference order, each field in SWEEP_FIELDS equal as text."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    ref = list(csv.DictReader(io.StringIO(ref_text)))
    keys = [tuple(r.get(k) for k in SWEEP_KEY) for r in rows]
    ref_keys = [tuple(r[k] for k in SWEEP_KEY) for r in ref]
    if keys != ref_keys:
        raise CheckError("sweep rows %r differ from reference rows %r"
                         % (keys[:3], ref_keys[:3]))
    for row, want in zip(rows, ref):
        for field in SWEEP_FIELDS:
            if row.get(field) != want[field]:
                raise CheckError("sweep row %s: %s=%r, reference %r" % (
                    ",".join(str(row.get(k)) for k in SWEEP_KEY), field,
                    row.get(field), want[field]))


def check_build_stats(stats_text: str, ref_text: str) -> dict:
    """The build-dict stats JSON agrees with the reference on STATS_FIELDS."""
    stats = json.loads(stats_text)
    ref = json.loads(ref_text)
    for field in STATS_FIELDS:
        if stats.get(field) != ref[field]:
            raise CheckError("build-dict %s=%r, reference %r"
                             % (field, stats.get(field), ref[field]))
    return stats


def check_round_trip(letters: Sequence[int], decoded_text: str,
                     max_length: int) -> int:
    """Decoded letters equal the consumed prefix of the input.

    Returns the number of input letters that encode dropped at the end.  Only
    a tail that cannot hold a whole segment may be dropped.
    """
    decoded = [int(v) for v in decoded_text.split()]
    if not decoded or len(decoded) > len(letters):
        raise CheckError("decode produced %d letters from %d"
                         % (len(decoded), len(letters)))
    if list(letters[:len(decoded)]) != decoded:
        at = next(i for i, (a, b) in enumerate(zip(letters, decoded)) if a != b)
        raise CheckError("decoded letters differ from the input at position %d" % at)
    tail = len(letters) - len(decoded)
    if tail >= max_length:
        raise CheckError("encode dropped %d letters, at least a whole segment"
                         " (longest segment %d)" % (tail, max_length))
    return tail


def _results(report_text: str) -> List[dict]:
    results = json.loads(report_text)["results"]
    if not results:
        raise CheckError("evaluate reported no results")
    return results


def _key(row: dict):
    return tuple(row["theta"]), row["eps"]


def check_evaluate(report_text: str, ref_text: str) -> None:
    """Exact evaluate: same (theta, eps) rows, each EVALUATE_FIELDS equal."""
    rows, ref = _results(report_text), _results(ref_text)
    if [_key(r) for r in rows] != [_key(r) for r in ref]:
        raise CheckError("evaluate rows %r differ from reference %r"
                         % ([_key(r) for r in rows], [_key(r) for r in ref]))
    for row, want in zip(rows, ref):
        for field in EVALUATE_FIELDS:
            if row.get(field) != want[field]:
                raise CheckError("evaluate %r: %s=%r, reference %r"
                                 % (_key(row), field, row.get(field), want[field]))


def check_mc_within_ci(mc_text: str, exact_text: str) -> None:
    """Each Monte-Carlo rate lies within its reported CI of the exact rate."""
    exact = {_key(r): r["rate"] for r in _results(exact_text)}
    for row in _results(mc_text):
        if row.get("mode") != "mc":
            raise CheckError("evaluate --mc reported mode %r" % row.get("mode"))
        want = exact.get(_key(row))
        if want is None:
            raise CheckError("no exact rate for %r" % (_key(row),))
        half = row.get("ci_halfwidth") or 0.0
        if abs(row["rate"] - want) > half + 1e-12:
            raise CheckError("mc rate %r at %r is not within %r of the exact rate %r"
                             % (row["rate"], _key(row), half, want))


def check_converse(report_text: str) -> int:
    """converse-check passed; returns the number of words checked."""
    report = json.loads(report_text)
    if report.get("passed") is not True or not report.get("reports"):
        raise CheckError("converse-check did not pass")
    return sum(int(r["checked"]) for r in report["reports"])
