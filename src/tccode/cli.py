"""Command-line front end: build, encode/decode, evaluate, sweep, check.

Every subcommand accepts --config pointing at a JSON file; explicit flags
override config fields, so a sweep is reproducible from its config artifact
while one-off runs need no file at all.  All randomness flows from the master
seed, and sweep rows are emitted in sorted (theta, M, eps) order so identical
configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import dictionary as _dict
from . import models as _models
from . import qtypes as _qtypes
from . import rates as _rates
from .converse import check_event_equivalence, fv_overflow_mass, vf_short_mass, vf_to_fv
from .models import entropy_varentropy

log = logging.getLogger("tccode")


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# Argument plumbing.

def _parse_int_list(text: str) -> List[int]:
    return [int(v) for v in str(text).replace(",", " ").split()]


def _parse_float_list(text: str) -> List[float]:
    return [float(v) for v in str(text).replace(",", " ").split()]


def _parse_theta_list(text, stat_dim: int) -> List[Tuple[float, ...]]:
    """Semicolon-separated parameter vectors, comma-separated coordinates."""
    if isinstance(text, (list, tuple)):
        out = []
        for item in text:
            vec = tuple(float(v) for v in np.atleast_1d(item))
            out.append(vec)
    else:
        out = []
        for chunk in str(text).split(";"):
            chunk = chunk.strip()
            if chunk:
                out.append(tuple(float(v) for v in chunk.replace(",", " ").split()))
    for vec in out:
        if len(vec) != stat_dim:
            raise CliError("theta %r must have dimension %d" % (vec, stat_dim))
    if not out:
        raise CliError("at least one theta is required")
    return out


def _thetas(args, model) -> List[Tuple[float, ...]]:
    """--theta parsed against the model; its zero vector when absent."""
    if args.theta is None:
        return [(0.0,) * model.stat_dim]
    return _parse_theta_list(args.theta, model.stat_dim)


def _resolve_model(value: Optional[str]):
    value = value or "bernoulli"
    if value in _models.BUILTIN_MODELS:
        return _models.get_model(value)
    if os.path.exists(value):
        return _models.load_model(value)
    raise CliError("unknown model %r (builtin: %s, or a JSON file path)"
                   % (value, sorted(_models.BUILTIN_MODELS)))


def _resolve_grid(args, model) -> _qtypes.Grid:
    if getattr(args, "W", None) is None and getattr(args, "origin", None) is None:
        return _qtypes.construction_grid()
    side = Fraction(args.W) if args.W is not None else Fraction(5, 2)
    if args.origin is not None:
        origin = tuple(Fraction(v) for v in str(args.origin).split(","))
    else:
        origin = (Fraction(-1, 3),)
    return _qtypes.Grid(side=side, origin=origin)


# Setting any flag of a mutually exclusive group on the command line keeps the
# config from setting the others.
_EXCLUSIVE_FLAGS = (("exact", "mc"), ("formula", "iterative"))


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the JSON config file, if one was given."""
    path = getattr(args, "config", None)
    if not path:
        return args
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise CliError("config must be a JSON object")
    explicit = {attr for attr, value in vars(args).items() if value is not None}
    for group in _EXCLUSIVE_FLAGS:
        if explicit.intersection(group):
            explicit.update(group)
    for key, value in config.items():
        attr = key.replace("-", "_")
        if attr not in explicit:
            setattr(args, attr, value)
    return args


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_build_dict(args) -> int:
    model = _resolve_model(args.model)
    grid = _resolve_grid(args, model)
    m_values = _parse_int_list(args.M) if args.M is not None else None
    if not m_values or len(m_values) != 1:
        raise CliError("build-dict needs exactly one --M value")
    m = m_values[0]
    gamma, dictionary = _dict.choose_gamma(model, grid, m)
    if args.out:
        _dict.save_dictionary(dictionary, args.out)
    hist = dictionary.segment_length_histogram()
    stats = {
        "kind": "tc",
        "model": model.name,
        "M": m,
        "gamma": gamma,
        "gamma_reference": _dict.gamma_reference(m, model.stat_dim),
        "size": dictionary.size,
        "codeword_width": dictionary.codeword_width,
        "max_length": dictionary.max_segment_length(),
        "max_length_over_gamma": (dictionary.max_segment_length() / gamma
                                  if gamma > 0 else None),
        "monotone_mismatches": dictionary.monotone_mismatches,
        "length_histogram": {str(k): v for k, v in hist.items()},
        "out": args.out,
    }
    stats_path = (args.out + ".stats.json") if args.out else None
    _emit(stats, stats_path)
    return 0


def cmd_tunstall(args) -> int:
    model = _resolve_model(args.model)
    thetas = _thetas(args, model)
    m_values = _parse_int_list(args.M) if args.M is not None else None
    if not m_values or len(m_values) != 1:
        raise CliError("tunstall needs exactly one --M value")
    dictionary = _dict.build_tunstall(model, thetas[0], m_values[0])
    if args.out:
        _dict.save_dictionary(dictionary, args.out)
    _emit({
        "kind": "tunstall",
        "model": model.name,
        "M": m_values[0],
        "theta": list(thetas[0]),
        "size": dictionary.size,
        "codeword_width": dictionary.codeword_width,
        "expected_length": dictionary.expected_length(thetas[0]),
        "max_length": dictionary.max_segment_length(),
        "out": args.out,
    }, None)
    return 0


def _read_letters(path: Optional[str]) -> List[int]:
    fh = open(path, "r", encoding="utf-8") if path else sys.stdin
    try:
        return [int(v) for v in fh.read().split()]
    finally:
        if path:
            fh.close()


def cmd_encode(args) -> int:
    if not args.dict:
        raise CliError("encode needs --dict")
    dictionary = _dict.load_dictionary(args.dict)
    letters = _read_letters(args.input)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        pos = 0
        emitted = 0
        while pos < len(letters):
            try:
                result = dictionary.parse_one(iter(letters[pos:]))
            except _dict.DictionaryError:
                log.warning("trailing %d letters do not complete a segment",
                            len(letters) - pos)
                break
            out.write(result.codeword + "\n")
            pos += result.length
            emitted += 1
        log.info("encoded %d segments (%d letters consumed)", emitted, pos)
    finally:
        if args.out:
            out.close()
    return 0


def cmd_decode(args) -> int:
    if not args.dict:
        raise CliError("decode needs --dict")
    dictionary = _dict.load_dictionary(args.dict)
    fh = open(args.input, "r", encoding="utf-8") if args.input else sys.stdin
    try:
        words = [line.strip() for line in fh if line.strip()]
    finally:
        if args.input:
            fh.close()
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for word in words:
            if len(word) != dictionary.codeword_width or set(word) - {"0", "1"}:
                raise CliError("codeword %r is not %d bits"
                               % (word, dictionary.codeword_width))
            segment = dictionary.decode(int(word, 2))
            out.write(" ".join(str(x) for x in segment) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def cmd_evaluate(args) -> int:
    dictionary = _dict.load_dictionary(args.dict) if args.dict else None
    model = dictionary.model if dictionary is not None else _resolve_model(args.model)
    thetas = _thetas(args, model)
    eps_values = _parse_float_list(args.eps) if args.eps is not None else [0.1]
    seed = int(args.seed or 0)
    trials = int(args.trials or 10000)
    mode = "mc" if args.mc else "exact"
    pred_mode = "iterative" if args.iterative else "formula"

    if dictionary is not None:
        m = dictionary.m_target
    else:
        m_values = _parse_int_list(args.M) if args.M is not None else None
        if not m_values or len(m_values) != 1:
            raise CliError("evaluate needs --dict or exactly one --M value")
        m = m_values[0]
        grid = _resolve_grid(args, model)
        if mode == "mc":
            _, dictionary = _dict.choose_gamma(model, grid, m)
        else:
            _, profile = _dict.choose_gamma_profile(model, grid, m)

    def distribution(theta):
        if mode == "mc":
            return _rates.mc_rate_distribution(
                dictionary, theta, trials, _rates.task_seed(seed, "evaluate", theta))
        if dictionary is not None:
            return _rates.exact_rate_distribution(dictionary, theta)
        return _rates.profile_rate_distribution(profile, model, theta, m)

    rows = []
    for theta in thetas:
        dist = distribution(theta)
        entropy, var = entropy_varentropy(model, theta)
        for eps in eps_values:
            est = _rates.eps_coding_rate(dist, eps)
            pred = _rates.predicted_rate(entropy, math.sqrt(var), model.stat_dim,
                                         m, eps, mode=pred_mode)
            rows.append({
                "theta": list(theta),
                "eps": eps,
                "M": m,
                "mode": est.mode,
                "rate": est.rate,
                "attained": est.attained,
                "ci_halfwidth": est.ci_halfwidth,
                "predicted": (pred.iterative_rate if pred_mode == "iterative"
                              else pred.total),
                "predicted_terms": [pred.first, pred.second, pred.third],
            })
    _emit({"model": model.name, "results": rows}, args.out)
    return 0


def cmd_sweep(args) -> int:
    model = _resolve_model(args.model)
    grid = _resolve_grid(args, model)
    thetas = _thetas(args, model)
    m_values = _parse_int_list(args.M) if args.M is not None else None
    eps_values = _parse_float_list(args.eps) if args.eps is not None else None
    if not m_values or not eps_values:
        raise CliError("sweep needs --M and --eps lists")
    seed = int(args.seed or 0)
    trials = int(args.trials) if args.trials else 0
    out = args.out
    if not out:
        raise CliError("sweep needs --out for its CSV")

    done = set()
    if os.path.exists(out):
        with open(out, "r", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                done.add((row["theta"], int(row["M"]), float(row["eps"])))
        log.info("resuming sweep: %d rows already present", len(done))

    write_header = not os.path.exists(out) or os.path.getsize(out) == 0
    counter = _qtypes.TypeCounter(model, grid)
    with open(out, "a", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_rates.SWEEP_COLUMNS)
        if write_header:
            writer.writeheader()
            fh.flush()
        for m in sorted(m_values):
            wanted = [
                (theta, eps)
                for theta in sorted(thetas)
                for eps in sorted(eps_values)
                if (",".join("%.12g" % t for t in theta), m, eps) not in done
            ]
            if not wanted:
                continue
            gamma, profile = _dict.choose_gamma_profile(model, grid, m,
                                                        counter=counter)
            mc_dict = None
            if trials:
                mc_dict = _dict.build_tc_dictionary(model, grid, gamma,
                                                    leaf_cap=m, m_target=m,
                                                    counter=counter)
            for theta, eps in wanted:
                row = _rates.sweep_row(model, theta, m, eps, gamma, profile)
                if mc_dict is not None:
                    mc_est = _rates.eps_coding_rate(
                        _rates.mc_rate_distribution(
                            mc_dict, theta, trials,
                            _rates.task_seed(seed, theta, m, eps)), eps)
                    row["mc_rate"], row["ci"] = mc_est.rate, mc_est.ci_halfwidth or 0.0
                # Computed floats print as %.12g; eps is echoed as given.
                writer.writerow({key: "%.12g" % value
                                 if isinstance(value, float) and key != "eps" else value
                                 for key, value in row.items()})
                fh.flush()
    return 0


def cmd_converse_check(args) -> int:
    if not args.dict:
        raise CliError("converse-check needs --dict")
    dictionary = _dict.load_dictionary(args.dict)
    n_values = _parse_int_list(args.n) if args.n is not None else None
    if not n_values:
        raise CliError("converse-check needs --n")
    thetas = _thetas(args, dictionary.model)
    reports = []
    ok = True
    for n in sorted(n_values):
        report = check_event_equivalence(dictionary, n, seed=int(args.seed or 0))
        code = vf_to_fv(dictionary, n)
        mass_rows = []
        for theta in thetas:
            short = vf_short_mass(dictionary, theta, n)
            overflow = fv_overflow_mass(code, theta)
            mass_rows.append({
                "theta": list(theta),
                "vf_short_mass": short,
                "fv_overflow_mass": overflow,
                "gap": abs(short - overflow),
            })
        mass_ok = all(r["gap"] <= 1e-9 for r in mass_rows)
        ok = ok and report.passed and mass_ok
        reports.append({
            "n": n,
            "base_width": report.base_width,
            "checked": report.checked,
            "exhaustive": report.exhaustive,
            "event_equivalence": report.passed,
            "counterexamples": [
                {"word": list(w), "vf_short": a, "fv_overflow": b}
                for w, a, b in report.counterexamples[:20]
            ],
            "mass_identity": mass_rows,
        })
    _emit({"dict": args.dict, "passed": ok, "reports": reports}, args.out)
    return 0 if ok else 1


def cmd_normality(args) -> int:
    model = _resolve_model(args.model)
    thetas = _thetas(args, model)
    ell_values = _parse_int_list(args.n) if args.n is not None else [16, 64, 256]
    rows = []
    for theta in thetas:
        for ell in sorted(ell_values):
            dev = _rates.normality_deviation(model, theta, ell,
                                             seed=int(args.seed or 0))
            rows.append({"theta": list(theta), "ell": ell,
                         "deviation": dev, "scaled": dev * math.sqrt(ell)})
    _emit({"model": model.name, "results": rows}, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser.

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file supplying defaults for any flag")
    p.add_argument("--model", help="builtin model name or model JSON path")
    p.add_argument("--W", help="grid side as a rational, e.g. 5/2")
    p.add_argument("--origin", help="grid origin, comma-separated rationals")
    p.add_argument("--M", help="dictionary size target(s), comma-separated")
    p.add_argument("--eps", help="overflow level(s), comma-separated")
    p.add_argument("--theta", help="parameter vectors 'a,b;c,d' (';' separates)")
    p.add_argument("--trials", type=int, help="Monte-Carlo sample count")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--out", help="output path")
    p.add_argument("--dict", help="dictionary file path")
    p.add_argument("--input", help="input letters/codewords file (default stdin)")
    p.add_argument("--n", help="length list (converse-check, normality)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="exact distributions")
    mode.add_argument("--mc", action="store_true", help="Monte-Carlo distributions")
    pred = p.add_mutually_exclusive_group()
    pred.add_argument("--formula", action="store_true",
                      help="closed-form three-term prediction")
    pred.add_argument("--iterative", action="store_true",
                      help="self-consistent fixed-point prediction")
    # Unset boolean flags read None, not False, so a config can set them.
    p.set_defaults(**{flag: None for group in _EXCLUSIVE_FLAGS for flag in group})


_COMMANDS = {
    "build-dict": cmd_build_dict,
    "encode": cmd_encode,
    "decode": cmd_decode,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "tunstall": cmd_tunstall,
    "converse-check": cmd_converse_check,
    "normality": cmd_normality,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tccode",
        description="Universal variable-to-fixed length coding toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_common(sub.add_parser(name))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(
        level=os.environ.get("TCCODE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        return _COMMANDS[args.command](args)
    except (CliError, _models.ModelError, _models.MLEError,
            _dict.DictionaryError, _dict.DepthCapExceeded,
            _qtypes.CountingCapError, OSError, ValueError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
