"""Command-line front end: build, encode/decode, evaluate, sweep, check.

Each subcommand takes only the flags it reads, plus --config pointing at a
JSON file whose keys are those flags; explicit flags override config fields,
so a sweep is reproducible from its config artifact while one-off runs need
no file at all.  All randomness flows from the master seed, and sweep rows
are emitted in sorted (theta, M, eps) order so identical configs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import logging
import math
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import dictionary as _dict
from . import models as _models
from . import qtypes as _qtypes
from .converse import (check_event_equivalence, fv_overflow_classes,
                       fv_overflow_mass, vf_short_classes, vf_short_mass)
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


def _parse_eps_list(text: str) -> List[float]:
    """Overflow levels, each strictly inside (0, 1)."""
    values = _parse_float_list(text)
    for eps in values:
        if not 0.0 < eps < 1.0:
            raise CliError("--eps %r must lie strictly inside (0, 1)" % eps)
    return values


def _parse_theta_list(text, stat_dim: int) -> List[Tuple[float, ...]]:
    """Semicolon-separated parameter vectors, comma-separated coordinates."""
    out = []
    for chunk in str(text).split(";"):
        chunk = chunk.strip()
        if chunk:
            out.append(tuple(float(v) for v in chunk.replace(",", " ").split()))
    for vec in out:
        if len(vec) != stat_dim:
            raise CliError("theta %r must have dimension %d" % (vec, stat_dim))
        if not all(map(math.isfinite, vec)):
            raise CliError("theta %r must be finite" % (vec,))
    if not out:
        raise CliError("at least one theta is required")
    return out


def _thetas(args, model) -> List[Tuple[float, ...]]:
    """--theta parsed against the model, or its zero vector when absent;
    each must lie inside the model's box, edges included."""
    if args.theta is None:
        thetas = [(0.0,) * model.stat_dim]
    else:
        thetas = _parse_theta_list(args.theta, model.stat_dim)
    for theta in thetas:
        if not all(lo <= t <= hi for t, (lo, hi) in zip(theta, model.theta_box)):
            raise CliError("theta %s lies outside the box %s of model %s"
                           % (list(theta), [list(edge) for edge in model.theta_box],
                              model.name))
    return thetas


def _resolve_model(value: Optional[str]):
    value = value or "bernoulli"
    if value in _models.BUILTIN_MODELS:
        return _models.get_model(value)
    if os.path.exists(value):
        return _models.load_model(value)
    raise CliError("unknown model %r (builtin: %s, or a JSON file path)"
                   % (value, sorted(_models.BUILTIN_MODELS)))


def _parse_rational(flag: str, value) -> Fraction:
    """A rational flag value such as 5/2; a malformed one, or one with a zero
    denominator, is a usage error naming the flag."""
    try:
        return Fraction(value)
    except (ArithmeticError, ValueError) as exc:
        raise CliError("--%s %r is not a rational: %s" % (flag, value, exc))


def _resolve_grid(args, model) -> _qtypes.Grid:
    """The construction grid, with --W and --origin replacing its side and
    origin when given."""
    grid = _qtypes.construction_grid()
    side = _parse_rational("W", args.W) if args.W is not None else grid.side
    if args.origin is not None:
        origin = tuple(_parse_rational("origin", v)
                       for v in str(args.origin).split(","))
    else:
        origin = grid.origin
    return _qtypes.Grid(side=side, origin=origin)


def _one_m(command: str, text) -> int:
    """The single M in the --M text of command, which builds one
    dictionary."""
    m_values = _parse_int_list(text) if text is not None else []
    if len(m_values) != 1:
        raise CliError("%s needs exactly one --M value" % command)
    return m_values[0]


# The least M the rate prediction covers.
RATE_MIN_M = 4


def _check_m(m: int, model, least: int, source: str = "--M") -> None:
    """Refuse an M below least, one that no dictionary reaches (below the
    alphabet size) or one that class sizes cannot decide (at the cap);
    source names where M came from."""
    least = max(least, model.alphabet_size)
    if not least <= m < _qtypes.SIZE_CAP:
        raise CliError("%s %d must satisfy M >= %d and M < the class-size cap %d"
                       % (source, m, least, _qtypes.SIZE_CAP))


def _config_value(key: str, value):
    """A config value as its flag reads it: true or false for a boolean flag,
    else a string or number passed through the flag's type as its
    command-line text would be."""
    options = _FLAGS[key.replace("-", "_")]
    boolean = options.get("action") == "store_true"
    try:
        if isinstance(value, bool) != boolean or not isinstance(value, (str, int, float)):
            raise ValueError
        return value if boolean else options.get("type", str)(
            value if isinstance(value, str) else json.dumps(value))
    except ValueError:
        raise CliError("config key %r cannot take %s, a value its flag would "
                       "refuse" % (key, json.dumps(value)))


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the JSON config file, if one was given.  Its
    keys are the command's flag names, with '-' read as '_', and its values
    read as _config_value reads them; any other key or value is an error.
    Setting one flag of a mutually exclusive pair on the command line keeps
    the config from setting the other."""
    path = getattr(args, "config", None)
    if not path:
        return args
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise CliError("config must be a JSON object")
    flags = set(vars(args)) - {"command", "config"}
    values = {}
    for key, value in config.items():
        if key.replace("-", "_") not in flags:
            raise CliError("config key %r names no flag of %s" % (key, args.command))
        values[key.replace("-", "_")] = _config_value(key, value)
    explicit = {attr for attr, value in vars(args).items() if value is not None}
    for word in _COMMANDS[args.command][1].split():
        group = word.split("|")
        if explicit.intersection(group):
            explicit.update(group)
    for attr, value in values.items():
        if attr not in explicit:
            setattr(args, attr, value)
    return args


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        _models.write_text(out, text)
    sys.stdout.write(text)


def _write_out(text: str, out: Optional[str]) -> None:
    """Write text to the file out, or to stdout if out is not given."""
    if out:
        _models.write_text(out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_build_dict(args) -> int:
    model = _resolve_model(args.model)
    grid = _resolve_grid(args, model)
    m = _one_m("build-dict", args.M)
    _check_m(m, model, 0)
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
    if len(thetas) != 1:
        raise CliError("tunstall needs exactly one --theta value")
    m = _one_m("tunstall", args.M)
    _check_m(m, model, 0)
    dictionary = _dict.build_tunstall(model, thetas[0], m)
    if args.out:
        _dict.save_dictionary(dictionary, args.out)
    _emit({
        "kind": "tunstall",
        "model": model.name,
        "M": m,
        "theta": list(thetas[0]),
        "size": dictionary.size,
        "codeword_width": dictionary.codeword_width,
        "expected_length": dictionary.expected_length(thetas[0]),
        "max_length": dictionary.max_segment_length(),
        "out": args.out,
    }, None)
    return 0


def _read_input(path: Optional[str]) -> str:
    """The text of --input: the file at path, or stdin without one."""
    if not path:
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_encode(args) -> int:
    if not args.dict:
        raise CliError("encode needs --dict")
    dictionary = _dict.load_dictionary(args.dict)
    tokens = _read_input(args.input).split()
    # Each distinct token is read as an integer once, in first-occurrence
    # order, so the first that is none, in file order, raises before any
    # letter is parsed; each distinct index is formatted once.
    letters = dict.fromkeys(tokens)
    for token in letters:
        letters[token] = int(token)
    indices, covered = dictionary.parse(map(letters.__getitem__, tokens))
    if covered < len(tokens):
        log.warning("trailing %d letters do not complete a segment",
                    len(tokens) - covered)
    log.info("encoded %d segments (%d letters consumed)", len(indices), covered)
    fmt = "0%db" % dictionary.codeword_width
    lines = dict.fromkeys(indices)
    for index in lines:
        lines[index] = format(index, fmt) + "\n"
    _write_out("".join(map(lines.__getitem__, indices)), args.out)
    return 0


def cmd_decode(args) -> int:
    if not args.dict:
        raise CliError("decode needs --dict")
    dictionary = _dict.load_dictionary(args.dict)
    lines = _read_input(args.input).split("\n")
    width = dictionary.codeword_width
    # Each distinct line is checked and converted once, and then each
    # distinct index unranked once, both in first-occurrence order: the
    # first malformed codeword in file order raises, else the first index
    # out of range raises DictionaryError.  A blank line decodes to nothing.
    indices = dict.fromkeys(lines)
    for line in indices:
        word = line.strip()
        if word and (len(word) != width or word.strip("01")):
            raise CliError("codeword %r is not %d bits" % (word, width))
        indices[line] = int(word, 2) if word else None
    names = tuple(map(str, range(dictionary.model.alphabet_size)))
    segments = {None: ""}
    for index in indices.values():
        if index not in segments:
            segments[index] = " ".join(
                map(names.__getitem__, dictionary.decode(index))) + "\n"
    text = {line: segments[index] for line, index in indices.items()}
    _write_out("".join(map(text.__getitem__, lines)), args.out)
    return 0


def cmd_evaluate(args) -> int:
    from . import rates as _rates

    if args.dict:
        for flag in ("M", "W", "origin"):
            if getattr(args, flag) is not None:
                raise CliError("evaluate --dict takes M, W and origin from the "
                               "dictionary file; drop --%s" % flag)
        dictionary = _dict.load_dictionary(args.dict)
        model = dictionary.model
        if args.model is not None and _resolve_model(args.model) != model:
            raise CliError("--model %s is not the model %s of --dict %s"
                           % (args.model, model.name, args.dict))
        _check_m(dictionary.m_target, model, RATE_MIN_M,
                 "--dict %s: its M" % args.dict)
    else:
        dictionary = None
        model = _resolve_model(args.model)
    thetas = _thetas(args, model)
    eps_values = _parse_eps_list(args.eps) if args.eps is not None else [0.1]
    seed = int(args.seed or 0)
    trials = 10000 if args.trials is None else int(args.trials)
    mode = "mc" if args.mc else "exact"
    pred_mode = "iterative" if args.iterative else "formula"
    if mode == "mc" and trials < 1:
        raise CliError("--trials must be positive, got %d" % trials)
    if dictionary is None:
        m = _one_m("evaluate", args.M)
        _check_m(m, model, RATE_MIN_M)
        _, dictionary = _dict.choose_gamma(model, _resolve_grid(args, model), m)
    m = dictionary.m_target

    rows = []
    for theta in thetas:
        if mode == "mc":
            dist = _rates.mc_rate_distribution(
                dictionary, theta, trials, _rates.task_seed(seed, "evaluate", theta))
        else:
            dist = _rates.exact_rate_distribution(dictionary, theta)
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


SWEEP_COLUMNS = [
    "model_id", "theta", "M", "eps", "gamma", "dict_size", "exact_rate",
    "mc_rate", "ci", "predicted_first", "predicted_second", "predicted_third",
    "residual", "residual_scaled",
]


def _theta_key(theta) -> str:
    """A theta as the sweep CSV writes it, and as a resumed sweep reads it."""
    return ",".join("%.12g" % t for t in theta)


def _sweep_rows_done(path: str) -> set:
    """The (theta, M, eps) keys of the rows in a non-empty sweep CSV, which
    must start with the SWEEP_COLUMNS header, hold rows of that width and
    end with a line end, so that appended rows start on a line of their own."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    try:
        rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    except csv.Error as exc:
        raise CliError("--out %s is not a sweep CSV: %s" % (path, exc))
    if not rows or rows[0] != SWEEP_COLUMNS:
        raise CliError("--out %s is not a sweep CSV: its header is not %s"
                       % (path, ",".join(SWEEP_COLUMNS)))
    done = set()
    for number, row in enumerate(rows[1:], start=1):
        if len(row) != len(SWEEP_COLUMNS):
            raise CliError("--out %s: row %d has %d fields, not %d"
                           % (path, number, len(row), len(SWEEP_COLUMNS)))
        fields = dict(zip(SWEEP_COLUMNS, row))
        done.add((fields["theta"], int(fields["M"]), float(fields["eps"])))
    if not text.endswith(("\n", "\r")):
        raise CliError("--out %s does not end with a line end: a row appended "
                       "to it would be glued onto its last row" % path)
    return done


def cmd_sweep(args) -> int:
    """Append to --out one SWEEP_COLUMNS row per (theta, M, eps) key it does
    not hold yet, ordered by M, then theta, then eps.  A repeated key is
    swept once, a theta as first given.  residual subtracts all three predicted terms;
    residual_scaled is the model-cost view (rate minus the first two terms)
    times log2 M / log2 log2 M, whose limit is H d/2."""
    from . import rates as _rates

    model = _resolve_model(args.model)
    grid = _resolve_grid(args, model)
    keyed = {}
    for theta in _thetas(args, model):
        keyed.setdefault(_theta_key(theta), theta)
    # (key, theta) pairs in theta order; 0 and -0 are equal thetas but two keys.
    thetas = sorted(keyed.items(), key=lambda pair: pair[1])
    m_values = _parse_int_list(args.M) if args.M is not None else None
    eps_values = _parse_eps_list(args.eps) if args.eps is not None else None
    if not m_values or not eps_values:
        raise CliError("sweep needs --M and --eps lists")
    seed = int(args.seed or 0)
    trials = int(args.trials) if args.trials else 0
    if trials < 0:
        raise CliError("--trials must be nonnegative, got %d" % trials)
    for m in m_values:
        _check_m(m, model, RATE_MIN_M)
    out = args.out
    if not out:
        raise CliError("sweep needs --out for its CSV")
    m_values, eps_values = sorted(set(m_values)), sorted(set(eps_values))

    write_header = not os.path.exists(out) or os.path.getsize(out) == 0
    done = set()
    if not write_header:
        done = _sweep_rows_done(out)
        log.info("resuming sweep: %d rows already present", len(done))
    counter = _qtypes.TypeCounter(model, grid, cap=m_values[-1])
    with open(out, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if write_header:
            writer.writerow(SWEEP_COLUMNS)
            fh.flush()
        for m in m_values:
            wanted = [(key, theta, eps) for key, theta in thetas for eps in eps_values
                      if (key, m, eps) not in done]
            if not wanted:
                continue
            gamma, profile = _dict.choose_gamma_profile(model, grid, m,
                                                        counter=counter)
            mc_dict = None
            if trials:
                mc_dict = _dict.tc_dictionary(model, grid, profile, m_target=m)
            logm = math.log2(m)
            for (key, theta), group in itertools.groupby(wanted,
                                                         key=lambda row: row[:2]):
                dist = _rates.profile_rate_distribution(profile, model, theta, m)
                entropy, var = entropy_varentropy(model, theta)
                for _, _, eps in group:
                    rate = _rates.eps_coding_rate(dist, eps).rate
                    pred = _rates.predicted_rate(entropy, math.sqrt(var),
                                                 model.stat_dim, m, eps)
                    mc_rate = ci = ""
                    if mc_dict is not None:
                        est = _rates.eps_coding_rate(_rates.mc_rate_distribution(
                            mc_dict, theta, trials,
                            _rates.task_seed(seed, theta, m, eps)), eps)
                        mc_rate, ci = est.rate, est.ci_halfwidth
                    numbers = [
                        gamma, profile.leaf_count, rate, mc_rate, ci,
                        pred.first, pred.second, pred.third,
                        rate - pred.first - pred.second - pred.third,
                        (rate - pred.first - pred.second) * logm / math.log2(logm),
                    ]
                    # Computed floats print as %.12g; eps is echoed as given.
                    writer.writerow([model.name, key, m, eps] + [
                        "%.12g" % v if isinstance(v, float) else v for v in numbers])
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
    # The report prints k^n, the words checked, as a JSON integer; the float
    # test spares building k^n for an n far past the limit.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    k = dictionary.model.alphabet_size
    for n in n_values:
        if digits and (n * math.log10(k) > digits + 1 or k ** n >= 10 ** digits):
            raise CliError("--n %d: the %d^%d words checked have more than the %d "
                           "decimal digits Python prints" % (n, k, n, digits))
    reports = []
    ok = True
    for n in sorted(n_values):
        report = check_event_equivalence(dictionary, n)
        mass_rows = []
        for theta in thetas:
            short = vf_short_mass(dictionary, theta, n)
            overflow = fv_overflow_mass(report.code, theta)
            mass_rows.append({
                "theta": list(theta),
                "vf_short_mass": short,
                "fv_overflow_mass": overflow,
                "gap": abs(short - overflow),
            })
        # Equal class lists give equal masses at every theta; gap is printed.
        mass_ok = vf_short_classes(dictionary, n) == fv_overflow_classes(report.code)
        ok = ok and report.passed and mass_ok
        reports.append({
            "n": n,
            "base_width": report.base_width,
            "checked": report.checked,
            "exhaustive": True,
            "event_equivalence": report.passed,
            "counterexamples": [
                {"word": list(w), "vf_short": a, "fv_overflow": b}
                for w, a, b in report.counterexamples
            ],
            "mass_identity": mass_rows,
        })
    _emit({"dict": args.dict, "passed": ok, "reports": reports}, args.out)
    return 0 if ok else 1


def cmd_normality(args) -> int:
    from . import rates as _rates

    model = _resolve_model(args.model)
    thetas = _thetas(args, model)
    ell_values = _parse_int_list(args.n) if args.n is not None else [16, 64, 256]
    rows = []
    for theta in thetas:
        for ell in sorted(ell_values):
            dev = _rates.normality_deviation(model, theta, ell)
            rows.append({"theta": list(theta), "ell": ell,
                         "deviation": dev, "scaled": dev * math.sqrt(ell)})
    _emit({"model": model.name, "results": rows}, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser.

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors, too, exit 2 with one JSON line
        raise CliError("%s: %s" % (self.prog, message))


# Each flag's argparse options.  Unset booleans read None, not False, so a
# config can set them.
_FLAGS = {
    "model": dict(help="builtin model name or model JSON path"),
    "W": dict(help="grid side as a rational, e.g. 5/2"),
    "origin": dict(help="grid origin, comma-separated rationals"),
    "M": dict(help="dictionary size target(s), comma-separated"),
    "eps": dict(help="overflow level(s), comma-separated"),
    "theta": dict(help="parameter vectors 'a,b;c,d' (';' separates)"),
    "trials": dict(type=int, help="Monte-Carlo sample count"),
    "seed": dict(type=int, help="master seed"),
    "out": dict(help="output path"),
    "dict": dict(help="dictionary file path"),
    "input": dict(help="input letters/codewords file (default stdin)"),
    "n": dict(help="length(s), comma-separated"),
    "exact": dict(action="store_true", default=None, help="exact distributions"),
    "mc": dict(action="store_true", default=None, help="Monte-Carlo distributions"),
    "formula": dict(action="store_true", default=None, help="three-term prediction"),
    "iterative": dict(action="store_true", default=None, help="fixed-point prediction"),
}

# Each subcommand's function and the flags it reads; "a|b" is an exclusive pair.
_COMMANDS = {
    "build-dict": (cmd_build_dict, "model W origin M out"),
    "encode": (cmd_encode, "dict input out"),
    "decode": (cmd_decode, "dict input out"),
    "evaluate": (cmd_evaluate, "dict model W origin M theta eps trials seed out "
                               "exact|mc formula|iterative"),
    "sweep": (cmd_sweep, "model W origin M theta eps trials seed out"),
    "tunstall": (cmd_tunstall, "model theta M out"),
    "converse-check": (cmd_converse_check, "dict n theta out"),
    "normality": (cmd_normality, "model theta n out"),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of command alone when one is given."""
    parser = _Parser(prog="tccode", allow_abbrev=False,
                     description="Universal variable-to-fixed length coding toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON file of defaults for these flags")
        for word in flags.split():
            group = p.add_mutually_exclusive_group() if "|" in word else p
            for flag in word.split("|"):
                group.add_argument("--" + flag, **_FLAGS[flag])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(
        level=os.environ.get("TCCODE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    argv = sys.argv[1:] if argv is None else list(argv)
    # A call that starts with a command name needs that subparser alone; any
    # other gets all of them, for the top-level help and usage errors.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _merge_config(build_parser(command).parse_args(argv))
        return _COMMANDS[args.command][0](args)
    except (CliError, _models.ModelError, _dict.DictionaryError,
            _qtypes.CountingCapError, OSError, ValueError) as exc:
        error = str(exc)
    except MemoryError as exc:  # e.g. a Monte-Carlo block too large to allocate
        error = str(exc) or "out of memory"
    sys.stderr.write(json.dumps({"error": error}) + "\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
