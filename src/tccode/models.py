"""Exponential-family source models over a finite alphabet.

Models are parameterized in natural form: p_theta(x) = 2^(<theta, tau(x)> - psi(theta))
with theta restricted to a compact box.  All logarithms are base 2.  Letter
statistics tau(x) are stored as exact rationals so that downstream grid-boundary
tests are decidable exactly; probabilities themselves are floating point.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple


class ModelError(ValueError):
    """Invalid model definition or invalid input to a model operation."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ModelError("statistic values must be finite")
        return Fraction(value)
    raise ModelError("cannot interpret %r as a rational" % (value,))


@dataclass(frozen=True)
class ExpFamilyModel:
    """A d-parameter exponential family over the alphabet {0, ..., k-1}."""

    alphabet_size: int
    stat_dim: int
    tau: Tuple[Tuple[Fraction, ...], ...]
    theta_box: Tuple[Tuple[float, float], ...]
    name: str = "custom"

    def __post_init__(self):
        k, d = self.alphabet_size, self.stat_dim
        if k < 2:
            raise ModelError("alphabet_size must be at least 2")
        if d < 1:
            raise ModelError("stat_dim must be at least 1")
        tau = tuple(tuple(_as_fraction(v) for v in row) for row in self.tau)
        if len(tau) != k or any(len(row) != d for row in tau):
            raise ModelError("tau must hold one length-d vector per letter")
        if len(set(tau)) < 2:
            raise ModelError("at least two letters must have distinct statistics")
        object.__setattr__(self, "tau", tau)
        box = tuple((float(lo), float(hi)) for lo, hi in self.theta_box)
        if len(box) != d:
            raise ModelError("theta_box must have one (lo, hi) pair per dimension")
        for lo, hi in box:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ModelError("theta_box entries must be finite with lo < hi")
        object.__setattr__(self, "theta_box", box)
        # Compactness of the box gives uniform probability bounds; probe corners.
        for corner in _box_corners(box):
            if not all(0.0 < p < 1.0 for p in probs(self, corner)):
                raise ModelError("probabilities must stay inside (0, 1) over the box")


def _box_corners(box):
    corners = [()]
    for lo, hi in box:
        corners = [c + (v,) for c in corners for v in (lo, hi)]
    return corners


def theta_floats(theta) -> List[float]:
    """A parameter vector, or a bare number for d = 1, as a list of floats."""
    try:
        return [float(t) for t in theta]
    except TypeError:  # a scalar
        return [float(theta)]


# The float math: each dot product <theta, tau(x)> and each sum over letters
# is a math.fsum, so these few scalars need no arrays.

def _dots(model: ExpFamilyModel, theta) -> List[float]:
    """<theta, tau(x)> for each letter x.  A theta whose dimension is not
    the model's raises ModelError."""
    theta = theta_floats(theta)
    if len(theta) != model.stat_dim:
        raise ModelError("theta %r has dimension %d, not the %d of model %s"
                         % (theta, len(theta), model.stat_dim, model.name))
    return [math.fsum(float(v) * t for v, t in zip(row, theta)) for row in model.tau]


def log_partition(model: ExpFamilyModel, theta) -> float:
    """psi(theta) = log2 sum_x 2^<theta, tau(x)>."""
    s = _dots(model, theta)
    m = max(s)
    return m + math.log2(math.fsum(math.exp2(v - m) for v in s))


def letter_log_probs(model: ExpFamilyModel, theta) -> List[float]:
    """log2 p_theta(x) for each letter x."""
    psi = log_partition(model, theta)
    return [v - psi for v in _dots(model, theta)]


def probs(model: ExpFamilyModel, theta) -> List[float]:
    """p_theta(x) for each letter x."""
    return [math.exp2(v) for v in letter_log_probs(model, theta)]


def entropy_varentropy(model: ExpFamilyModel, theta) -> Tuple[float, float]:
    """Entropy (bits) and varentropy (bits^2) of p_theta."""
    lp = letter_log_probs(model, theta)
    p = [math.exp2(v) for v in lp]
    h = -math.fsum(px * v for px, v in zip(p, lp))
    var = math.fsum(px * v * v for px, v in zip(p, lp)) - h * h
    return h, max(var, 0.0)


# ---------------------------------------------------------------------------
# Bundled models and the JSON description format.

def bernoulli(name: str = "bernoulli") -> ExpFamilyModel:
    """Binary family, tau = (0), (1); box gives p in roughly [0.1, 0.9]."""
    return ExpFamilyModel(
        alphabet_size=2, stat_dim=1,
        tau=((Fraction(0),), (Fraction(1),)),
        theta_box=((-3.17, 3.17),),
        name=name,
    )


def ternary(name: str = "ternary") -> ExpFamilyModel:
    """Three letters, one parameter (d < k - 1), tau values 0, 1, 3."""
    return ExpFamilyModel(
        alphabet_size=3, stat_dim=1,
        tau=((Fraction(0),), (Fraction(1),), (Fraction(3),)),
        theta_box=((-1.5, 1.5),),
        name=name,
    )


def quaternary(name: str = "quaternary") -> ExpFamilyModel:
    """Four letters, two parameters; statistics are the unit-square corners."""
    return ExpFamilyModel(
        alphabet_size=4, stat_dim=2,
        tau=(
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(1)),
        ),
        theta_box=((-2.0, 2.0), (-2.0, 2.0)),
        name=name,
    )


BUILTIN_MODELS = {
    "bernoulli": bernoulli,
    "ternary": ternary,
    "quaternary": quaternary,
}


def get_model(name: str) -> ExpFamilyModel:
    try:
        return BUILTIN_MODELS[name]()
    except KeyError:
        raise ModelError("unknown model %r (have: %s)" % (name, sorted(BUILTIN_MODELS)))


def model_to_dict(model: ExpFamilyModel) -> dict:
    return {
        "name": model.name,
        "alphabet_size": model.alphabet_size,
        "stat_dim": model.stat_dim,
        "tau": [["%d/%d" % (v.numerator, v.denominator) for v in row] for row in model.tau],
        "theta_box": [[lo, hi] for lo, hi in model.theta_box],
    }


def model_from_dict(data: dict) -> ExpFamilyModel:
    try:
        return ExpFamilyModel(
            alphabet_size=int(data["alphabet_size"]),
            stat_dim=int(data["stat_dim"]),
            tau=tuple(tuple(Fraction(v) for v in row) for row in data["tau"]),
            theta_box=tuple((float(lo), float(hi)) for lo, hi in data["theta_box"]),
            name=str(data.get("name", "custom")),
        )
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise ModelError("malformed model description: %s" % exc)


def model_to_json(model: ExpFamilyModel) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))


def model_from_json(text: str) -> ExpFamilyModel:
    return model_from_dict(json.loads(text))


def load_model(path) -> ExpFamilyModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())


def save_model(model: ExpFamilyModel, path) -> None:
    write_text(path, model_to_json(model) + "\n")


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8, rewriting the file in place.

    The file is opened without O_TRUNC and, if it is a regular file, cut to
    the new length after the write.  ext4 (auto_da_alloc) forces a file's
    recent data to disk when it is closed after a truncation to zero, which
    measured about 60 ms a file on a 2-core Xeon's ext4 root; writing over
    the old bytes never truncates to zero.  Like open(path, "w"), this keeps the path's inode, permissions,
    hard links and symlink target.  Nothing is fsynced.  The file is closed
    before this returns.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
