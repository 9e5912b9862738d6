"""Exponential-family source models over a finite alphabet.

Models are parameterized in natural form: p_theta(x) = 2^(<theta, tau(x)> - psi(theta))
with theta restricted to a compact box.  All logarithms are base 2.  Letter
statistics tau(x) are stored as exact rationals so that downstream grid-boundary
tests are decidable exactly; probabilities themselves are floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Tuple

import numpy as np

LN2 = math.log(2.0)


class ModelError(ValueError):
    """Invalid model definition or invalid input to a model operation."""


class MLEError(RuntimeError):
    """Maximum-likelihood solver failed to converge."""


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
            p = probs(self, corner)
            if not np.all((p > 0.0) & (p < 1.0)):
                raise ModelError("probabilities must stay inside (0, 1) over the box")

    @property
    def stat_lower(self) -> Tuple[Fraction, ...]:
        return tuple(min(row[i] for row in self.tau) for i in range(self.stat_dim))

    @property
    def stat_upper(self) -> Tuple[Fraction, ...]:
        return tuple(max(row[i] for row in self.tau) for i in range(self.stat_dim))

    def prob_bounds(self) -> Tuple[float, float]:
        """Uniform (p_min, p_max) over the box corners and letters."""
        lo, hi = 1.0, 0.0
        for corner in _box_corners(self.theta_box):
            p = probs(self, corner)
            lo = min(lo, float(p.min()))
            hi = max(hi, float(p.max()))
        return lo, hi


def _box_corners(box):
    corners = [()]
    for lo, hi in box:
        corners = [c + (v,) for c in corners for v in (lo, hi)]
    return [np.array(c) for c in corners]


@lru_cache(maxsize=None)
def _tau_matrix(model: ExpFamilyModel) -> np.ndarray:
    m = np.array([[float(v) for v in row] for row in model.tau])
    m.setflags(write=False)
    return m


def clamp_theta(model: ExpFamilyModel, theta) -> np.ndarray:
    """Project a parameter vector onto the model's box."""
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    if t.shape != (model.stat_dim,):
        raise ModelError("theta must have dimension %d" % model.stat_dim)
    lo = np.array([b[0] for b in model.theta_box])
    hi = np.array([b[1] for b in model.theta_box])
    return np.clip(t, lo, hi)


def log_partition(model: ExpFamilyModel, theta) -> float:
    """psi(theta) = log2 sum_x 2^<theta, tau(x)>."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    s = _tau_matrix(model) @ theta
    m = float(s.max())
    return m + math.log2(float(np.exp2(s - m).sum()))


def letter_log_probs(model: ExpFamilyModel, theta) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    s = _tau_matrix(model) @ theta
    return s - log_partition(model, theta)


def probs(model: ExpFamilyModel, theta) -> np.ndarray:
    return np.exp2(letter_log_probs(model, theta))


def validate_sequence(model: ExpFamilyModel, seq) -> Tuple[int, ...]:
    seq = tuple(int(x) for x in seq)
    if any(x < 0 or x >= model.alphabet_size for x in seq):
        raise ModelError("letter index out of range")
    return seq


def suff_stat_avg(model: ExpFamilyModel, seq) -> Tuple[Fraction, ...]:
    """tau(x^l): the exact per-letter average of the letter statistics."""
    seq = validate_sequence(model, seq)
    if not seq:
        raise ModelError("empty sequence has no sufficient statistic")
    return suff_stat_of_counts(model, _counts_of(model, seq))


def _counts_of(model: ExpFamilyModel, seq) -> Tuple[int, ...]:
    counts = [0] * model.alphabet_size
    for x in seq:
        counts[x] += 1
    return tuple(counts)


def suff_stat_of_counts(model: ExpFamilyModel, counts) -> Tuple[Fraction, ...]:
    """Average statistic of any sequence with the given letter counts."""
    counts = tuple(int(c) for c in counts)
    if len(counts) != model.alphabet_size or any(c < 0 for c in counts):
        raise ModelError("counts must be nonnegative, one per letter")
    ell = sum(counts)
    if ell == 0:
        raise ModelError("empty sequence has no sufficient statistic")
    return tuple(
        sum(counts[x] * model.tau[x][i] for x in range(model.alphabet_size)) / ell
        for i in range(model.stat_dim)
    )


def sequence_log_prob(model: ExpFamilyModel, theta, seq) -> float:
    """log2 p_theta(x^l) = l * (<theta, tau(x^l)> - psi(theta))."""
    seq = validate_sequence(model, seq)
    if not seq:
        raise ModelError("sequence must be nonempty")
    return counts_log_prob(model, theta, _counts_of(model, seq))


def counts_log_prob(model: ExpFamilyModel, theta, counts) -> float:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return counts_log_prob_at(model, theta, log_partition(model, theta), counts)


def counts_log_prob_at(model: ExpFamilyModel, theta: np.ndarray, psi: float,
                       counts) -> float:
    """counts_log_prob with theta already an array and psi = psi(theta) given."""
    counts = tuple(int(c) for c in counts)
    ell = sum(counts)
    if ell == 0:
        raise ModelError("sequence must be nonempty")
    stat = suff_stat_of_counts(model, counts)
    dot = float(sum(float(s) * t for s, t in zip(stat, theta)))
    return ell * (dot - psi)


def entropy_varentropy(model: ExpFamilyModel, theta) -> Tuple[float, float]:
    """Entropy (bits) and varentropy (bits^2) of p_theta."""
    lp = letter_log_probs(model, theta)
    p = np.exp2(lp)
    h = float(-(p * lp).sum())
    var = float((p * lp * lp).sum() - h * h)
    return h, max(var, 0.0)


def in_stat_hull(model: ExpFamilyModel, tau, tol: float = 1e-9) -> bool:
    """Whether tau lies in the convex hull of the letter statistics."""
    target = np.array([float(v) for v in np.atleast_1d(tau)], dtype=float)
    if target.shape != (model.stat_dim,):
        raise ModelError("tau must have dimension %d" % model.stat_dim)
    if model.stat_dim == 1:
        lo, hi = float(model.stat_lower[0]), float(model.stat_upper[0])
        return lo - tol <= target[0] <= hi + tol
    from scipy.optimize import linprog

    a_eq = np.vstack([_tau_matrix(model).T, np.ones(model.alphabet_size)])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(np.zeros(model.alphabet_size), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, 1)] * model.alphabet_size, method="highs")
    if res.status == 0:
        return True
    # linprog uses its own feasibility tolerance; retry with a slack box.
    res = linprog(np.zeros(model.alphabet_size), A_eq=a_eq,
                  b_eq=b_eq + np.full_like(b_eq, 0.0),
                  bounds=[(-tol, 1 + tol)] * model.alphabet_size, method="highs")
    return res.status == 0


def mle(model: ExpFamilyModel, tau, tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
    """Box-constrained maximizer of <theta, tau> - psi(theta).

    Damped Newton with projection onto the box; the objective is strictly
    concave (its Hessian is minus the statistic covariance), so the interior
    solution, when it exists, solves grad psi(theta) = tau.
    """
    key = tuple(float(v) for v in np.atleast_1d(tau))
    return _mle_cached(model, key, tol, max_iter).copy()


@lru_cache(maxsize=262144)
def _mle_cached(model, tau_key, tol, max_iter):
    target = np.array(tau_key)
    if not in_stat_hull(model, target):
        raise ModelError("tau %s lies outside the statistic hull" % (target,))
    lo = np.array([b[0] for b in model.theta_box])
    hi = np.array([b[1] for b in model.theta_box])
    tmat = _tau_matrix(model)
    theta = 0.5 * (lo + hi)

    def objective(t):
        return float(target @ t) - log_partition(model, t)

    f = objective(theta)
    for _ in range(max_iter):
        p = probs(model, theta)
        mean = p @ tmat
        grad = target - mean
        proj = grad.copy()
        proj[(theta >= hi - 1e-14) & (grad > 0)] = 0.0
        proj[(theta <= lo + 1e-14) & (grad < 0)] = 0.0
        if float(np.abs(proj).max()) <= tol:
            out = theta.copy()
            out.setflags(write=False)
            return out
        cov = tmat.T @ (p[:, None] * tmat) - np.outer(mean, mean)
        hess = LN2 * cov + 1e-14 * np.eye(model.stat_dim)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad
        t = 1.0
        moved = False
        while t >= 1e-14:
            cand = np.clip(theta + t * step, lo, hi)
            fc = objective(cand)
            if fc >= f - 1e-15 and not np.array_equal(cand, theta):
                theta, f, moved = cand, fc, True
                break
            t *= 0.5
        if not moved:
            # Newton direction blocked by the box; fall back to the gradient.
            t = 1.0
            while t >= 1e-14:
                cand = np.clip(theta + t * grad, lo, hi)
                fc = objective(cand)
                if fc >= f - 1e-15 and not np.array_equal(cand, theta):
                    theta, f, moved = cand, fc, True
                    break
                t *= 0.5
        if not moved:
            out = theta.copy()
            out.setflags(write=False)
            return out
    raise MLEError(
        "MLE did not converge: tau=%s theta=%s projected-grad=%s"
        % (target, theta, proj)
    )


def ml_code_length(model: ExpFamilyModel, ell: int, tau) -> float:
    """-log2 p_{theta_hat(tau)}(x^l) for any x^l with average statistic tau."""
    if ell < 1:
        raise ModelError("ell must be at least 1")
    theta = mle(model, tau)
    t = np.array([float(v) for v in np.atleast_1d(tau)])
    return ell * (log_partition(model, theta) - float(t @ theta))


def sample_stream(model: ExpFamilyModel, theta, seed: int, length: int) -> np.ndarray:
    """Deterministic i.i.d. letters under p_theta; pure in (seed, length)."""
    if length < 0:
        raise ModelError("length must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    return rng.choice(model.alphabet_size, size=int(length), p=probs(model, theta))


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
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError("malformed model description: %s" % exc)


def model_to_json(model: ExpFamilyModel) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))


def model_from_json(text: str) -> ExpFamilyModel:
    return model_from_dict(json.loads(text))


def load_model(path) -> ExpFamilyModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())


def save_model(model: ExpFamilyModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model) + "\n")
