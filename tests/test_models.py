import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tccode import dictionary as D
from tccode import models as M

from oracles import (CUBE, FRAC, SIMPLEX, bernoulli_mle, ml_code_length,
                     mp_abs_error, mp_model_math)


BERN = M.bernoulli()
TERN = M.ternary()


def test_log_partition_closed_form():
    # Binary: psi(theta) = log2(1 + 2^theta).
    assert M.log_partition(BERN, [1.0]) == pytest.approx(math.log2(3.0), abs=1e-14)
    assert M.log_partition(BERN, [0.0]) == pytest.approx(1.0, abs=1e-14)
    # Ternary with theta=0: uniform, psi = log2 3.
    assert M.log_partition(TERN, [0.0]) == pytest.approx(math.log2(3.0), abs=1e-14)


def test_letter_probs_theta_minus_two():
    p = M.probs(BERN, [-2.0])
    assert p[0] == pytest.approx(0.8, abs=1e-14)
    assert p[1] == pytest.approx(0.2, abs=1e-14)
    assert math.fsum(p) == pytest.approx(1.0, abs=1e-14)


def test_entropy_varentropy_bernoulli_02():
    h, var = M.entropy_varentropy(BERN, [-2.0])
    # h(0.2) and 0.16 * (log2 4)^2.
    assert h == pytest.approx(0.7219280948873623, abs=1e-12)
    assert var == pytest.approx(0.64, abs=1e-12)


def test_varentropy_zero_at_uniform():
    h, var = M.entropy_varentropy(BERN, [0.0])
    assert h == pytest.approx(1.0, abs=1e-14)
    assert var == pytest.approx(0.0, abs=1e-14)


def test_sequence_log_prob_matches_product():
    # One class of length 5 and lattice point 2 (three 0s and two 1s): the
    # mass of one such sequence.
    mass = D.length_masses(BERN, [(5, (2,), 1)], [-2.0])[5]
    assert math.log2(mass) == pytest.approx(3 * math.log2(0.8) + 2 * math.log2(0.2),
                                            abs=1e-12)


def test_mle_closed_form_binary():
    # Interior solution: theta_hat = log2(tau / (1 - tau)).
    assert bernoulli_mle(BERN, 0.25) == pytest.approx(math.log2(1.0 / 3.0), abs=1e-9)
    assert bernoulli_mle(BERN, 0.5) == pytest.approx(0.0, abs=1e-9)


def test_mle_clamps_to_box_at_extremes():
    assert bernoulli_mle(BERN, 0.0) == pytest.approx(BERN.theta_box[0][0], abs=1e-12)
    assert bernoulli_mle(BERN, 1.0) == pytest.approx(BERN.theta_box[0][1], abs=1e-12)


def test_ml_code_length_is_empirical_entropy():
    # For the binary model, l * h(tau).
    assert ml_code_length(BERN, 4, [0.25]) == pytest.approx(
        4 * (-0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)), abs=1e-9)
    assert ml_code_length(BERN, 8, [0.5]) == pytest.approx(8.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.12, max_value=0.88))
def test_mle_moment_matching(tau):
    # Interior MLE solves grad psi = tau, i.e. E_theta[tau(X)] = tau.
    mean = float(M.probs(BERN, [bernoulli_mle(BERN, tau)])[1])
    assert mean == pytest.approx(tau, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=20))
def test_sequence_prob_normalizes_per_letter(theta, seq):
    mass = D.length_masses(BERN, [(len(seq), (seq.count(1),), 1)], [theta])[len(seq)]
    direct = sum(float(M.letter_log_probs(BERN, [theta])[x]) for x in seq)
    assert math.log2(mass) == pytest.approx(direct, abs=1e-9)


MATH_MODELS = [M.get_model(name) for name in sorted(M.BUILTIN_MODELS)] + [
    FRAC, SIMPLEX, CUBE]


@st.composite
def model_and_theta(draw):
    model = draw(st.sampled_from(MATH_MODELS))
    return model, tuple(draw(st.floats(min_value=lo, max_value=hi))
                        for lo, hi in model.theta_box)


@settings(max_examples=300, deadline=None)
@given(model_and_theta())
def test_float_math_matches_a_160_bit_reference(case):
    """The math-module floats against mp_model_math at 160 bits, theta drawn
    from each model's box.  Bands:
    - psi and H within 8 ulps of the reference value;
    - each letter log-probability s_x - psi within 8 ulps of psi plus
      2 ulps of its own value (psi's error plus the rounding of s_x and of
      the difference);
    - each probability, relative, within ln 2 times that log band plus
      2 ulps of its own value;
    - varentropy within 1e-12 absolute, since it cancels near 0.
    """
    model, theta = case
    psi, lp, p, h, var = mp_model_math(model, theta)
    psi_band = 8 * math.ulp(float(psi))
    assert mp_abs_error(M.log_partition(model, theta), psi) <= psi_band
    for value, ref in zip(M.letter_log_probs(model, theta), lp):
        assert mp_abs_error(value, ref) <= psi_band + 2 * math.ulp(float(ref))
    for value, ref, log_ref in zip(M.probs(model, theta), p, lp):
        log_band = psi_band + 2 * math.ulp(float(log_ref))
        assert mp_abs_error(value, ref) <= (math.log(2) * log_band * float(ref)
                                            + 2 * math.ulp(float(ref)))
    entropy, varentropy = M.entropy_varentropy(model, theta)
    assert mp_abs_error(entropy, h) <= 8 * math.ulp(float(h))
    assert mp_abs_error(varentropy, var) <= 1e-12


def test_model_validation_errors():
    with pytest.raises(M.ModelError):
        M.ExpFamilyModel(alphabet_size=1, stat_dim=1, tau=((Fraction(0),),),
                         theta_box=((-1, 1),))
    with pytest.raises(M.ModelError):
        M.ExpFamilyModel(alphabet_size=2, stat_dim=1,
                         tau=((Fraction(0),), (Fraction(0),)),
                         theta_box=((-1, 1),))
    with pytest.raises(M.ModelError):
        M.ExpFamilyModel(alphabet_size=2, stat_dim=1,
                         tau=((Fraction(0),), (Fraction(1),)),
                         theta_box=((1, -1),))


@pytest.mark.parametrize("model,theta", [
    (M.quaternary(), [0.5]),
    (M.quaternary(), 0.5),
    (M.quaternary(), [0.5, -1.0, 2.0]),
    (BERN, [0.5, 3.0]),
    (TERN, []),
])
def test_theta_of_the_wrong_dimension_is_refused(model, theta):
    for float_path in (M.log_partition, M.letter_log_probs, M.probs,
                       M.entropy_varentropy):
        with pytest.raises(M.ModelError, match="dimension"):
            float_path(model, theta)
    with pytest.raises(M.ModelError, match="dimension"):
        D.length_masses(model, [(1, (0,) * model.stat_dim, 1)], theta)


def test_bare_number_is_a_one_dimensional_theta():
    assert M.probs(BERN, 0.5) == M.probs(BERN, [0.5])
    assert M.entropy_varentropy(TERN, -1) == M.entropy_varentropy(TERN, (-1.0,))


def test_serialization_round_trip(tmp_path):
    path = tmp_path / "model.json"
    M.save_model(TERN, path)
    loaded = M.load_model(path)
    assert loaded == TERN
    assert M.model_to_json(loaded) == M.model_to_json(TERN)


def test_model_from_dict_rejects_garbage():
    with pytest.raises(M.ModelError):
        M.model_from_dict({"alphabet_size": 2})


def test_get_model():
    assert M.get_model("bernoulli").name == "bernoulli"
    with pytest.raises(M.ModelError):
        M.get_model("nope")
