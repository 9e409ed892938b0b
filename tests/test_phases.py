import cmath
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hadlab import InvalidInputError, PhaseEntry, parse_phase

TAU = 2.0 * cmath.pi


def close(a: complex, b: complex, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


def test_butson_normalizes_exponent():
    p = PhaseEntry.butson(7, 6)
    assert (p.e, p.l) == (1, 6)
    assert close(p.value, cmath.exp(1j * TAU / 6))


def test_turns_exact_and_float():
    assert PhaseEntry.turns(Fraction(5, 4)).exact_turn() == Fraction(1, 4)
    p = PhaseEntry.turns(0.3)
    assert p.exact_turn() is None
    assert close(p.value, cmath.exp(1j * TAU * 0.3))
    for turn in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(InvalidInputError, match="finite"):
            PhaseEntry.turns(turn)


def test_turns_reads_an_int_exactly():
    for turn in (0, 3, -2):
        p = PhaseEntry.turns(turn)
        assert p.kind == "butson" and p.exact_turn() == 0
    assert PhaseEntry.turns(0.0).kind == "cartesian"


def test_cartesian_rejects_off_circle():
    with pytest.raises(InvalidInputError):
        PhaseEntry.cartesian(1.5 + 0.0j)
    p = PhaseEntry.cartesian(cmath.exp(0.7j))
    assert close(p.value, cmath.exp(0.7j))


def test_one_is_exact_unity():
    assert PhaseEntry.one().value == 1.0
    assert PhaseEntry.one().exact_turn() == 0


def test_product_of_butson_stays_butson():
    a = PhaseEntry.butson(1, 4)
    b = PhaseEntry.butson(1, 6)
    c = a * b
    assert c.kind == "butson"
    assert c.exact_turn() == Fraction(1, 4) + Fraction(1, 6)


def test_neg_odd_order_doubles():
    p = -PhaseEntry.butson(1, 3)
    assert p.exact_turn() == (Fraction(1, 3) + Fraction(1, 2)) % 1


turn_fractions = st.fractions(min_value=0, max_value=1,
                              max_denominator=48).map(lambda f: f % 1)


@given(turn_fractions, turn_fractions)
def test_exact_arithmetic_matches_complex(ta, tb):
    a, b = PhaseEntry.turns(ta), PhaseEntry.turns(tb)
    prod = a * b
    assert prod.exact_turn() == (ta + tb) % 1
    assert close(prod.value, a.value * b.value, 1e-9)
    assert a.conj().exact_turn() == (-ta) % 1
    assert close(a.conj().value, a.value.conjugate(), 1e-9)


def test_mixed_exact_float_degrades_gracefully():
    a = PhaseEntry.turns(Fraction(1, 3))
    b = PhaseEntry.turns(0.1)
    c = a * b
    assert c.exact_turn() is None
    assert close(c.value, a.value * b.value, 1e-12)


def test_parse_phase_fraction_integer_float():
    assert parse_phase("3/8").exact_turn() == Fraction(3, 8)
    assert parse_phase("0").exact_turn() == 0
    assert parse_phase("2").exact_turn() == 0
    assert parse_phase("0.25").exact_turn() is None
    with pytest.raises(InvalidInputError):
        parse_phase("nonsense")
    with pytest.raises(InvalidInputError):
        parse_phase("1/0")
    for text in ("nan", "inf", "-inf", "infinity", "1e400"):
        with pytest.raises(InvalidInputError, match="cannot parse phase"):
            parse_phase(text)

