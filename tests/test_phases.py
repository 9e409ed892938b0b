import cmath
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hadlab import InvalidInputError, PhaseEntry, parse_phase
from hadlab.phases import ExactPhases

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


def test_cartesian_refuses_a_nan_part():
    for z in (complex("nan"), complex(float("nan"), 1.0)):
        with pytest.raises(InvalidInputError, match="unit modulus"):
            PhaseEntry.cartesian(z)


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



@pytest.mark.parametrize("order", [0, -3, 2.5, True, np.int64(0), "4"])
def test_exact_phases_refuse_an_order_that_is_not_an_integer_above_zero(order):
    with pytest.raises(InvalidInputError, match="order must be an integer >= 1"):
        ExactPhases(np.array([[1]]), order)


@pytest.mark.parametrize("e, l", [(2.9, 4), (True, 2), (1, 2.5), (1, True), (1, 0)])
def test_butson_refuses_what_is_not_an_exact_phase(e, l):
    with pytest.raises(InvalidInputError, match="not an integer|order must be"):
        PhaseEntry.butson(e, l)


def test_butson_takes_numpy_integers_and_huge_orders():
    p = PhaseEntry.butson(np.int64(-1), np.int64(4))
    assert (p.e, p.l) == (3, 4) and type(p.e) is int
    big = 2 ** 70
    p = PhaseEntry.butson(-1, big)
    assert (p.e, p.l) == (big - 1, big)


def test_exact_views_and_foreign_products():
    p = PhaseEntry.butson(3, 8)
    assert p.turn_value() == 0.375
    assert repr(p) == "PhaseEntry.butson(3, 8)"
    assert repr(PhaseEntry.cartesian(1j)) == "PhaseEntry.cartesian(1j)"
    with pytest.raises(TypeError):
        p * 2


# The formulas scalar products had before they went through phase arrays:
# exponents add at the lcm order, anything else is a Python complex product.
def _old_times(a, b):
    if a.kind == "butson" and b.kind == "butson":
        l = a.l * b.l // gcd(a.l, b.l)
        return ("butson", (a.e * (l // a.l) + b.e * (l // b.l)) % l, l)
    return ("cartesian", a.value * b.value)


def _old_conj(a):
    if a.kind == "butson":
        return ("butson", -a.e % a.l, a.l)
    return ("cartesian", a.z.conjugate())


def _old_neg(a):
    if a.kind == "butson":
        return _old_times(a, PhaseEntry("butson", e=1, l=2))
    return ("cartesian", -a.z)


def _bits(p):
    """A phase's kind and exact or complex data, floats as hex."""
    if p.kind == "butson":
        return ("butson", p.e, p.l)
    return ("cartesian", p.z.real.hex(), p.z.imag.hex())


def _old_bits(t):
    if t[0] == "butson":
        return t
    return ("cartesian", t[1].real.hex(), t[1].imag.hex())


orders = st.sampled_from([1, 2, 3, 4, 6, 7, 12, 30, 97, 2 ** 61 + 1, 2 ** 70])
exact_phases = st.builds(lambda l, e: PhaseEntry.butson(e % l, l), orders,
                         st.integers(-10 ** 22, 10 ** 22))
cartesian_phases = st.floats(-4.0, 4.0).map(PhaseEntry.turns)
any_phase = st.one_of(exact_phases, cartesian_phases)


@settings(max_examples=3000, deadline=None)
@given(any_phase, any_phase)
def test_scalar_arithmetic_keeps_the_old_bits(a, b):
    assert _bits(a * b) == _old_bits(_old_times(a, b))
    assert _bits(a.conj()) == _old_bits(_old_conj(a))
    assert _bits(-a) == _old_bits(_old_neg(a))
    assert all(type(p.e) is int for p in (a * b, a.conj(), -a))
