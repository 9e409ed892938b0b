"""Unit-modulus scalars and arrays, exact when they are roots of unity.

A phase is one of two kinds:

* ``butson``    -- an exact root of unity, exponent ``e`` of order ``l``;
* ``cartesian`` -- a plain complex number of modulus ~1.

A turn t stands for exp(2*pi*i*t): a Fraction turn is read as a ``butson``
phase, a float turn as the ``cartesian`` value it gives, and a turn that is
not finite is refused.  Arrays of phases split the same way: an integer
exponent array at one order (``ExactPhases``), or a complex array.
``multiply`` is the one product rule for both: exponents add at the lcm
order, anything else multiplies values.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DEFAULT_TOL, InvalidInputError, integer, is_integer, tolerance

TAU = 2.0 * math.pi

# Exponents at orders below this stay int64: a sum of two residues (the
# most any phase-array operation forms before reducing) cannot overflow.
# Larger orders hold Python ints, so exactness never depends on size.
INT64_ORDER = 1 << 61
# Values of exact phases up to this order are read from a table of roots.
ROOT_TABLE = 4096
# Root-of-unity orders above this are not sought in a complex matrix
# (matrix.detect_butson).  It binds nothing else: exact input is read at
# its stored order, whatever that is.
BUTSON_ORDER_CAP = 60


def _cis(turn: float) -> complex:
    return cmath.exp(1j * TAU * turn)


class PhaseEntry:
    """A single unit-modulus value."""

    __slots__ = ("kind", "e", "l", "z")

    def __init__(self, kind: str, e: int = 0, l: int = 1, z: complex = 1.0 + 0.0j):
        self.kind = kind
        self.e = e
        self.l = l
        self.z = z

    # -- constructors -----------------------------------------------------

    @classmethod
    def butson(cls, e: int, l: int) -> "PhaseEntry":
        l = integer(l, "phase order", 1)
        return cls("butson", e=_exponents([e], l).item(), l=l)

    @classmethod
    def turns(cls, t: Union[Fraction, int, float]) -> "PhaseEntry":
        """exp(2*pi*i*t): exact for a Fraction or an int, cartesian for any
        other finite number."""
        if isinstance(t, (Fraction, int)):
            return cls("butson", e=t.numerator % t.denominator, l=t.denominator)
        t = float(t)
        if not math.isfinite(t):
            raise InvalidInputError(f"turn must be finite, got {t!r}")
        return cls("cartesian", z=_cis(t % 1.0))

    @classmethod
    def cartesian(cls, z: complex, tol: float = DEFAULT_TOL) -> "PhaseEntry":
        """z, when its modulus is within tol of 1: the one unit-circle rule
        for values from code and from files alike."""
        z, tol = complex(z), tolerance(tol, "tol")
        # written so that a NaN part fails it too
        if not abs(abs(z) - 1.0) <= tol:
            raise InvalidInputError(
                f"cartesian phase must have unit modulus within {tol}, got |z|={abs(z)}")
        return cls("cartesian", z=z)

    @classmethod
    def one(cls) -> "PhaseEntry":
        return cls.butson(0, 1)

    # -- views -------------------------------------------------------------

    @property
    def value(self) -> complex:
        if self.kind == "butson":
            return _cis(self.e / self.l)
        return self.z

    def exact_turn(self) -> Optional[Fraction]:
        """The rotation in [0, 1) as a Fraction, or None if not exact."""
        if self.kind == "butson":
            return Fraction(self.e, self.l)
        return None

    def turn_value(self) -> float:
        """The rotation in [0, 1) as a float, exact or not."""
        if self.kind == "butson":
            return self.e / self.l
        return (cmath.phase(self.z) / TAU) % 1.0

    # -- arithmetic ---------------------------------------------------------

    def conj(self) -> "PhaseEntry":
        return phase_entries(phase_array([self], (1, 1)).conj())[0][0]

    def __neg__(self) -> "PhaseEntry":
        if self.kind == "butson":
            return self * PhaseEntry.butson(1, 2)
        return PhaseEntry("cartesian", z=-self.z)

    def __mul__(self, other: "PhaseEntry") -> "PhaseEntry":
        if not isinstance(other, PhaseEntry):
            return NotImplemented
        if self.kind == "butson" and other.kind == "butson":
            p = multiply(ExactPhases(np.array([self.e]), self.l),
                         ExactPhases(np.array([other.e]), other.l))
            return PhaseEntry("butson", e=p.exp.item(), l=p.order)
        return PhaseEntry("cartesian", z=self.value * other.value)

    def __repr__(self) -> str:
        if self.kind == "butson":
            return f"PhaseEntry.butson({self.e}, {self.l})"
        return f"PhaseEntry.cartesian({self.z!r})"


def _number(t: str):
    """A number in text: 'p/q' as a Fraction, text with '.', 'e' or 'E' as
    a float, anything else as an int."""
    if "/" in t:
        return Fraction(t)
    if "." in t or "e" in t or "E" in t:
        return float(t)
    return int(t)


def parse_phase(text: str) -> PhaseEntry:
    """Parse a phase given as a turn, spelled as _number reads it: 'p/q' or
    an integer exactly, or a decimal float, which must be finite."""
    text = text.strip()
    try:
        return PhaseEntry.turns(_number(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse phase {text!r}: {exc}") from exc


# -- phase arrays -------------------------------------------------------------

def _exponents(exp, order: int) -> np.ndarray:
    """exp as an array of the dtype that holds exponents at this order, an
    int >= 1 that has passed the door where it entered (``butson``,
    ``ExactPhases``) or an lcm of such orders.  A numpy integer array is
    taken as it is.  Anything else is read entry by entry and reduced mod
    order, so no entry overflows the dtype; an entry that is not an
    integer is refused, also a True in a list of ints, which numpy reads
    as 1."""
    if not (isinstance(exp, np.ndarray) and exp.dtype.kind in "iu"):
        exp = np.asarray(exp, dtype=object)
        for x in exp.flat:
            if not is_integer(x):
                raise InvalidInputError(f"butson exponent {x!r} is not an integer")
        exp = exp % order
    return np.asarray(exp, dtype=np.int64 if order < INT64_ORDER else object)


@functools.lru_cache(maxsize=64)
def _roots(l: int) -> np.ndarray:
    """zeta_l^k for k < l, each computed as PhaseEntry.value would."""
    table = np.array([_cis(k / l) for k in range(l)], dtype=np.complex128)
    table.setflags(write=False)
    return table


class ExactPhases:
    """The array zeta_l^E: integer exponents ``exp`` at order ``order``, an
    integer >= 1.  A numpy integer table is kept as given, so slices pay no
    remainder; ``reduced`` gives residues in [0, order)."""

    __slots__ = ("exp", "order")

    def __init__(self, exp, order: int):
        self.order = integer(order, "phase order", 1)
        self.exp = _exponents(exp, self.order)

    @property
    def shape(self) -> tuple:
        return self.exp.shape

    def __getitem__(self, idx) -> "ExactPhases":
        return ExactPhases(self.exp[idx], self.order)

    def reshape(self, *shape) -> "ExactPhases":
        return ExactPhases(self.exp.reshape(*shape), self.order)

    def conj(self) -> "ExactPhases":
        return ExactPhases(-self.exp % self.order, self.order)

    def reduced(self) -> "ExactPhases":
        """The same phases as residues at the least order that holds them
        all."""
        exp = self.exp % self.order
        g = math.gcd(self.order, int(np.gcd.reduce(exp, axis=None)))
        return ExactPhases(exp // g, self.order // g)

    def values(self) -> np.ndarray:
        """Complex values, each computed as PhaseEntry.value would on the
        residue of its exponent."""
        l = self.order
        exp = self.exp % l
        if l <= ROOT_TABLE:
            return _roots(l)[exp]
        return np.array([_cis(e / l) for e in exp.ravel().tolist()],
                        dtype=np.complex128).reshape(exp.shape)


PhaseArray = Union[ExactPhases, np.ndarray]


def phase_values(a: PhaseArray) -> np.ndarray:
    return a.values() if isinstance(a, ExactPhases) else a


def multiply(a: PhaseArray, b: PhaseArray) -> PhaseArray:
    """The product of two broadcastable phase arrays: exponents add at the
    lcm order when both are exact, values multiply otherwise."""
    if isinstance(a, ExactPhases) and isinstance(b, ExactPhases):
        l = math.lcm(a.order, b.order)
        sa = _exponents(a.exp, l) * (l // a.order)
        sb = _exponents(b.exp, l) * (l // b.order)
        return ExactPhases((sa + sb) % l, l)
    return phase_values(a) * phase_values(b)


def phase_array(phases: Sequence[PhaseEntry], shape: tuple) -> PhaseArray:
    """A flat sequence of phases as an array of the given shape: exact when
    every phase is."""
    if all(p.kind == "butson" for p in phases):
        l = math.lcm(*{p.l for p in phases})
        exp = _exponents([p.e * (l // p.l) for p in phases], l)
        return ExactPhases(exp.reshape(shape), l)
    return np.array([p.value for p in phases], dtype=np.complex128).reshape(shape)


def phase_entries(a: PhaseArray) -> tuple:
    """The phases of a 2-D array as rows of PhaseEntry."""
    if isinstance(a, ExactPhases):
        l = a.order
        return tuple(tuple(PhaseEntry("butson", e=e, l=l) for e in row)
                     for row in a.exp.tolist())
    return tuple(tuple(PhaseEntry("cartesian", z=z) for z in row) for row in a.tolist())
