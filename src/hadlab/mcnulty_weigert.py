"""Hadamard matrices from quadratic Gauss sums over a prime field.

For an odd prime q, the unitaries F_q* D^k F_q (D the quadratic-phase
diagonal) are circulant with flat rows, so each k gives a unimodular vector
V^k of quadratic Gauss sums.  Tensoring an arbitrary Hadamard base with
these vectors, indexed by two disjoint exponent sets, yields larger
Hadamard matrices whose entries are exactly known roots of unity times an
eighth root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .cyclotomic import is_odd_prime
from .defect import isolation_certificate
from .errors import (DEFAULT_TOL, ConsistencyError, InvalidInputError, integer,
                     is_integer)
from .matrix import PHMatrix, ensure_verified, verify_partial_hadamard
from .phases import ExactPhases, PhaseEntry, multiply, phase_array


def _circulant_index(q: int) -> np.ndarray:
    """The q x q index (b - a) mod q at [a, b]: a circulant matrix with
    first row c is c[_circulant_index(q)]."""
    return (np.arange(q)[None, :] - np.arange(q)[:, None]) % q


def _require_odd_prime(q: int) -> None:
    if not (is_integer(q) and is_odd_prime(q)):
        raise InvalidInputError(f"q must be an odd prime, got {q}")


def legendre_symbol(a: int, q: int) -> int:
    """1 for nonzero squares mod q, -1 for non-squares, 0 at zero."""
    _require_odd_prime(q)
    a = integer(a, "a") % q
    if a == 0:
        return 0
    r = pow(a, (q - 1) // 2, q)
    return 1 if r == 1 else -1


def quadratic_diagonal_exponents(q: int, k: int = 1) -> list:
    """Exponents of D^k = diag(w^{k c(c-1)/2}) as integers mod q."""
    _require_odd_prime(q)
    k = integer(k, "k")
    return [(k * (c * (c - 1) // 2)) % q for c in range(q)]


def mub_unitary(q: int, k: int) -> PHMatrix:
    """The (unnormalized) unitary D^k F_q, a Butson matrix of order q."""
    c = np.arange(q)
    exp = np.array(quadratic_diagonal_exponents(q, k))[:, None] + np.outer(c, c)
    return PHMatrix.from_phases(ExactPhases(exp, q), label=f"D^{k} F{q}")


def mub_family(q: int) -> list:
    """D^k F_q for k = 0..q-1; pairwise unbiased after 1/sqrt(q) scaling."""
    return [mub_unitary(q, k) for k in range(q)]


def gauss_vector_direct(q: int, k: int) -> np.ndarray:
    """The flat circulant row: V^k_i = q^{-1/2} sum_c w^{k c(c-1)/2 + i c}.

    Computed as the first row of F* D^k F with the circulant property
    checked explicitly, since everything downstream rides on it.
    """
    _require_odd_prime(q)
    if integer(k, "k") % q == 0:
        raise InvalidInputError("k must be nonzero mod q; D^0 gives no flat row")
    w = np.exp(2j * np.pi / q)
    f = w ** (np.outer(np.arange(q), np.arange(q)))
    d = np.diag(w ** np.array(quadratic_diagonal_exponents(q, k)))
    c = (np.conj(f.T) @ d @ f) / q
    off = np.argwhere(np.abs(c - c[0][_circulant_index(q)]) > DEFAULT_TOL)
    if off.size:
        a, b = off[0]
        raise ConsistencyError(
            f"F* D^{k} F is not circulant within {DEFAULT_TOL} at ({a},{b})")
    v = c[0] * math.sqrt(q)
    if np.max(np.abs(np.abs(v) - 1.0)) > DEFAULT_TOL:
        raise ConsistencyError("circulant row is not flat; Gauss sum magnitude off")
    return v


def gauss_vector_closed(q: int, k: int) -> Tuple[PhaseEntry, ...]:
    """The same vector with exact phases from the Gauss sum evaluation.

    Completing the square in the quadratic exponent sum gives
    V^k_i = delta_q * legendre(k/2, q) * w^{k (q^2-1)/8 - k u(u-1)/2},
    with u = i/k mod q, delta_q = 1 or the imaginary unit as q = 1, 3 mod 4.
    Each entry is an exact rational turn with denominator dividing 4q.
    """
    _require_odd_prime(q)
    k = integer(k, "k")
    if k % q == 0:
        raise InvalidInputError("k must be nonzero mod q")
    inv2 = (q + 1) // 2
    kinv = pow(k % q, q - 2, q)
    sign = legendre_symbol((k * inv2) % q, q)
    delta_turn = Fraction(0) if q % 4 == 1 else Fraction(1, 4)
    out = []
    for i in range(q):
        u = (i * kinv) % q
        # u(u-1) is even, so the halving below is exact integer arithmetic
        e = (k * ((q * q - 1) // 8) - k * (u * (u - 1) // 2)) % q
        turn = (Fraction(e, q) + delta_turn
                + (Fraction(1, 2) if sign < 0 else Fraction(0))) % 1
        out.append(PhaseEntry.turns(turn))
    return tuple(out)


@dataclass(frozen=True)
class CirculantVector:
    q: int
    k: int
    entries: Tuple[PhaseEntry, ...]


def gauss_vector(q: int, k: int) -> CirculantVector:
    """Exact Gauss-sum vector, validated against the direct row."""
    closed = gauss_vector_closed(q, k)
    direct = gauss_vector_direct(q, k)
    resid = max(abs(p.value - d) for p, d in zip(closed, direct))
    if resid > DEFAULT_TOL:
        raise ConsistencyError(
            f"closed-form Gauss vector disagrees with the circulant row "
            f"(q={q}, k={k}, residual {resid:.3g})")
    return CirculantVector(q, k, closed)


@dataclass(frozen=True)
class MWSpec:
    """Ingredients for the Gauss-sum tensor construction.

    base: any M x M Hadamard matrix; s, t: disjoint exponent sets mod q with
    |s| = |t| = M.  The result is an Mq x Mq Hadamard matrix with entries
    base_ij * V^{t_j - s_i}_{b - a}.
    """
    q: int
    s: Tuple[int, ...]
    t: Tuple[int, ...]
    base: PHMatrix

    def __post_init__(self):
        _require_odd_prime(self.q)
        if not all(is_integer(x) for x in (*self.s, *self.t)):
            raise InvalidInputError("exponent sets must hold integers")
        q = int(self.q)
        s = tuple(int(x) % q for x in self.s)
        t = tuple(int(x) % q for x in self.t)
        if self.base.m != self.base.n:
            raise InvalidInputError("base must be square")
        if len(s) != self.base.m or len(t) != self.base.m:
            raise InvalidInputError(
                f"need exactly {self.base.m} exponents in each set")
        if len(set(s)) != len(s) or len(set(t)) != len(t):
            raise InvalidInputError("exponent sets must have distinct residues")
        if set(s) & set(t):
            raise InvalidInputError(
                f"exponent sets must be disjoint mod q; both contain "
                f"{sorted(set(s) & set(t))}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


def mw_construct(spec: MWSpec, tol: float = DEFAULT_TOL) -> PHMatrix:
    """Build and verify the Gauss-sum tensor matrix.

    Composite indices are row-major: row (i, a) -> i*q + a.  Orthogonality
    of distinct block rows falls out of the circulant group law
    C^k1 (C^k2)* = C^{k1-k2} and base-row orthogonality; it is still
    verified numerically, and failure is an internal error, not bad input.
    """
    ensure_verified(spec.base, tol)
    q, m = spec.q, spec.base.m
    ks = (np.array(spec.t)[None, :] - np.array(spec.s)[:, None]) % q   # [i, j]
    used = sorted(set(ks.ravel().tolist()))
    vectors = phase_array([p for k in used for p in gauss_vector(q, k).entries],
                          (len(used), q))
    at = np.searchsorted(used, ks)
    shift = _circulant_index(q)                                     # [a, b]
    blocks = vectors[at[:, None, :, None], shift[None, :, None, :]]  # [i, a, j, b]
    p = multiply(spec.base.phases[:, None, :, None], blocks)
    out = PHMatrix.from_phases(p.reshape(m * q, m * q), label=f"MW(q={q})")
    rep = verify_partial_hadamard(out, tol)
    if not rep.is_hadamard:
        raise ConsistencyError(
            f"Gauss-sum construction failed verification: inner residual "
            f"{rep.max_inner_residual:.3g}, modulus residual "
            f"{rep.max_modulus_residual:.3g}")
    return out


@dataclass(frozen=True)
class ArithmeticProbeReport:
    shape: Tuple[int, int]
    defect: int
    bound: int
    certified_isolated: bool
    status: str
    pattern_notes: Tuple[str, ...]


def arithmetic_isolation_probe(spec: MWSpec, tol: float = DEFAULT_TOL) -> ArithmeticProbeReport:
    """Isolation certificate for a Gauss-sum matrix, with notes on the
    exponent-set pattern.

    Consecutive odd s against consecutive even t is the pattern of interest
    for isolation; other patterns are analyzed all the same but flagged.
    """
    h = mw_construct(spec, tol)
    cert = isolation_certificate(h, tol=tol)
    notes = []

    def consecutive_same_parity(xs: Tuple[int, ...]) -> bool:
        ys = sorted(xs)
        return all(b - a == 2 for a, b in zip(ys, ys[1:]))

    if not (consecutive_same_parity(spec.s) and all(x % 2 == 1 for x in spec.s)):
        notes.append("s is not a run of consecutive odd residues")
    if not (consecutive_same_parity(spec.t) and all(x % 2 == 0 for x in spec.t)):
        notes.append("t is not a run of consecutive even residues")
    return ArithmeticProbeReport(
        shape=(h.m, h.n), defect=cert.defect, bound=cert.bound,
        certified_isolated=cert.certified_isolated, status=cert.status,
        pattern_notes=tuple(notes))
