"""Partial complex Hadamard matrices and their elementary operations.

An M x N matrix H with unit-modulus entries is partial Hadamard when its
rows are pairwise orthogonal, <H_i, H_j> = N * delta_ij.  A matrix is held
as integer exponents at one root-of-unity order when every entry is exact,
and as a complex array otherwise.  Dephasing, equivalences and products are
array operations through ``phases.multiply``; analysis routines read the
complex values, computed once on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DEFAULT_TOL, InvalidInputError, integer, tolerance
from .phases import (BUTSON_ORDER_CAP, ExactPhases, PhaseArray, PhaseEntry,
                     multiply, phase_array, phase_entries, phase_values)

PhaseLike = Union[PhaseEntry, complex, float, int, Fraction]


def as_phase(v: PhaseLike, tol: float = DEFAULT_TOL) -> PhaseEntry:
    """Coerce a scalar to a PhaseEntry.

    Fractions are read as exact turns; other numbers as cartesian values.
    """
    if isinstance(v, PhaseEntry):
        return v
    if isinstance(v, Fraction):
        return PhaseEntry.turns(v)
    return PhaseEntry.cartesian(complex(v), tol=tol)


class PHMatrix:
    """A matrix of unit-modulus entries with optional provenance label.

    Stored as an ExactPhases at the least common order when every entry is
    a root of unity, else as a read-only complex array.  The `verified`
    flag records that verify_partial_hadamard passed; it is set only by
    that function.
    """

    __slots__ = ("_phases", "_array", "_entries", "label", "_verified_tol")

    def __init__(self, entries: Sequence[Sequence[PhaseLike]], label: Optional[str] = None):
        rows = [[as_phase(v) for v in row] for row in entries]
        if not rows or not rows[0]:
            raise InvalidInputError("matrix must have at least one row and one column")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise InvalidInputError("ragged rows are not a matrix")
        self._store(phase_array([p for r in rows for p in r], (len(rows), n)), label)

    @classmethod
    def from_phases(cls, phases: PhaseArray, label: Optional[str] = None) -> "PHMatrix":
        """A matrix over a 2-D phase array; unit moduli of a complex array
        are the caller's to ensure."""
        h = cls.__new__(cls)
        h._store(phases, label)
        return h

    def _store(self, phases: PhaseArray, label: Optional[str]) -> None:
        if isinstance(phases, ExactPhases):
            phases = phases.reduced()
            phases.exp.setflags(write=False)
            self._array = None
        else:
            phases = np.array(phases, dtype=np.complex128)
            phases.setflags(write=False)
            self._array = phases
        self._phases = phases
        self._entries = None
        self.label = label
        self._verified_tol = None

    # -- basic views -------------------------------------------------------

    @property
    def m(self) -> int:
        return self._phases.shape[0]

    @property
    def n(self) -> int:
        return self._phases.shape[1]

    @property
    def shape(self) -> tuple:
        return self._phases.shape

    @property
    def phases(self) -> PhaseArray:
        """The stored phases: an ExactPhases or a read-only complex array."""
        return self._phases

    def entry(self, i: int, j: int) -> PhaseEntry:
        return self.entries[i][j]

    @property
    def entries(self) -> tuple:
        """The entries as rows of PhaseEntry, built on first use."""
        if self._entries is None:
            self._entries = phase_entries(self._phases)
        return self._entries

    @property
    def verified(self) -> bool:
        return self._verified_tol is not None

    def to_array(self) -> np.ndarray:
        if self._array is None:
            z = self._phases.values()
            z.setflags(write=False)
            self._array = z
        return self._array

    def common_butson_order(self) -> Optional[int]:
        """The stored root-of-unity order, or None for a complex matrix."""
        p = self._phases
        return p.order if isinstance(p, ExactPhases) else None

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"<PHMatrix {self.m}x{self.n}{tag}>"


@dataclass(frozen=True)
class VerificationReport:
    is_hadamard: bool
    max_inner_residual: float
    max_modulus_residual: float
    tolerance: float


def verify_partial_hadamard(h: PHMatrix, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check unit moduli and pairwise row orthogonality.

    Inner-product residuals are compared against tol*N (inner products scale
    with the row length), modulus residuals against tol directly.
    """
    tol = tolerance(tol, "tol")
    z = h.to_array()
    mod_res = float(np.max(np.abs(np.abs(z) - 1.0)))
    # Z Z* must equal N I: the residual covers the diagonal and the off-diagonal
    gram = z @ z.conj().T
    gram.flat[::h.m + 1] -= h.n
    inner_res = float(np.max(np.abs(gram)))
    ok = inner_res <= tol * h.n and mod_res <= tol
    if ok:
        prev = h._verified_tol
        h._verified_tol = tol if prev is None else min(prev, tol)
    return VerificationReport(ok, inner_res, mod_res, tol)


def ensure_verified(h: PHMatrix, tol: float = DEFAULT_TOL) -> None:
    """Establish the partial-Hadamard property or raise InvalidInputError."""
    tol = tolerance(tol, "tol")      # before the cache: no tolerance passes unread
    if h._verified_tol is not None and h._verified_tol <= tol:
        return
    rep = verify_partial_hadamard(h, tol)
    if not rep.is_hadamard:
        raise InvalidInputError(
            f"matrix is not partial Hadamard at tol={tol}: "
            f"inner residual {rep.max_inner_residual:.3g}, "
            f"modulus residual {rep.max_modulus_residual:.3g}")


def _dephased(p: PhaseArray, r: int, c: int) -> PhaseArray:
    """p_ij * conj(p_ic) * conj(p_rj) * p_rc."""
    out = multiply(p, p[:, c:c + 1].conj())
    out = multiply(out, p[r:r + 1, :].conj())
    return multiply(out, p[r:r + 1, c:c + 1])


def dephase(h: PHMatrix):
    """Normalize the first row and column to 1.

    Returns (dephased, row_phases, col_phases) with
    H_ij = row_phases[i] * col_phases[j] * dephased_ij, exactly for exact
    representations.
    """
    p = h.phases
    row_phases = tuple(row[0] for row in phase_entries(p[:, 0:1]))
    col_phases = phase_entries(multiply(p[0:1, :], p[0:1, 0:1].conj()))[0]
    out = PHMatrix.from_phases(_dephased(p, 0, 0), label=_derived_label(h, "dephased"))
    return out, row_phases, col_phases


def dephase_at(h: PHMatrix, r: int, c: int) -> PHMatrix:
    """Dephase relative to pivot row r and pivot column c."""
    r, c = integer(r, "pivot row", 0, h.m), integer(c, "pivot column", 0, h.n)
    return PHMatrix.from_phases(_dephased(h.phases, r, c),
                                label=_derived_label(h, f"dephased@{r},{c}"))


def row_quotient(h: PHMatrix, i: int, j: int) -> np.ndarray:
    """The entrywise quotient vector H_i / H_j = (H_ik * conj(H_jk))_k.

    For an exact matrix each term is the root of unity of its exponent
    difference, so equal terms are equal to the bit.
    """
    i, j = (integer(x, "row index", 0, h.m) for x in (i, j))
    p = h.phases
    return phase_values(multiply(p[i], p[j].conj()))


def detect_butson(h: PHMatrix, tol: float = DEFAULT_TOL) -> Optional[ExactPhases]:
    """The exponent table of H at the least order l whose roots hold every
    entry, or None.

    An exact matrix answers with its stored table, whatever its order; the
    entries of a complex matrix are matched within tol against the values
    of l-th roots (ExactPhases.values) for l <= BUTSON_ORDER_CAP.
    """
    tol = tolerance(tol, "tol")
    p = h.phases
    if isinstance(p, ExactPhases):
        return p
    z = h.to_array()
    turns = (np.angle(z) / (2.0 * math.pi)) % 1.0
    for l in range(1, BUTSON_ORDER_CAP + 1):
        table = ExactPhases(np.rint(turns * l).astype(int) % l, l)
        if np.max(np.abs(z - table.values())) <= tol:
            return table
    return None


def tensor_product(h: PHMatrix, k: PHMatrix) -> PHMatrix:
    """Kronecker product with row-major composite indices (i,a) -> i*m_k + a."""
    p = multiply(h.phases[:, None, :, None], k.phases[None, :, None, :])
    label = None
    if h.label and k.label:
        label = f"{h.label} (x) {k.label}"
    return PHMatrix.from_phases(p.reshape(h.m * k.m, h.n * k.n), label=label)


def apply_equivalence(h: PHMatrix,
                      row_perm: Sequence[int],
                      col_perm: Sequence[int],
                      row_phases: Sequence[PhaseLike],
                      col_phases: Sequence[PhaseLike]) -> PHMatrix:
    """Permute rows/columns and multiply them by unit phases.

    The image of H under (sigma, tau, a, b) is H'_{sigma(i), tau(j)} = a_i b_j H_ij.
    """
    row_perm = [integer(x, "row_perm entry", 0, h.m) for x in row_perm]
    col_perm = [integer(x, "col_perm entry", 0, h.n) for x in col_perm]
    if sorted(row_perm) != list(range(h.m)) or sorted(col_perm) != list(range(h.n)):
        raise InvalidInputError("row_perm/col_perm must be permutations of the index ranges")
    if len(row_phases) != h.m or len(col_phases) != h.n:
        raise InvalidInputError("phase vectors must match the matrix shape")
    a = phase_array([as_phase(v) for v in row_phases], (h.m, 1))
    b = phase_array([as_phase(v) for v in col_phases], (1, h.n))
    p = multiply(multiply(a, b), h.phases)
    p = p[np.ix_(np.argsort(row_perm), np.argsort(col_perm))]
    return PHMatrix.from_phases(p, label=_derived_label(h, "equiv"))


def _derived_label(h: PHMatrix, op: str) -> Optional[str]:
    return f"{op}({h.label})" if h.label else None
