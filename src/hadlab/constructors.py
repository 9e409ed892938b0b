"""Constructors for partial complex Hadamard matrices.

Fourier matrices of finite abelian groups and their row truncations, phase
deformations of tensor products, a one-parameter 4x4 family, a one-parameter
7x7 family, and matrices given by an eigenphase/exponent table (each row a
power sequence lambda_i ** n_j).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import InvalidInputError, integer, is_integer
from .matrix import PHMatrix, PhaseLike, as_phase, ensure_verified
from .phases import ExactPhases, PhaseEntry, multiply, phase_array


def _check_orders(orders: Sequence[int]) -> Tuple[int, ...]:
    orders = tuple(orders)
    if not orders:
        raise InvalidInputError("need at least one cyclic factor")
    return tuple(integer(n, "cyclic order", 1) for n in orders)


def group_elements(orders: Sequence[int]) -> list:
    """Elements of Z_n1 x ... x Z_nk in row-major order.

    The position of g in this list is the row/column index used by
    fourier_group, so (i, a) <-> i * n2 + a for two factors.
    """
    orders = _check_orders(orders)
    return list(itertools.product(*(range(n) for n in orders)))


def group_index(g: Sequence[int], orders: Sequence[int]) -> int:
    idx = 0
    for c, n in zip(g, _check_orders(orders)):
        idx = idx * n + integer(c, "coordinate") % n
    return idx


def fourier_cyclic(n: int) -> PHMatrix:
    """The n x n Fourier matrix of Z_n, entries exp(2*pi*i*jk/n)."""
    return fourier_group((n,))


def _character_rows(rows: Sequence, orders: Tuple[int, ...]) -> ExactPhases:
    """The rows of the Fourier matrix of the group at the elements ``rows``:
    exponents <r, g> at order l = lcm(orders), columns g in row-major
    order."""
    l = math.lcm(*orders)
    elems = np.array(group_elements(orders), dtype=np.int64)
    weights = np.array([l // n for n in orders], dtype=np.int64)
    return ExactPhases((np.array(rows, dtype=np.int64) * weights) @ elems.T, l)


def _group_label(orders: Tuple[int, ...]) -> str:
    return f"F{orders[0]}" if len(orders) == 1 else "F" + "x".join(str(n) for n in orders)


def fourier_group(orders: Sequence[int]) -> PHMatrix:
    """Fourier matrix of a product of cyclic groups, rows and columns in
    row-major element order, entries as lcm-order roots of unity."""
    orders = _check_orders(orders)
    return PHMatrix.from_phases(_character_rows(group_elements(orders), orders),
                                label=_group_label(orders))


def normalize_row_subset(rows: Sequence, orders: Sequence[int]) -> list:
    """Row selectors (group tuples or flat indices) -> list of group tuples."""
    orders = _check_orders(orders)
    elems = group_elements(orders)
    out = []
    for r in rows:
        if is_integer(r):
            out.append(elems[integer(r, "row index", 0, len(elems))])
        else:
            g = tuple(r) if isinstance(r, (tuple, list, np.ndarray)) else ()
            if len(g) != len(orders) or not all(is_integer(c) for c in g):
                raise InvalidInputError(
                    f"row {r!r} is neither a row index nor an element of {orders}")
            out.append(tuple(int(c) % n for c, n in zip(g, orders)))
    if len(set(out)) != len(out):
        raise InvalidInputError("row subset has duplicates")
    if not out:
        raise InvalidInputError("row subset is empty")
    return out


def truncated_fourier(rows: Sequence, orders: Sequence[int]) -> PHMatrix:
    """Row submatrix of the group Fourier matrix.

    `rows` may be group elements (tuples) or flat row indices.
    """
    orders = _check_orders(orders)
    subset = normalize_row_subset(rows, orders)
    desc = ",".join("".join(map(str, g)) if len(orders) > 1 else str(g[0]) for g in subset)
    return PHMatrix.from_phases(_character_rows(subset, orders),
                                label=f"{_group_label(orders)}[{desc}]")


@dataclass(frozen=True)
class DitaParams:
    """Data for a phase-deformed tensor product.

    phases[i][b] multiplies block row i, inner column b; shape must be
    (outer.m, inner.n).  With all phases 1 this is the plain tensor product.
    """
    outer: PHMatrix
    inner: PHMatrix
    phases: tuple

    def __post_init__(self):
        grid = tuple(tuple(as_phase(v) for v in row) for row in self.phases)
        if len(grid) != self.outer.m or any(len(r) != self.inner.n for r in grid):
            raise InvalidInputError(
                f"phase grid must be {self.outer.m} x {self.inner.n}")
        object.__setattr__(self, "phases", grid)


def dita_deformation(params: DitaParams) -> PHMatrix:
    """Deformed tensor product, composite indices row-major.

    Entry ((i,a),(j,b)) = outer_ij * phases[i][b] * inner_ab.  Rows stay
    orthogonal for every unit phase grid: the j-sum factors out of each
    block-row pair, and within a block row the phases cancel.
    """
    h, k = params.outer, params.inner
    q = phase_array([p for row in params.phases for p in row], (h.m, k.n))
    p = multiply(h.phases[:, None, :, None], q[:, None, None, :])
    p = multiply(p, k.phases[None, :, None, :])
    return PHMatrix.from_phases(p.reshape(h.m * k.m, h.n * k.n), label="dita")


def f22q(q: PhaseLike) -> PHMatrix:
    """The 4x4 one-parameter family: F_2 x F_2 with one free phase q.

    Hadamard for every unit q; equals F_2 tensor F_2 at q = 1.
    """
    qp = as_phase(q)
    one = PhaseEntry.one()
    m1 = -one
    rows = [
        [one, one, one, one],
        [one, m1, one, m1],
        [one, qp, m1, -qp],
        [one, -qp, m1, qp],
    ]
    return PHMatrix(rows, label="F22q")


def petrescu(q: PhaseLike) -> PHMatrix:
    """A one-parameter family of 7x7 Hadamard matrices.

    Built over the primitive cube root w = exp(2*pi*i/3); every row pair's
    inner product reduces to a multiple of 1 + w + conj(w) = 0, for any
    unit q.
    """
    qp = as_phase(q)
    w = PhaseEntry.turns(Fraction(1, 3))
    one = PhaseEntry.one()
    qbw = qp.conj() * w
    rows = [
        [-qp, qp, w, one, w, one, w],
        [qp, -qp, w, one, one, w, w],
        [w, w, -w, one, w, w, one],
        [one, one, one, -one, w, w, w],
        [w, one, w, w, -qbw, qbw, one],
        [one, w, w, w, qbw, -qbw, one],
        [w, w, one, w, one, one, -one],
    ]
    return PHMatrix(rows, label="P7")


# -- eigenphase/exponent form -----------------------------------------------

ExponentLike = Union[int, Fraction, float]


def _exponent(e, what: str = "exponent") -> ExponentLike:
    """A power-sequence exponent: an integer (as an int), a Fraction or a
    finite float; anything else, a boolean too, is refused."""
    if is_integer(e):
        return int(e)
    if isinstance(e, Fraction) or (isinstance(e, float) and math.isfinite(e)):
        return e
    raise InvalidInputError(f"{what} {e!r} is not an integer, a Fraction or a finite float")


@dataclass(frozen=True)
class MasterSpec:
    """Rows as power sequences: H_ij = lambda_i ** n_j.

    Powers of a unit phase follow the principal-turn convention,
    (e^{2*pi*i*t})^r = e^{2*pi*i*t*r} with t in [0, 1), so non-integer
    exponents depend on that branch choice.
    """
    eigenphases: tuple
    exponents: tuple

    def __post_init__(self):
        phases = tuple(as_phase(v) for v in self.eigenphases)
        expo = tuple(self.exponents)
        if not phases or not expo:
            raise InvalidInputError("need at least one eigenphase and one exponent")
        expo = tuple(map(_exponent, expo))
        object.__setattr__(self, "eigenphases", phases)
        object.__setattr__(self, "exponents", expo)

    @property
    def m(self) -> int:
        return len(self.eigenphases)

    @property
    def n(self) -> int:
        return len(self.exponents)

    def angle_turns(self) -> list:
        """Principal turns of the eigenphases, exact where possible."""
        out = []
        for p in self.eigenphases:
            t = p.exact_turn()
            out.append(t if t is not None else p.turn_value())
        return out

    def char_sum(self, theta: float) -> complex:
        """Sum of e^{i*theta*n_j} over the exponent list, theta signed.

        theta is a plain real angle; no 2*pi reduction is applied, since the
        exponents need not be integers.
        """
        n = np.array([float(e) for e in self.exponents], dtype=np.float64)
        return complex(np.sum(np.exp(1j * theta * n)))


def master_matrix(spec: MasterSpec) -> PHMatrix:
    """Materialize the power-sequence matrix of a MasterSpec.

    Exact turns are kept when an eigenphase turn is rational and the
    exponent is an integer or Fraction; any float factor makes the product
    a float turn.
    """
    rows = [[PhaseEntry.turns(t * e) for e in spec.exponents]
            for t in spec.angle_turns()]
    return PHMatrix(rows, label="master")


def master_dita(n_outer: int, m_inner: int, k: int,
                p: Sequence[ExponentLike], r: Sequence[ExponentLike]):
    """A deformed tensor of Fourier matrices together with its power-sequence
    description.

    Returns (H, spec) where H is the deformed tensor product of F_{n_outer}
    and F_{m_inner} with block phases Q_ib = exp(2*pi*i * i*(m*p_b + b) / (m*n*k)),
    always verified partial Hadamard, and spec has eigenphases
    lambda_(i,a) = exp(2*pi*i*(i/(m*n*k) + a/m)) and exponents
    n_(j,b) = m*k*(n*r_j + j) + m*p_b + b.

    The materialized spec agrees with H entrywise exactly when all p_b and
    r_j are integers; for fractional parameters the two differ by branch
    terms and only H is guaranteed Hadamard.
    """
    n, m, k = (integer(x, name, 1) for x, name in
               ((n_outer, "n_outer"), (m_inner, "m_inner"), (k, "k")))
    if len(p) != m or len(r) != n:
        raise InvalidInputError(f"need {m} inner parameters and {n} outer parameters")
    p, r = [_exponent(x, "p entry") for x in p], [_exponent(x, "r entry") for x in r]
    base = m * n * k

    def _turn(num) -> PhaseEntry:
        if isinstance(num, (int, Fraction)):
            return PhaseEntry.turns(Fraction(num, base))
        return PhaseEntry.turns(float(num) / base)

    grid = [[_turn(i * (m * p[b] + b)) for b in range(m)] for i in range(n)]
    dita = dita_deformation(DitaParams(fourier_cyclic(n), fourier_cyclic(m),
                                       tuple(tuple(row) for row in grid)))
    ensure_verified(dita)

    lam = [PhaseEntry.turns((Fraction(i, base) + Fraction(a, m)) % 1)
           for i in range(n) for a in range(m)]
    expo = []
    for j in range(n):
        for b in range(m):
            e = m * k * (n * r[j] + j) + m * p[b] + b
            if isinstance(e, Fraction) and e.denominator == 1:
                e = int(e)
            expo.append(e)
    return dita, MasterSpec(tuple(lam), tuple(expo))


def f22q_master_spec(q: PhaseLike) -> MasterSpec:
    """Power-sequence form of the 4x4 family.

    Exists under the principal-branch convention only when q is a root of
    unity of order divisible by 4: q = exp(2*pi*i*c/d) reduced with 4 | d.
    Then eigenphases (1, -1, q, -q) with exponents (0, 1, d/2, d/2 + 1)
    reproduce f22q(q) entry by entry.
    """
    qp = as_phase(q)
    t = qp.exact_turn()
    if t is None:
        raise InvalidInputError(
            "q must be an exact root of unity (rational turn) to admit a "
            "power-sequence form")
    d = t.denominator
    if d % 4 != 0:
        raise InvalidInputError(
            f"no power-sequence form under the principal branch: the turn "
            f"denominator of q is {d}, which is not divisible by 4")
    one = PhaseEntry.one()
    lam = (one, -one, qp, -qp)
    expo = (0, 1, d // 2, d // 2 + 1)
    return MasterSpec(lam, expo)
