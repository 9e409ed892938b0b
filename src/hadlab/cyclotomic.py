"""Exact arithmetic with cyclotomic integers, and exact ranks of Butson
tangent systems.

``exact_vanishing`` reduces exponent counts modulo the l-th cyclotomic
polynomial over the integers.  ``exact_defect_butson`` ranks the tangent
system of a Butson matrix modulo split primes: a prime p = 1 (mod l) has
an element w of order l in F_p, and zeta_l -> w is a ring map from
Z[zeta_l] onto F_p.  The stacked system [C; conj(C)] has entries in
Z[zeta_l] and its minors map to minors, so a reduction never raises the
rank: every mod-p rank is a lower bound on the true rank, and M*N minus it
an upper bound on the defect.  Two facts turn such bounds into proofs.
When the rows are orthogonal the trivial phase directions lie in the
kernel, so the rank is at most M*N - (M+N-1), and one reduction that
reaches it proves isolation.  Otherwise the Hadamard bound closes the
proof: every row holds 2N roots of unity, so a nonzero minor of order
r+1 has norm at most (2N)^(phi(l)(r+1)/2), and that norm is divisible by
each prime at which the minor vanishes.  Once the primes at which the rank
stayed at most r multiply past the bound, the rank is exactly r.

The elimination runs in float64 on integers: products of residues below p
stay below 2^52 for the number of updates an entry takes between
reductions, so every sum is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError
from .mcnulty_weigert import is_odd_prime

# Proofs of a defect above M+N-1 use at most this many reductions; past it
# the defect is reported as the upper bound from two primes.
PROOF_CAP = 16
_PRIME_FLOOR = 1 << 20      # every prime used exceeds this
_EXACT = float(1 << 52)     # magnitudes kept below this stay exact in float64
_LEAF = 16                  # columns eliminated by rank-1 steps
_PANEL = 128                # columns whose updates reach the rest in one GEMM
_CHUNK = 512                # trailing columns per GEMM, bounding its temporary
_SHORT = 128                # vectors this short reduce in one np.remainder call

# polynomials are coefficient lists, lowest degree first


def _poly_divmod_exact(num: list, den: list) -> list:
    """Quotient of integer polynomials known to divide exactly."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("division is not exact")
        q[k] = c // lead
        for i, d in enumerate(den):
            num[k + i] -= q[k] * d
    if any(num):
        raise ArithmeticError("division is not exact")
    return q


@lru_cache(maxsize=None)
def _cyclotomic_cached(l: int) -> tuple:
    num = [-1] + [0] * (l - 1) + [1]
    for d in range(1, l):
        if l % d == 0:
            num = _poly_divmod_exact(num, _cyclotomic_cached(d))
    return tuple(num)


def cyclotomic_polynomial(l: int) -> List[int]:
    """Integer coefficients of the l-th cyclotomic polynomial, low first."""
    if l < 1:
        raise InvalidInputError("l must be >= 1")
    return list(_cyclotomic_cached(l))


class CycloContext:
    """Elements of Q(zeta_l) on the power basis, enough to test sums of
    roots of unity for zero."""

    def __init__(self, l: int):
        self.l = l
        self.phi_poly = cyclotomic_polynomial(l)
        self.deg = len(self.phi_poly) - 1
        # x^e reduced mod Phi_l, as integer vectors, for 0 <= e < l
        table = []
        for e in range(l):
            if e < self.deg:
                v = [0] * self.deg
                v[e] = 1
            else:
                prev = table[e - 1]
                v = [0] + list(prev)
                c = v.pop()  # coefficient at x^deg
                if c:
                    v = [a - c * b for a, b in zip(v, self.phi_poly[:self.deg])]
            table.append(v)
        self._pow = table

    def zeta_power(self, e: int) -> tuple:
        return tuple(Fraction(c) for c in self._pow[e % self.l])

    def from_exponent_counts(self, counts: Sequence[int]) -> tuple:
        """Sum of counts[e] * zeta^e as a field element."""
        acc = [0] * self.deg
        for e, c in enumerate(counts):
            if c:
                v = self._pow[e % self.l]
                acc = [a + c * b for a, b in zip(acc, v)]
        return tuple(Fraction(c) for c in acc)

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)


# -- exact ranks modulo split primes -----------------------------------------

@lru_cache(maxsize=None)
def split_primes(l: int) -> Tuple[Tuple[int, int], ...]:
    """The PROOF_CAP smallest primes p = 1 (mod l) above 2^20, each paired
    with an element of order l in F_p."""
    if l < 1:
        raise InvalidInputError("l must be >= 1")
    factors = [q for q in range(2, l + 1)
               if l % q == 0 and (q == 2 or is_odd_prime(q))]
    out = []
    p = (_PRIME_FLOOR // l + 1) * l + 1
    while len(out) < PROOF_CAP:
        if is_odd_prime(p):
            g = 2
            w = pow(g, (p - 1) // l, p)
            while any(pow(w, l // q, p) == 1 for q in factors):
                g += 1
                w = pow(g, (p - 1) // l, p)
            out.append((p, w))
        p += l
    return tuple(out)


def _reduce(x: np.ndarray, p: int) -> None:
    """Replace each entry of x by a residue mod p of magnitude below p, in
    place.  Entries are integers below 2^52 in magnitude, so x * (1/p) is
    within 2^-19 of the true quotient, rint(x/p) * p is exact, and what
    is left is at most p/2 + 1 in magnitude."""
    if x.size <= _SHORT:
        np.remainder(x, p, out=x)
        return
    q = x * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    x -= q


def _leaf(v: np.ndarray, y: np.ndarray, r0: int, c0: int, c1: int,
          p: int) -> Tuple[int, np.ndarray]:
    """Eliminate columns c0:c1 of v among its rows r0: by rank-1 steps.

    The steps run on a transposed copy that holds the leaf columns and,
    below them, each row's coefficients on the pivot rows as those were
    when the leaf began.  The pivot rows move to r0, r0+1, ... in v and y.
    Returns the pivot count k and, for the rows of v from r0+k on, the
    coefficients (unreduced) by which the leaf's steps changed them.
    """
    w = c1 - c0
    rows = v.shape[0] - r0
    t = np.zeros((2 * w, rows))
    t[:w] = v[r0:, c0:c1].T
    buf = np.empty(2 * w * rows)
    order = list(range(rows))
    k = 0
    for c in range(w):
        if k == rows:
            break
        col = t[c, k:]
        _reduce(col, p)
        nz = col.nonzero()[0]
        if not len(nz):
            continue
        i = k + int(nz[0])
        if i != k:
            t[:, [k, i]] = t[:, [i, k]]
            order[k], order[i] = order[i], order[k]
        t[w + k, k] = 1.0
        # the rest of the pivot row and its coefficients, times -1/pivot
        piv = t[c + 1:w + k + 1, k]
        _reduce(piv, p)
        piv *= p - pow(int(t[c, k]) % p, -1, p)
        _reduce(piv, p)
        below = rows - k - 1
        upd = buf[:len(piv) * below].reshape(len(piv), below)
        np.multiply(piv[:, None], col[1:], out=upd)
        t[c + 1:w + k + 1, k + 1:] += upd
        k += 1
    order = np.array(order)
    moved = np.flatnonzero(order != np.arange(rows))
    if len(moved):
        v[r0 + moved] = v[r0 + order[moved]]
        y[r0 + moved] = y[r0 + order[moved]]
    return k, t[w:w + k, k:].T


def _panel(v: np.ndarray, c0: int, c1: int, p: int) -> Tuple[int, np.ndarray]:
    """Eliminate columns c0:c1 of v, leaf by leaf, updating only c0:c1.

    Returns the pivot count k, with the pivot rows moved to the top of v,
    and reduced coefficients y: the elimination adds y[i] @ (v[:k] as it
    was when the panel began) to row k + i of v.
    """
    rows = v.shape[0]
    y = np.zeros((rows, c1 - c0))
    k = 0
    for s in range(c0, c1, _LEAF):
        e = min(s + _LEAF, c1)
        kl, yl = _leaf(v, y, k, s, e, p)
        if not kl:
            continue
        top = k + kl
        _reduce(yl, p)
        y[range(k, top), range(k, top)] = 1.0
        for src, dst in ((v[k:top, e:c1], v[top:, e:c1]),
                         (y[k:top, :top], y[top:, :top])):
            _reduce(src, p)
            dst += yl @ src
        k = top
        if k == rows:
            break
    yk = np.ascontiguousarray(y[k:, :k])
    _reduce(yk, p)
    return k, yk


def rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank over F_p of an integer matrix held in float64; a is overwritten.

    Right-looking elimination: rank-1 steps inside leaves of _LEAF columns,
    GEMM updates from each leaf to the rest of its panel of _PANEL columns
    and from each panel to the trailing columns.  Every operand is reduced
    below p before it is multiplied, so each update adds less than p^2 to
    an entry; entries are reduced when their panel comes up, and the
    trailing block as a whole whenever the updates it took since would
    exceed ``cap``, which keeps every entry and partial sum below 2^52.
    """
    rows, cols = a.shape
    cap = int((_EXACT - p) // (p * p))
    if p < 2 or cap < _PANEL:
        raise InvalidInputError(f"p = {p} is outside the exact float64 range")
    rank = stale = 0
    buf = np.empty(rows * _CHUNK)
    for c0 in range(0, cols, _PANEL):
        if rank == rows:
            break
        c1 = min(c0 + _PANEL, cols)
        v = a[rank:]
        _reduce(v[:, c0:c1], p)
        k, y = _panel(v, c0, c1, p)
        if k and c1 < cols:
            if stale + k > cap:
                _reduce(v[k:, c1:], p)
                stale = 0
            src = v[:k, c1:]
            _reduce(src, p)
            for s in range(c1, cols, _CHUNK):
                t = min(s + _CHUNK, cols)
                gemm = buf[:y.shape[0] * (t - s)].reshape(y.shape[0], t - s)
                v[k:, s:t] += np.matmul(y, src[:, s - c1:t - c1], out=gemm)
            stale += k
        rank += k
    return rank


@lru_cache(maxsize=None)
def _power_basis(l: int) -> np.ndarray:
    basis = np.array(CycloContext(l)._pow, dtype=np.int64)
    basis.flags.writeable = False
    return basis


def _rows_orthogonal(diffs: np.ndarray, l: int) -> bool:
    """Whether each row pair's sum of zeta_l^d over its differences d is
    exactly zero: its exponent counts reduce to zero modulo Phi_l."""
    npairs = diffs.shape[0]
    keys = np.arange(npairs)[:, None] * l + diffs
    counts = np.bincount(keys.ravel(), minlength=npairs * l).reshape(npairs, l)
    return not np.any(counts @ _power_basis(l))


def _tangent_system_mod_p(pairs: Tuple[np.ndarray, np.ndarray],
                          diffs: np.ndarray, shape: Tuple[int, int], l: int,
                          p: int, w: int) -> np.ndarray:
    """[C; conj(C)] over F_p, with zeta_l -> w, as float64 residues.

    Row (i, j) of C is w^(E_ik - E_jk) in column i*N + k and its negative
    in column j*N + k; conj(C) has the exponents negated.
    """
    iu, ju = pairs
    m, n = shape
    powers = np.array([pow(w, e, p) for e in range(l)], dtype=np.float64)
    out = np.zeros((2, len(iu), m, n))
    at = np.arange(len(iu))
    for half, d in enumerate((diffs, (-diffs) % l)):
        c = powers[d]
        out[half, at, iu] = c
        out[half, at, ju] = p - c
    return out.reshape(2 * len(iu), m * n)


@dataclass(frozen=True)
class ButsonDefect:
    """Defect of a Butson exponent table from ranks modulo split primes.

    ``exact`` says whether the ranks prove the defect; otherwise it is the
    least upper bound they give.  ``route`` is "proof" or "bound".
    ``needed`` is the number of reductions whose primes beat the Hadamard
    bound at the largest rank seen (an estimate past the PROOF_CAP cached
    primes), or 0 when one reduction reached the largest possible rank.
    """
    defect: int
    exact: bool
    route: str
    primes: Tuple[int, ...]
    ranks: Tuple[int, ...]
    needed: int


def _reductions_needed(l: int, phi: int, n: int, rank: int) -> int:
    """Fewest leading split primes whose product exceeds (2N)^(phi(r+1)/2),
    the Hadamard bound on the norm of a minor of order r+1; past the
    PROOF_CAP cached primes, an estimate that takes each further prime as
    large as the last."""
    target = phi * (rank + 1) / 2 * math.log(2 * n)
    logs = [math.log(p) for p, _ in split_primes(l)]
    total = 0.0
    for k, lp in enumerate(logs, 1):
        total += lp
        if total > target:
            return k
    return len(logs) + math.floor((target - total) / logs[-1]) + 1


def exact_defect_butson(exponents: Sequence[Sequence[int]], l: int) -> ButsonDefect:
    """Defect of the Butson matrix zeta_l^E from ranks of its tangent system
    modulo split primes (see the module docstring for the proof).

    The first reduction that reaches the largest possible rank proves the
    defect.  Otherwise, when the Hadamard bound closes within PROOF_CAP
    reductions, reductions continue until it does; when it cannot, two
    reductions give an upper bound and ``exact`` is False.
    """
    rows = [list(map(int, row)) for row in exponents]
    if not rows or not rows[0]:
        raise InvalidInputError("empty exponent table")
    if any(len(r) != len(rows[0]) for r in rows):
        raise InvalidInputError("ragged exponent table")
    phi = len(cyclotomic_polynomial(l)) - 1
    E = np.array(rows, dtype=np.int64)
    m, n = E.shape
    if m == 1:
        return ButsonDefect(n, True, "proof", (), (), 0)
    pairs = np.triu_indices(m, 1)
    diffs = (E[pairs[0]] - E[pairs[1]]) % l
    # the column phase directions always lie in the kernel, the row phase
    # directions when the rows are orthogonal
    top = m * n - (m + n - 1 if _rows_orthogonal(diffs, l) else n)
    primes, ranks = [], []
    for p, w in split_primes(l):
        primes.append(p)
        # no name holds the system, so it is freed before the next is built
        ranks.append(rank_mod_p(
            _tangent_system_mod_p(pairs, diffs, (m, n), l, p, w), p))
        r = max(ranks)
        if r == top:
            return ButsonDefect(m * n - r, True, "proof", tuple(primes),
                                tuple(ranks), 0)
        needed = _reductions_needed(l, phi, n, r)
        if needed > PROOF_CAP:
            if len(primes) >= 2:
                break
        elif (len(primes) >= needed
              and math.prod(primes) ** 2 > (2 * n) ** (phi * (r + 1))):
            return ButsonDefect(m * n - r, True, "proof", tuple(primes),
                                tuple(ranks), needed)
    return ButsonDefect(m * n - max(ranks), False, "bound", tuple(primes),
                        tuple(ranks), needed)


def exact_vanishing(exponents: Sequence[int], l: int) -> bool:
    """Whether the sum of zeta_l^e over the exponent list is exactly zero."""
    counts = [0] * l
    for e in exponents:
        counts[e % l] += 1
    ctx = CycloContext(l)
    return ctx.is_zero(ctx.from_exponent_counts(counts))


def solve_integer(a_columns: List[Sequence[int]], v: Sequence[int]) -> Optional[List[int]]:
    """Solve sum_j c_j * a_columns[j] = v over the integers.

    Column reduction to echelon form with a recorded transform; returns one
    solution or None.  Exactness matters here, not speed: systems are tiny.
    """
    ncols = len(a_columns)
    if ncols == 0:
        return None if any(v) else []
    nrows = len(a_columns[0])
    w = [list(map(int, col)) for col in a_columns]
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_addmul(dst: int, src: int, f: int):
        for r in range(nrows):
            w[dst][r] += f * w[src][r]
        for r in range(ncols):
            u[dst][r] += f * u[src][r]

    def col_swap(i: int, j: int):
        w[i], w[j] = w[j], w[i]
        u[i], u[j] = u[j], u[i]

    pivots = []  # (row, col) pairs, rows increasing
    pc = 0
    for row in range(nrows):
        if pc == ncols:
            break
        live = [j for j in range(pc, ncols) if w[j][row] != 0]
        if not live:
            continue
        # Euclidean reduction among the live columns at this row
        while len(live) > 1:
            live.sort(key=lambda j: abs(w[j][row]))
            base = live[0]
            nxt = []
            for j in live[1:]:
                col_addmul(j, base, -(w[j][row] // w[base][row]))
                if w[j][row] != 0:
                    nxt.append(j)
            live = [base] + nxt
        j = live[0]
        col_swap(pc, j)
        if w[pc][row] < 0:
            for r in range(nrows):
                w[pc][r] = -w[pc][r]
            for r in range(ncols):
                u[pc][r] = -u[pc][r]
        pivots.append((row, pc))
        pc += 1

    res = list(map(int, v))
    y = [0] * ncols
    for row, col in pivots:
        p = w[col][row]
        if res[row] % p != 0:
            return None
        t = res[row] // p
        if t:
            for r in range(nrows):
                res[r] -= t * w[col][r]
        y[col] = t
    if any(res):
        return None
    x = [sum(u[j][i] * y[j] for j in range(ncols)) for i in range(ncols)]
    # paranoia: confirm the reconstruction
    for r in range(nrows):
        if sum(a_columns[j][r] * x[j] for j in range(ncols)) != v[r]:
            raise ArithmeticError("integer solve reconstruction failed")
    return x
