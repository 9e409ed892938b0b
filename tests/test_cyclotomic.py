import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hadlab import (InvalidInputError, PHMatrix, PhaseEntry, apply_equivalence,
                    defect_exact, detect_butson, fourier_cyclic, fourier_group,
                    isolation_certificate, tensor_product)
from hadlab.cyclotomic import (PROOF_CAP, _power_basis, cyclotomic_polynomial,
                               exact_defect_butson, exact_vanishing,
                               rank_mod_p, solve_integer, split_primes)

KNOWN = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    12: [1, 0, -1, 0, 1],
}


def test_cyclotomic_polynomials_known_table():
    for l, coeffs in KNOWN.items():
        assert cyclotomic_polynomial(l) == coeffs
    with pytest.raises(InvalidInputError):
        cyclotomic_polynomial(0)


def test_cyclotomic_first_nontrivial_coefficient():
    # smallest order with a coefficient outside {-1, 0, 1}
    assert -2 in cyclotomic_polynomial(105)


def test_cyclotomic_root_numerically():
    for l in (5, 7, 12, 30):
        z = np.exp(2j * np.pi / l)
        val = sum(c * z ** k for k, c in enumerate(cyclotomic_polynomial(l)))
        assert abs(val) < 1e-9


def test_power_basis_rows_are_powers_of_zeta():
    for l in (5, 7, 12, 30, 105):
        z = np.exp(2j * np.pi / l)
        basis = _power_basis(l)
        for e in range(l):
            val = sum(int(c) * z ** k for k, c in enumerate(basis[e]))
            assert abs(val - z ** e) < 1e-9, (l, e)


def test_context_power_wraps_and_reduces():
    assert _power_basis(5).shape == (5, 4)
    # exponents are read modulo l: e and e + l name the same root
    assert exact_vanishing([5, 11, -3, 8, 14], 5)
    assert not exact_vanishing([2, -3], 5)
    # zeta^4 = -1 - zeta - zeta^2 - zeta^3
    assert _power_basis(5)[4].tolist() == [-1, -1, -1, -1]
    assert not exact_vanishing([0, 1, 2, 3], 5)
    assert not exact_vanishing([4], 5)


def test_from_exponent_counts_vanishing_sum():
    basis = _power_basis(6)
    assert not np.any(np.array([1, 0, 1, 0, 1, 0]) @ basis)
    assert np.any(np.array([1, 1, 0, 0, 0, 0]) @ basis)
    assert exact_vanishing([0, 2, 4], 6)
    assert not exact_vanishing([0, 1], 6)


def test_exact_defect_small_fourier():
    # agrees with the closed form on F_2, F_3, F_4, and handles m=1
    f = {n: [[(i * j) % n for j in range(n)] for i in range(n)] for n in (2, 3, 4)}
    for n, want in ((2, 3), (3, 5), (4, 8)):
        res = exact_defect_butson(f[n], n)
        assert res.exact and res.defect == want
    assert exact_defect_butson([[0, 1, 2]], 3).defect == 3


def test_exact_defect_guards():
    # the cap is on reductions, not on size or degree: F_12 needs 49 to
    # close the Hadamard bound, so it gets a two-prime upper bound only
    f12 = [[(i * j) % 12 for j in range(12)] for i in range(12)]
    res = exact_defect_butson(f12, 12)
    assert not res.exact and res.route == "bound"
    assert res.defect == 40 and len(res.primes) == 2
    assert res.needed > PROOF_CAP
    with pytest.raises(InvalidInputError):
        defect_exact(fourier_cyclic(12))
    # 80 cells, rows not orthogonal: the N column directions still lie in
    # the kernel, and one reduction closes the bound
    res = exact_defect_butson([[0] * 40, [0] * 40], 2)
    assert res.exact and res.defect == 79
    assert exact_defect_butson([[0, 1]], 23).defect == 2   # degree 22
    with pytest.raises(InvalidInputError):
        exact_defect_butson([], 2)
    with pytest.raises(InvalidInputError):
        exact_defect_butson([[0, 1], [1]], 2)


def _is_prime(q):
    return q > 1 and all(q % f for f in range(2, math.isqrt(q) + 1))


@pytest.mark.parametrize("l", [1, 2, 7, 12, 52, 60])
def test_split_primes(l):
    pairs = split_primes(l)
    assert len(pairs) == PROOF_CAP
    primes = [p for p, _ in pairs]
    assert primes == sorted(set(primes)) and primes[0] > 2 ** 20
    for p, w in pairs:
        assert _is_prime(p) and p % l == 1 % l
        orders = [d for d in range(1, l + 1) if pow(w, d, p) == 1]
        assert orders[0] == l


def _rank_reference(a, p):
    """Plain Gaussian elimination over F_p, one pivot at a time, in int64
    (residues below 2^23, so products stay below 2^46)."""
    a = np.array(a, dtype=np.int64) % p
    rank = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[rank:, c])
        if not len(nz):
            continue
        a[[rank, rank + nz[0]]] = a[[rank + nz[0], rank]]
        f = a[rank + 1:, c] * pow(int(a[rank, c]), -1, p) % p
        a[rank + 1:] = (a[rank + 1:] - f[:, None] * a[rank]) % p
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


# 1048609 is the first prime used for l = 6 and l = 12; 5800079 is close
# to the largest prime the kernel accepts, so the trailing block is
# reduced again after every panel of 128 columns
@pytest.mark.parametrize("p", [1048609, 5800079])
def test_rank_mod_p_matches_reference(p):
    rng = np.random.default_rng(5)
    for shape, rank in [((1, 1), 1), ((3, 5), 2), ((40, 17), 9),
                        ((150, 300), 140), ((300, 290), 37), ((290, 300), 290),
                        ((600, 560), 500)]:
        a = rng.integers(0, p, size=(shape[0], rank)) @ \
            rng.integers(0, 3, size=(rank, shape[1]))
        a[rng.integers(0, shape[0], size=shape[0] // 4)] = 0
        a[:, rng.integers(0, shape[1], size=shape[1] // 4)] = 0
        a %= p
        assert rank_mod_p(a.astype(np.float64), p) == _rank_reference(a, p)
    with pytest.raises(InvalidInputError):
        rank_mod_p(np.ones((2, 2)), 8388617)


def test_exact_vanishing():
    assert exact_vanishing([0, 1, 2, 3, 4], 5)
    assert exact_vanishing([0, 3], 6)
    assert not exact_vanishing([0, 1], 5)
    assert exact_vanishing([5, 6, 12, 18, 24, 25], 30)


def test_solve_integer_solvable_and_unsolvable():
    cols = [[2, 0], [3, 1]]
    assert solve_integer(cols, [2, 0]) == [1, 0]
    x = solve_integer(cols, [7, 1])
    assert x is not None and 2 * x[0] + 3 * x[1] == 7 and x[1] == 1
    assert solve_integer([[2, 0], [0, 2]], [1, 0]) is None
    assert solve_integer([], [0, 0]) == []
    assert solve_integer([], [1]) is None


def test_solve_integer_random_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(25):
        nrows, ncols = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        a = rng.integers(-4, 5, size=(nrows, ncols))
        x = rng.integers(-3, 4, size=ncols)
        v = (a @ x).tolist()
        cols = [a[:, j].tolist() for j in range(ncols)]
        sol = solve_integer(cols, v)
        assert sol is not None
        assert (a @ np.array(sol)).tolist() == v


def test_rank_mod_p_keeps_every_entry_in_the_exact_range(monkeypatch):
    # Shrink the exact range to p + 8 p^2 and the blocks to match, and use
    # residues in [0, p) only, so every update adds and the trailing block
    # must be reduced again after each panel; every block the kernel
    # reduces must still be inside the range.
    import hadlab.cyclotomic as cyc
    p = 1048609
    monkeypatch.setattr(cyc, "_EXACT", float(p + 8 * p * p))
    monkeypatch.setattr(cyc, "_PANEL", 8)
    monkeypatch.setattr(cyc, "_LEAF", 4)
    monkeypatch.setattr(cyc, "_SHORT", 1 << 30)
    reduce, seen = cyc._reduce, []

    def watched(x, q):
        seen.append(float(np.abs(x).max()) if x.size else 0.0)
        reduce(x, q)
    monkeypatch.setattr(cyc, "_reduce", watched)
    a = np.random.default_rng(9).integers(0, p, size=(120, 130))
    assert rank_mod_p(a.astype(np.float64), p) == _rank_reference(a, p) == 120
    assert max(seen) < cyc._EXACT


# -- reference oracle: exact elimination over Q(zeta_l) with Fractions --------
# An independent exact route, Fraction arithmetic on the power basis and
# Gaussian elimination, slow but the reference for small inputs.

def _oracle_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _oracle_poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _oracle_trim(out)


def _oracle_poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _oracle_trim(out)


def _oracle_poly_divmod(num, den):
    num = list(num)
    if len(num) < len(den):
        return [], _oracle_trim(num)
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c:
            q[k] = c / den[-1]
            for i, d in enumerate(den):
                num[k + i] -= q[k] * d
    return _oracle_trim(q), _oracle_trim(num)


class _OracleField:
    """Q(zeta_l) on the power basis, Fraction coefficients."""

    def __init__(self, l):
        self.l = l
        self.phi_poly = cyclotomic_polynomial(l)
        self.deg = len(self.phi_poly) - 1
        table = []
        for e in range(max(l, 2 * self.deg - 1)):
            if e < self.deg:
                v = [0] * self.deg
                v[e] = 1
            else:
                v = [0] + list(table[e - 1])
                c = v.pop()
                if c:
                    v = [a - c * b for a, b in zip(v, self.phi_poly[:self.deg])]
            table.append(v)
        self.pow = table

    def zero(self):
        return tuple([Fraction(0)] * self.deg)

    def zeta_power(self, e):
        return tuple(Fraction(c) for c in self.pow[e % self.l])

    def is_zero(self, a):
        return all(x == 0 for x in a)

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        conv = [Fraction(0)] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        acc = list(conv[:self.deg])
        for e in range(self.deg, len(conv)):
            if conv[e]:
                acc = [p + conv[e] * q for p, q in zip(acc, self.pow[e])]
        return tuple(acc)

    def inverse(self, a):
        r0 = [Fraction(c) for c in self.phi_poly]
        r1 = _oracle_trim([Fraction(x) for x in a])
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _oracle_poly_divmod(r0, r1)
            s0, s1 = s1, _oracle_poly_sub(s0, _oracle_poly_mul(q, s1))
            r0, r1 = r1, r
        out = [x / r1[0] for x in s1] + [Fraction(0)] * self.deg
        return tuple(out[:self.deg])


def _oracle_rank(rows, ctx):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows))
                    if not ctx.is_zero(rows[r][col])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ctx.inverse(rows[rank][col])
        rows[rank] = [ctx.mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not ctx.is_zero(rows[r][col]):
                f = rows[r][col]
                rows[r] = [ctx.sub(v, ctx.mul(f, w))
                           for v, w in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def oracle_defect(exponents, l):
    """M*N minus the exact rank of [C; conj(C)] over Q(zeta_l)."""
    ctx = _OracleField(l)
    m, n = len(exponents), len(exponents[0])
    if m == 1:
        return n
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            for sign in (1, -1):
                row = [ctx.zero()] * (m * n)
                for k in range(n):
                    c = ctx.zeta_power(sign * (exponents[i][k] - exponents[j][k]))
                    row[i * n + k] = c
                    row[j * n + k] = ctx.neg(c)
                rows.append(row)
    return m * n - _oracle_rank(rows, ctx)


def test_oracle_matches_closed_forms():
    for n, want in ((3, 5), (4, 8), (5, 9), (6, 15)):
        f = [[(i * j) % n for j in range(n)] for i in range(n)]
        assert oracle_defect(f, n) == want


def _in_old_exact_box(h, l):
    """The sizes the Fraction route certified: (deg <= 4 and <= 40 cells)
    or (deg <= 2 and <= 64 cells)."""
    deg, cells = len(cyclotomic_polynomial(l)) - 1, h.m * h.n
    return (deg <= 4 and cells <= 40) or (deg <= 2 and cells <= 64)


_F2, _F4 = fourier_cyclic(2), fourier_cyclic(4)
_BASES = ([fourier_cyclic(n) for n in range(2, 9) if n != 7]
          + [fourier_group(o) for o in ((2, 2), (2, 3), (2, 4), (3, 3))]
          + [tensor_product(_F2, _F4), tensor_product(_F4, _F2),
             tensor_product(_F2, tensor_product(_F2, _F2))])


@st.composite
def small_butson(draw):
    """Row subsets of small Fourier and tensor matrices, rows and columns
    permuted and rephased by roots of unity of the matrix's own order."""
    full = draw(st.sampled_from(_BASES))
    rows = draw(st.lists(st.integers(0, full.m - 1), min_size=1,
                         max_size=full.m, unique=True))
    h = PHMatrix([full.entries[r] for r in rows])
    l = detect_butson(h).l
    phases = [PhaseEntry.butson(draw(st.integers(0, l - 1)), l)
              for _ in range(h.m + h.n)]
    return apply_equivalence(h, draw(st.permutations(range(h.m))),
                             draw(st.permutations(range(h.n))),
                             phases[:h.m], phases[h.m:])


@settings(max_examples=80, deadline=None)
@given(small_butson())
def test_modular_certificates_match_the_fraction_oracle(h):
    form = detect_butson(h)
    assume(_in_old_exact_box(h, form.l))
    want = oracle_defect(form.exponents, form.l)
    bound = h.m + h.n - 1
    cert = isolation_certificate(h)
    rep = defect_exact(h)
    assert cert.exact and rep.exact
    assert cert.defect == rep.defect == want
    assert cert.status == ("isolated" if want == bound else "undetermined")
    primes = rep.breakdown["primes"]
    assert len(set(primes)) == len(primes) == rep.breakdown["reductions"]
    assert all(p > 2 ** 20 and p % form.l == 1 % form.l for p in primes)
    if want > bound:
        # the Hadamard bound on a minor of order r+1 is closed
        r = h.m * h.n - want
        phi = len(cyclotomic_polynomial(form.l)) - 1
        assert sum(map(math.log, primes)) > phi * (r + 1) / 2 * math.log(2 * h.n)
