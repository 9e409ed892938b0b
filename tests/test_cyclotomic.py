import gc
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hadlab import (InvalidInputError, MWSpec, PHMatrix, PhaseEntry,
                    apply_equivalence, defect, defect_exact, detect_butson,
                    fourier_cyclic, fourier_group, isolation_certificate,
                    mw_construct, petrescu, tensor_product)
from hadlab.cyclotomic import (PROOF_CAP, _automorphism, _block_layout,
                               _cycle_peel, _orbits, _steps, _tangent_blocks,
                               exact_defect_butson, exact_vanishing,
                               rank_mod_p, split_primes)

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
        assert _reference_cyclotomic(l) == coeffs


def test_cyclotomic_first_nontrivial_coefficient():
    # smallest order with a coefficient outside {-1, 0, 1}
    assert -2 in _reference_cyclotomic(105)


def test_cyclotomic_root_numerically():
    for l in (5, 7, 12, 30):
        z = np.exp(2j * np.pi / l)
        val = sum(c * z ** k for k, c in enumerate(_reference_cyclotomic(l)))
        assert abs(val) < 1e-9


def test_power_basis_rows_are_powers_of_zeta():
    for l in (5, 7, 12, 30, 105):
        z = np.exp(2j * np.pi / l)
        basis = _OracleField(l).pow
        for e in range(l):
            val = sum(int(c) * z ** k for k, c in enumerate(basis[e]))
            assert abs(val - z ** e) < 1e-9, (l, e)


def test_context_power_wraps_and_reduces():
    # exponents are read modulo l: e and e + l name the same root
    assert exact_vanishing([5, 11, -3, 8, 14], 5)
    assert not exact_vanishing([2, -3], 5)
    # zeta^4 = -1 - zeta - zeta^2 - zeta^3
    assert _OracleField(5).pow[4] == [-1, -1, -1, -1]
    assert not exact_vanishing([0, 1, 2, 3], 5)
    assert not exact_vanishing([4], 5)
    assert exact_vanishing([], 5) and not exact_vanishing([0], 1)


def test_from_exponent_counts_vanishing_sum():
    # the smallest prime peels first: 1 + z^2 + z^4 is the three 2-cycles
    # less the 3-cycle through z
    peel, left = _cycle_peel([[0, 2, 4]], 6)
    assert not left.any()
    assert [(p, rows.tolist(), r.tolist(), c.tolist()) for p, rows, r, c in peel] == \
        [(2, [0, 0, 0], [0, 1, 2], [1, 1, 1]), (3, [0], [1], [-1])]
    assert _cycle_peel([[0, 1]], 6)[1].any()
    # one call peels many rows; 1 + z + z^3 = z holds a vanishing 2-cycle
    assert _cycle_peel([[0, 2, 4], [0, 1, 3]], 6)[1].tolist() == [False, True]
    assert exact_vanishing([0, 2, 4], 6)
    assert not exact_vanishing([0, 1], 6)


def test_only_integer_exponents_are_read():
    # a float or text exponent is refused, never truncated or parsed
    for bad in ([0.5, 2.7], ["1", "3"]):
        with pytest.raises(InvalidInputError, match="integers"):
            exact_vanishing(bad, 4)
    with pytest.raises(InvalidInputError, match="integers"):
        exact_defect_butson([[0, 0], [0, 1.9]], 2)
    with pytest.raises(InvalidInputError, match="ragged"):
        exact_defect_butson([[0, 1], [0]], 2)
    # numpy integers and Python ints past int64 are integers
    assert exact_vanishing(np.array([0, 3], dtype=np.int32), 6)
    assert exact_vanishing([2 ** 64, 2 ** 64 + 3], 6)


def test_order_below_one_is_refused():
    for l in (0, -3):
        with pytest.raises(InvalidInputError, match="l must be >= 1"):
            exact_vanishing([1, 2], l)
        with pytest.raises(InvalidInputError, match="l must be >= 1"):
            exact_defect_butson([[0, 1], [1, 0]], l)


@st.composite
def exponent_rows(draw, orders):
    """An order l and rows of one length: a union of rotated prime cycles
    of l-th roots, a rotation of it, a copy with one exponent moved, and
    random exponents."""
    l = draw(orders)
    primes = [p for p in range(2, l + 1) if l % p == 0 and _is_prime(p)]
    base = []
    for _ in range(draw(st.integers(0, 4)) if primes else 0):
        p, r = draw(st.sampled_from(primes)), draw(st.integers(0, l - 1))
        base += [r + k * (l // p) for k in range(p)]
    base += draw(st.lists(st.integers(0, l - 1), max_size=2))
    n = len(base)
    moved = list(base)
    if n:
        moved[draw(st.integers(0, n - 1))] += draw(st.integers(1, l))
    shift = draw(st.integers(-l, l))
    rotated = [e + shift for e in base]
    noise = draw(st.lists(st.integers(-2 * l, 2 * l), min_size=n, max_size=n))
    return l, [base, rotated, moved, noise]


@settings(max_examples=150, deadline=None)
@given(st.one_of(exponent_rows(st.integers(1, 120)),
                 exponent_rows(st.sampled_from((105, 210)))))
def test_vanishing_rows_match_the_fraction_oracle(case):
    l, rows = case
    ctx = _OracleField(l)
    want = []
    for row in rows:
        total = ctx.zero()
        for e in row:
            total = ctx.sub(total, ctx.neg(ctx.zeta_power(e)))
        want.append(ctx.is_zero(total))
    assert (~_cycle_peel(rows, l)[1]).tolist() == want
    assert [exact_vanishing(row, l) for row in rows] == want


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
    # F_12 itself is a character matrix, which defect_exact counts; the
    # Petrescu matrix at q = 1/7 (order 42) is not, and needs 40 reductions
    with pytest.raises(InvalidInputError, match="needs 40 reductions"):
        defect_exact(petrescu(PhaseEntry.turns(Fraction(1, 7))))
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


def test_split_prime_cache_is_bounded():
    # a long-running caller asking about many orders keeps at most 64
    for l in range(1, 101):
        split_primes(l)
    info = split_primes.cache_info()
    assert info.maxsize == 64 and info.currsize <= 64


def _butson_peak(l: int):
    """The certificate of [[0, 0], [0, l/2]] and the traced memory peak of
    computing it again, once its split primes are cached."""
    table = [[0, 0], [0, l // 2]]
    exact_defect_butson(table, l)
    gc.collect()
    tracemalloc.start()
    try:
        res = exact_defect_butson(table, l)
        return res, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_search_refuses_orders_above_the_cap():
    # F20's table rephased to order 20 * 2^10 keeps its automorphisms, but
    # the search's noise table would hold 2 * 20 * l int64 values
    f20 = np.array(fourier_cyclic(20).phases.exp, dtype=np.int64)
    assert _automorphism(f20, 20)[2] == 5
    gc.collect()
    tracemalloc.start()
    try:
        found = _automorphism(f20 << 10, 20 << 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is None and peak < 64 * 1024


def test_tangent_blocks_tabulate_only_the_differences_present():
    # F2 rephased to order l: one exponent difference besides 0, so no
    # table of all l powers of w
    small, small_peak = _butson_peak(2 ** 8)
    big, big_peak = _butson_peak(2 ** 16)
    for res in (small, big):
        assert (res.defect, res.exact, res.ranks) == (3, True, (1,))
    assert big_peak <= small_peak + 8 * 1024 and big_peak < 64 * 1024


@pytest.mark.parametrize("floor", [400, 0])
def test_tangent_blocks_read_a_flat_unique_inverse(monkeypatch, floor):
    # before NumPy 2.0, np.unique returns the inverse of a 2-D input
    # flattened; the certificate must not depend on the inverse's shape
    import hadlab.cyclotomic as cyc
    monkeypatch.setattr(cyc, "_SYMMETRY_FLOOR", floor)
    e = np.array(fourier_cyclic(5).phases.exp, dtype=np.int64)
    want = exact_defect_butson(e, 5)
    unique = np.unique

    def flat(x, *args, **kw):
        out = unique(x, *args, **kw)
        if not kw.get("return_inverse"):
            return out
        at = 1 + bool(kw.get("return_index"))
        return out[:at] + (out[at].ravel(),) + out[at + 1:]

    monkeypatch.setattr(np, "unique", flat)
    got = exact_defect_butson(e, 5)
    assert got == want and got.symmetry_order == (5 if floor == 0 else 1)


def _rank_reference(a, p):
    """Plain Gaussian elimination over F_p, one pivot at a time, in int64
    (residues below 2^24, so products stay below 2^48)."""
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


# 1048609 is the first prime used for l = 6 and l = 12.  The trailing
# block is reduced again whenever the pivots since its last reduction would
# pass cap: at 5800079 (cap 133) after about every eighth full leaf, and at
# 16777213, just under the largest prime the kernel accepts (cap 16), after
# every full leaf.
NEAR_LARGEST = 16777213


@pytest.mark.parametrize("p", [1048609, 5800079, NEAR_LARGEST])
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
        assert rank_mod_p(a[None].astype(np.float64), p) == [_rank_reference(a, p)]
    # the first prime above 2^24 has cap 15 < _LEAF
    with pytest.raises(InvalidInputError):
        rank_mod_p(np.ones((1, 2, 2)), 16777259)


@pytest.mark.parametrize("p", [1048609, NEAR_LARGEST])
@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 260), cols=st.integers(1, 260).filter(lambda c: c % 16),
       data=st.data())
def test_rank_mod_p_matches_reference_on_random_shapes(p, rows, cols, data):
    rank = data.draw(st.integers(0, min(rows, cols) - 1), label="rank")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    a = rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, cols)) % p
    a[rng.integers(0, rows, size=rows // 4)] = 0
    a[:, rng.integers(0, cols, size=cols // 4)] = 0
    [got] = rank_mod_p(a[None].astype(np.float64), p)
    assert got == _rank_reference(a, p) <= rank


@pytest.mark.parametrize("p", [1048609, NEAR_LARGEST])
@settings(max_examples=40, deadline=None)
@given(b=st.integers(1, 16), rows=st.integers(1, 120), cols=st.integers(1, 120),
       data=st.data())
def test_a_stack_is_ranked_as_its_matrices_one_at_a_time(p, b, rows, cols, data):
    # each matrix draws its own rank, rows and columns shuffled on their
    # own so that pivots fall in different rows and leaves; the first is
    # all zero and the second has every pivot in its first leaf (full rank
    # there when rows <= 16 and rows <= cols)
    ranks = data.draw(st.lists(st.integers(0, min(rows, cols)), min_size=b, max_size=b),
                      label="ranks")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    a = np.zeros((b, rows, cols), dtype=np.int64)
    for j, rank in enumerate(ranks):
        x = rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, cols)) % p
        a[j] = x[rng.permutation(rows)][:, rng.permutation(cols)]
    a[0] = 0
    if b > 1:
        k = min(rows, cols, 16)
        y = rng.integers(0, p, size=(k, cols))
        y[:, :k] = np.eye(k, dtype=np.int64)
        a[1] = rng.integers(0, p, size=(rows, k)) @ y % p
    got = rank_mod_p(a.astype(np.float64), p)
    alone = [rank_mod_p(x[None].astype(np.float64), p)[0] for x in a]
    assert got == alone == [_rank_reference(x, p) for x in a]


def test_exact_vanishing():
    assert exact_vanishing([0, 1, 2, 3, 4], 5)
    assert exact_vanishing([0, 3], 6)
    assert not exact_vanishing([0, 1], 5)
    assert exact_vanishing([5, 6, 12, 18, 24, 25], 30)


def test_rank_mod_p_keeps_every_entry_in_the_exact_range(monkeypatch):
    # Shrink the exact range to p + 8 p^2 and the leaves to 4 columns, and
    # use residues in [0, p) only, so every update adds and the trailing
    # stack must be reduced again after every second leaf; every block the
    # kernel reduces must still be inside the range.  The stack's matrices
    # take different pivot counts in each leaf: one has rank 120, one has
    # every fifth column zero, and one is of rank 30.
    import hadlab.cyclotomic as cyc
    p = 1048609
    monkeypatch.setattr(cyc, "_EXACT", float(p + 8 * p * p))
    monkeypatch.setattr(cyc, "_LEAF", 4)
    monkeypatch.setattr(cyc, "_SHORT", 1 << 30)
    reduce, seen = cyc._reduce, []

    def watched(x, q):
        seen.append(float(np.abs(x).max()) if x.size else 0.0)
        reduce(x, q)
    monkeypatch.setattr(cyc, "_reduce", watched)
    rng = np.random.default_rng(9)
    a = rng.integers(0, p, size=(3, 120, 130))
    a[1][:, ::5] = 0
    a[2] = rng.integers(0, p, size=(120, 30)) @ rng.integers(0, p, size=(30, 130)) % p
    ranks = [_rank_reference(x, p) for x in a]
    assert ranks == [120, 104, 30]
    assert rank_mod_p(a.astype(np.float64), p) == ranks
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


@lru_cache(maxsize=None)
def _reference_cyclotomic_cached(l):
    num = [Fraction(-1)] + [Fraction(0)] * (l - 1) + [Fraction(1)]
    for d in range(1, l):
        if l % d == 0:
            num, rest = _oracle_poly_divmod(num, _reference_cyclotomic_cached(d))
            assert not rest
    return tuple(num)


def _reference_cyclotomic(l):
    """Integer coefficients of Phi_l, lowest degree first: x^l - 1 divided
    by Phi_d for every proper divisor d of l."""
    return [int(c) for c in _reference_cyclotomic_cached(l)]


class _OracleField:
    """Q(zeta_l) on the power basis, Fraction coefficients."""

    def __init__(self, l):
        self.l = l
        self.phi_poly = _reference_cyclotomic(l)
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
    deg, cells = len(_reference_cyclotomic(l)) - 1, h.m * h.n
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
    l = detect_butson(h).order
    phases = [PhaseEntry.butson(draw(st.integers(0, l - 1)), l)
              for _ in range(h.m + h.n)]
    return apply_equivalence(h, draw(st.permutations(range(h.m))),
                             draw(st.permutations(range(h.n))),
                             phases[:h.m], phases[h.m:])


@settings(max_examples=80, deadline=None)
@given(small_butson())
def test_modular_certificates_match_the_fraction_oracle(h):
    table = detect_butson(h)
    assume(_in_old_exact_box(h, table.order))
    want = oracle_defect(table.exp.tolist(), table.order)
    bound = h.m + h.n - 1
    # the inputs are character matrices, which both public routes count;
    # the ranks modulo split primes are checked on the same table
    cert = isolation_certificate(h)
    rep = defect_exact(h)
    res = exact_defect_butson(table.exp, table.order)
    assert cert.exact and rep.exact and res.exact
    assert rep.method == cert.report.method == "character-exact"
    assert cert.defect == rep.defect == res.defect == want
    assert cert.status == ("isolated" if want == bound else "undetermined")
    primes = res.primes
    assert len(set(primes)) == len(primes) == len(res.ranks)
    assert all(p > 2 ** 20 and p % table.order == 1 % table.order for p in primes)
    if want > bound:
        # the Hadamard bound on a minor of order r+1 is closed
        r = h.m * h.n - want
        phi = len(_reference_cyclotomic(table.order)) - 1
        assert sum(map(math.log, primes)) > phi * (r + 1) / 2 * math.log(2 * h.n)


# -- symmetry-adapted blocks ----------------------------------------------------

def _conjugate_stacked_system(e, l, p, w):
    """[C; conj(C)] over F_p, one row per unordered pair and its conjugate:
    the system the whole-system route ranked before the blocks."""
    m, n = e.shape
    iu, ju = np.triu_indices(m, 1)
    powers = np.array([pow(w, x, p) for x in range(l)], dtype=np.int64)
    out = np.zeros((2, len(iu), m, n), dtype=np.int64)
    at = np.arange(len(iu))
    for half, d in enumerate(((e[iu] - e[ju]) % l, (e[ju] - e[iu]) % l)):
        out[half, at, iu] = powers[d]
        out[half, at, ju] = p - powers[d]
    return out.reshape(2 * len(iu), m * n)


def _mw(q):
    return mw_construct(MWSpec(q, (1, 3), (0, 2), fourier_cyclic(2)))


_SYMMETRIC = [_mw(5), _mw(7)] + [fourier_cyclic(n) for n in range(2, 13)]


@st.composite
def symmetric_tables(draw):
    """Exponent tables of MW(5, F2), MW(7, F2) and F_2..F_12, rows and
    columns permuted and rephased by roots of unity of the matrix's order."""
    h = draw(st.sampled_from(_SYMMETRIC))
    l = h.phases.order
    phases = [PhaseEntry.butson(draw(st.integers(0, l - 1)), l)
              for _ in range(h.m + h.n)]
    g = apply_equivalence(h, draw(st.permutations(range(h.m))),
                          draw(st.permutations(range(h.n))),
                          phases[:h.m], phases[h.m:])
    return np.array(g.phases.exp, dtype=np.int64), g.phases.order


@settings(max_examples=40, deadline=None)
@given(symmetric_tables())
def test_block_ranks_sum_to_the_whole_rank(table):
    e, l = table
    m, n = e.shape
    sigma, tau, r = _automorphism(e, l)
    # E[sigma i, tau j] - E[i, j] is d_i + e_j: zero once dephased
    shift = (e[np.ix_(sigma, tau)] - e) % l
    assert not ((shift - shift[:, :1] - shift[:1] + shift[0, 0]) % l).any()
    assert _is_prime(r) and l % r == 0
    assert not np.any(sigma == np.arange(m))
    power_r = np.arange(m)
    for _ in range(r):
        power_r = sigma[power_r]
    assert np.array_equal(power_r, np.arange(m))
    layout = _block_layout(sigma, tau, r)
    whole = _block_layout(np.arange(m), np.arange(n), 1)
    for p, w in split_primes(l)[:2]:
        blocks = _tangent_blocks(e, l, p, w, r, layout)
        assert blocks.shape == (r, m * (m - 1) // r, m * n // r)
        block_ranks = rank_mod_p(blocks, p)
        [rank] = rank_mod_p(_tangent_blocks(e, l, p, w, 1, whole), p)
        assert sum(block_ranks) == rank
        assert rank == _rank_reference(_conjugate_stacked_system(e, l, p, w), p)


@st.composite
def cycle_permutations(draw):
    """A permutation whose cycle lengths divide r, with r and its cycles."""
    r = draw(st.sampled_from([2, 3, 4, 5, 6, 13]))
    divisors = [d for d in range(1, r + 1) if r % d == 0]
    lengths = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=12))
    points = np.array(draw(st.permutations(range(sum(lengths)))))
    cycles = np.split(points, np.cumsum(lengths)[:-1])
    perm = np.empty(len(points), dtype=np.int64)
    for cycle in cycles:
        perm[cycle] = np.roll(cycle, -1)
    return perm, r, cycles


@settings(max_examples=80, deadline=None)
@given(cycle_permutations())
def test_orbits_lay_out_each_cycle(case):
    perm, r, cycles = case
    steps = _steps(perm, r)
    assert steps.shape == (r, len(perm))
    assert np.array_equal(steps[0], np.arange(len(perm)))
    assert np.array_equal(steps[1:], perm[steps[:-1]])
    reps, index = _orbits(steps)
    assert np.all(np.diff(reps) > 0)
    sizes = np.bincount(index)
    assert len(sizes) == len(reps) == len(cycles)
    for cycle in cycles:
        assert np.all(index[cycle] == index[cycle[0]])
        assert sizes[index[cycle[0]]] == len(cycle)
        assert reps[index[cycle[0]]] == cycle.min()
    # the unknowns (i, k) under (i, k) -> (perm i, perm k): each is pi^pos
    # of its orbit's least point
    n = len(perm)
    _, _, index, pos = _block_layout(perm, perm, r)
    u = np.arange(n * n)
    least = np.full(index.max() + 1, n * n)
    np.minimum.at(least, index, u)
    pi = (perm[:, None] * n + perm[None, :]).ravel()
    assert np.array_equal(_steps(pi, r)[pos, least[index]], u)


def _petrescu7():
    return petrescu(PhaseEntry.turns(Fraction(1, 7)))


def test_without_a_usable_automorphism_the_system_is_ranked_whole(monkeypatch):
    import hadlab.cyclotomic as cyc
    monkeypatch.setattr(cyc, "_SYMMETRY_FLOOR", 0)
    h = _petrescu7()
    e, l = np.array(h.phases.exp, dtype=np.int64), h.phases.order
    assert _automorphism(e, l) is None
    res = exact_defect_butson(e, l)
    # the primes and ranks the whole-system route gave before the blocks
    assert res.symmetry_order == 1 and res.block_ranks == ()
    assert res.primes == (1048783, 1048867) and res.ranks == (34, 34)
    assert res.defect == 15 and not res.exact


def test_a_permuted_mw13_is_ranked_as_13_blocks():
    # the isolation certificate the benchmark spends most of its time on:
    # 13 blocks of 204 x 208 at each of two primes
    h = mw_construct(MWSpec(13, (1, 3, 5, 7), (0, 2, 4, 6), fourier_cyclic(4)))
    rng = np.random.default_rng(0)
    one = [PhaseEntry.one()] * h.m
    g = apply_equivalence(h, [int(i) for i in rng.permutation(h.m)],
                          [int(j) for j in rng.permutation(h.n)], one, one)
    res = exact_defect_butson(g.phases.exp, g.phases.order)
    assert (res.defect, res.exact, res.route) == (104, False, "bound")
    assert res.primes == (1048633, 1049101) and res.ranks == (2600, 2600)
    # which ranks the blocks take depends on the automorphism found
    assert res.symmetry_order == 13 and len(res.block_ranks) == 13
    assert sum(res.block_ranks) == 2600


def test_exhausted_search_falls_back_to_the_whole_system(monkeypatch):
    import hadlab.cyclotomic as cyc
    monkeypatch.setattr(cyc, "_SYMMETRY_FLOOR", 0)
    rng = np.random.default_rng(4)
    h = apply_equivalence(_mw(7), list(rng.permutation(14)),
                          list(rng.permutation(14)),
                          [PhaseEntry.one()] * 14, [PhaseEntry.one()] * 14)
    e, l = np.array(h.phases.exp, dtype=np.int64), h.phases.order
    split = exact_defect_butson(e, l)
    assert split.symmetry_order == 7
    assert sum(split.block_ranks) == split.ranks[-1]
    monkeypatch.setattr(cyc, "_SEARCH_NODES", 1)
    assert _automorphism(e, l) is None
    whole = exact_defect_butson(e, l)
    assert whole.symmetry_order == 1 and whole.block_ranks == ()
    assert (whole.primes, whole.ranks, whole.defect, whole.exact) == \
        (split.primes, split.ranks, split.defect, split.exact)


def test_symmetry_search_only_above_the_size_floor():
    # MW(5, F2) has 100 unknowns, below the floor, and is ranked whole
    cert = isolation_certificate(_mw(5))
    assert cert.report.breakdown["symmetry_order"] == 1
    assert "block_ranks" not in cert.report.breakdown
    # MW(11, F2) has 484: its cyclic automorphism splits the system
    rng = np.random.default_rng(8)
    h = apply_equivalence(_mw(11), list(rng.permutation(22)),
                          list(rng.permutation(22)),
                          [PhaseEntry.butson(int(x), 44) for x in rng.integers(0, 44, 22)],
                          [PhaseEntry.butson(int(x), 44) for x in rng.integers(0, 44, 22)])
    cert = isolation_certificate(h)
    breakdown = cert.report.breakdown
    assert breakdown["symmetry_order"] == 11
    assert sum(breakdown["block_ranks"]) == breakdown["ranks"][-1]
    assert cert.exact and cert.defect == 43 == defect(h).defect
