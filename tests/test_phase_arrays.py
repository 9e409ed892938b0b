"""Array-backed matrices against the per-entry reference path.

The reference below is the entry-by-entry arithmetic that matrices were
built with before they were stored as exponent or complex arrays: a phase
kept as exponent/order, as an exact or float turn, or as a complex value,
every matrix operation a loop over those objects, and the exact documents
and root orders folded from the lcm of the turn denominators.  Exact input
must give the same bits through both; float input may differ in the last
bit only.
"""

import cmath
import json
import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hadlab import (DitaParams, MWSpec, PHMatrix, PhaseEntry, apply_equivalence,
                    count_one_entries, cycle_structure_profile, defect, dephase,
                    dephase_at, detect_butson, dita_deformation, dumps_phm, f22q,
                    fourier_cyclic, fourier_group, gauss_vector_closed, loads_phm,
                    master_dita, mw_construct, petrescu, tensor_product,
                    term_multiset, truncated_fourier)
from hadlab.phases import ExactPhases

TAU = 2.0 * math.pi


# -- reference: per-entry phases ------------------------------------------------

def _cis(turn):
    return cmath.exp(1j * TAU * turn)


class Ref:
    """One phase: butson (e, l), turns (Fraction or float) or cartesian z."""

    __slots__ = ("kind", "e", "l", "turn", "z")

    def __init__(self, kind, e=0, l=1, turn=0, z=1.0 + 0.0j):
        self.kind, self.e, self.l, self.turn, self.z = kind, e, l, turn, z

    @classmethod
    def butson(cls, e, l):
        return cls("butson", e=e % l, l=l)

    @classmethod
    def turns(cls, t):
        if isinstance(t, Fraction):
            return cls("turns", turn=t % 1)
        return cls("turns", turn=float(t) % 1.0)

    @property
    def value(self):
        if self.kind == "butson":
            return _cis(self.e / self.l)
        if self.kind == "turns":
            return _cis(float(self.turn))
        return self.z

    def exact_turn(self):
        if self.kind == "butson":
            return Fraction(self.e, self.l)
        if self.kind == "turns" and isinstance(self.turn, Fraction):
            return self.turn
        return None

    def turn_value(self):
        if self.kind == "butson":
            return self.e / self.l
        if self.kind == "turns":
            return float(self.turn)
        return (cmath.phase(self.z) / TAU) % 1.0

    def conj(self):
        if self.kind == "butson":
            return Ref.butson(-self.e, self.l)
        if self.kind == "turns":
            return Ref.turns(-self.turn)
        return Ref("cartesian", z=self.z.conjugate())

    def __neg__(self):
        if self.kind == "butson":
            if self.l % 2 == 0:
                return Ref.butson(self.e + self.l // 2, self.l)
            return Ref.butson(2 * self.e + self.l, 2 * self.l)
        if self.kind == "turns":
            if isinstance(self.turn, Fraction):
                return Ref.turns(self.turn + Fraction(1, 2))
            return Ref.turns(self.turn + 0.5)
        return Ref("cartesian", z=-self.z)

    def __mul__(self, other):
        a, b = self, other
        if a.kind == "butson" and b.kind == "butson":
            l = a.l * b.l // gcd(a.l, b.l)
            return Ref.butson(a.e * (l // a.l) + b.e * (l // b.l), l)
        ta, tb = a.exact_turn(), b.exact_turn()
        if ta is not None and tb is not None:
            return Ref.turns(ta + tb)
        if a.kind != "cartesian" and b.kind != "cartesian":
            return Ref.turns(a.turn_value() + b.turn_value())
        return Ref("cartesian", z=a.value * b.value)


# -- reference: matrices as grids of Ref -----------------------------------------

def ref_array(g):
    return np.array([[e.value for e in row] for row in g], dtype=np.complex128)


def ref_turn_grid(g):
    grid = [[e.exact_turn() for e in row] for row in g]
    return None if any(t is None for row in grid for t in row) else grid


def ref_fold(grid):
    l = 1
    for row in grid:
        for t in row:
            l = l * t.denominator // math.gcd(l, t.denominator)
    return l, [[int(t * l) for t in row] for row in grid]


def ref_dumps(g, label):
    doc = {"format": "phm-v1", "rows": len(g), "cols": len(g[0])}
    if label:
        doc["label"] = label
    grid = ref_turn_grid(g)
    if grid is not None:
        l, expo = ref_fold(grid)
        doc.update(representation="butson", butson_order=l, entries=expo)
    else:
        doc.update(representation="cartesian",
                   entries=[[[z.real, z.imag] for z in row] for row in ref_array(g)])
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def ref_detect_butson(g):
    """An exact grid answers at its folded order, whatever that is."""
    return ref_fold(ref_turn_grid(g))


def ref_count_ones(g):
    return sum(1 for row in ref_turn_grid(g) for t in row if t == 0)


def ref_dephase_at(g, r, c):
    return [[g[i][j] * g[i][c].conj() * g[r][j].conj() * g[r][c]
             for j in range(len(g[0]))] for i in range(len(g))]


def ref_row_phases(g):
    """The row and column phases that dephase returns."""
    return ([g[i][0] for i in range(len(g))],
            [g[0][j] * g[0][0].conj() for j in range(len(g[0]))])


def ref_tensor(g, k):
    return [[g[i][j] * k[a][b] for j in range(len(g[0])) for b in range(len(k[0]))]
            for i in range(len(g)) for a in range(len(k))]


def ref_equivalence(g, rp, cp, a, b):
    out = [[None] * len(g[0]) for _ in g]
    for i in range(len(g)):
        for j in range(len(g[0])):
            out[rp[i]][cp[j]] = a[i] * b[j] * g[i][j]
    return out


def ref_terms(g, i, j):
    return [g[i][k] * g[j][k].conj() for k in range(len(g[0]))]


# -- reference constructors ---------------------------------------------------------

def ref_fourier(orders):
    l = math.lcm(*orders)
    elems = [()]
    for n in orders:
        elems = [e + (c,) for e in elems for c in range(n)]
    w = [l // n for n in orders]
    return [[Ref.butson(sum(x * y * z for x, y, z in zip(w, g, h)) % l, l)
             for h in elems] for g in elems]


def ref_f22q(q):
    one = Ref.butson(0, 1)
    m1 = -one
    return [[one, one, one, one], [one, m1, one, m1],
            [one, q, m1, -q], [one, -q, m1, q]]


def ref_petrescu(q):
    w = Ref.turns(Fraction(1, 3))
    one = Ref.butson(0, 1)
    qbw = q.conj() * w
    return [[-q, q, w, one, w, one, w], [q, -q, w, one, one, w, w],
            [w, w, -w, one, w, w, one], [one, one, one, -one, w, w, w],
            [w, one, w, w, -qbw, qbw, one], [one, w, w, w, qbw, -qbw, one],
            [w, w, one, w, one, one, -one]]


def ref_dita(outer, inner, grid):
    return [[outer[i][j] * grid[i][b] * inner[a][b]
             for j in range(len(outer[0])) for b in range(len(inner[0]))]
            for i in range(len(outer)) for a in range(len(inner))]


def ref_master_dita_grid(n, m, k, p):
    return [[Ref.turns(Fraction(i * (m * p[b] + b), m * n * k)) for b in range(m)]
            for i in range(n)]


def ref_mw(q, s, t, base):
    vec = {k: [Ref.turns(e.exact_turn()) for e in gauss_vector_closed(q, k)]
           for k in range(1, q)}
    m = len(base)
    return [[base[i][j] * vec[(t[j] - s[i]) % q][(b - a) % q]
             for j in range(m) for b in range(q)]
            for i in range(m) for a in range(q)]


# -- the exact zoo, built both ways ------------------------------------------------------

def _q(t):
    return PhaseEntry.turns(t), Ref.turns(t)


def _exact_cases():
    def fourier(orders):
        return lambda: (fourier_group(orders) if len(orders) > 1
                        else fourier_cyclic(orders[0]), ref_fourier(orders))

    def truncated(rows, orders):
        return lambda: (truncated_fourier(rows, orders),
                        [ref_fourier(orders)[r] for r in rows])

    def family(build, ref_build, t):
        def make():
            q, rq = _q(t)
            return build(q), ref_build(rq)
        return make

    def mdita(n, m, p, r):
        return lambda: (master_dita(n, m, 1, p, r)[0],
                        ref_dita(ref_fourier((n,)), ref_fourier((m,)),
                                 ref_master_dita_grid(n, m, 1, p)))

    def mw(q, s, t):
        return lambda: (mw_construct(MWSpec(q, s, t, fourier_cyclic(2))),
                        ref_mw(q, s, t, ref_fourier((2,))))

    def dita(turns):
        def make():
            grid = [[Fraction(x, 12) for x in row] for row in turns]
            new = dita_deformation(DitaParams(
                fourier_cyclic(2), fourier_cyclic(3),
                tuple(tuple(PhaseEntry.turns(t) for t in row) for row in grid)))
            ref = ref_dita(ref_fourier((2,)), ref_fourier((3,)),
                           [[Ref.turns(t) for t in row] for row in grid])
            return new, ref
        return make

    return [fourier((1,)), fourier((2,)), fourier((5,)), fourier((6,)), fourier((8,)),
            fourier((2, 2)), fourier((2, 3)), fourier((2, 4)), fourier((3, 3)),
            truncated([0, 1, 2], [7]), truncated([1, 3], [8]), truncated([0, 5], [2, 3]),
            family(f22q, ref_f22q, Fraction(1, 20)), family(f22q, ref_f22q, Fraction(2, 7)),
            family(f22q, ref_f22q, Fraction(5, 12)),
            family(petrescu, ref_petrescu, Fraction(1, 7)),
            family(petrescu, ref_petrescu, Fraction(3, 10)),
            mdita(2, 2, (0, 1), (0, 2)), mdita(3, 2, (0, 1), (0, 1, 2)),
            mw(5, (1, 3), (0, 2)), mw(7, (1, 3), (0, 2)),
            dita(((0, 1, 5), (7, 0, 11))), dita(((3, 6, 9), (0, 4, 8)))]


EXACT_CASES = _exact_cases()


def assert_same(h: PHMatrix, g, label="x"):
    """Every observable of h equals the reference grid g's, bit for bit."""
    assert h.to_array().tobytes() == ref_array(g).tobytes()
    assert dumps_phm(h, label) == ref_dumps(g, label)
    table = detect_butson(h)
    assert (table.order, table.exp.tolist()) == ref_detect_butson(g)
    assert count_one_entries(h) == ref_count_ones(g)
    for i in range(h.m):
        for j in range(h.m):
            if i != j:
                want = np.array([t.value for t in ref_terms(g, i, j)])
                assert term_multiset(h, i, j).tobytes() == want.tobytes()
    back = PHMatrix(h.entries)
    assert back.common_butson_order() == h.common_butson_order()
    assert np.array_equal(back.phases.exp, h.phases.exp)
    assert back.to_array().tobytes() == h.to_array().tobytes()


def test_constructors_match_reference():
    for make in EXACT_CASES:
        h, g = make()
        assert isinstance(h.phases, ExactPhases)
        assert_same(h, g)


unit_root = st.tuples(st.integers(0, 23), st.integers(1, 24))


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, len(EXACT_CASES) - 1), data=st.data())
def test_operations_match_reference(case, data):
    h, g = EXACT_CASES[case]()
    rp = data.draw(st.permutations(range(h.m)))
    cp = data.draw(st.permutations(range(h.n)))
    a = [data.draw(unit_root) for _ in range(h.m)]
    b = [data.draw(unit_root) for _ in range(h.n)]
    h = apply_equivalence(h, rp, cp, [PhaseEntry.butson(*x) for x in a],
                          [PhaseEntry.butson(*x) for x in b])
    g = ref_equivalence(g, rp, cp, [Ref.butson(*x) for x in a],
                        [Ref.butson(*x) for x in b])
    assert_same(h, g)

    op = data.draw(st.sampled_from(["dephase", "dephase_at", "tensor"]))
    if op == "dephase":
        d, rows, cols = dephase(h)
        ref_rows, ref_cols = ref_row_phases(g)
        assert [p.exact_turn() for p in rows] == [p.exact_turn() for p in ref_rows]
        assert [p.exact_turn() for p in cols] == [p.exact_turn() for p in ref_cols]
        h, g = d, ref_dephase_at(g, 0, 0)
    elif op == "dephase_at":
        r = data.draw(st.integers(0, h.m - 1))
        c = data.draw(st.integers(0, h.n - 1))
        h, g = dephase_at(h, r, c), ref_dephase_at(g, r, c)
    else:
        k = data.draw(st.sampled_from([2, 3]))
        h, g = tensor_product(h, fourier_cyclic(k)), ref_tensor(g, ref_fourier((k,)))
    assert_same(h, g)


def test_huge_order_stays_exact():
    big = 2 ** 70 + 3
    expo = [[0, 1, big - 1], [2 ** 69, 5, 3 ** 40]]
    doc = {"format": "phm-v1", "rows": 2, "cols": 3, "representation": "butson",
           "butson_order": big, "entries": expo}
    h = loads_phm(json.dumps(doc))
    g = [[Ref.butson(e, big) for e in row] for row in expo]
    assert h.common_butson_order() == big
    assert dumps_phm(h) == ref_dumps(g, None)

    a = [(7, big), (big - 2, big)]
    b = [(1, big), (0, 1), (2 ** 65, big)]
    h = apply_equivalence(h, [1, 0], [2, 0, 1], [PhaseEntry.butson(*x) for x in a],
                          [PhaseEntry.butson(*x) for x in b])
    g = ref_equivalence(g, [1, 0], [2, 0, 1], [Ref.butson(*x) for x in a],
                        [Ref.butson(*x) for x in b])
    assert dumps_phm(h) == ref_dumps(g, None)
    assert h.to_array().tobytes() == ref_array(g).tobytes()
    d, _, _ = dephase(h)
    assert dumps_phm(d) == ref_dumps(ref_dephase_at(g, 0, 0), None)
    assert d.to_array().tobytes() == ref_array(ref_dephase_at(g, 0, 0)).tobytes()
    assert loads_phm(dumps_phm(d)).common_butson_order() == d.common_butson_order()


def _float_cases():
    t = 0.1234567
    q, rq = _q(t)
    grid = [[0.11, 0.5, 0.731], [0.25, 0.9, 0.05]]
    yield petrescu(q), ref_petrescu(rq)
    yield f22q(q), ref_f22q(rq)
    phases = tuple(tuple(PhaseEntry.turns(x) for x in r) for r in grid)
    yield (dita_deformation(DitaParams(fourier_cyclic(2), fourier_cyclic(3), phases)),
           ref_dita(ref_fourier((2,)), ref_fourier((3,)),
                    [[Ref.turns(x) for x in r] for r in grid]))


def test_float_matrices_agree_to_the_last_bits():
    for h, g in _float_cases():
        want = ref_array(g)
        assert h.common_butson_order() is None
        # a product of values and the reference's float turn sum each round
        # to ~1e-15; on random F3 dita grids they were at most 2.0e-15 apart
        assert np.max(np.abs(h.to_array() - want)) <= 4e-15
        ref = PHMatrix(want.tolist())
        assert defect(h).defect == defect(ref).defect
        assert cycle_structure_profile(h) == cycle_structure_profile(ref)
        back = PHMatrix(h.entries)
        assert back.to_array().tobytes() == h.to_array().tobytes()


@pytest.mark.parametrize("table", [[[0, 0], [0, 3]], [[0, 0], [0, -1]], [[2, 4], [6, 1]]])
def test_an_unreduced_table_is_stored_as_residues(table):
    h = PHMatrix.from_phases(ExactPhases(np.array(table), 2), label="F2")
    assert h.phases.exp.tolist() == [[0, 0], [0, 1]]
    assert dumps_phm(h) == dumps_phm(fourier_cyclic(2))
    assert h.to_array().tobytes() == fourier_cyclic(2).to_array().tobytes()
    assert cycle_structure_profile(h) == {(0, 1): "2"}
