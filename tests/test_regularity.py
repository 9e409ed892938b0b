import gc
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hadlab import (InvalidInputError, MWSpec, PHMatrix, PhaseEntry,
                    SearchBudgetExceeded, apply_equivalence,
                    cycle_decompose, cycle_decompose_integer,
                    cycle_structure_profile, fourier_cyclic, fourier_group,
                    is_regular, lam_leung_length_admissible, mw_construct,
                    petrescu, term_multiset, weak_isolation_probe)
from hadlab.cyclotomic import _cycle_peel, exact_vanishing
from hadlab.regularity import DEFAULT_BUDGET


def roots(p: int, rho: complex = 1.0) -> list:
    return [rho * np.exp(2j * np.pi * m / p) for m in range(p)]


def test_single_prime_cycles():
    for p in (2, 3, 5, 7):
        dec = cycle_decompose(roots(p, rho=np.exp(0.321j)))
        assert dec is not None
        assert dec.label == str(p)
        assert dec.cycles[0].indices == tuple(range(p))


def test_five_term_rotated_sum_is_3_plus_2():
    # w^0 + w^2 + w^4 vanishes (cube roots); q*w + q*w^4 vanishes (a 2-cycle)
    w = np.exp(2j * np.pi / 6)
    q = np.exp(2j * np.pi * 0.1357)
    terms = [1, w ** 2, w ** 4, q * w, q * w ** 4]
    dec = cycle_decompose(terms)
    assert dec is not None
    assert dec.label == "3+2"


def test_decompose_rejects_nonvanishing():
    with pytest.raises(InvalidInputError):
        cycle_decompose([1, 1j])


def test_decompose_empty_is_trivial():
    dec = cycle_decompose([])
    assert dec is not None and dec.label == ""


def test_decompose_irregular_sum_returns_none():
    # the classic six-term vanishing sum of 30th roots with no partition
    # into rotated prime cycles
    z = np.exp(2j * np.pi / 30)
    terms = [z ** e for e in (5, 6, 12, 18, 24, 25)]
    assert cycle_decompose(terms) is None


def test_decompose_budget_exhaustion_raises():
    z = np.exp(2j * np.pi / 30)
    terms = [z ** e for e in (5, 6, 12, 18, 24, 25)]
    with pytest.raises(SearchBudgetExceeded):
        cycle_decompose(terms, budget=3)


def test_budget_bounds_completions_built(monkeypatch):
    # twelve distinct near-copies of each 5th root: 12^4 ways to complete
    # the first cycle, more than a budget of 100 may build
    rng = np.random.default_rng(0)
    terms = [np.exp(2j * np.pi * (m / 5 + rng.uniform(-1e-11, 1e-11)))
             for m in range(5) for _ in range(12)]
    built = []
    real = itertools.product

    def product(*slots):
        built.append(math.prod(map(len, slots)))
        return real(*slots)
    monkeypatch.setattr("hadlab.regularity.itertools.product", product)
    with pytest.raises(SearchBudgetExceeded):
        cycle_decompose(terms, budget=100)
    assert max(built, default=0) <= 100
    monkeypatch.undo()
    assert cycle_decompose(terms).label == "+".join(["5"] * 12)


def test_deterministic_search_order():
    terms = roots(2) + roots(3)
    a = cycle_decompose(terms)
    b = cycle_decompose(terms)
    assert a.label == b.label == "3+2"
    assert [c.indices for c in a.cycles] == [c.indices for c in b.cycles]


def test_fourier6_pair_profile():
    prof = cycle_structure_profile(fourier_cyclic(6))
    counts = Counter(prof.values())
    assert counts == {"3+3": 12, "2+2+2": 3}
    # difference 3 mod 6 gives the all-2-cycle pairs
    for (i, j), label in prof.items():
        assert label == ("2+2+2" if (j - i) % 6 == 3 else "3+3")
    assert is_regular(fourier_cyclic(6))


def test_petrescu_pairs_all_3_2_2():
    h = petrescu(PhaseEntry.turns(0.1234567))
    prof = cycle_structure_profile(h)
    assert set(prof.values()) == {"3+2+2"}
    assert len(prof) == 21


def test_term_multiset_checks_rows():
    h = fourier_cyclic(3)
    terms = term_multiset(h, 0, 1)
    assert len(terms) == 3
    with pytest.raises(InvalidInputError):
        term_multiset(h, 1, 1)


def test_integer_route_simple_cycles():
    d = cycle_decompose_integer([0, 2, 4], 6)
    assert d.vanishing and d.method == "exact-cover"
    assert d.components == ((3, 0, 1),)
    assert d.nonnegative is True

    d = cycle_decompose_integer([1, 4, 2, 5, 0, 3], 6)
    assert d.vanishing
    assert d.nonnegative is True
    counts = [0] * 6
    for p, r, c in d.components:
        for t in range(p):
            counts[(r + t * (6 // p)) % 6] += c
    assert counts == [1] * 6


def test_integer_route_nonvanishing():
    d = cycle_decompose_integer([0, 1], 6)
    assert not d.vanishing
    assert d.components is None and d.nonnegative is None


def test_integer_route_negative_coefficients_l30():
    d = cycle_decompose_integer([5, 6, 12, 18, 24, 25], 30)
    assert d.vanishing
    assert d.method == "lattice-solve"
    assert d.search_complete
    assert d.nonnegative is False
    # the witness reconstructs the multiset exactly
    counts = [0] * 30
    for p, r, c in d.components:
        step = 30 // p
        for m in range(p):
            counts[(r + m * step) % 30] += c
    expect = [0] * 30
    for e in (5, 6, 12, 18, 24, 25):
        expect[e] += 1
    assert counts == expect
    assert any(c < 0 for _, _, c in d.components)


def _cycle_sum(components, l):
    counts = [0] * l
    for p, r, c in components:
        for m in range(p):
            counts[(r + m * (l // p)) % l] += c
    return counts


def _exponents(counts) -> list:
    """The exponent list of a count vector: a signed one first takes whole
    sets of l-th roots, which vanish, until no count is negative."""
    lift = max(0, -min(counts))
    return [e for e, c in enumerate(counts) for _ in range(c + lift)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((6, 12, 30, 60, 210, 360, 420)), st.data())
def test_cycle_peel_reconstructs_signed_cycle_sums(l, data):
    primes = [p for p in (2, 3, 5, 7) if l % p == 0]
    comps = data.draw(st.lists(st.tuples(st.sampled_from(primes),
                                         st.integers(0, l - 1),
                                         st.integers(-3, 3)), max_size=12))
    exps = _exponents(_cycle_sum(comps, l))
    counts = np.bincount(exps, minlength=l).tolist()
    peel, left = _cycle_peel([exps], l)
    assert not left.any()
    peeled = [(p, r, k) for p, _, rot, coef in peel
              for r, k in zip(rot.tolist(), coef.tolist())]
    assert _cycle_sum(peeled, l) == counts
    # one more term anywhere leaves a sum that does not vanish
    extra = exps + [data.draw(st.integers(0, l - 1))]
    assert _cycle_peel([extra], l)[1].any()
    # one call peels many rows: the extra term with its 2-cycle partner
    # vanishes, with its neighbour it does not
    x = extra[-1]
    assert _cycle_peel([extra + [x + l // 2], extra + [x + 1]], l)[1].tolist() == \
        [False, True]


def test_integer_route_budget_gives_indeterminate_sign():
    d = cycle_decompose_integer([5, 6, 12, 18, 24, 25], 30, budget=2)
    assert d.vanishing and d.method == "lattice-solve"
    assert not d.search_complete
    assert d.nonnegative is None


def test_lam_leung_admissible_lengths():
    # l = 6: primes 2 and 3 reach everything except 1
    assert [lam_leung_length_admissible(n, 6) for n in range(6)] == \
        [True, False, True, True, True, True]
    # l = 5: only multiples of 5
    assert lam_leung_length_admissible(10, 5)
    assert not lam_leung_length_admissible(7, 5)
    with pytest.raises(InvalidInputError):
        lam_leung_length_admissible(-1, 6)
    # only the primes up to the length count, so the order is never factored
    assert not lam_leung_length_admissible(3, 2 ** 61 - 1)
    assert lam_leung_length_admissible(2, 2 ** 70)
    assert lam_leung_length_admissible(13, BIG)


def test_weak_isolation_probe_fields():
    probe = weak_isolation_probe(fourier_cyclic(5))
    assert probe.regular is True
    assert probe.certified_isolated
    assert probe.butson_order == 5
    # root-of-unity type, so not a separating candidate
    assert not probe.counterexample_candidate


def test_weak_isolation_probe_reads_exact_orders_above_the_cap():
    # F61 is stored at order 61 > BUTSON_ORDER_CAP; it is of root-of-unity
    # type, not a counterexample
    probe = weak_isolation_probe(fourier_cyclic(61))
    assert probe.regular and probe.certified_isolated
    assert probe.butson_order == 61
    assert not probe.counterexample_candidate


def test_fourier24_regular_within_default_budget():
    h = fourier_cyclic(24)
    assert is_regular(h, budget=DEFAULT_BUDGET)
    prof = cycle_structure_profile(h)
    assert len(prof) == 276
    # the difference 12 pairs split into twelve 2-cycles
    assert prof[(0, 12)] == "+".join(["2"] * 12)


# -- reference oracle: plain exact-cover backtracking over index subsets ------

def _oracle_is_rotated_cycle(values, idxs, p, tol):
    rho = values[idxs[0]]
    seen = set()
    for ix in idxs:
        q = values[ix] / rho
        m = int(round((math.atan2(q.imag, q.real) / (2.0 * math.pi)) * p)) % p
        if m in seen:
            return False
        if abs(q - complex(math.cos(2.0 * math.pi * m / p),
                           math.sin(2.0 * math.pi * m / p))) > tol:
            return False
        seen.add(m)
    return True


def _oracle_cover(n, primes, is_cycle):
    """[(p, indices)] by trying every (p-1)-subset with the anchor, or None."""
    def search(uncovered):
        if not uncovered:
            return []
        anchor, rest = uncovered[0], uncovered[1:]
        for p in (q for q in reversed(primes) if q <= len(uncovered)):
            for combo in itertools.combinations(rest, p - 1):
                idxs = (anchor,) + combo
                if is_cycle(idxs, p):
                    tail = search(tuple(u for u in rest if u not in combo))
                    if tail is not None:
                        return [(p, idxs)] + tail
        return None
    return search(tuple(range(n)))


def _oracle_float(terms, tol=1e-8):
    values = np.array([t.value if isinstance(t, PhaseEntry) else complex(t)
                       for t in terms], dtype=np.complex128)
    primes = [p for p in range(2, len(values) + 1)
              if all(p % q for q in range(2, p))]
    return _oracle_cover(len(values), primes, lambda idxs, p:
                         _oracle_is_rotated_cycle(values, idxs, p, tol))


def _oracle_integer(exps, l):
    """Aggregated (p, rotation, count) components of the first cover, or None."""
    primes = [p for p in range(2, l + 1)
              if l % p == 0 and all(p % q for q in range(2, p))]

    def is_cycle(idxs, p):
        offs = sorted((exps[ix] - exps[idxs[0]]) % l for ix in idxs)
        return offs == [m * (l // p) for m in range(p)]
    found = _oracle_cover(len(exps), primes, is_cycle)
    if found is None:
        return None
    agg = Counter((p, exps[idxs[0]] % (l // p)) for p, idxs in found)
    return tuple(sorted(((p, r, c) for (p, r), c in agg.items()),
                        key=lambda t: (-t[0], t[1])))


SIX_30 = [5, 6, 12, 18, 24, 25]


@st.composite
def cycle_unions(draw):
    """Exponents of l-th roots: rotated prime cycles, shuffled, at most 12
    terms, sometimes with the irregular six-term sum of 30th roots."""
    l = draw(st.sampled_from((6, 10, 12, 15, 30)))
    primes = [p for p in (2, 3, 5) if l % p == 0]
    exps = list(SIX_30) if l == 30 and draw(st.booleans()) else []
    for p, r in draw(st.lists(st.tuples(st.sampled_from(primes),
                                        st.integers(0, l - 1)), max_size=6)):
        if len(exps) + p <= 12:
            exps += [(r + m * (l // p)) % l for m in range(p)]
    return l, draw(st.permutations(exps)), draw(st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(cycle_unions())
@example((30, SIX_30, 0.0))
@example((30, SIX_30 + [0, 10, 20], 0.25))
@example((30, [15, 25, 3, 6, 21, 9, 27, 18, 12, 5, 24], 0.5))   # backtracks
def test_engine_matches_subset_oracle(case):
    l, exps, turn = case
    rho = np.exp(2j * np.pi * turn)
    # jitter far below tol makes equal terms distinct floats, so a cycle
    # can be completed in several ways
    jitter = np.random.default_rng(len(exps)).normal(0.0, 1e-12, len(exps))
    for terms in ([PhaseEntry.butson(e, l) for e in exps],
                  [np.exp(2j * np.pi * e / l) for e in exps],
                  [rho * np.exp(2j * np.pi * e / l) for e in exps],
                  [np.exp(2j * np.pi * (e / l + d)) for e, d in zip(exps, jitter)]):
        want = _oracle_float(terms)
        got = cycle_decompose(terms)
        if want is None:
            assert got is None
        else:
            assert [(c.p, c.indices) for c in got.cycles] == want
            assert got.label == "+".join(str(p) for p in
                                         sorted((p for p, _ in want), reverse=True))
    want = _oracle_integer(exps, l)
    got = cycle_decompose_integer(exps, l)
    assert got.vanishing and got.search_complete
    assert got.nonnegative is (want is not None)
    if want is not None:
        assert got.method == "exact-cover" and got.components == want


# -- the grouped profile against one search per row pair ------------------------

def _reference_profile(h, budget=DEFAULT_BUDGET):
    """One cycle_decompose per row pair, on its terms in column order."""
    out = {}
    for i in range(h.m):
        for j in range(i + 1, h.m):
            try:
                dec = cycle_decompose(term_multiset(h, i, j), budget=budget)
            except SearchBudgetExceeded:
                out[(i, j)] = "inconclusive"
                continue
            out[(i, j)] = dec.label if dec is not None else "irregular"
    return out


BIG = 2 ** 70 + 3      # 13 * 25087 * 3619992029943217


def _six_30_pair():
    """Two rows at order 30 whose quotient is the six-term sum SIX_30."""
    return PHMatrix([[PhaseEntry.butson(e, 30) for e in SIX_30],
                     [PhaseEntry.butson(0, 30)] * 6])


def _fourier13_at_big_order():
    """F13 with its first row rephased by zeta_BIG: order BIG, exponents
    held as Python ints."""
    f = fourier_cyclic(13)
    one = PhaseEntry.one()
    return apply_equivalence(f, list(range(13)), list(range(13)),
                             [PhaseEntry.butson(1, BIG)] + [one] * 12,
                             [one] * 13)


MW7 = mw_construct(MWSpec(q=7, s=(1, 3), t=(0, 2), base=fourier_cyclic(2)))
PROFILE_BASES = [fourier_group(orders) for orders in
                 ((5,), (6,), (8,), (9,), (10,), (12,), (2, 2), (2, 4),
                  (2, 6), (3, 4), (2, 2, 3))] + [
    mw_construct(MWSpec(q=5, s=(1, 3), t=(0, 2), base=fourier_cyclic(2))),
    MW7,
    petrescu(PhaseEntry.turns(Fraction(13, 97))),
    _six_30_pair(),
    _fourier13_at_big_order(),
]


@st.composite
def profile_inputs(draw):
    """A base permuted, rephased at its order and cut to a row subset of at
    least two rows, with a search budget from tiny to the default."""
    h = draw(st.sampled_from(PROFILE_BASES))
    order = h.phases.order
    phase = st.integers(0, order - 1).map(lambda e: PhaseEntry.butson(e, order))
    h = apply_equivalence(h, draw(st.permutations(range(h.m))),
                          draw(st.permutations(range(h.n))),
                          [draw(phase) for _ in range(h.m)],
                          [draw(phase) for _ in range(h.n)])
    rows = sorted(draw(st.sets(st.integers(0, h.m - 1), min_size=2)))
    h = PHMatrix.from_phases(h.phases[rows])
    return h, draw(st.sampled_from((2, 5, 20, 100, DEFAULT_BUDGET)))


@settings(max_examples=60, deadline=None)
@given(profile_inputs())
@example((_six_30_pair(), DEFAULT_BUDGET))
@example((_fourier13_at_big_order(), DEFAULT_BUDGET))
@example((MW7, 2))
def test_grouped_profile_matches_per_pair_search(case):
    # the exact search skips the primes not dividing the order, so at a
    # small budget it may decide a pair the reference leaves inconclusive;
    # what it decides there is what the reference decides given room
    h, budget = case
    got = cycle_structure_profile(h, budget=budget)
    want = _reference_profile(h, budget)
    assert got.keys() == want.keys()
    unbounded = None
    for pair, label in want.items():
        if label != "inconclusive":
            assert got[pair] == label
        elif got[pair] != "inconclusive":
            unbounded = unbounded or _reference_profile(h)
            assert got[pair] == unbounded[pair]


def test_profile_never_factors_the_order(monkeypatch):
    # trial division of BIG takes seconds; every exact vanishing question
    # reads the primes dividing the order off the primes up to its length
    def refuse(l):
        raise AssertionError(f"factored {l}")
    monkeypatch.setattr("hadlab.cyclotomic._prime_factors", refuse)
    assert set(cycle_structure_profile(_fourier13_at_big_order()).values()) == {"13"}
    thirteen = [k * (BIG // 13) for k in range(13)]
    assert exact_vanishing(thirteen, BIG)
    assert cycle_decompose_integer(thirteen, BIG).components == ((13, 0, 1),)
    assert lam_leung_length_admissible(13, BIG)


@pytest.mark.parametrize("l, exps, components", [
    (2 ** 40, [0, 2 ** 39], ((2, 0, 1),)),
    (2 ** 61 - 1, [0, 1], None),
    (2 ** 70, [0, 2 ** 69], ((2, 0, 1),)),
    (BIG, [k * (BIG // 13) + 5 for k in range(13)], ((13, 5, 1),)),
    (BIG, [0, BIG // 13], None),
])
def test_exact_vanishing_at_large_orders(l, exps, components):
    # the peel never indexes by l, so orders past any array length decide
    assert exact_vanishing(exps, l) is (components is not None)
    d = cycle_decompose_integer(exps, l)
    assert d.vanishing is (components is not None)
    assert d.components == components


def _peel_peak(exps, l) -> int:
    cycle_decompose_integer(exps, l)
    gc.collect()
    tracemalloc.start()
    try:
        exact_vanishing(exps, l)
        cycle_decompose_integer(exps, l)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peel_memory_does_not_grow_with_the_order():
    assert _peel_peak([0, 2 ** 39], 2 ** 40) <= _peel_peak([0, 20], 40) + 8 * 1024


def test_integer_route_reads_only_integers():
    with pytest.raises(InvalidInputError, match="integers"):
        cycle_decompose_integer([0.9, 2.2], 4)


def test_grouped_profile_fixed_cases():
    assert cycle_structure_profile(_six_30_pair()) == {(0, 1): "irregular"}
    h = _fourier13_at_big_order()
    assert h.phases.order == BIG and h.phases.exp.dtype == object
    assert set(cycle_structure_profile(h).values()) == {"13"}
    h = petrescu(PhaseEntry.turns(Fraction(13, 97)))
    assert h.phases.order == 582
    assert set(cycle_structure_profile(h).values()) == {"3+2+2"}


def _profile_peak(h) -> int:
    cycle_structure_profile(h)      # verification and root tables, untraced
    gc.collect()
    tracemalloc.start()
    try:
        cycle_structure_profile(h)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_profile_memory_does_not_grow_with_the_order():
    # Petrescu at q = 13/97 (order 582) and at q = 1/7 (order 42) have the
    # same 21 pairs and 9 distinct term multisets, so a key of O(N) per pair
    # gives them the same peak; a key of size l or l^2 per pair does not.
    big = _profile_peak(petrescu(PhaseEntry.turns(Fraction(13, 97))))
    small = _profile_peak(petrescu(PhaseEntry.turns(Fraction(1, 7))))
    assert big < 2 ** 20
    assert big <= small + 8 * 1024
