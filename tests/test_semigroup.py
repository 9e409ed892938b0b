import gc
import random
import tracemalloc
from fractions import Fraction

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hadlab import (DitaParams, InvalidInputError, MWSpec, PartialPermutation,
                    PhaseEntry, PHMatrix, SearchBudgetExceeded,
                    apply_equivalence, classicality_test, compose,
                    cyclic_moment_oracle, dita_deformation, extract_semigroup,
                    f22q, fourier_cyclic, interval_shift_maps, moment,
                    moment_matrix, mw_construct, petrescu, pre_latin_square,
                    predicted_truncated_semigroup, semigroup_closure,
                    sigma_from_square, truncated_fourier, verify_submagic)
from hadlab.cyclotomic import _automorphism
from hadlab.errors import DEFAULT_TOL, threshold
from hadlab.phases import ExactPhases
from hadlab.semigroup import (MAX_CLOSURE, MAX_MOMENT_ENTRIES,
                              MAX_WORD_LENGTH, PreLatinSquare, ProjectionGrid,
                              _rotation_block_eigenvalues)


def f25():
    return truncated_fourier([0, 1], [5])


def test_submagic_truncated_and_square():
    rep = verify_submagic(f25())
    assert rep.ok
    assert rep.max_row_residual < 1e-12
    rep = verify_submagic(fourier_cyclic(3))
    assert rep.ok and rep.max_col_residual < 1e-12


def test_submagic_rejects_non_hadamard():
    bad = PHMatrix([[1, 1], [1, 1]])
    with pytest.raises(InvalidInputError):
        verify_submagic(bad)


def test_classicality_split():
    assert classicality_test(f25()).classical
    assert classicality_test(fourier_cyclic(6)).classical
    rep = classicality_test(f22q(Fraction(1, 20)))
    assert not rep.classical
    assert rep.worst_overlap > 0.1


def test_pre_latin_square_f25():
    square, reps = pre_latin_square(f25())
    assert square.labels == ((1, 2), (3, 1))
    assert square.n_labels == 3
    assert len(reps) == 3
    assert np.allclose(reps[0], np.ones(5))


def test_pre_latin_square_none_for_quantum_grid():
    assert pre_latin_square(f22q(Fraction(1, 20))) is None


def _greedy_pre_latin_square(h):
    """Reference labelling: each pair, row-major, takes the label of the
    first representative parallel to it, else becomes a new representative.
    Returns (labels, n_labels, representatives), or None when non-classical
    at the default tolerance."""
    if not classicality_test(h).classical:
        return None
    grid = ProjectionGrid(h)
    m, n = grid.m, grid.n
    reps = []
    labels = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            v = grid.vectors[i, j]
            assigned = None
            for x, u in enumerate(reps):
                if abs(np.vdot(u, v)) / n > 0.5:
                    assigned = x + 1
                    break
            if assigned is None:
                reps.append(v)
                assigned = len(reps)
            labels[i][j] = assigned
    return tuple(tuple(r) for r in labels), len(reps), reps


def _summed_submagic(h):
    """Reference sub-magic check: each row and column sum of the grid is
    built from its M outer products and held to threshold(DEFAULT_TOL) N.
    Returns (ok, row, col residuals)."""
    grid = ProjectionGrid(h)
    m, n = grid.m, grid.n

    def projection(i, j):
        v = grid.vectors[i, j]
        return np.outer(v, np.conj(v)) / n

    def residual(s):
        return float(np.max(np.abs(s @ s - s)))

    row = max(residual(sum(projection(i, j) for j in range(m))) for i in range(m))
    col = max(residual(sum(projection(i, j) for i in range(m))) for j in range(m))
    bound = threshold(DEFAULT_TOL) * n
    return row <= bound and col <= bound, row, col


# row subsets of F_n and F_G, and two non-classical square matrices
GRID_ORDERS = [[n] for n in range(2, 10)] + [[2, 2], [2, 3], [2, 4], [3, 3]]
NON_CLASSICAL = [f22q(Fraction(1, 20)), petrescu(PhaseEntry.turns(Fraction(1, 7))),
                 petrescu(PhaseEntry.turns(0.123))]


@st.composite
def grid_cases(draw):
    h = draw(st.sampled_from(GRID_ORDERS + NON_CLASSICAL))
    if isinstance(h, list):
        n = math.prod(h)
        rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 7),
                             unique=True))
        h = truncated_fourier(sorted(rows), h)
    phase = st.one_of(st.fractions(0, 1, max_denominator=12),
                      st.floats(0, 1, exclude_max=True)).map(PhaseEntry.turns)
    return apply_equivalence(h, draw(st.permutations(range(h.m))),
                             draw(st.permutations(range(h.n))),
                             [draw(phase) for _ in range(h.m)],
                             [draw(phase) for _ in range(h.n)])


@settings(max_examples=80, deadline=None)
@given(grid_cases())
@example(truncated_fourier(range(11), [44]))
@example(f22q(Fraction(1, 20)))
@example(petrescu(PhaseEntry.turns(Fraction(1, 7))))
def test_grid_answers_match_the_loop_references(h):
    ref = _greedy_pre_latin_square(h)
    res = pre_latin_square(h)
    assert (res is None) == (ref is None)
    if ref is not None:
        square, reps = res
        labels, n_labels, ref_reps = ref
        assert square.labels == labels and square.n_labels == n_labels
        assert len(reps) == n_labels
        assert all(np.allclose(u, v) for u, v in zip(reps, ref_reps))
        gens = [sigma_from_square(PreLatinSquare(labels, n_labels), x)
                for x in range(1, n_labels + 1)]
        closure, _ = extract_semigroup(h)
        assert closure.elements == semigroup_closure(gens).elements
    ok, row, col = _summed_submagic(h)
    rep = verify_submagic(h)
    assert rep.ok == ok
    assert abs(rep.max_row_residual - row) <= 1e-12
    assert abs(rep.max_col_residual - col) <= 1e-12


def test_partial_permutation_basics():
    pp = PartialPermutation((None, 0))
    assert pp.m == 2 and pp.kappa == 1
    assert pp.notation() == "21" == str(pp)
    assert PartialPermutation.identity(3).notation() == "id"
    assert PartialPermutation.empty(3).notation() == "∅"
    assert PartialPermutation((1, 2, None)).notation() == "12,23"
    # from ten points two-digit indices would run together: j→t
    assert PartialPermutation((1, 0) + (None,) * 7 + (9,)).notation() == \
        "1→2,2→1,10→10"
    with pytest.raises(InvalidInputError):
        PartialPermutation((0, 0, None))
    with pytest.raises(InvalidInputError):
        PartialPermutation((5, None))


def test_compose_semantics():
    # f after g
    f = PartialPermutation((None, 0))       # 2 -> 1
    g = PartialPermutation((1, None))       # 1 -> 2
    assert compose(f, g).targets == (0, None)
    assert compose(g, f).targets == (None, 1)
    assert compose(f, f).targets == (None, None)
    ident = PartialPermutation.identity(2)
    assert compose(f, ident) == f == compose(ident, f)
    with pytest.raises(InvalidInputError):
        compose(f, PartialPermutation.identity(3))


def test_kappa_subadditive_random():
    rng = np.random.default_rng(41)
    for _ in range(200):
        m = int(rng.integers(1, 7))

        def rand_pp():
            perm = rng.permutation(m)
            keep = rng.random(m) < 0.6
            return PartialPermutation(
                tuple(int(p) if k else None for p, k in zip(perm, keep)))

        f, g, h = rand_pp(), rand_pp(), rand_pp()
        fg = compose(f, g)
        assert fg.kappa <= min(f.kappa, g.kappa)
        assert compose(f, compose(g, h)) == compose(compose(f, g), h)


def test_sigma_from_square_f25():
    square, _ = pre_latin_square(f25())
    assert sigma_from_square(square, 1) == PartialPermutation.identity(2)
    assert sigma_from_square(square, 2).notation() == "21"
    assert sigma_from_square(square, 3).notation() == "12"


def test_closure_f25_is_six_elements():
    closure, square = extract_semigroup(f25())
    assert square.labels == ((1, 2), (3, 1))
    assert closure.size == 6
    assert closure.generator_count == 3
    assert closure.notations() == ["id", "21", "22", "11", "12", "∅"]


def test_closure_matches_interval_model():
    for rows, orders, m, n in [([0, 1, 2], [7], 3, 7),
                               ([0, 1, 2, 3], [9], 4, 9)]:
        closure, _ = extract_semigroup(truncated_fourier(rows, orders))
        model = predicted_truncated_semigroup(m, n)
        assert closure.size == model.size == \
            1 + sum((m + 1 - k) ** 2 for k in range(1, m + 1))
        assert {e.targets for e in closure.elements} == \
            {e.targets for e in model.elements}


def test_closure_f46_exceeds_interval_model():
    # N = 2M - 2 wraps around, adding elements beyond the interval shifts
    closure, _ = extract_semigroup(truncated_fourier([0, 1, 2, 3], [6]))
    assert closure.size == 33
    shifts = {e.targets for e in interval_shift_maps(4)}
    assert shifts < {e.targets for e in closure.elements}
    big = {e.targets for e in closure.elements if e.kappa > 2}
    assert big == {e.targets for e in interval_shift_maps(4) if e.kappa > 2}
    assert len(big) == 5


def _closure_all_products(gens):
    """Reference closure: compose the frontier with every element seen,
    both ways, until nothing new appears."""
    seen = {g.targets: g for g in gens}
    frontier = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(seen.values()):
                for c in (compose(a, b), compose(b, a)):
                    if c.targets not in seen:
                        seen[c.targets] = c
                        nxt.append(c)
        frontier = nxt
    return set(seen)


def _display_key(targets):
    """The closure's display order on target tuples: larger domains first,
    then the first undefined point (-1 when none), then the targets as
    numbers, an undefined one read as m."""
    m = len(targets)
    return (-sum(t is not None for t in targets),
            targets.index(None) if None in targets else -1,
            tuple(m if t is None else t for t in targets))


def _closure_tuple_bfs(gens):
    """Reference closure on target tuples: right-multiply each new element
    by each generator, then sort by _display_key."""
    seen = {g.targets for g in gens}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = tuple(None if y is None else a[y] for y in g.targets)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(seen, key=_display_key)


def _assert_closure_matches_references(gens):
    closure = semigroup_closure(gens)
    targets = [e.targets for e in closure.elements]
    assert set(targets) == _closure_all_products(gens)
    assert targets == sorted(targets, key=_display_key) == _closure_tuple_bfs(gens)
    for e in closure.elements:
        e.__post_init__()       # injective and in range, checked explicitly


def test_closure_matches_all_products_reference():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randrange(1, 6)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            k = rng.randrange(m + 1)
            targets = [None] * m
            for src, dst in zip(rng.sample(range(m), k), rng.sample(range(m), k)):
                targets[src] = dst
            gens.append(PartialPermutation(tuple(targets)))
        _assert_closure_matches_references(gens)


def test_closure_matches_the_tuple_bfs_on_truncated_fourier():
    # F2|8 ... F11|44 (the last is also F44 rows 0-10) and the wrapping F4|6
    for rows, order in [(m, 4 * m) for m in range(2, 12)] + [(4, 6)]:
        square, _ = pre_latin_square(truncated_fourier(list(range(rows)), [order]))
        gens = [sigma_from_square(square, x) for x in range(1, square.n_labels + 1)]
        closure = semigroup_closure(gens)
        assert [e.targets for e in closure.elements] == _closure_tuple_bfs(gens)
        for e in closure.elements:
            e.__post_init__()


def test_closure_orders_targets_as_numbers():
    # with 11 rows a target can have two digits: 0 -> 2 comes before 0 -> 10
    gens = [PartialPermutation((t,) + (None,) * 10) for t in (10, 2)]
    assert [e.targets[0] for e in semigroup_closure(gens).elements] == [2, 10, None]


def test_extract_semigroup_rejects_quantum_grid():
    with pytest.raises(InvalidInputError):
        extract_semigroup(f22q(Fraction(1, 20)))


def test_closure_cap(monkeypatch):
    square, _ = pre_latin_square(truncated_fourier([0, 1, 2], [7]))
    gens = [sigma_from_square(square, x) for x in range(1, square.n_labels + 1)]
    with pytest.raises(SearchBudgetExceeded):
        semigroup_closure(gens, cap=5)
    # F3|7 closes on 15 elements: a cap of 14 is exceeded, 15 is not
    with pytest.raises(SearchBudgetExceeded):
        semigroup_closure(gens, cap=14)
    assert semigroup_closure(gens, cap=15).size == 15
    # the cap binds the generators too, before any composition
    with pytest.raises(SearchBudgetExceeded):
        semigroup_closure([PartialPermutation.identity(2),
                           PartialPermutation.empty(2),
                           PartialPermutation((1, None))], cap=2)
    assert semigroup_closure([]).size == 0
    # composites of checked generators are not checked again
    calls = []
    monkeypatch.setattr(PartialPermutation, "__post_init__",
                        lambda self: calls.append(self))
    assert semigroup_closure(gens).size == 15
    assert calls == []


def test_interval_shift_maps_counts(monkeypatch):
    assert len(interval_shift_maps(1)) == 2
    for m in range(1, 6):
        expect = 1 + sum((m + 1 - k) ** 2 for k in range(1, m + 1))
        assert len(interval_shift_maps(m)) == expect
    with pytest.raises(InvalidInputError):
        interval_shift_maps(0)
    # 984,985 maps at m = 143; from m = 144 they pass MAX_CLOSURE and are
    # refused, as a closure would be, before any map is built
    assert 1 + 143 * 144 * 287 // 6 <= MAX_CLOSURE < 1 + 144 * 145 * 289 // 6

    def built(self):
        raise AssertionError("a map was built")
    monkeypatch.setattr(PartialPermutation, "__post_init__", built)
    for call in (lambda: interval_shift_maps(144),
                 lambda: predicted_truncated_semigroup(144, 300)):
        with pytest.raises(InvalidInputError, match="interval shift maps"):
            call()


def test_predicted_semigroup_guards():
    with pytest.raises(InvalidInputError):
        predicted_truncated_semigroup(1, 5)
    with pytest.raises(InvalidInputError):
        predicted_truncated_semigroup(4, 6)    # 6 = 2*4 - 2 wraps


def test_moment_matrix_f2():
    mm = moment_matrix(fourier_cyclic(2), 1)
    assert mm.side == 2 and not mm.formal
    assert np.allclose(mm.matrix, 0.5 * np.ones((2, 2)))
    mm = moment_matrix(fourier_cyclic(3), 2)
    assert mm.side == 9
    # traces of projection words are bounded by 1
    assert np.max(np.abs(mm.matrix)) <= 1 + 1e-12


def test_moment_counts_square_fourier():
    for n in (2, 3, 4):
        for p in (1, 2, 3):
            rep = moment(fourier_cyclic(n), p)
            assert rep.value == cyclic_moment_oracle(n, p) == n ** (p - 1)
            assert not rep.formal
            assert not rep.ambiguous


def test_moment_matrix_is_hermitian():
    # the criterion 11 fixtures, and a square matrix not of Butson type
    cases = [(fourier_cyclic(n), p) for n in (2, 3, 4, 5) for p in (1, 2, 3, 4)]
    cases += [(petrescu(PhaseEntry.turns(0.123)), p) for p in (1, 2)]
    for h, p in cases:
        mm = moment_matrix(h, p).matrix
        assert np.max(np.abs(mm - mm.conj().T)) <= 1e-15
        if mm.shape[0] <= 256:
            # the general eigensolver counts the same unit eigenvalues
            ev = np.linalg.eigvals(mm)
            assert moment(h, p).value == int(np.sum(np.abs(ev - 1.0) < 1e-8))


def _one_contraction(h, p):
    """The moment matrix as one einsum over the Gram tensor, all rows at
    once: entry (I, J) is the cyclic product of A[i_t, j_t, i_t+1, j_t+1]."""
    v = ProjectionGrid(h).vectors
    a = np.einsum("ijm,klm->ijkl", np.conj(v), v)
    row, col = "abcdefghijklm"[:p], "nopqrstuvwxyz"[:p]
    subs = ",".join(row[t] + col[t] + row[(t + 1) % p] + col[(t + 1) % p]
                    for t in range(p))
    t = np.einsum(f"{subs}->{row}{col}", *([a] * p)) / (h.n ** (p + 1))
    return t.reshape(h.m ** p, h.m ** p)


def test_moment_rows_match_one_contraction():
    # the criterion 11 fixtures, a truncation and a float Petrescu matrix;
    # the products are taken in the same order, so the entries are equal
    cases = [(fourier_cyclic(n), p) for n in (2, 3, 4, 5) for p in (1, 2, 3, 4)]
    cases += [(truncated_fourier([0, 1, 2], [7]), p) for p in (1, 3, 5)]
    cases += [(petrescu(PhaseEntry.turns(0.123)), p) for p in (1, 2, 3)]
    for h, p in cases:
        assert np.array_equal(moment_matrix(h, p).matrix, _one_contraction(h, p))


def _oracle_moment(h, p, tol=1e-8):
    """The full eigendecomposition of the moment matrix, with the counting
    rules of moment: (value, formal, ambiguous, nearest_excluded, spectrum)."""
    mm = moment_matrix(h, p)
    ev = np.linalg.eigvalsh(mm.matrix)
    dist = np.abs(ev - 1.0)
    excluded = dist[dist >= tol]
    nearest = float(np.min(excluded)) if excluded.size else math.inf
    return (int(np.sum(dist < tol)), mm.formal,
            bool(np.any((dist >= tol) & (dist < 10 * tol))), nearest, ev)


# bases for the block/oracle comparison: square Fourier, truncations (m < n),
# float Petrescu, a Dita deformation drawn per example, and a Gauss tensor
MOMENT_BASES = [fourier_cyclic(n) for n in range(2, 7)] + [
    truncated_fourier([0, 1], [5]),
    truncated_fourier([0, 1, 2], [7]),
    truncated_fourier([0, 2, 3], [6]),
    truncated_fourier([(0, 0), (1, 2)], [2, 3]),
    petrescu(PhaseEntry.turns(0.123)),
    petrescu(PhaseEntry.turns(Fraction(1, 7))),
    "dita",
    mw_construct(MWSpec(q=5, s=(1, 3), t=(0, 2), base=fourier_cyclic(2))),
]
ORACLE_SIDE = 729    # keeps each full eigendecomposition well under a second


@st.composite
def moment_cases(draw):
    h = draw(st.sampled_from(MOMENT_BASES))
    if isinstance(h, str):    # "dita"
        turns = st.floats(0, 1, exclude_max=True).map(PhaseEntry.turns)
        grid = [[draw(turns) for _ in range(3)] for _ in range(2)]
        h = dita_deformation(DitaParams(fourier_cyclic(2), fourier_cyclic(3),
                                        tuple(map(tuple, grid))))
    phase = st.one_of(st.fractions(0, 1, max_denominator=12),
                      st.floats(0, 1, exclude_max=True)).map(PhaseEntry.turns)
    h = apply_equivalence(h, draw(st.permutations(range(h.m))),
                          draw(st.permutations(range(h.n))),
                          [draw(phase) for _ in range(h.m)],
                          [draw(phase) for _ in range(h.n)])
    ps = [p for p in range(1, 6)
          if h.m ** (2 * p) <= MAX_MOMENT_ENTRIES and h.m ** p <= ORACLE_SIDE]
    return h, draw(st.sampled_from(ps))


@settings(max_examples=60, deadline=None)
@given(moment_cases())
@example((fourier_cyclic(5), 4))
@example((truncated_fourier([0, 1, 2], [7]), 5))
@example((petrescu(PhaseEntry.turns(0.123)), 3))
def test_moment_blocks_match_full_eigensolve(case):
    h, p = case
    value, formal, ambiguous, nearest, ev = _oracle_moment(h, p)
    rep = moment(h, p)
    assert (rep.value, rep.formal, rep.ambiguous) == (value, formal, ambiguous)
    if math.isinf(nearest):
        assert math.isinf(rep.nearest_excluded)
    else:
        assert abs(rep.nearest_excluded - nearest) <= 1e-12
    blocks, r = _rotation_block_eigenvalues(ProjectionGrid(h), p)
    assert r == rep.symmetry_order
    assert blocks.shape == ev.shape
    assert np.max(np.abs(np.sort(blocks) - np.sort(ev))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(moment_cases())
def test_moment_matrix_rotation_invariant(case):
    # T[S I, S J] = T[I, J] for S (i_1 .. i_p) = (i_2 .. i_p, i_1)
    h, p = case
    t = moment_matrix(h, p).matrix.reshape((h.m,) * (2 * p))
    shift = [*range(1, p), 0]
    rotated = t.transpose(shift + [p + a for a in shift])
    assert np.max(np.abs(rotated - t)) <= 1e-13



# the bases stored exactly at an order the automorphism search accepts
EXACT_MOMENT_BASES = [h for h in MOMENT_BASES if not isinstance(h, str)
                      and h.common_butson_order() is not None]


@st.composite
def exact_moment_cases(draw):
    """An exact base, its rows and columns permuted and rephased at its own
    order, so that it keeps its automorphisms; and a word length."""
    h = draw(st.sampled_from(EXACT_MOMENT_BASES))
    l = h.common_butson_order()
    phase = st.integers(0, l - 1).map(lambda x: PhaseEntry.butson(x, l))
    h = apply_equivalence(h, draw(st.permutations(range(h.m))),
                          draw(st.permutations(range(h.n))),
                          [draw(phase) for _ in range(h.m)],
                          [draw(phase) for _ in range(h.n)])
    ps = [p for p in range(1, 6)
          if h.m ** (2 * p) <= MAX_MOMENT_ENTRIES and h.m ** p <= ORACLE_SIDE]
    return h, draw(st.sampled_from(ps))


@settings(max_examples=60, deadline=None)
@given(exact_moment_cases())
@example((fourier_cyclic(2), 2))
@example((fourier_cyclic(4), 3))
@example((truncated_fourier([(0, 0), (1, 2)], [2, 3]), 2))
@example((mw_construct(MWSpec(q=5, s=(1, 3), t=(0, 2), base=fourier_cyclic(2))), 2))
def test_character_blocks_match_full_eigensolve(case):
    # with no size floor every exact M x N grid of order <= M*N is searched, so
    # each Z_p x Z_r split, and each stabiliser mask, meets the oracle;
    # on the F_2 x F_3 rows, a mask blind to sigma loses eigenvalues
    h, p = case
    value, formal, ambiguous, nearest, ev = _oracle_moment(h, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("hadlab.semigroup._SYMMETRY_FLOOR", 0)
        grid = ProjectionGrid(h)
        rep = moment(h, p)
        blocks, r = _rotation_block_eigenvalues(grid, p)
    # the ungated search is the oracle for r, so a patch that stopped
    # reaching the gate would show here as r = 1
    found = _automorphism(h.phases.exp, h.phases.order)
    assert rep.symmetry_order == r == (found[2] if found else 1)
    assert (rep.value, rep.formal, rep.ambiguous) == (value, formal, ambiguous)
    if math.isinf(nearest):
        assert math.isinf(rep.nearest_excluded)
    else:
        assert abs(rep.nearest_excluded - nearest) <= 1e-12
    assert blocks.shape == ev.shape
    assert np.max(np.abs(np.sort(blocks) - np.sort(ev))) <= 1e-12


def test_open_gate_splits_the_examples(monkeypatch):
    # the examples above meet the oracle split, not with r = 1
    monkeypatch.setattr("hadlab.semigroup._SYMMETRY_FLOOR", 0)
    mw = mw_construct(MWSpec(q=5, s=(1, 3), t=(0, 2), base=fourier_cyclic(2)))
    for h, p, r in ((fourier_cyclic(4), 3, 2), (mw, 2, 5)):
        assert _rotation_block_eigenvalues(ProjectionGrid(h), p)[1] == r
        assert moment(h, p).symmetry_order == r


@settings(max_examples=30, deadline=None)
@given(exact_moment_cases())
def test_moment_matrix_automorphism_invariant(case):
    # T[sigma I, sigma J] = T[I, J], sigma applied to every letter
    h, p = case
    found = _automorphism(h.phases.exp, h.phases.order)
    sigma = found[0] if found else np.arange(h.m)
    t = moment_matrix(h, p).matrix.reshape((h.m,) * (2 * p))
    assert np.max(np.abs(t[np.ix_(*[sigma] * (2 * p))] - t)) <= 1e-13


def test_symmetry_order_of_the_benchmark_moments():
    # F5 at p = 4 (625 rows) splits over Z_4 x Z_5; F4 at p = 4 (256) and
    # F3 at p = 5 (243) sit below the floor and keep the rotation alone
    for n, p, r in ((5, 4, 5), (4, 4, 1), (3, 5, 1)):
        rep = moment(fourier_cyclic(n), p)
        assert (rep.value, rep.symmetry_order) == (n ** (p - 1), r)
    # an order above M*N is not searched: F6 with a phase of order 61 has
    # order 366 > 36
    h = apply_equivalence(fourier_cyclic(6), [0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5],
                          [PhaseEntry.one()] * 6,
                          [PhaseEntry.butson(1, 61)] + [PhaseEntry.one()] * 5)
    assert moment(h, 4).symmetry_order == 1


def test_a_wide_moment_skips_the_search(monkeypatch):
    # F20 beside itself, 20 x 40, keeps F20's automorphism, but at p = 2
    # its moment matrix has 400 rows, below the floor times (N/M)^2 = 4:
    # the search walks (M - 1) N candidates whatever p is, so it is not run
    import hadlab.semigroup as sg
    assert moment(fourier_cyclic(20), 2).symmetry_order == 5

    def refuse(*args):
        raise AssertionError("automorphism search ran")

    monkeypatch.setattr(sg, "_automorphism", refuse)
    f20 = np.array(fourier_cyclic(20).phases.exp)
    h = PHMatrix.from_phases(ExactPhases(np.tile(f20, 2), 20))
    value, formal, ambiguous, _, ev = _oracle_moment(h, 2)
    rep = moment(h, 2)
    assert (rep.value, rep.formal, rep.ambiguous, rep.symmetry_order) == \
        (value, formal, ambiguous, 1)
    grid = ProjectionGrid(h)
    blocks, r = _rotation_block_eigenvalues(grid, 2)
    assert r == 1
    assert np.max(np.abs(np.sort(blocks) - np.sort(ev))) <= 1e-12


def _moment_peak(order: int):
    """moment(F5 with one column phase of the given order, 4) and the
    traced memory peak of computing it again."""
    h = apply_equivalence(fourier_cyclic(5), [0, 1, 2, 3, 4], [0, 1, 2, 3, 4],
                          [PhaseEntry.one()] * 5,
                          [PhaseEntry.butson(1, order)] + [PhaseEntry.one()] * 4)
    assert h.common_butson_order() == 5 * order
    moment(h, 4)
    gc.collect()
    tracemalloc.start()
    try:
        rep = moment(h, 4)
        return rep, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_moment_at_a_huge_order_skips_the_search():
    # stored at order 5 (2^70 + 3): the search's noise table would have
    # 2 * 5 * l entries, so it is not run, and the peak does not grow with l
    big, big_peak = _moment_peak(2 ** 70 + 3)
    small, small_peak = _moment_peak(61)
    for rep in (big, small):
        assert (rep.value, rep.symmetry_order, rep.ambiguous) == (125, 1, False)
    assert big_peak <= small_peak + 8 * 1024


def test_moment_truncated_is_formal():
    rep = moment(f25(), 1)
    assert rep.formal
    assert rep.value == 0
    assert abs(rep.nearest_excluded - 0.6) < 1e-9


def test_moment_guards():
    with pytest.raises(InvalidInputError):
        moment_matrix(fourier_cyclic(2), 0)
    with pytest.raises(InvalidInputError):
        moment_matrix(fourier_cyclic(2), 13)
    with pytest.raises(InvalidInputError):
        cyclic_moment_oracle(0, 1)
    # one row keeps the moment matrix at one entry, so only the word-length
    # cap refuses p = 14
    with pytest.raises(InvalidInputError, match="word length too large"):
        moment(PHMatrix([[1, 1]]), MAX_WORD_LENGTH + 1)
    for tol in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            moment(fourier_cyclic(2), 1, tol)


def test_closure_refuses_generators_of_mixed_sizes():
    with pytest.raises(InvalidInputError, match="different index sets"):
        semigroup_closure([PartialPermutation((0,)), PartialPermutation((0, 1))])
