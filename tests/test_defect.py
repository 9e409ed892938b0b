import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hadlab import (ConsistencyError, DitaParams, InvalidInputError, MWSpec,
                    PHMatrix, PhaseEntry, apply_equivalence, count_one_entries,
                    cyclic_defect_closed_form, defect, defect_exact,
                    defect_master, defect_split_truncated_fourier,
                    defect_via_extension, detect_butson, dita_deformation,
                    f22q, f22q_master_spec, fourier_cyclic,
                    fourier_defect_formula, fourier_group, group_elements,
                    isolation_certificate, master_dita, mw_construct,
                    numerical_rank, normalize_row_subset, petrescu,
                    real_truncation_defect_formula, tensor_product,
                    truncated_fourier, truncation_probe, unitary_completion,
                    weak_isolation_probe)
from hadlab.cyclotomic import (PROOF_CAP, _block_layout, _prime_factors,
                               _tangent_blocks, exact_defect_butson,
                               rank_mod_p, split_primes)
from hadlab.defect import (_character_count, extension_system, master_system,
                           real_rows, tangent_system)
from conftest import TRUNCATED_CASES, first_rows, walsh

# defect of the cyclic Fourier matrix F_N for N = 2..20, from the product
# formula over prime powers, frozen as literals
FOURIER_DEFECTS = [3, 5, 8, 9, 15, 13, 20, 21, 27, 21, 40, 25, 39, 45, 48,
                   33, 63, 37, 72]


def subgroup_index_sum(orders) -> int:
    """Independent oracle: sum over group elements of |G| / ord(g)."""
    import itertools
    size = math.prod(orders)
    total = 0
    for g in itertools.product(*(range(n) for n in orders)):
        o = 1
        for gc, nn in zip(g, orders):
            o = math.lcm(o, nn // math.gcd(gc, nn))
        total += size // o
    return total


def test_numerical_rank_gap_and_edge_cases():
    rr = numerical_rank(np.zeros((3, 3)))
    assert rr.rank == 0 and rr.gap_ratio == math.inf
    rr = numerical_rank(np.eye(3))
    assert rr.rank == 3 and rr.gap_ratio == math.inf
    a = np.diag([1.0, 1.0, 1e-14])
    rr = numerical_rank(a)
    assert rr.rank == 2
    assert rr.gap_ratio == pytest.approx(1e14, rel=1e-3)
    for shape in ((0, 3), (3, 0), (0, 0)):
        rr = numerical_rank(np.zeros(shape))
        assert (rr.rank, rr.smallest_kept, rr.largest_dropped, rr.gap_ratio) == \
            (0, None, None, math.inf)


@pytest.mark.parametrize("n", [0, -4, 6.0, True, "6"])
def test_closed_form_needs_an_integer_above_zero(n):
    with pytest.raises(InvalidInputError, match="n must be an integer >= 1"):
        cyclic_defect_closed_form(n)


def test_fourier_defect_table():
    for n, expected in zip(range(2, 21), FOURIER_DEFECTS):
        assert cyclic_defect_closed_form(n) == expected
        assert fourier_defect_formula([n]) == expected
    # at a prime near 10^12 the closed form ends by factoring up to the
    # square root, not up to the prime
    big = 10 ** 12 + 39
    assert cyclic_defect_closed_form(big) == 2 * big - 1
    assert cyclic_defect_closed_form(4 * big) == 8 * (2 * big - 1)
    rep = defect(fourier_cyclic(6))
    assert rep.defect == 15
    assert rep.method == "direct"
    assert rep.bound == 11


def test_closed_form_keeps_a_bounded_factor_cache():
    # every n the public closed form is asked for passes through the
    # factor cache, which must not keep them all
    for n in range(1, 20001):
        cyclic_defect_closed_form(n)
    info = _prime_factors.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize <= 64


def test_group_fourier_defect_three_ways():
    cases = {(2, 2): 10, (2, 4): 28, (3, 3): 33, (2, 6): 50}
    for orders, expected in cases.items():
        h = fourier_group(list(orders))
        assert subgroup_index_sum(orders) == expected
        assert fourier_defect_formula(orders) == expected
        assert count_one_entries(h) == expected
        assert count_one_entries(PHMatrix.from_phases(h.to_array())) == expected
        assert defect(h).defect == expected


def test_single_row_defect_is_exact_n():
    rep = defect(PHMatrix([[1, 1j, -1, -1j]]))
    assert rep.defect == 4 and rep.exact


def test_extension_route_reads_the_callers_tolerance():
    """The completion re-checks only the rows it adds, so a truncation that
    passes at tol=1e-6 gets the direct defect on the extension route."""
    rng = np.random.default_rng(0)
    z = fourier_cyclic(6).to_array()[:4] * np.exp(1j * 1e-7 * rng.standard_normal((4, 6)))
    h = PHMatrix.from_phases(z)
    assert defect_via_extension(h, tol=1e-6).defect == defect(h, tol=1e-6).defect == 13
    k = unitary_completion(h)
    assert np.allclose(k[:4], h.to_array())
    gram = k[4:] @ np.conj(k.T)
    assert np.max(np.abs(gram - 6 * np.eye(6)[4:])) <= 1e-12 * 6


def test_extension_agrees_and_is_completion_invariant():
    h = truncated_fourier([0, 1, 2], [7])
    d0 = defect(h).defect
    for seed in (None, 1, 2, 12345):
        assert defect_via_extension(h, seed=seed).defect == d0


def test_unitary_completion_property():
    h = truncated_fourier([0, 1], [5])
    k = unitary_completion(h, seed=9)
    assert k.shape == (5, 5)
    assert np.allclose(k @ k.conj().T, 5 * np.eye(5), atol=1e-9)
    assert np.allclose(k[:2], h.to_array())


def test_split_route_truncations():
    for name, (rows, orders) in TRUNCATED_CASES.items():
        rep = defect_split_truncated_fourier(rows, orders)
        direct = defect(truncated_fourier(rows, orders)).defect
        assert rep.defect == direct, name
        assert rep.breakdown["dim_kernel"] + rep.breakdown["dim_image_admissible"] \
            == rep.defect


def test_split_known_decomposition_f25():
    rep = defect_split_truncated_fourier([0, 1], [5])
    assert rep.defect == 8
    assert rep.breakdown["dim_kernel"] == 4
    assert rep.breakdown["dim_image_admissible"] == 4


def test_split_full_group_matches_closed_form():
    rep = defect_split_truncated_fourier(list(range(6)), [6])
    assert rep.defect == 15


SPLIT_GROUPS = [(n,) for n in range(5, 17)] + [(2, 6), (3, 4), (4, 4),
                                               (2, 2, 2), (2, 3, 4)]
# subsets that are not difference-closed, with their direct defects
SPLIT_REGRESSIONS = {((2, 3, 4), (0, 1, 5, 7)): 85,
                     ((2, 3, 4), (0, 1, 2, 5, 7)): 102}


@st.composite
def row_subsets(draw):
    orders = draw(st.sampled_from(SPLIT_GROUPS))
    n = math.prod(orders)
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                         unique=True))
    return orders, tuple(rows)


@settings(max_examples=60, deadline=None)
@given(row_subsets())
@example(((2, 3, 4), (0, 1, 5, 7)))
@example(((2, 3, 4), (0, 1, 2, 5, 7)))
def test_split_count_equals_direct_defect(case):
    orders, rows = case
    rep = defect_split_truncated_fourier(list(rows), orders)
    direct = defect(truncated_fourier(list(rows), orders)).defect
    assert rep.exact and not rep.ambiguous
    assert rep.defect == direct == SPLIT_REGRESSIONS.get(case, direct)


def _character_count_loop(subset, orders):
    """The count _character_count vectorises, by union-find over tuples,
    kept as its reference: |F| and m + sum of w_d c_d over one d from each
    pair {d, -d} with d != 0 in F."""
    def add(g, d):
        return tuple((a + b) % n for a, b, n in zip(g, d, orders))

    def neg(d):
        return tuple(-c % n for c, n in zip(d, orders))

    def root(g):
        while parent[g] != g:
            g = parent[g]
        return g

    members = set(subset)
    diffs = {add(g, neg(h)) for g in subset for h in subset}
    image = len(subset)
    for d in diffs:
        if not any(d) or neg(d) < d:
            continue
        parent = {g: g for g in subset}
        components = len(subset)
        for g in subset:
            e = add(g, d)
            if e in members and root(g) != root(e):
                parent[root(g)] = root(e)
                components -= 1
        image += (1 if neg(d) == d else 2) * components
    return len(diffs), image


@settings(max_examples=60, deadline=None)
@given(row_subsets())
def test_character_count_matches_the_union_find_loop(case):
    orders, rows = case
    subset = normalize_row_subset(list(rows), orders)
    assert _character_count(subset, orders) == _character_count_loop(subset, orders)


def test_master_route_agrees(master_cases):
    for name, (h, spec) in master_cases.items():
        dm = defect_master(spec).defect
        assert dm == defect(h).defect, name


def test_master_route_input_checks():
    from hadlab import MasterSpec
    with pytest.raises(InvalidInputError):
        defect_master(MasterSpec((PhaseEntry.one(),), (0, 1)))  # not square
    with pytest.raises(InvalidInputError):
        defect_master(MasterSpec((PhaseEntry.one(), PhaseEntry.one()), (0, 1)))
    # a loose tolerance lets those equal rows pass verification, so the
    # eigenphase check itself must refuse them
    with pytest.raises(InvalidInputError, match="pairwise distinct"):
        defect_master(MasterSpec((PhaseEntry.one(), PhaseEntry.one()), (0, 1)), tol=2.5)


def test_exact_defect_route():
    rep = defect_exact(fourier_cyclic(6))
    assert rep.defect == 15 and rep.exact
    assert rep.breakdown["butson_order"] == 6
    # ranks modulo split primes cannot prove these; the character count can
    for n in (8, 12):
        rep = defect_exact(fourier_cyclic(n))
        assert rep.method == "character-exact"
        assert rep.defect == cyclic_defect_closed_form(n)
    with pytest.raises(InvalidInputError):
        defect_exact(PHMatrix([[1, np.exp(0.7j)], [np.exp(0.7j), 1]]))
    with pytest.raises(InvalidInputError, match="no root-of-unity form of order"):
        defect_exact(f22q(np.exp(0.7j)))


def test_tensor_defects():
    f2, f3 = fourier_cyclic(2), fourier_cyclic(3)
    assert defect(tensor_product(f2, f3)).defect == 15
    assert defect(f2).defect * defect(f3).defect == 15
    assert defect(tensor_product(f2, f2)).defect == 10


def test_walsh_truncation_formula():
    w8 = walsh(3)
    for m in range(2, 9):
        d = defect(first_rows(w8, m)).defect
        assert d == real_truncation_defect_formula(m, 8)
    assert [real_truncation_defect_formula(m, 8) for m in range(2, 9)] == \
        [15, 21, 26, 30, 33, 35, 36]
    with pytest.raises(InvalidInputError):
        real_truncation_defect_formula(9, 8)


def test_prime_fourier_isolated():
    for p in (2, 3, 5, 7):
        cert = isolation_certificate(fourier_cyclic(p))
        assert cert.certified_isolated
        assert cert.defect == 2 * p - 1
    for n in (4, 6):
        cert = isolation_certificate(fourier_cyclic(n))
        assert cert.status == "undetermined"
        assert not cert.certified_isolated


def _modular(h):
    """The ranks modulo split primes on the exponent table of h."""
    table = detect_butson(h)
    return exact_defect_butson(table.exp, table.order)


@st.composite
def exact_petrescu(draw):
    """Petrescu at q = k/d for 61 <= d <= 200, rows and columns permuted and
    rephased at the matrix's own order."""
    d = draw(st.integers(61, 200))
    h = petrescu(PhaseEntry.turns(Fraction(draw(st.integers(1, d - 1)), d)))
    l = h.phases.order
    phase = st.integers(0, l - 1).map(lambda x: PhaseEntry.butson(x, l))
    return apply_equivalence(h, draw(st.permutations(range(h.m))),
                             draw(st.permutations(range(h.n))),
                             [draw(phase) for _ in range(h.m)],
                             [draw(phase) for _ in range(h.n)])


@settings(max_examples=20, deadline=None)
@given(exact_petrescu())
def test_modular_defect_bounds_the_svd_defect(h):
    # the modular route against the SVD at orders above 60: a mod-p rank
    # never exceeds the true rank, and a proved one equals it
    res = _modular(h)
    svd = defect(h)
    assert res.defect >= h.m + h.n - 1
    if not svd.ambiguous:
        assert res.defect >= svd.defect
    if res.exact:
        assert res.defect == svd.defect
    else:
        # a bound ranks one prime; the whole system at the next split prime
        # has the same rank, so that reduction would not move the bound
        assert len(res.primes) == 1
        table = detect_butson(h)
        e, l = np.asarray(table.exp, dtype=np.int64) % table.order, table.order
        p2, w2 = split_primes(l)[1]
        m, n = e.shape
        blocks = _tangent_blocks(e, l, p2, w2, 1,
                                 _block_layout(np.arange(m), np.arange(n), 1))
        assert rank_mod_p(blocks, p2) == [res.ranks[0]]


def test_criterion_three_certificates_are_exact():
    for p in (7, 11, 13):
        h = fourier_cyclic(p)
        cert = isolation_certificate(h)
        assert cert.exact is True and cert.status == "isolated"
        assert cert.report.method == "character-exact"
        assert cert.report.breakdown["route"] == "character"
        # one reduction reaching the largest possible rank proves each
        res = _modular(h)
        assert res.exact and res.route == "proof" and len(res.primes) == 1
        assert cert.defect == res.defect == defect(h).defect == 2 * p - 1
    rep = defect_exact(fourier_cyclic(13))
    assert rep.exact and rep.defect == 25


def _mw(q, base):
    return mw_construct(MWSpec(q, (1, 3), (0, 2), fourier_cyclic(base)))


def _permuted(h, seed):
    rng = np.random.default_rng(seed)
    return apply_equivalence(h, list(rng.permutation(h.m)),
                             list(rng.permutation(h.n)),
                             [PhaseEntry.one()] * h.m, [PhaseEntry.one()] * h.n)


def test_modular_and_float_routes_agree():
    # Fourier input is certified by the character count; the ranks modulo
    # split primes on the same tables must agree with it and the SVD
    cases = [(f"F{n}", fourier_cyclic(n), cyclic_defect_closed_form(n))
             for n in range(8, 25)]
    cases += [(f"F{o}", fourier_group(o), fourier_defect_formula(o))
              for o in ((2, 6), (3, 4))]
    cases += [("MW(7,F2)", _mw(7, 2), None),
              ("MW(5,F2) permuted", _permuted(_mw(5, 2), 3), 19)]
    for name, h, closed in cases:
        cert = isolation_certificate(h)
        float_rep = defect(h)
        res = _modular(h)
        assert not float_rep.ambiguous, name
        assert cert.defect == res.defect == float_rep.defect, name
        if closed is not None:
            assert cert.defect == closed, name
        assert res.exact == (res.route == "proof"), name
        if name.startswith("F"):
            assert cert.exact and cert.report.method == "character-exact", name
        else:
            assert cert.exact == res.exact, name
            assert cert.report.method == ("direct-exact" if res.exact
                                          else "direct-modp"), name
            assert cert.report.breakdown["route"] == res.route, name
        if res.route == "bound":
            assert len(res.primes) == 1 and res.needed > PROOF_CAP, name


# groups whose random row subsets, permuted, rephased and with repeated
# columns, must be recognised as character matrices
CHARACTER_GROUPS = [(n,) for n in range(5, 17)] + [(2, 6), (3, 4), (4, 4),
                                                   (2, 2, 2)]


@st.composite
def character_matrices(draw):
    """(orders, rows, t, extra, seed): row subset of the group Fourier
    matrix, whose column g appears 1 + extra times when g lies in the
    subgroup <t> and once otherwise."""
    orders = draw(st.sampled_from(CHARACTER_GROUPS))
    n = math.prod(orders)
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                         unique=True))
    t = tuple(draw(st.integers(0, k - 1)) for k in orders)
    extra = draw(st.sampled_from((0, 0, 1, 2)))
    return orders, tuple(rows), t, extra, draw(st.integers(0, 2 ** 32 - 1))


def _character_matrix(orders, rows, t, extra, seed):
    """The matrix of a character_matrices draw.  Repeated columns weigh the
    sum of a character by its sum over <t>, so only rows r whose <r, t>
    differ are kept: those stay orthogonal."""
    l = math.lcm(*orders)
    weights = [l // k for k in orders]
    elems = group_elements(orders)

    def pairing(r, g):
        return sum(a * b * w for a, b, w in zip(r, g, weights)) % l

    subgroup = {tuple(c * j % k for c, k in zip(t, orders)) for j in range(l)}
    kept, seen = [], set()
    for r in rows:
        value = pairing(elems[r], t) if extra else r
        if value not in seen:
            seen.add(value)
            kept.append(r)
    cols = [g for g, e in enumerate(elems)
            for _ in range(1 + (extra if e in subgroup else 0))]
    h = truncated_fourier(kept, list(orders))
    h = PHMatrix.from_phases(h.phases[:, cols])
    rng = np.random.default_rng(seed)

    def phases(k):
        return [PhaseEntry.turns(Fraction(int(x), 2 * l))
                for x in rng.integers(0, 2 * l, k)]
    return apply_equivalence(h, list(rng.permutation(h.m)),
                             list(rng.permutation(h.n)),
                             phases(h.m), phases(h.n))


@settings(max_examples=40, deadline=None)
@given(character_matrices())
@example(((4,), (0, 1), (2,), 1, 0))     # columns 0, 0, 1, 2, 2, 3 of Z_4
def test_character_matrices_are_counted_exactly(case):
    h = _character_matrix(*case)
    cert = isolation_certificate(h)
    assert cert.exact and cert.report.method == "character-exact"
    direct = defect(h)
    assert not direct.ambiguous and cert.defect == direct.defect
    assert _modular(h).defect >= cert.defect


def test_other_butson_input_takes_the_modular_route():
    # their exponent columns do not close under addition; counting them as
    # characters anyway would give 6 for f22q and 10 for MW(5, F2)
    cases = [("f22q(1/20)", f22q(PhaseEntry.turns(Fraction(1, 20))), 8),
             ("MW(5,F2) permuted", _permuted(_mw(5, 2), 5), 19),
             ("petrescu(1/7)", petrescu(PhaseEntry.turns(Fraction(1, 7))), None)]
    for name, h, want in cases:
        cert = isolation_certificate(h)
        assert cert.report.method in ("direct-exact", "direct-modp"), name
        assert cert.defect == defect(h).defect == (want or cert.defect), name


def test_exact_character_matrices_above_the_order_cap():
    # F61 is stored at order 61 > 60: the order cap binds only the scan of
    # a complex matrix, so both exact answers are the character count
    want = cyclic_defect_closed_form(61)
    cert = isolation_certificate(fourier_cyclic(61))
    rep = defect_exact(fourier_cyclic(61))
    for r in (cert.report, rep):
        assert r.exact and r.method == "character-exact"
        assert r.defect == want == 121
        assert r.breakdown["butson_order"] == 61
    assert cert.status == "isolated"
    # F2 with a column phase of order 2^70 + 3 is stored at twice that
    # order, in Python integers; dephased, its entries generate Z_2
    big = 2 ** 70 + 3
    h = apply_equivalence(fourier_cyclic(2), [0, 1], [0, 1],
                          [PhaseEntry.one()] * 2,
                          [PhaseEntry.butson(1, big), PhaseEntry.one()])
    assert h.phases.order == 2 * big
    cert = isolation_certificate(h)
    assert cert.exact and cert.report.method == "character-exact"
    assert cert.defect == 3 and cert.report.breakdown["butson_order"] == 2 * big
    # a non-character matrix above the cap takes the modular route: Petrescu
    # at q = 1/61, of order 366, gets the SVD's defect as a proved bound
    p = petrescu(PhaseEntry.turns(Fraction(1, 61)))
    assert p.phases.order == 366
    cert = isolation_certificate(p)
    assert cert.report.method == "direct-modp"
    assert cert.defect == defect(p).defect == 15
    assert cert.report.breakdown["route"] == "bound"


# Petrescu at q = 1/(2^25 + 1) is exact, of order 67108866, and no character
# matrix; the first prime p = 1 (mod l) is past the exact elimination's range
PAST_THE_SPLIT_PRIMES = Fraction(1, 2 ** 25 + 1)


def test_exact_refusal_names_the_order():
    p = petrescu(PhaseEntry.turns(PAST_THE_SPLIT_PRIMES))
    with pytest.raises(InvalidInputError,
                       match="order 67108866 and is not a character matrix; "
                             r"no split prime p = 1 \(mod 67108866\)"):
        defect_exact(p)


def test_float_route_records_the_stored_order():
    # with no split prime the exact matrix takes the SVD; the certificate
    # still names the order, and the probe reads it there
    p = petrescu(PhaseEntry.turns(PAST_THE_SPLIT_PRIMES))
    cert = isolation_certificate(p)
    assert not cert.exact and cert.report.method == "direct"
    assert cert.report.breakdown == {"butson_order": 67108866, "route": "float"}
    probe = weak_isolation_probe(p)
    assert probe.butson_order == 67108866 and not probe.counterexample_candidate


def test_float_route_breakdown():
    p7 = petrescu(PhaseEntry.turns(0.123))
    cert = isolation_certificate(p7)
    assert not cert.exact and cert.status == "undetermined"
    assert cert.report.method == "direct"
    assert cert.report.breakdown == {"butson_order": None, "route": "float"}


def test_exact_certificate_f45():
    h = truncated_fourier([0, 1, 2, 3], [5])
    cert = isolation_certificate(h)
    assert cert.exact
    assert cert.status == "isolated"
    assert cert.defect == 8 == cert.bound


def test_confidence_drives_ambiguity():
    rep = defect(fourier_cyclic(6), confidence=1e20)
    assert rep.ambiguous
    cert = isolation_certificate(petrescu(PhaseEntry.turns(0.123)),
                                 confidence=1e20)
    assert cert.status == "ambiguous"


def test_defect_invariant_under_equivalence():
    h = truncated_fourier([0, 1, 2], [7])
    base = defect(h).defect
    rng = np.random.default_rng(23)
    for _ in range(5):
        rp = list(rng.permutation(h.m))
        cp = list(rng.permutation(h.n))
        rph = [complex(np.exp(2j * np.pi * rng.random())) for _ in range(h.m)]
        cph = [complex(np.exp(2j * np.pi * rng.random())) for _ in range(h.n)]
        assert defect(apply_equivalence(h, rp, cp, rph, cph)).defect == base


def test_truncation_probe_statuses():
    certs = truncation_probe(5)
    assert [c.shape[0] for c in certs] == [2, 3, 4, 5]
    assert certs[-2].status == "isolated"      # F_{4,5}
    assert certs[-1].status == "isolated"      # F_5 itself
    with pytest.raises(InvalidInputError):
        truncation_probe(5, sizes=[9])
    with pytest.raises(InvalidInputError, match="n must be an integer >= 2"):
        truncation_probe(1)


def test_defect_rejects_unverified_input():
    with pytest.raises(InvalidInputError):
        defect(PHMatrix([[1, 1], [1, 1]]))


# -- the real systems against the loop builders they replaced ------------------

def ref_tangent_system(h):
    """One complex row per unordered row pair, a pair at a time."""
    z = h.to_array()
    m, n = h.m, h.n
    npairs = m * (m - 1) // 2
    sys = np.zeros((npairs, m * n), dtype=np.complex128)
    r = 0
    for i in range(m):
        for j in range(i + 1, m):
            w = z[i] * np.conj(z[j])
            sys[r, i * n:(i + 1) * n] = w
            sys[r, j * n:(j + 1) * n] = -w
            r += 1
    return sys


def ref_extension_system(h, k):
    """Im((E K)_ij conj(H_ij)) = 0 expanded term by term, with the signs of
    the Hermitian block's real and imaginary parts written out."""
    m, n = h.m, h.n
    z = h.to_array()
    nu = m * m + 2 * m * (n - m)
    off = {}
    pos = m
    for a in range(m):
        for b in range(a + 1, m):
            off[(a, b)] = (pos, pos + 1)
            pos += 2
    y_base = pos
    rows = np.zeros((m * n, nu), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            c = np.conj(z[i, j]) * k[:, j]
            row = rows[i * n + j]
            for u in range(n):
                cu = c[u]
                if u < m:
                    if u == i:
                        row[i] += cu.imag
                    elif i < u:
                        re_ix, im_ix = off[(i, u)]
                        row[re_ix] += cu.imag
                        row[im_ix] += cu.real
                    else:
                        re_ix, im_ix = off[(u, i)]
                        row[re_ix] += cu.imag
                        row[im_ix] += -cu.real
                else:
                    b = u - m
                    row[y_base + 2 * (i * (n - m) + b)] += cu.imag
                    row[y_base + 2 * (i * (n - m) + b) + 1] += cu.real
    return rows


def ref_master_system(spec):
    """The realness and orthogonality rows, an entry at a time."""
    nsz = spec.m
    turns = [float(x) for x in spec.angle_turns()]
    t = [2.0 * math.pi * v for v in turns]
    ell = np.zeros((nsz, nsz), dtype=np.complex128)
    for s in range(nsz):
        for a in range(nsz):
            ell[s, a] = spec.char_sum(-(t[s] + t[a]))

    def x_ix(i, s):
        return i * nsz + s

    def y_ix(i, s):
        return nsz * nsz + i * nsz + s

    rows = []
    for i in range(nsz):
        for a in range(nsz):
            re_row = np.zeros(2 * nsz * nsz)
            im_row = np.zeros(2 * nsz * nsz)
            re_row[x_ix(i, a)] += nsz
            im_row[y_ix(i, a)] -= nsz
            for s in range(nsz):
                re_row[x_ix(i, s)] -= ell[s, a].real
                re_row[y_ix(i, s)] += ell[s, a].imag
                im_row[x_ix(i, s)] -= ell[s, a].imag
                im_row[y_ix(i, s)] -= ell[s, a].real
            rows.append(re_row)
            rows.append(im_row)
    for i in range(nsz):
        for j in range(nsz):
            if i == j:
                continue
            r = np.array([spec.char_sum(t[i] - t[j] - t[s]) for s in range(nsz)])
            re_row = np.zeros(2 * nsz * nsz)
            im_row = np.zeros(2 * nsz * nsz)
            for s in range(nsz):
                re_row[x_ix(i, s)] += r[s].real
                re_row[x_ix(j, s)] -= r[s].real
                re_row[y_ix(i, s)] -= r[s].imag
                re_row[y_ix(j, s)] += r[s].imag
                im_row[x_ix(i, s)] += r[s].imag
                im_row[x_ix(j, s)] -= r[s].imag
                im_row[y_ix(i, s)] += r[s].real
                im_row[y_ix(j, s)] -= r[s].real
            rows.append(re_row)
            rows.append(im_row)
    return np.array(rows)


def _same_bits(x, y):
    """Equal shapes and dtypes and equal bytes, so np.array_equal and the
    sign of every zero."""
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


SYSTEM_GROUPS = [(n,) for n in range(2, 9)] + [(2, 2), (2, 3), (2, 4), (3, 3)]


@st.composite
def system_inputs(draw):
    """(h, seed): a row subset of F_n or F_G, permuted and rephased by float
    phases, or a float Petrescu, float Dita or permuted MW(5, F2) matrix;
    the seed also seeds the completion."""
    kind = draw(st.sampled_from(("fourier", "petrescu", "dita", "mw")))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "fourier":
        orders = draw(st.sampled_from(SYSTEM_GROUPS))
        n = math.prod(orders)
        rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                             unique=True))
        h = truncated_fourier(rows, list(orders))
        return apply_equivalence(
            h, list(rng.permutation(h.m)), list(rng.permutation(h.n)),
            list(np.exp(2j * np.pi * rng.random(h.m))),
            list(np.exp(2j * np.pi * rng.random(h.n)))), seed
    if kind == "petrescu":
        return petrescu(PhaseEntry.turns(float(rng.random()))), seed
    if kind == "dita":
        grid = tuple(tuple(PhaseEntry.turns(float(x)) for x in row)
                     for row in rng.random((3, 3)))
        return dita_deformation(DitaParams(fourier_cyclic(3), fourier_cyclic(3),
                                           grid)), seed
    return _permuted(_mw(5, 2), seed), seed


@settings(max_examples=40, deadline=None)
@given(system_inputs())
def test_systems_equal_the_loop_builders(case):
    h, seed = case
    ref = ref_tangent_system(h)
    assert _same_bits(tangent_system(h), ref)
    assert _same_bits(np.vstack(real_rows(tangent_system(h))),
                      np.vstack([ref.real, ref.imag]))
    k = unitary_completion(h, seed=seed)
    assert _same_bits(extension_system(h, k), ref_extension_system(h, k))


@st.composite
def master_specs(draw):
    """f22q tables at odd twentieths, and Dita tables with integer p, r."""
    if draw(st.booleans()):
        return f22q_master_spec(PhaseEntry.turns(
            Fraction(draw(st.sampled_from(range(1, 20, 2))), 20)))
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    p = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    r = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return master_dita(n, m, 1, tuple(p), tuple(r))[1]


@settings(max_examples=30, deadline=None)
@given(master_specs())
def test_master_system_equals_the_loop_builder(spec):
    assert _same_bits(master_system(spec), ref_master_system(spec))
