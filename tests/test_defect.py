import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hadlab import (ConsistencyError, InvalidInputError, MWSpec, PHMatrix,
                    PhaseEntry, apply_equivalence, count_one_entries,
                    cyclic_defect_closed_form, defect, defect_exact,
                    defect_master, defect_split_truncated_fourier,
                    defect_via_extension, fourier_cyclic,
                    fourier_defect_formula, fourier_group,
                    isolation_certificate, mw_construct, numerical_rank,
                    petrescu, real_truncation_defect_formula, tensor_product,
                    truncated_fourier, truncation_probe, unitary_completion)
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


def test_fourier_defect_table():
    for n, expected in zip(range(2, 21), FOURIER_DEFECTS):
        assert cyclic_defect_closed_form(n) == expected
        assert fourier_defect_formula([n]) == expected
    rep = defect(fourier_cyclic(6))
    assert rep.defect == 15
    assert rep.method == "direct"
    assert rep.bound == 11


def test_group_fourier_defect_three_ways():
    cases = {(2, 2): 10, (2, 4): 28, (3, 3): 33, (2, 6): 50}
    for orders, expected in cases.items():
        h = fourier_group(list(orders))
        assert subgroup_index_sum(orders) == expected
        assert fourier_defect_formula(orders) == expected
        assert count_one_entries(h) == expected
        assert defect(h).defect == expected


def test_single_row_defect_is_exact_n():
    rep = defect(PHMatrix([[1, 1j, -1, -1j]]))
    assert rep.defect == 4 and rep.exact


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


def test_exact_defect_route():
    rep = defect_exact(fourier_cyclic(6))
    assert rep.defect == 15 and rep.exact
    assert rep.breakdown["butson_order"] == 6
    with pytest.raises(InvalidInputError):
        defect_exact(PHMatrix([[1, np.exp(0.7j)], [np.exp(0.7j), 1]]))


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


def test_criterion_three_certificates_are_exact():
    # one reduction reaching the largest possible rank proves each
    for p in (7, 11, 13):
        cert = isolation_certificate(fourier_cyclic(p))
        assert cert.exact is True and cert.status == "isolated"
        assert cert.report.method == "direct-exact"
        assert cert.report.breakdown["route"] == "proof"
        assert cert.report.breakdown["reductions"] == 1
    rep = defect_exact(fourier_cyclic(13))
    assert rep.exact and rep.defect == 25


def _mw(q, base):
    return mw_construct(MWSpec(q, (1, 3), (0, 2), fourier_cyclic(base)))


def test_modular_and_float_routes_agree():
    rng = np.random.default_rng(3)
    mw5 = _mw(5, 2)
    mw5 = apply_equivalence(mw5, list(rng.permutation(mw5.m)),
                            list(rng.permutation(mw5.n)),
                            [PhaseEntry.one()] * mw5.m, [PhaseEntry.one()] * mw5.n)
    cases = [(f"F{n}", fourier_cyclic(n), cyclic_defect_closed_form(n))
             for n in range(8, 25)]
    cases += [(f"F{o}", fourier_group(o), fourier_defect_formula(o))
              for o in ((2, 6), (3, 4))]
    cases += [("MW(7,F2)", _mw(7, 2), None), ("MW(5,F2) permuted", mw5, 19)]
    for name, h, closed in cases:
        cert = isolation_certificate(h)
        float_rep = defect(h)
        assert not float_rep.ambiguous, name
        assert cert.defect == float_rep.defect, name
        if closed is not None:
            assert cert.defect == closed, name
        route = cert.report.breakdown["route"]
        assert cert.exact == (route == "proof"), name
        assert cert.report.method == ("direct-exact" if cert.exact
                                      else "direct-modp"), name
        if route == "bound":
            bd = cert.report.breakdown
            assert cert.status == "undetermined" and bd["reductions"] == 2
            assert bd["reductions_needed"] > bd["reduction_cap"]


def test_float_route_breakdown():
    cert = isolation_certificate(fourier_cyclic(5), prefer_exact=False)
    assert not cert.exact and cert.status == "isolated"
    assert cert.report.breakdown == {"butson_order": None, "route": "float"}
    p7 = petrescu(PhaseEntry.turns(0.123))
    cert = isolation_certificate(p7)
    assert cert.report.method == "direct"
    assert cert.report.breakdown["route"] == "float"


def test_exact_certificate_f45():
    h = truncated_fourier([0, 1, 2, 3], [5])
    cert = isolation_certificate(h)
    assert cert.exact
    assert cert.status == "isolated"
    assert cert.defect == 8 == cert.bound


def test_confidence_drives_ambiguity():
    rep = defect(fourier_cyclic(6), confidence=1e20)
    assert rep.ambiguous
    cert = isolation_certificate(fourier_cyclic(5), confidence=1e20,
                                 prefer_exact=False)
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


def test_defect_rejects_unverified_input():
    with pytest.raises(InvalidInputError):
        defect(PHMatrix([[1, 1], [1, 1]]))
