from fractions import Fraction

import numpy as np
import pytest

from hadlab import (InvalidInputError, MWSpec, arithmetic_isolation_probe,
                    detect_butson, fourier_cyclic, gauss_vector,
                    gauss_vector_closed, gauss_vector_direct, is_odd_prime,
                    legendre_symbol, mub_family, mub_unitary, mw_construct,
                    quadratic_diagonal_exponents, truncated_fourier,
                    verify_partial_hadamard)


def test_is_odd_prime():
    assert [is_odd_prime(n) for n in (1, 2, 3, 4, 5, 9, 13, 15)] == \
        [False, False, True, False, True, False, True, False]


def test_legendre_symbol_values():
    assert [legendre_symbol(a, 5) for a in range(5)] == [0, 1, -1, -1, 1]
    assert legendre_symbol(2, 7) == 1   # 3^2 = 2 mod 7
    assert legendre_symbol(8, 7) == 1   # reduces mod q first
    with pytest.raises(InvalidInputError):
        legendre_symbol(1, 6)


def test_quadratic_diagonal_exponents():
    assert quadratic_diagonal_exponents(5) == [0, 0, 1, 3, 1]
    assert quadratic_diagonal_exponents(5, k=2) == [0, 0, 2, 1, 2]


def test_mub_unitaries_are_hadamard_and_unbiased():
    fam = mub_family(5)
    assert len(fam) == 5
    arrays = []
    for u in fam:
        assert verify_partial_hadamard(u).is_hadamard
        arrays.append(u.to_array())
    for a in range(5):
        for b in range(a + 1, 5):
            g = np.conj(arrays[a].T) @ arrays[b]
            assert np.max(np.abs(np.abs(g) - np.sqrt(5))) < 1e-9


def test_mub_unitary_label():
    assert mub_unitary(5, 2).label == "D^2 F5"


def test_gauss_vector_first_entry_q3():
    v = gauss_vector(3, 1)
    assert v.entries[0].exact_turn() == Fraction(1, 12)
    assert abs(v.entries[0].value - np.exp(2j * np.pi / 12)) < 1e-12


def test_gauss_vector_exact_denominators():
    for q, k in [(3, 1), (5, 2), (7, 3)]:
        for e in gauss_vector(q, k).entries:
            t = e.exact_turn()
            assert t is not None and (4 * q) % t.denominator == 0


def test_gauss_closed_matches_direct_everywhere():
    worst = 0.0
    count = 0
    for q in (3, 5, 7, 11, 13):
        for k in range(1, q):
            closed = gauss_vector_closed(q, k)
            direct = gauss_vector_direct(q, k)
            worst = max(worst, max(abs(p.value - d)
                                   for p, d in zip(closed, direct)))
            count += 1
    assert count == 34
    assert worst < 1e-10


def test_gauss_vector_rejects_k_zero():
    for fn in (gauss_vector_direct, gauss_vector_closed):
        with pytest.raises(InvalidInputError):
            fn(5, 0)
        with pytest.raises(InvalidInputError):
            fn(5, 10)
    with pytest.raises(InvalidInputError):
        gauss_vector_direct(6, 1)


def test_mwspec_validation():
    f2 = fourier_cyclic(2)
    MWSpec(5, (1, 3), (0, 2), f2)
    with pytest.raises(InvalidInputError):
        MWSpec(4, (1, 3), (0, 2), f2)
    with pytest.raises(InvalidInputError):
        MWSpec(5, (1, 3, 4), (0, 2), f2)
    with pytest.raises(InvalidInputError):
        MWSpec(5, (1, 2), (0, 2), f2)          # overlap at 2
    with pytest.raises(InvalidInputError):
        MWSpec(7, (1, 8), (0, 2), f2)          # 8 = 1 mod 7
    with pytest.raises(InvalidInputError):
        MWSpec(5, (1, 3), (0, 2), truncated_fourier([0, 1], [5]))


@pytest.mark.parametrize("q, s", [(5, (1.5, 3)), (5, (True, 3)), (5.0, (1, 3)),
                                  (True, (1, 3)), (5, ("1", 3))])
def test_mwspec_refuses_what_is_not_an_integer(q, s):
    with pytest.raises(InvalidInputError, match="odd prime|must hold integers"):
        MWSpec(q, s, (0, 2), fourier_cyclic(2))


def test_mwspec_takes_numpy_integers():
    spec = MWSpec(np.int64(5), tuple(np.array([1, 3])), (0, 2), fourier_cyclic(2))
    assert (spec.q, spec.s) == (5, (1, 3))
    assert all(type(x) is int for x in (spec.q, *spec.s, *spec.t))
    assert mw_construct(spec).shape == (10, 10)


def test_mw_construct_q5():
    spec = MWSpec(5, (1, 3), (0, 2), fourier_cyclic(2))
    h = mw_construct(spec)
    assert h.shape == (10, 10)
    assert h.label == "MW(q=5)"
    assert verify_partial_hadamard(h, 1e-9).is_hadamard
    # all entries are exact roots of unity
    assert h.common_butson_order() is not None


def test_mw_block_structure_q5():
    spec = MWSpec(5, (1, 3), (0, 2), fourier_cyclic(2))
    h = mw_construct(spec).to_array()
    base = fourier_cyclic(2).to_array()
    for i in range(2):
        for j in range(2):
            k = (spec.t[j] - spec.s[i]) % 5
            v = np.array([e.value for e in gauss_vector(5, k).entries])
            block = h[5 * i:5 * i + 5, 5 * j:5 * j + 5]
            circ = np.array([[v[(b - a) % 5] for b in range(5)]
                             for a in range(5)])
            assert np.max(np.abs(block - base[i, j] * circ)) < 1e-12


def test_arithmetic_probe_q5_isolated():
    spec = MWSpec(5, (1, 3), (0, 2), fourier_cyclic(2))
    rep = arithmetic_isolation_probe(spec)
    assert rep.shape == (10, 10)
    assert rep.defect == 19 == rep.bound
    assert rep.certified_isolated
    assert rep.pattern_notes == ()


def test_arithmetic_probe_q7_undetermined():
    spec = MWSpec(7, (1, 3), (0, 2), fourier_cyclic(2))
    rep = arithmetic_isolation_probe(spec)
    assert rep.shape == (14, 14)
    assert rep.defect == 39
    assert rep.bound == 27
    assert not rep.certified_isolated
    assert rep.status == "undetermined"
    assert rep.pattern_notes == ()
    assert detect_butson(mw_construct(spec)).order == 28


def test_arithmetic_probe_flags_other_patterns():
    f2 = fourier_cyclic(2)
    rep = arithmetic_isolation_probe(MWSpec(5, (0, 2), (1, 3), f2))
    assert any("s is not" in n for n in rep.pattern_notes)
    assert any("t is not" in n for n in rep.pattern_notes)
    rep = arithmetic_isolation_probe(MWSpec(7, (1, 3), (0, 4), f2))
    assert rep.pattern_notes == ("t is not a run of consecutive even residues",)
