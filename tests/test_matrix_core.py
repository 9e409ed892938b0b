from fractions import Fraction

import numpy as np
import pytest

from hadlab import (InvalidInputError, PHMatrix, PhaseEntry, apply_equivalence,
                    dephase, dephase_at, detect_butson, ensure_verified,
                    equivalence_profile, f22q, fourier_cyclic, fourier_group,
                    petrescu, row_quotient, tensor_product, truncated_fourier,
                    verify_partial_hadamard)


def test_construction_coerces_and_validates():
    h = PHMatrix([[1, -1], [Fraction(1, 2), 1j]])
    assert h.shape == (2, 2)
    # complex entries make the whole matrix complex
    assert h.entry(1, 0).exact_turn() is None
    assert abs(h.entry(1, 0).value + 1) < 1e-15
    h = PHMatrix([[Fraction(0), Fraction(1, 2)]])
    assert h.entry(0, 1).exact_turn() == Fraction(1, 2)
    with pytest.raises(InvalidInputError):
        PHMatrix([[1, 1], [1]])
    with pytest.raises(InvalidInputError):
        PHMatrix([])
    with pytest.raises(InvalidInputError):
        PHMatrix([[2.0]])


def test_to_array_cached_and_readonly():
    h = fourier_cyclic(3)
    z = h.to_array()
    assert z is h.to_array()
    with pytest.raises(ValueError):
        z[0, 0] = 0


def test_verify_fourier_and_non_hadamard():
    rep = verify_partial_hadamard(fourier_cyclic(5))
    assert rep.is_hadamard
    assert rep.max_inner_residual < 1e-12 * 5
    bad = PHMatrix([[1, 1], [1, 1]])
    rep = verify_partial_hadamard(bad)
    assert not rep.is_hadamard
    assert rep.max_inner_residual == pytest.approx(2.0)
    with pytest.raises(InvalidInputError):
        ensure_verified(bad)


def test_verified_flag_set_only_on_pass():
    h = fourier_cyclic(4)
    assert not h.verified
    verify_partial_hadamard(h)
    assert h.verified


def test_single_row_is_trivially_hadamard():
    h = PHMatrix([[1, 1j, -1]])
    assert verify_partial_hadamard(h).is_hadamard


def test_dephase_reconstructs_exactly():
    h = f22q(PhaseEntry.turns(Fraction(1, 20)))
    d, rp, cp = dephase(h)
    for j in range(h.n):
        assert d.entry(0, j).exact_turn() == 0
    for i in range(h.m):
        assert d.entry(i, 0).exact_turn() == 0
    for i in range(h.m):
        for j in range(h.n):
            back = rp[i] * cp[j] * d.entry(i, j)
            assert back.exact_turn() == h.entry(i, j).exact_turn()


def test_dephase_at_pivot():
    h = fourier_cyclic(4)
    d = dephase_at(h, 2, 3)
    z = d.to_array()
    assert np.allclose(z[2], 1.0)
    assert np.allclose(z[:, 3], 1.0)
    with pytest.raises(InvalidInputError):
        dephase_at(h, 4, 0)


def test_row_quotient_values():
    h = fourier_cyclic(4)
    v = row_quotient(h, 1, 0)
    assert np.allclose(v, h.to_array()[1])
    with pytest.raises(InvalidInputError):
        row_quotient(h, 0, 7)


def test_detect_butson_exact_path():
    h = fourier_cyclic(6)
    table = detect_butson(h)
    assert table is h.phases and table.order == 6
    assert table.exp[1].tolist() == [0, 1, 2, 3, 4, 5]


def test_detect_butson_float_path():
    z = np.exp(2j * np.pi * np.arange(3) / 3)
    h = PHMatrix([[complex(v) for v in z]])
    table = detect_butson(h)
    assert table.order == 3
    assert table.exp.dtype == np.int64 and table.exp.tolist() == [[0, 1, 2]]


def test_detect_butson_none_for_generic_phase():
    h = PHMatrix([[np.exp(0.7j)]])
    assert detect_butson(h) is None


def test_detect_butson_f22q_seventh_root():
    # q = exp(2*pi*i/7) mixes 7th roots with -1: the combined order is 14
    h = f22q(PhaseEntry.turns(Fraction(1, 7)))
    assert detect_butson(h).order == 14


def test_tensor_product_row_major_and_hadamard():
    f2, f3 = fourier_cyclic(2), fourier_cyclic(3)
    t = tensor_product(f2, f3)
    assert t.shape == (6, 6)
    z = np.kron(f2.to_array(), f3.to_array())
    assert np.allclose(t.to_array(), z)
    assert verify_partial_hadamard(t).is_hadamard


def test_apply_equivalence_preserves_hadamard():
    h = fourier_cyclic(4)
    g = apply_equivalence(h, [1, 0, 3, 2], [2, 3, 0, 1],
                          [Fraction(1, 3)] * 4, [Fraction(1, 7)] * 4)
    assert verify_partial_hadamard(g).is_hadamard
    # entry moved to (sigma(i), tau(j)) and multiplied by the phases
    expect = h.entry(0, 0) * PhaseEntry.turns(Fraction(1, 3)) * PhaseEntry.turns(Fraction(1, 7))
    assert g.entry(1, 2).exact_turn() == expect.exact_turn()
    with pytest.raises(InvalidInputError):
        apply_equivalence(h, [0, 0, 1, 2], [0, 1, 2, 3], [1] * 4, [1] * 4)
    with pytest.raises(InvalidInputError):
        apply_equivalence(h, [0, 1, 2, 3], [0, 1, 2, 3], [1] * 3, [1] * 4)


def test_equivalence_profile_invariant_under_equivalence():
    h = fourier_cyclic(6)
    base = equivalence_profile(h)
    assert base.shape == (6, 6)
    assert base.defect == 15
    assert base.butson_order == 6
    rng = np.random.default_rng(11)
    rp = list(rng.permutation(6))
    cp = list(rng.permutation(6))
    phases = [Fraction(int(rng.integers(0, 12)), 12) for _ in range(6)]
    g = apply_equivalence(h, rp, cp, phases, phases)
    assert equivalence_profile(g) == base


def _least_pivot_order(h):
    """The least Butson order over the dephasings at every pivot."""
    orders = [t.order for t in (detect_butson(dephase_at(h, r, c))
                                for r in range(h.m) for c in range(h.n))
              if t is not None]
    return min(orders, default=None)


def test_equivalence_profile_order_is_the_least_over_all_pivots():
    bases = [fourier_cyclic(n) for n in (2, 3, 4, 6, 8)] + [
        fourier_group([2, 2]), fourier_group([2, 4]), f22q(Fraction(1, 20)),
        f22q(PhaseEntry.turns(0.1234)), petrescu(PhaseEntry.turns(Fraction(1, 7))),
        petrescu(PhaseEntry.turns(0.321))]
    rng = np.random.default_rng(5)
    seen = set()
    for k in range(40):
        h = bases[k % len(bases)]
        if k % 3 == 0:      # exact phases at order 12
            phase = lambda: Fraction(int(rng.integers(12)), 12)
        elif k % 3 == 1:    # float phases
            phase = lambda: complex(np.exp(2j * np.pi * rng.random()))
        else:               # float images of exact phases
            phase = lambda: complex(np.exp(2j * np.pi * int(rng.integers(24)) / 24))
        g = apply_equivalence(h, list(rng.permutation(h.m)), list(rng.permutation(h.n)),
                              [phase() for _ in range(h.m)], [phase() for _ in range(h.n)])
        rows = sorted(rng.choice(g.m, size=int(rng.integers(1, g.m + 1)), replace=False))
        g = PHMatrix.from_phases(g.phases[rows])
        want = _least_pivot_order(g)
        assert equivalence_profile(g).butson_order == want
        seen.add(want)
    assert None in seen and len(seen) > 3


def test_equivalence_profile_reads_exact_orders_above_the_cap():
    h = truncated_fourier([0, 1], [61])
    assert equivalence_profile(h).butson_order == 61
    table = detect_butson(h)
    assert table is h.phases and table.order == 61


def test_common_butson_order():
    assert fourier_cyclic(5).common_butson_order() == 5
    h = PHMatrix([[1, PhaseEntry.turns(Fraction(1, 2))]])
    assert h.common_butson_order() is None
