import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hadlab import (DitaParams, InvalidInputError, MasterSpec, PhaseEntry,
                    dita_deformation, f22q, f22q_master_spec, fourier_cyclic,
                    fourier_group, group_elements, group_index, master_dita,
                    master_matrix, normalize_row_subset, petrescu,
                    tensor_product, truncated_fourier, verify_partial_hadamard)


def test_fourier_cyclic_entries_and_label():
    h = fourier_cyclic(4)
    assert h.label == "F4"
    assert h.entry(2, 3).exact_turn() == Fraction(6 % 4, 4)
    assert verify_partial_hadamard(h).is_hadamard
    with pytest.raises(InvalidInputError):
        fourier_cyclic(0)


def test_group_elements_row_major():
    assert group_elements([2, 3]) == [(0, 0), (0, 1), (0, 2),
                                      (1, 0), (1, 1), (1, 2)]
    assert group_index((1, 2), [2, 3]) == 5
    assert group_index((3, -1), [2, 3]) == group_index((1, 2), [2, 3])


def test_fourier_group_matches_tensor():
    g = fourier_group([2, 3])
    t = tensor_product(fourier_cyclic(2), fourier_cyclic(3))
    assert np.allclose(g.to_array(), t.to_array())
    assert verify_partial_hadamard(g).is_hadamard


def test_fourier_group_cyclic_reduces_to_fourier():
    assert np.allclose(fourier_group([6]).to_array(), fourier_cyclic(6).to_array())


def test_normalize_row_subset_flat_and_tuples():
    assert normalize_row_subset([0, 5], [2, 3]) == [(0, 0), (1, 2)]
    assert normalize_row_subset([(1, 2)], [2, 3]) == [(1, 2)]
    with pytest.raises(InvalidInputError):
        normalize_row_subset([0, 0], [6])
    with pytest.raises(InvalidInputError):
        normalize_row_subset([9], [2, 3])
    with pytest.raises(InvalidInputError):
        normalize_row_subset([(1,)], [2, 3])


def test_truncated_fourier_rows():
    h = truncated_fourier([0, 2], [5])
    f = fourier_cyclic(5)
    assert np.allclose(h.to_array()[0], f.to_array()[0])
    assert np.allclose(h.to_array()[1], f.to_array()[2])
    assert verify_partial_hadamard(h).is_hadamard


@pytest.mark.parametrize("orders", [(7,), (12,), (2, 3), (3, 5), (2, 2, 4)])
def test_truncated_fourier_is_rows_of_fourier_group(orders):
    """Exponents, order (the least that holds the rows, as every matrix
    stores them) and label of random row subsets, given as flat indices, as
    coordinates and as coordinates off their residues."""
    rng = random.Random(sum(orders))
    full = fourier_group(orders)
    elems = group_elements(orders)
    for _ in range(6):
        idx = rng.sample(range(len(elems)), rng.randint(1, len(elems)))
        desc = ",".join("".join(map(str, elems[i])) if len(orders) > 1
                        else str(elems[i][0]) for i in idx)
        shifted = [tuple(c + n * rng.randint(-2, 2) for c, n in zip(elems[i], orders))
                   for i in idx]
        want = full.phases[idx].reduced()
        for rows in (idx, [elems[i] for i in idx], shifted):
            h = truncated_fourier(rows, orders)
            assert h.phases.order == want.order
            assert h.phases.exp.dtype == want.exp.dtype
            assert np.array_equal(h.phases.exp, want.exp)
            assert h.label == f"{full.label}[{desc}]"


def test_truncated_fourier_builds_only_its_rows():
    """Two rows of F_3000 need far less than the 72 MB of the whole int64
    exponent table."""
    tracemalloc.start()
    try:
        h = truncated_fourier([0, 1], [3000])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.shape == (2, 3000)
    assert peak < 3000 * 3000 * 8


def test_dita_deformation_is_hadamard_for_any_unit_grid():
    rng = np.random.default_rng(5)
    outer, inner = fourier_cyclic(3), fourier_cyclic(2)
    grid = tuple(tuple(complex(np.exp(2j * np.pi * rng.random())) for _ in range(2))
                 for _ in range(3))
    h = dita_deformation(DitaParams(outer, inner, grid))
    assert h.shape == (6, 6)
    assert verify_partial_hadamard(h).is_hadamard


def test_dita_trivial_grid_is_tensor():
    outer, inner = fourier_cyclic(2), fourier_cyclic(3)
    ones = ((1, 1, 1), (1, 1, 1))
    h = dita_deformation(DitaParams(outer, inner, ones))
    assert np.allclose(h.to_array(),
                       tensor_product(outer, inner).to_array())


def test_dita_grid_shape_checked():
    with pytest.raises(InvalidInputError):
        DitaParams(fourier_cyclic(2), fourier_cyclic(3), ((1, 1), (1, 1)))


def test_f22q_hadamard_for_any_unit_q():
    for q in (PhaseEntry.turns(Fraction(1, 20)), np.exp(0.31j), 1, -1j):
        assert verify_partial_hadamard(f22q(q)).is_hadamard
    h = f22q(1)
    t = tensor_product(fourier_cyclic(2), fourier_cyclic(2))
    # same family member up to row order: both are Z2xZ2 at q=1
    assert sorted(map(tuple, np.round(h.to_array().real, 9).tolist())) \
        == sorted(map(tuple, np.round(t.to_array().real, 9).tolist()))


def test_petrescu_hadamard_for_any_unit_q():
    for q in (PhaseEntry.turns(Fraction(1, 7)), np.exp(1.234j), -1):
        assert verify_partial_hadamard(petrescu(q)).is_hadamard


def test_petrescu_uses_cube_roots():
    h = petrescu(PhaseEntry.turns(Fraction(1, 3)))
    # every entry is exact, with turn denominators among 1, 2, 3 and 6
    assert 6 % h.common_butson_order() == 0


def test_master_matrix_power_rows():
    spec = MasterSpec((PhaseEntry.turns(Fraction(1, 5)),), (0, 1, 2))
    h = master_matrix(spec)
    assert [e.exact_turn() for e in h.entries[0]] == \
        [Fraction(0), Fraction(1, 5), Fraction(2, 5)]


def test_master_matrix_float_branch():
    spec = MasterSpec((PhaseEntry.turns(0.3),), (0, Fraction(1, 2)))
    h = master_matrix(spec)
    assert h.entry(0, 1).exact_turn() is None
    assert abs(h.entry(0, 1).value - np.exp(2j * np.pi * 0.15)) < 1e-12


def test_master_spec_validation():
    with pytest.raises(InvalidInputError):
        MasterSpec((), (0,))
    with pytest.raises(InvalidInputError):
        MasterSpec((PhaseEntry.one(),), ("x",))


def test_master_dita_integer_parameters_agree_entrywise():
    h, spec = master_dita(2, 2, 1, (0, 1), (0, 2))
    assert h.shape == (4, 4)
    assert verify_partial_hadamard(h).is_hadamard
    assert np.max(np.abs(master_matrix(spec).to_array() - h.to_array())) < 1e-12


def test_master_dita_fractional_parameters_still_hadamard():
    h, spec = master_dita(2, 2, 1, (Fraction(1, 3), 1), (0, Fraction(1, 2)))
    assert verify_partial_hadamard(h).is_hadamard
    # the power-sequence form picks up branch terms and need not match
    assert spec.m == 4 and spec.n == 4


def test_master_dita_argument_checks():
    with pytest.raises(InvalidInputError):
        master_dita(0, 2, 1, (0, 1), ())
    with pytest.raises(InvalidInputError):
        master_dita(2, 2, 1, (0,), (0, 0))


def test_f22q_master_spec_reproduces_family():
    q = PhaseEntry.turns(Fraction(3, 20))
    spec = f22q_master_spec(q)
    assert spec.exponents == (0, 1, 10, 11)
    assert np.max(np.abs(master_matrix(spec).to_array()
                         - f22q(q).to_array())) < 1e-12


def test_f22q_master_spec_needs_fourth_multiple():
    with pytest.raises(InvalidInputError):
        f22q_master_spec(PhaseEntry.turns(Fraction(1, 7)))
    with pytest.raises(InvalidInputError):
        f22q_master_spec(np.exp(0.123j))


def test_char_sum_signed_angle():
    spec = MasterSpec(tuple(PhaseEntry.butson(i, 4) for i in range(4)),
                      (0, 1, 2, 3))
    # full exponent set over Z_4: character orthogonality at 2*pi/4
    assert abs(spec.char_sum(2 * np.pi / 4)) < 1e-12
    assert abs(spec.char_sum(0.0) - 4.0) < 1e-12
