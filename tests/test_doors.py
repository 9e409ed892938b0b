"""Counts, orders and indices pass one door, ``phases.integer``: an
integer in range comes back as an int, anything else is refused with
InvalidInputError in one wording.  Floats, booleans and strings are
refused even where Python or numpy would read them as integers."""

import json
import math

import numpy as np
import pytest

from hadlab import (InvalidInputError, MasterSpec, PartialPermutation,
                    cycle_decompose_integer, cyclic_moment_oracle, dephase_at,
                    fourier_cyclic, gauss_vector_closed, gauss_vector_direct, group_index,
                    interval_shift_maps, lam_leung_length_admissible,
                    legendre_symbol, master_dita, moment, moment_matrix,
                    predicted_truncated_semigroup,
                    quadratic_diagonal_exponents,
                    real_truncation_defect_formula, row_quotient,
                    term_multiset, truncation_probe)
from hadlab.cli import run_command
from hadlab.cyclotomic import (_prime_factors, exact_defect_butson,
                               exact_vanishing, split_primes)
from hadlab.phases import ExactPhases, integer

F3 = fourier_cyclic(3)


@pytest.mark.parametrize("x, least, below, message", [
    (2.0, 1, None, "n must be an integer >= 1, got 2.0"),
    (True, 0, None, "n must be an integer >= 0, got True"),
    ("3", None, None, "n must be an integer, got '3'"),
    (0, 1, None, "n must be an integer >= 1, got 0"),
    (3, 0, 3, r"n must be an integer in \[0, 3\), got 3"),
    (-1, 0, 3, r"n must be an integer in \[0, 3\), got -1"),
])
def test_the_door_refuses_in_one_wording(x, least, below, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        integer(x, "n", least, below)


def test_the_door_returns_python_ints():
    for x in (0, 7, np.int64(7), np.uint8(7), 2 ** 70, -5):
        out = integer(x, "n")
        assert type(out) is int and out == x
    assert integer(np.int32(2), "n", 0, 3) == 2


# -- the tentpole's doors ---------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: term_multiset(F3, True, 0),
    lambda: row_quotient(F3, True, 0),
    lambda: row_quotient(F3, 0, 1.0),
    lambda: row_quotient(F3, 0, 3),
    lambda: dephase_at(F3, 1.0, 0),
    lambda: dephase_at(F3, 0, np.float64(1)),
    lambda: master_dita(2.0, 2, 1, [0, 1], [0, 1]),
    lambda: master_dita(2, 2, True, [0, 1], [0, 1]),
    lambda: real_truncation_defect_formula(2.0, 4),
    lambda: real_truncation_defect_formula(2, 4.0),
    lambda: truncation_probe(5.0),
    lambda: truncation_probe(5, [2.0]),
    lambda: lam_leung_length_admissible(3.0, 6),
    lambda: interval_shift_maps(3.0),
    lambda: interval_shift_maps(True),
    lambda: predicted_truncated_semigroup(3.0, 8),
    lambda: predicted_truncated_semigroup(3, 8.0),
    lambda: moment(F3, True),
    lambda: moment(F3, 2.0),
    lambda: moment_matrix(F3, 2.0),
    lambda: cyclic_moment_oracle(3.0, 2),
    lambda: cyclic_moment_oracle(3, True),
    lambda: PartialPermutation((1.0, 0)),
    lambda: PartialPermutation((True, 0)),
    lambda: PartialPermutation(("1", 0)),
])
def test_counts_and_indices_must_be_integers(call):
    with pytest.raises(InvalidInputError, match="must be an integer"):
        call()


def test_valid_counts_still_answer():
    assert real_truncation_defect_formula(np.int64(2), 4) == 7
    assert cyclic_moment_oracle(np.int64(3), 2) == 3
    assert moment(F3, np.int64(2)).value == 3
    assert PartialPermutation((np.int64(1), 0)).kappa == 2
    assert len(interval_shift_maps(np.int64(2))) == 6


# -- ExactPhases.values reads residues ---------------------------------------------

@pytest.mark.parametrize("table", [[[0, 3]], [[0, -3]], [[2, 5]]])
def test_values_of_a_table_outside_the_residues(table):
    got = ExactPhases(np.array(table), 2).values()
    want = ExactPhases(np.array(table) % 2, 2).values()
    assert got.tobytes() == want.tobytes()


def test_values_past_the_root_table_read_residues():
    # above ROOT_TABLE the values are computed one by one, e / l
    got = ExactPhases(np.array([[5001, -4999]]), 5000).values()
    assert got.tobytes() == ExactPhases(np.array([[1, 1]]), 5000).values().tobytes()


# -- integer readers outside the tentpole --------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: exact_vanishing([0, 3], 6.0),
    lambda: cycle_decompose_integer([0, 3], 6.0),
    lambda: exact_defect_butson([[0, 0], [0, 1]], 2.0),
    lambda: split_primes(6.0),
    lambda: split_primes(True),
    lambda: _prime_factors(6.0),
])
def test_cyclotomic_refuses_an_order_that_is_not_an_integer(call):
    with pytest.raises(InvalidInputError, match="l must be >= 1 and an integer"):
        call()


def test_cyclotomic_reads_numpy_orders():
    assert exact_vanishing([0, 3], np.int64(6))
    assert cycle_decompose_integer([0, 2, 4], np.int64(6)).vanishing


@pytest.mark.parametrize("call", [
    lambda: lam_leung_length_admissible(3, 6.0),
    lambda: lam_leung_length_admissible(3, 0),
    lambda: gauss_vector_closed(5, 1.0),
    lambda: gauss_vector_closed(5, True),
    lambda: gauss_vector_direct(5, 1.0),
    lambda: legendre_symbol(2.0, 5),
    lambda: quadratic_diagonal_exponents(5, 1.0),
    lambda: group_index((1,), [2.5]),
    lambda: group_index((1.5,), [2]),
])
def test_other_integer_readers_pass_the_door(call):
    with pytest.raises(InvalidInputError, match="must be an integer"):
        call()


def test_negative_multipliers_are_still_read():
    assert legendre_symbol(-1, 5) == 1
    assert quadratic_diagonal_exponents(5, -1) == quadratic_diagonal_exponents(5, 4)
    assert group_index((3, -1), [2, 3]) == 5


@pytest.mark.parametrize("e", [True, math.inf, -math.inf, math.nan, "1", 1j])
def test_master_exponents_are_integers_fractions_or_finite_floats(e):
    with pytest.raises(InvalidInputError, match="is not an integer, a Fraction"):
        MasterSpec((1, -1), (e, 0))


def test_master_exponents_may_be_numpy_integers():
    spec = MasterSpec((1, -1), (np.int64(0), np.int32(1)))
    assert spec.exponents == (0, 1)
    assert all(type(e) is int for e in spec.exponents)


@pytest.mark.parametrize("r", ["1e999,0", "-1e999,0"])
def test_gen_master_dita_refuses_infinite_exponents(r):
    code, text = run_command(["gen", "master-dita", "2", "2", "1", "--p", "0,1",
                              f"--r={r}", "--json"])
    assert code == 2
    assert "not an integer, a Fraction or a finite float" in json.loads(text)["data"]["error"]
