"""Counts, orders and indices pass one door, ``errors.integer``: an
integer in range comes back as an int, anything else is refused with
InvalidInputError in one wording.  Floats, booleans and strings are
refused even where Python or numpy would read them as integers.
Tolerances and confidences pass another, ``errors.tolerance``: a finite
real number above 0 comes back as a float."""

import dataclasses
import inspect
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import hadlab
from hadlab import (InvalidInputError, MasterSpec, MWSpec, PartialPermutation,
                    PhaseEntry, PHMatrix, apply_equivalence,
                    arithmetic_isolation_probe, classicality_test,
                    count_one_entries, cycle_decompose,
                    cycle_decompose_integer, cycle_structure_profile,
                    cyclic_moment_oracle, defect, defect_master,
                    defect_split_truncated_fourier, defect_via_extension,
                    dephase_at, detect_butson, dumps_phm, ensure_verified,
                    equivalence_profile, extract_semigroup, f22q_master_spec,
                    fourier_cyclic, gauss_vector_closed, gauss_vector_direct,
                    group_index, interval_shift_maps, is_regular,
                    isolation_certificate, lam_leung_length_admissible,
                    legendre_symbol, master_dita, moment, moment_matrix,
                    mw_construct, numerical_rank, pre_latin_square,
                    predicted_truncated_semigroup,
                    quadratic_diagonal_exponents,
                    real_truncation_defect_formula, row_quotient,
                    term_multiset, truncated_fourier, truncation_probe,
                    verify_partial_hadamard, verify_submagic,
                    weak_isolation_probe)
from hadlab.cli import run_command
from hadlab.cyclotomic import (_prime_factors, exact_defect_butson,
                               exact_vanishing, split_primes)
from hadlab.errors import integer, tolerance
from hadlab.phases import ExactPhases

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
    with pytest.raises(InvalidInputError, match="l must be an integer >= 1"):
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


# -- orders, parameters, permutations and budgets ----------------------------------

def test_exact_phases_keep_the_door_int_as_order():
    table = ExactPhases(np.array([[0, 0], [0, 2]]), np.int64(4))
    assert type(table.order) is int
    h = PHMatrix.from_phases(table)
    assert type(h.common_butson_order()) is int
    assert json.loads(dumps_phm(h))["butson_order"] == 2


@pytest.mark.parametrize("p, r", [
    ([True, 0], [0, 0]), ([1, 0], [0, False]), ([1.0, math.inf], [0, 0]),
    ([1, 0], ["1", 0]),
])
def test_master_dita_reads_p_and_r_by_the_exponent_rule(p, r):
    with pytest.raises(InvalidInputError, match="is not an integer, a Fraction"):
        master_dita(2, 2, 1, p, r)


def test_master_dita_reads_numpy_parameters_as_ints():
    h, spec = master_dita(2, 2, 1, [np.int64(1), 0], [0, np.int32(1)])
    want, want_spec = master_dita(2, 2, 1, [1, 0], [0, 1])
    assert dumps_phm(h) == dumps_phm(want)
    assert spec.exponents == want_spec.exponents


T3 = truncated_fourier([0, 1], [3])
ONE = PhaseEntry.one()


@pytest.mark.parametrize("rows, cols", [
    ([True, False], [0, 1, 2]), ([1.0, 0.0], [0, 1, 2]), ([1, 0], [0, 1, 2.0]),
    ([1, 0], [0, 1, "2"]), ([1, 2], [0, 1, 2]), ([1, 0], [0, -1, 2]),
])
def test_equivalence_permutations_pass_the_index_door(rows, cols):
    with pytest.raises(InvalidInputError, match="must be an integer in"):
        apply_equivalence(T3, rows, cols, [ONE] * 2, [ONE] * 3)


def test_equivalence_reads_numpy_permutations():
    got = apply_equivalence(T3, np.array([1, 0]), [0, 1, 2], [ONE] * 2, [ONE] * 3)
    assert got.phases.exp.tolist() == [[0, 1, 2], [0, 0, 0]]


@pytest.mark.parametrize("budget", [0, -1, True, 2.5, "10", None])
@pytest.mark.parametrize("search", [
    lambda b: cycle_structure_profile(fourier_cyclic(4), budget=b),
    lambda b: cycle_structure_profile(PHMatrix.from_phases(fourier_cyclic(4).to_array()),
                                      budget=b),
    lambda b: cycle_decompose([1, -1], budget=b),
    lambda b: cycle_decompose([], budget=b),
    lambda b: cycle_decompose_integer([0, 3], 6, budget=b),
    lambda b: is_regular(fourier_cyclic(4), budget=b),
])
def test_every_cycle_search_passes_the_budget_door(search, budget):
    with pytest.raises(InvalidInputError, match="^budget must be an integer >= 1, got"):
        search(budget)


def test_the_empty_multiset_has_the_empty_cover():
    assert cycle_decompose([], budget=np.int64(1)).cycles == ()
    d = cycle_decompose_integer([], 6, budget=np.int64(1))
    assert (d.vanishing, d.components, d.nonnegative, d.method, d.search_complete) \
        == (True, (), True, "exact-cover", True)


# -- tolerances and confidences -------------------------------------------------------

TOLERANCE_PARAMETERS = ("tol", "confidence")
BAD_TOLERANCES = [math.nan, math.inf, -math.inf, 0.0, -1e-9, True, "1e-9", None]
GOOD_TOLERANCES = [1e-7, np.float32(1e-7), Fraction(1, 10 ** 7)]


def _tolerance_callables() -> dict:
    """Public callable -> its tolerance parameters, by signature: the
    functions and classes hadlab binds and the methods of those classes.
    A dataclass record holds a tolerance but applies none, so its
    constructor is left out."""
    out = {}
    for names in hadlab._PUBLIC.values():
        for name in names:
            obj = getattr(hadlab, name)
            found = [(name, obj)] if callable(obj) else []
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found = []
                found += [(f"{name}.{a}", getattr(obj, a)) for a in vars(obj)
                          if not a.startswith("_") and callable(getattr(obj, a))]
            for label, f in found:
                try:
                    params = inspect.signature(f).parameters
                except (TypeError, ValueError):
                    continue
                tols = tuple(p for p in params if p in TOLERANCE_PARAMETERS)
                if tols:
                    out[label] = tols
    return out


F4_EXACT = fourier_cyclic(4)
F6_COMPLEX = PHMatrix.from_phases(fourier_cyclic(6).to_array())
T24 = truncated_fourier([0, 1], [4])
MW6 = MWSpec(3, (1,), (0,), fourier_cyclic(1))

# a valid call of each, taking the tolerance as keyword arguments
TOLERANCE_CALLS = {
    "PhaseEntry.cartesian": lambda **kw: PhaseEntry.cartesian(1j, **kw),
    "verify_partial_hadamard": lambda **kw: verify_partial_hadamard(F4_EXACT, **kw),
    "detect_butson": lambda **kw: detect_butson(F6_COMPLEX, **kw),
    "ensure_verified": lambda **kw: ensure_verified(F4_EXACT, **kw),
    "defect": lambda **kw: defect(F4_EXACT, **kw),
    "defect_master": lambda **kw: defect_master(f22q_master_spec(Fraction(1, 20)), **kw),
    "defect_split_truncated_fourier":
        lambda **kw: defect_split_truncated_fourier([0, 1], [4], **kw),
    "defect_via_extension": lambda **kw: defect_via_extension(T24, **kw),
    "count_one_entries": lambda **kw: count_one_entries(F4_EXACT, **kw),
    "isolation_certificate": lambda **kw: isolation_certificate(F4_EXACT, **kw),
    "numerical_rank": lambda **kw: numerical_rank(np.eye(3), **kw),
    "truncation_probe": lambda **kw: truncation_probe(4, **kw),
    "cycle_decompose": lambda **kw: cycle_decompose([1, -1], **kw),
    "cycle_structure_profile": lambda **kw: cycle_structure_profile(F4_EXACT, **kw),
    "equivalence_profile": lambda **kw: equivalence_profile(F4_EXACT, **kw),
    "is_regular": lambda **kw: is_regular(F4_EXACT, **kw),
    "weak_isolation_probe": lambda **kw: weak_isolation_probe(F4_EXACT, **kw),
    "arithmetic_isolation_probe": lambda **kw: arithmetic_isolation_probe(MW6, **kw),
    "mw_construct": lambda **kw: mw_construct(MW6, **kw),
    "classicality_test": lambda **kw: classicality_test(F4_EXACT, **kw),
    "extract_semigroup": lambda **kw: extract_semigroup(F4_EXACT, **kw),
    "moment": lambda **kw: moment(F4_EXACT, 2, **kw),
    "pre_latin_square": lambda **kw: pre_latin_square(F4_EXACT, **kw),
    "verify_submagic": lambda **kw: verify_submagic(F4_EXACT, **kw),
}
TOLERANCE_CASES = [(name, param) for name, params in _tolerance_callables().items()
                   for param in params]


def _refusal(param: str, x) -> str:
    return f"^{param} must be a finite number > 0, got {re.escape(repr(x))}$"


def test_the_tolerance_table_covers_every_public_tolerance():
    """A new tolerance parameter fails here until it has a row above, and
    so a test that it passes the door."""
    assert set(_tolerance_callables()) == set(TOLERANCE_CALLS)
    assert "DefectReport" not in _tolerance_callables()


@pytest.mark.parametrize("name, param", TOLERANCE_CASES)
def test_every_tolerance_passes_the_door(name, param):
    call = TOLERANCE_CALLS[name]
    for bad in BAD_TOLERANCES:
        with pytest.raises(InvalidInputError, match=_refusal(param, bad)):
            call(**{param: bad})
    for good in GOOD_TOLERANCES:
        call(**{param: good})


@pytest.mark.parametrize("x", [np.float32(1e-3), 1, Fraction(1, 10 ** 9), np.float64(2.5)])
def test_the_tolerance_door_returns_python_floats(x):
    out = tolerance(x, "tol")
    assert type(out) is float and out == float(x)


@pytest.mark.parametrize("x", BAD_TOLERANCES + [10 ** 400, Fraction(1, 10 ** 400),
                                                np.float64("nan"), 1j, np.bool_(True)])
def test_the_tolerance_door_refuses_in_one_wording(x):
    with pytest.raises(InvalidInputError, match=_refusal("what", x)):
        tolerance(x, "what")


def test_an_infinite_tolerance_does_not_make_a_matrix_hadamard():
    ones = PHMatrix([[1, 1], [1, 1]])
    with pytest.raises(InvalidInputError, match="^tol must be a finite number"):
        verify_partial_hadamard(ones, math.inf)
    with pytest.raises(InvalidInputError, match="^tol must be a finite number"):
        defect(ones, math.inf)
    assert not ones.verified


def test_a_verified_matrix_still_refuses_an_infinite_tolerance():
    h = fourier_cyclic(3)
    ensure_verified(h)
    with pytest.raises(InvalidInputError, match="^tol must be a finite number"):
        ensure_verified(h, math.inf)


def test_a_nan_tolerance_does_not_make_f6_non_classical():
    with pytest.raises(InvalidInputError, match="^tol must be a finite number"):
        classicality_test(fourier_cyclic(6), math.nan)
    assert classicality_test(fourier_cyclic(6)).classical


def test_a_nan_tolerance_does_not_make_f6_irregular():
    with pytest.raises(InvalidInputError, match="^tol must be a finite number"):
        cycle_structure_profile(F6_COMPLEX, tol=math.nan)
    assert "irregular" not in cycle_structure_profile(F6_COMPLEX).values()


def test_a_nan_tolerance_does_not_give_rank_zero():
    with pytest.raises(InvalidInputError, match="^tol must be a finite number"):
        numerical_rank(np.eye(3), math.nan)
    assert numerical_rank(np.eye(3)).rank == 3
