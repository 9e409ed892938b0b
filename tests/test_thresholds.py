"""One tolerance per answer: the grid, cycle and moment thresholds follow
from the tolerance a matrix is verified at (``errors.threshold``, 10 tol).

An exact fixture whose phases are moved by at most 0.49 tol passes
verification at tol, its term ratios and grid overlaps lie within 2 tol of
exact, and so every structural route gives it the exact fixture's answer.
"""

from fractions import Fraction

import numpy as np
import pytest

from hadlab import (MWSpec, PHMatrix, PhaseEntry, classicality_test,
                    cycle_decompose, cycle_structure_profile, defect,
                    defect_via_extension, equivalence_profile,
                    extract_semigroup, f22q, fourier_cyclic, is_regular,
                    moment, mw_construct, petrescu, pre_latin_square,
                    truncated_fourier, verify_submagic, weak_isolation_probe)
from hadlab.errors import DEFAULT_TOL, InvalidInputError, threshold

FIXTURES = {
    "F4": fourier_cyclic(4),
    "F6": fourier_cyclic(6),
    "F8": fourier_cyclic(8),
    "F8[0,1,2]": truncated_fourier([0, 1, 2], [8]),
    "F16[0,1,2,3]": truncated_fourier([0, 1, 2, 3], [16]),
    "f22q(1/20)": f22q(Fraction(1, 20)),
    "petrescu(1/7)": petrescu(PhaseEntry.turns(Fraction(1, 7))),
    "MW(5,F2)": mw_construct(MWSpec(5, (1, 3), (0, 2), fourier_cyclic(2))),
}
TOLERANCES = [1e-9, 1e-7, 1e-6, 1e-5]


def _answers(h: PHMatrix, tol: float) -> dict:
    """Each structural answer of h at tol.  The defect's ambiguity, and
    with it the probe's isolation status, is left out: it compares a gap
    ratio with the confidence, which a move of tol lowers whatever the
    threshold."""
    square = pre_latin_square(h, tol)
    probe = weak_isolation_probe(h, tol)
    return {
        "defect": defect(h, tol).defect,
        "extension defect": defect_via_extension(h, tol).defect,
        "profile": cycle_structure_profile(h, tol),
        "regular": is_regular(h, tol),
        "classical": classicality_test(h, tol).classical,
        "pre-Latin square": None if square is None else square[0],
        "closure size": None if square is None else extract_semigroup(h, tol)[0].size,
        "sub-magic": verify_submagic(h, tol).ok,
        "moments": [(r.value, r.formal, r.ambiguous)
                    for r in (moment(h, p, tol) for p in (1, 2, 3))],
        "order": equivalence_profile(h, tol).butson_order,
        "probe": (probe.regular, probe.butson_order, probe.counterexample_candidate),
    }


def _moved(h: PHMatrix, tol: float, rng) -> PHMatrix:
    """h as a complex matrix, each phase moved by at most 0.49 tol rad."""
    shift = 0.49 * tol * rng.uniform(-1.0, 1.0, h.shape)
    return PHMatrix.from_phases(h.to_array() * np.exp(1j * shift))


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_a_moved_fixture_gets_the_exact_answer(name, tol):
    h = FIXTURES[name]
    want = _answers(h, DEFAULT_TOL)
    rng = np.random.default_rng(sorted(FIXTURES).index(name))
    for _ in range(3):
        got = _answers(_moved(h, tol, rng), tol)
        assert got == want, [k for k in want if got[k] != want[k]]


def test_the_threshold_is_ten_times_the_tolerance():
    assert threshold(DEFAULT_TOL) == 1e-8
    assert threshold(Fraction(1, 10 ** 6)) == 10 * 1e-6
    with pytest.raises(InvalidInputError, match="^tol must be a finite number"):
        threshold(0.0)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_each_report_records_the_threshold_it_applied(tol):
    f4 = fourier_cyclic(4)
    assert classicality_test(f4, tol).tolerance == 10 * tol
    assert moment(f4, 2, tol).tolerance == 10 * tol
    assert verify_submagic(f4, tol).tolerance == 10 * tol


def test_a_sum_that_does_not_vanish_names_the_threshold():
    with pytest.raises(InvalidInputError, match="not a vanishing sum at threshold 1e-06$"):
        cycle_decompose([1, -1 + 1e-5], tol=1e-7)
    assert cycle_decompose([1, -1 + 1e-7], tol=1e-7).label == "2"


def test_the_verification_follows_the_callers_tolerance():
    """A matrix off by more than the default tolerance is refused at the
    default and answered at a tolerance that admits it."""
    f6 = _moved(fourier_cyclic(6), 1e-6, np.random.default_rng(0))
    with pytest.raises(InvalidInputError, match="not partial Hadamard at tol=1e-09"):
        classicality_test(f6)
    assert classicality_test(f6, 1e-6).classical


def test_a_moved_butson_matrix_is_no_counterexample_candidate():
    """F5 moved by at most 0.49e-6 rad is certified isolated at tol 1e-6,
    and its order is read at that tolerance too, so the probe names F5's
    order and no counterexample."""
    f5 = _moved(fourier_cyclic(5), 1e-6, np.random.default_rng(0))
    probe = weak_isolation_probe(f5, 1e-6)
    assert probe.regular and probe.certified_isolated
    assert probe.butson_order == 5
    assert not probe.counterexample_candidate
