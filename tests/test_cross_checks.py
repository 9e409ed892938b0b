"""Every cross-check between independent routes fires when the routes
disagree: the answer is a ConsistencyError, never a number.  Each test
makes one route disagree (monkeypatched) and expects its guard to raise."""

import importlib
import math
import re
import runpy
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hadlab import (ConsistencyError, MWSpec, PhaseEntry, cycle_decompose_integer,
                    defect, defect_master, defect_split_truncated_fourier,
                    f22q_master_spec, fourier_cyclic, gauss_vector,
                    gauss_vector_direct, loads_phm, mw_construct,
                    pre_latin_square, truncated_fourier, unitary_completion)
from hadlab.defect import RankResult
from hadlab.errors import DEFAULT_TOL
from hadlab.mcnulty_weigert import CirculantVector
from hadlab.semigroup import ProjectionGrid

# the package exports functions named like these modules, so the modules
# are read from the import system
defect_module, mw, regularity = (importlib.import_module(f"hadlab.{name}") for name in
                                 ("defect", "mcnulty_weigert", "regularity"))


class _Numpy:
    """numpy as one module sees it, with some names replaced."""

    def __init__(self, **names):
        self.__dict__.update(names)

    def __getattr__(self, name):
        return getattr(np, name)


def _off_by(amount):
    """The direct defect route, reporting `amount` more than it finds."""
    def direct(h, *args):
        rep = defect(h, *args)
        return replace(rep, defect=rep.defect + amount)
    return direct


def test_a_confident_defect_under_the_bound_is_refused(monkeypatch):
    h = fourier_cyclic(3)
    monkeypatch.setattr(defect_module, "numerical_rank",
                        lambda mat, tol: RankResult(h.m * h.n, 1.0, None, math.inf))
    with pytest.raises(ConsistencyError, match="under the lower bound 5"):
        defect(h)


def test_a_completion_that_is_not_unitary_is_refused(monkeypatch):
    svd = np.linalg.svd

    def stretched(a, **kwargs):
        u, s, vh = svd(a, **kwargs)
        return u, s, 2.0 * vh
    monkeypatch.setattr(np.linalg, "svd", stretched)
    with pytest.raises(ConsistencyError, match="unitarity residual"):
        unitary_completion(truncated_fourier([0, 1], [4]))


def test_split_count_against_a_disagreeing_direct_defect(monkeypatch):
    assert defect_split_truncated_fourier([0, 1], [4]).defect == 6
    monkeypatch.setattr(defect_module, "defect", _off_by(2))
    with pytest.raises(ConsistencyError, match="split defect 6 disagrees with direct defect 8"):
        defect_split_truncated_fourier([0, 1], [4])


def test_master_route_against_a_disagreeing_direct_defect(monkeypatch):
    spec = f22q_master_spec(Fraction(1, 4))
    d = defect_master(spec).defect
    monkeypatch.setattr(defect_module, "defect", _off_by(1))
    with pytest.raises(ConsistencyError,
                       match=f"defect {d} disagrees with direct defect {d + 1}"):
        defect_master(spec)


def test_a_product_that_is_not_circulant_is_refused(monkeypatch):
    # squared exponents make F no Fourier matrix, so F* D F is no circulant
    monkeypatch.setattr(mw, "np", _Numpy(outer=lambda a, b: np.outer(a, b) ** 2))
    with pytest.raises(ConsistencyError, match="is not circulant"):
        gauss_vector_direct(5, 1)


def test_the_circulant_check_names_the_first_failing_entry(monkeypatch):
    """The one comparison against the first row names the entry that the
    row-major double loop it replaced would: the first (a, b) off by more
    than DEFAULT_TOL."""
    q = 5
    w = np.exp(2j * np.pi / q)
    f = w ** (np.outer(np.arange(q), np.arange(q)) ** 2)
    d = np.diag(w ** np.array(mw.quadratic_diagonal_exponents(q, 1)))
    c = (np.conj(f.T) @ d @ f) / q
    first = next((a, b) for a in range(q) for b in range(q)
                 if abs(c[a, b] - c[0, (b - a) % q]) > DEFAULT_TOL)
    monkeypatch.setattr(mw, "np", _Numpy(outer=lambda a, b: np.outer(a, b) ** 2))
    with pytest.raises(ConsistencyError,
                       match=re.escape(f"within {DEFAULT_TOL} at ({first[0]},{first[1]})")):
        gauss_vector_direct(q, 1)


def test_a_circulant_row_that_is_not_flat_is_refused(monkeypatch):
    # any diagonal gives a circulant, but only a quadratic one a flat row
    monkeypatch.setattr(mw, "quadratic_diagonal_exponents", lambda q, k: [0] * (q - 1) + [1])
    with pytest.raises(ConsistencyError, match="not flat"):
        gauss_vector_direct(5, 1)


def test_closed_gauss_vector_against_a_disagreeing_row(monkeypatch):
    monkeypatch.setattr(mw, "gauss_vector_direct", lambda q, k: -gauss_vector_direct(q, k))
    with pytest.raises(ConsistencyError, match="disagrees with the circulant row"):
        gauss_vector(5, 1)


def test_a_gauss_tensor_that_fails_verification_is_refused(monkeypatch):
    spec = MWSpec(5, (1, 3), (0, 2), fourier_cyclic(2))
    assert mw_construct(spec).shape == (10, 10)
    flat = (PhaseEntry.one(),) * 5
    monkeypatch.setattr(mw, "gauss_vector", lambda q, k: CirculantVector(q, k, flat))
    with pytest.raises(ConsistencyError, match="failed verification"):
        mw_construct(spec)


def test_peel_against_an_empty_cover(monkeypatch):
    assert cycle_decompose_integer([0, 3], 6).nonnegative
    monkeypatch.setattr(regularity, "_cover", lambda *args: None)
    with pytest.raises(ConsistencyError, match="cannot both be right"):
        cycle_decompose_integer([0, 3], 6)


def test_a_label_repeated_within_a_row_is_refused(monkeypatch):
    # every pair parallel to every other: one class, repeated along each row
    monkeypatch.setattr(ProjectionGrid, "overlaps", lambda self: np.ones((self.m ** 2,) * 2))
    with pytest.raises(ConsistencyError, match="repeated within a row"):
        pre_latin_square(fourier_cyclic(3))


def test_cli_module_runs_as_a_script(monkeypatch, capsys):
    # a fresh run of hadlab.cli as __main__, not the imported module
    monkeypatch.delitem(sys.modules, "hadlab.cli", raising=False)
    monkeypatch.setattr(sys, "argv", ["hadlab", "gen", "fourier", "2"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("hadlab.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert loads_phm(capsys.readouterr().out).common_butson_order() == 2
