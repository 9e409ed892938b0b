"""Shared fixtures: a small zoo of matrices reused across the test modules."""

import os
from fractions import Fraction

import pytest

from hadlab import (MWSpec, PHMatrix, PhaseEntry, f22q, f22q_master_spec,
                    fourier_cyclic, fourier_group, master_dita, mw_construct,
                    petrescu, tensor_product, truncated_fourier)

# exact turns for the 4x4 one-parameter family; denominators divisible by 4
# so an eigenphase/exponent table exists for each
F22Q_TURNS = (Fraction(1, 20), Fraction(3, 20), Fraction(7, 20),
              Fraction(1, 12), Fraction(5, 28))

TRUNCATED_CASES = {
    "F25": ([0, 1], [5]),
    "F37": ([0, 1, 2], [7]),
    "F45": ([0, 1, 2, 3], [5]),
    "F46": ([0, 1, 2, 3], [6]),
    "F67": ([0, 1, 2, 3, 4, 5], [7]),
}


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture(scope="session", autouse=True)
def subprocesses_import_this_checkout():
    """Child processes (`python -m hadlab`) import the package from src/,
    as the tests do through pytest's pythonpath setting."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield


def walsh(k: int) -> PHMatrix:
    h = fourier_cyclic(2)
    for _ in range(k - 1):
        h = tensor_product(h, fourier_cyclic(2))
    return h


def first_rows(h: PHMatrix, m: int) -> PHMatrix:
    return PHMatrix([list(h.entries[i]) for i in range(m)])


@pytest.fixture(scope="session")
def zoo():
    """Name -> matrix, at least 15 of them, spanning every constructor."""
    z = {
        "F2": fourier_cyclic(2),
        "F3": fourier_cyclic(3),
        "F4": fourier_cyclic(4),
        "F5": fourier_cyclic(5),
        "F6": fourier_cyclic(6),
        "Z2xZ2": fourier_group([2, 2]),
        "petrescu_1_7": petrescu(PhaseEntry.turns(Fraction(1, 7))),
        "W8_m5": first_rows(walsh(3), 5),
        "MW10": mw_construct(MWSpec(q=5, s=(1, 3), t=(0, 2),
                                    base=fourier_cyclic(2))),
    }
    for name, (rows, orders) in TRUNCATED_CASES.items():
        z[name] = truncated_fourier(rows, orders)
    for t in F22Q_TURNS:
        z[f"f22q_{t}"] = f22q(PhaseEntry.turns(t))
    z["master_dita_2x2"], _ = master_dita(2, 2, 1, (0, 1), (0, 2))
    z["master_dita_3x2"], _ = master_dita(3, 2, 1, (0, 1), (0, 1, 2))
    return z


@pytest.fixture(scope="session")
def master_cases():
    """Matrices paired with an eigenphase/exponent table describing them."""
    cases = {}
    for t in F22Q_TURNS:
        q = PhaseEntry.turns(t)
        cases[f"f22q_{t}"] = (f22q(q), f22q_master_spec(q))
    h, s = master_dita(2, 2, 1, (0, 1), (0, 2))
    cases["master_dita_2x2"] = (h, s)
    h, s = master_dita(3, 2, 1, (0, 1), (0, 1, 2))
    cases["master_dita_3x2"] = (h, s)
    return cases


ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    """Record a criterion outcome; the terminal summary prints one line each."""
    def record(criterion: int, ok: bool, detail: str):
        ACCEPTANCE_LINES.append((criterion, ok, detail))
        assert ok, f"criterion {criterion} failed: {detail}"
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, ok, detail in sorted(ACCEPTANCE_LINES):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} {status}: {detail}")
