"""Error types shared across the package, the defaults that decide when
an answer is too ambiguous to call, and the one rule each for what counts
as an integer, as a tolerance and as the threshold a tolerance sets."""

import math
import numbers

import numpy as np

# Tolerance of verification, numerical rank and phase modulus; grid
# classes, cycle matching and moment counts decide at threshold(tol).
DEFAULT_TOL = 1e-9
# Least spectral gap ratio of a confident numerical rank decision (defect);
# a smaller gap makes the answer ambiguous.
DEFAULT_CONFIDENCE = 1e6
# Search nodes (calls + completion attempts) a cycle search may spend
# (regularity) before it raises SearchBudgetExceeded.
DEFAULT_BUDGET = 10 ** 7


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class MatrixFormatError(InvalidInputError):
    """Raised when a matrix file does not conform to the phm-v1 schema."""


class ConsistencyError(RuntimeError):
    """Raised when two independent computations of the same quantity disagree.

    This always indicates a bug or a numerically hopeless input, never a
    routine condition, so it is kept distinct from InvalidInputError.
    """


class SearchBudgetExceeded(RuntimeError):
    """Raised when a backtracking search gives up before exhausting its space.

    Callers must treat this as "inconclusive", which is different from a
    completed search that found nothing.
    """


def is_integer(x) -> bool:
    """True for a Python or numpy integer, False for anything else: a
    float, a string or a boolean, which numpy and int() would read as an
    integer.  Every layer reads this rule here, the arithmetic layers
    ``phases`` and ``cyclotomic`` included."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def integer(x, what: str, least=None, below=None) -> int:
    """x as an int, when is_integer(x) holds and least <= x < below (a
    bound that is None is not checked): the one door for counts, orders
    and indices.  Otherwise InvalidInputError, worded "{what} must be an
    integer >= {least}" or "in [{least}, {below})", then ", got {x!r}"."""
    if is_integer(x) and (least is None or x >= least) and (below is None or x < below):
        return int(x)
    bound = (f" in [{least}, {below})" if below is not None
             else "" if least is None else f" >= {least}")
    raise InvalidInputError(f"{what} must be an integer{bound}, got {x!r}")


def tolerance(x, what: str) -> float:
    """x as a float, when it is a real number (not a boolean) that is
    finite and above 0: the one door for tolerances and confidences.
    Otherwise InvalidInputError, worded "{what} must be a finite number
    > 0, got {x!r}"."""
    # float first: the ABC check alone costs ~0.5 us, once per file entry
    if isinstance(x, (float, numbers.Real)) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:       # an int or Fraction past the float range
            value = math.inf
        if math.isfinite(value) and value > 0:
            return value
    raise InvalidInputError(f"{what} must be a finite number > 0, got {x!r}")


def threshold(tol) -> float:
    """The threshold of grid classes, cycle matching and moment counts on a
    matrix verified at tol: 10 tol, for tol through the door tolerance.
    Phases within tol/2 of an exact matrix put its term ratios and grid
    overlaps within 2 tol of exact, and 10 * 1e-9 == 1e-8 in float64."""
    return 10 * tolerance(tol, "tol")
