"""Error types shared across the package, and the one rule for what
counts as an integer."""

import numpy as np


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
