"""The phm-v1 interchange format.

A JSON document: {"format": "phm-v1", "rows": M, "cols": N,
"representation": "butson" | "turns" | "cartesian", ...}.  Entries are
integer exponents (butson, with "butson_order"), turns ([numerator,
denominator] pairs and integers exact, floats read as complex values), or
[re, im] floating pairs.  Serialization is byte-deterministic (sorted
keys, fixed separators) and the butson representation round-trips bit for
bit, at any order.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import InvalidInputError, MatrixFormatError, is_integer
from .matrix import PHMatrix
from .phases import ExactPhases, PhaseEntry

FORMAT_NAME = "phm-v1"
MODULUS_TOL = 1e-6


def number_from_json(x, what: str = "turn") -> Union[Fraction, int, float]:
    """A real number as JSON: an exact [num, den] pair (den > 0), an
    integer or a finite float; booleans are refused."""
    if isinstance(x, list) and len(x) == 2 and all(map(is_integer, x)):
        if x[1] <= 0:
            raise InvalidInputError(f"{what} denominator must be positive, got {x!r}")
        return Fraction(x[0], x[1])
    if (is_integer(x) or isinstance(x, float)) and math.isfinite(x):
        return x
    raise InvalidInputError(f"{what} must be [num, den] or a number, got {x!r}")


def turn_from_json(x) -> PhaseEntry:
    """The phase of a JSON turn: exact for [num, den] and integers."""
    return PhaseEntry.turns(number_from_json(x))


def to_document(h: PHMatrix, label: Optional[str] = None) -> dict:
    """Choose the tightest representation the entries allow."""
    doc = {"format": FORMAT_NAME, "rows": h.m, "cols": h.n}
    name = label if label is not None else h.label
    if name:
        doc["label"] = name
    p = h.phases
    if isinstance(p, ExactPhases):
        doc["representation"] = "butson"
        doc["butson_order"] = p.order
        doc["entries"] = p.exp.tolist()
        return doc
    doc["representation"] = "cartesian"
    doc["entries"] = [[[z.real, z.imag] for z in row] for row in h.to_array()]
    return doc


def _positive_int(doc: dict, key: str) -> int:
    """A header field that must be a JSON integer >= 1: booleans, strings
    and fractional numbers are refused, not converted."""
    v = doc.get(key)
    if not (is_integer(v) and v >= 1):
        raise MatrixFormatError(f"{key} must be a positive integer, got {v!r}")
    return v


def from_document(doc: dict) -> PHMatrix:
    if not isinstance(doc, dict):
        raise MatrixFormatError("document must be a JSON object")
    if doc.get("format") != FORMAT_NAME:
        raise MatrixFormatError(
            f"unsupported format {doc.get('format')!r}; expected {FORMAT_NAME!r}")
    try:
        rep = doc["representation"]
        entries = doc["entries"]
    except KeyError as exc:
        raise MatrixFormatError(f"missing or malformed field: {exc}") from exc
    m, n = _positive_int(doc, "rows"), _positive_int(doc, "cols")
    if not isinstance(entries, list) or len(entries) != m \
            or any(not isinstance(r, list) or len(r) != n for r in entries):
        raise MatrixFormatError(f"entries must be a {m} x {n} array")

    label = doc.get("label")
    if rep == "butson":
        l = _positive_int(doc, "butson_order")
        try:
            table = ExactPhases(entries, l)
        except InvalidInputError as exc:
            raise MatrixFormatError(str(exc)) from exc
        if table.shape != (m, n):
            # numpy reads equal-length lists in every entry as a third axis
            raise MatrixFormatError("butson exponents must be integers, not lists")
        return PHMatrix.from_phases(table, label=label)
    if rep == "turns":
        rows = []
        for i, r in enumerate(entries):
            row = []
            for j, e in enumerate(r):
                try:
                    row.append(turn_from_json(e))
                except InvalidInputError as exc:
                    raise MatrixFormatError(f"turn entry at ({i},{j}): {exc}") from exc
            rows.append(row)
        return PHMatrix(rows, label=label)
    if rep == "cartesian":
        values = []
        for i, r in enumerate(entries):
            for j, e in enumerate(r):
                if not (isinstance(e, list) and len(e) == 2
                        and all(is_integer(x) or isinstance(x, float) for x in e)):
                    raise MatrixFormatError(
                        f"cartesian entry at ({i},{j}) must be [re, im]")
                try:
                    z = complex(float(e[0]), float(e[1]))
                except OverflowError as exc:
                    raise MatrixFormatError(
                        f"cartesian entry at ({i},{j}) is beyond float range") from exc
                # written so that a NaN part fails it too
                if not abs(abs(z) - 1.0) <= MODULUS_TOL:
                    raise MatrixFormatError(
                        f"entry at ({i},{j}) has modulus {abs(z):.9f}, off the "
                        f"unit circle by more than {MODULUS_TOL}")
                values.append(z)
        return PHMatrix.from_phases(np.array(values).reshape(m, n), label=label)
    raise MatrixFormatError(f"unknown representation {rep!r}")


def dumps_phm(h: PHMatrix, label: Optional[str] = None) -> str:
    return json.dumps(to_document(h, label), sort_keys=True,
                      separators=(",", ":")) + "\n"


def loads_phm(text: str) -> PHMatrix:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"not valid JSON: {exc}") from exc
    return from_document(doc)


def save_phm(h: PHMatrix, path: str, label: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_phm(h, label))


def load_phm(path: str) -> PHMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_phm(fh.read())
