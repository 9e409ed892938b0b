import json
import math
from fractions import Fraction

import jsonschema
import numpy as np
import pytest

from hadlab import (MatrixFormatError, PHM_V1_SCHEMA, PhaseEntry,
                    append_record, catalog_path, content_hash, CatalogRecord,
                    CATALOG_RECORD_SCHEMA, dumps_phm, f22q, fourier_cyclic,
                    from_document, load_phm, loads_phm, read_records,
                    save_phm, to_document, truncated_fourier)


def test_butson_document_f6():
    doc = to_document(fourier_cyclic(6))
    jsonschema.validate(doc, PHM_V1_SCHEMA)
    assert doc["representation"] == "butson"
    assert doc["butson_order"] == 6
    assert doc["rows"] == doc["cols"] == 6
    assert doc["entries"][1] == [0, 1, 2, 3, 4, 5]
    assert doc["label"] == "F6"


def test_exact_turns_fold_into_butson():
    doc = to_document(f22q(Fraction(1, 20)))
    assert doc["representation"] == "butson"
    assert doc["butson_order"] == 20
    assert doc["entries"][2] == [0, 1, 10, 11]


def test_cartesian_fallback():
    q = complex(np.exp(0.7j))
    doc = to_document(f22q(q))
    jsonschema.validate(doc, PHM_V1_SCHEMA)
    assert doc["representation"] == "cartesian"
    assert doc["entries"][0][0] == [1.0, 0.0]


def test_roundtrip_butson_byte_identical():
    for h in (fourier_cyclic(6), f22q(Fraction(3, 20)),
              truncated_fourier([0, 1, 2], [7])):
        text = dumps_phm(h)
        again = dumps_phm(loads_phm(text))
        assert again == text
        assert text.endswith("\n")


def test_roundtrip_cartesian_byte_identical():
    h = f22q(complex(np.exp(0.7j)))
    text = dumps_phm(h)
    assert dumps_phm(loads_phm(text)) == text


def test_dumps_is_deterministic():
    h = fourier_cyclic(5)
    assert dumps_phm(h) == dumps_phm(h)
    doc = json.loads(dumps_phm(h))
    assert list(doc) == sorted(doc)


def test_label_override():
    doc = to_document(fourier_cyclic(2), label="base")
    assert doc["label"] == "base"
    h = from_document(doc)
    assert h.label == "base"


def test_turns_representation_loads():
    doc = {"format": "phm-v1", "rows": 2, "cols": 2,
           "representation": "turns",
           "entries": [[0, [1, 2]], [0.25, [3, 4]]]}
    h = from_document(doc)
    # one float turn makes the whole matrix complex
    assert h.common_butson_order() is None
    assert all(e.exact_turn() is None for row in h.entries for e in row)
    assert abs(h.entries[0][1].value + 1) < 1e-12
    assert abs(h.entries[1][1].value - np.exp(2j * np.pi * 0.75)) < 1e-12
    doc["entries"][1][0] = [1, 4]
    h = from_document(doc)
    assert h.common_butson_order() == 4
    assert h.entries[0][1].exact_turn() == Fraction(1, 2)


def test_format_errors_are_specific():
    good = to_document(fourier_cyclic(2))

    def corrupt(**kv):
        doc = dict(good)
        doc.update(kv)
        return doc

    with pytest.raises(MatrixFormatError, match="expected 'phm-v1'"):
        from_document(corrupt(format="phm-v2"))
    with pytest.raises(MatrixFormatError, match="missing or malformed"):
        from_document({"format": "phm-v1", "rows": 2, "cols": 2})
    with pytest.raises(MatrixFormatError, match="2 x 2"):
        from_document(corrupt(entries=[[0, 1]]))
    with pytest.raises(MatrixFormatError, match="butson_order"):
        from_document(corrupt(butson_order=None))
    # int() would read each of these; the header asks for a JSON integer
    with pytest.raises(MatrixFormatError, match="butson_order must be a "
                                                "positive integer, got True"):
        from_document(corrupt(butson_order=True))
    for key in ("rows", "cols"):
        for value in (True, "2", 2.7, 0):
            with pytest.raises(MatrixFormatError,
                               match=f"{key} must be a positive integer"):
                from_document(corrupt(**{key: value}))
    with pytest.raises(MatrixFormatError, match="not an integer"):
        from_document(corrupt(entries=[[0, 1], [0.5, 1]]))
    with pytest.raises(MatrixFormatError, match="True is not an integer"):
        from_document(corrupt(entries=[[0, 1], [True, 1]]))
    with pytest.raises(MatrixFormatError, match="unknown representation"):
        from_document(corrupt(representation="polar"))
    with pytest.raises(MatrixFormatError, match="must be a JSON object"):
        from_document([1, 2])
    with pytest.raises(MatrixFormatError, match="not valid JSON"):
        loads_phm("{oops")


def test_turn_and_cartesian_entry_errors_carry_coordinates():
    base = {"format": "phm-v1", "rows": 1, "cols": 2}
    with pytest.raises(MatrixFormatError, match=r"\(0,1\)"):
        from_document(dict(base, representation="turns",
                           entries=[[0, [1, 0]]]))
    with pytest.raises(MatrixFormatError, match=r"\(0,0\)"):
        from_document(dict(base, representation="turns",
                           entries=[[True, 0]]))
    with pytest.raises(MatrixFormatError, match=r"modulus 2"):
        from_document(dict(base, representation="cartesian",
                           entries=[[[1.0, 0.0], [2.0, 0.0]]]))
    for part in (math.nan, math.inf):
        with pytest.raises(MatrixFormatError, match=r"\(0,1\) has modulus"):
            from_document(dict(base, representation="cartesian",
                               entries=[[[1.0, 0.0], [part, 0.0]]]))
    with pytest.raises(MatrixFormatError, match=r"\(0,0\) is beyond float range"):
        from_document(dict(base, representation="cartesian",
                           entries=[[[10 ** 400, 0], [1.0, 0.0]]]))
    # a NaN read from the file itself, as Python's json module allows
    with pytest.raises(MatrixFormatError, match="modulus nan"):
        loads_phm('{"format": "phm-v1", "rows": 1, "cols": 2, '
                  '"representation": "cartesian", "entries": [[[NaN, 0], [1, 0]]]}')
    with pytest.raises(MatrixFormatError, match=r"\[re, im\]"):
        from_document(dict(base, representation="cartesian",
                           entries=[[[1.0, 0.0], "1"]]))


def test_save_load_file(tmp_path):
    h = fourier_cyclic(4)
    path = tmp_path / "f4.json"
    save_phm(h, str(path))
    back = load_phm(str(path))
    assert back.shape == (4, 4)
    assert np.allclose(back.to_array(), h.to_array())


def test_catalog_roundtrip(tmp_path):
    path = tmp_path / "runs.jsonl"
    rec = CatalogRecord(command="defect", input_sha256=content_hash("x"),
                        summary={"defect": 15})
    append_record(str(path), rec)
    append_record(str(path), rec)
    rows = read_records(str(path))
    assert len(rows) == 2
    for row in rows:
        jsonschema.validate(row, CATALOG_RECORD_SCHEMA)
    assert rows[0]["summary"] == {"defect": 15}


def test_content_hash_stable():
    assert content_hash("abc") == content_hash("abc")
    assert content_hash("abc") != content_hash("abd")
    assert len(content_hash("")) == 64


def test_catalog_path_resolution(monkeypatch):
    monkeypatch.delenv("HADLAB_CATALOG", raising=False)
    assert catalog_path(None) is None
    assert catalog_path("x.jsonl") == "x.jsonl"
    monkeypatch.setenv("HADLAB_CATALOG", "env.jsonl")
    assert catalog_path(None) == "env.jsonl"
    assert catalog_path("flag.jsonl") == "flag.jsonl"
    monkeypatch.setenv("HADLAB_CATALOG", "")
    assert catalog_path(None) is None


def test_butson_entries_are_read_by_the_phases_rule():
    base = {"format": "phm-v1", "rows": 2, "cols": 2,
            "representation": "butson", "butson_order": 4}
    for entries, message in (([[0, 1], [0, "2"]], "'2' is not an integer"),
                             ([[0, 1], [0, None]], "None is not an integer"),
                             ([[[0], [1]], [[0], [2]]], "not lists")):
        with pytest.raises(MatrixFormatError, match=message):
            from_document({**base, "entries": entries})
    # exponents past int64 are reduced mod the order, not cast
    h = from_document({**base, "entries": [[0, 0], [0, 2 ** 70 + 2]]})
    assert h.phases.order == 2 and h.phases.exp.tolist() == [[0, 0], [0, 1]]
