"""The arithmetic layers stand alone: ``cyclotomic`` and ``phases`` import
no hadlab module but ``errors``, so either can be imported without the
matrix, constructor or defect layers."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hadlab"


def _hadlab_imports(path: Path) -> set:
    """The hadlab modules a source file imports, at any depth in it."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module or ""
                out.update([base] if base else [a.name for a in node.names])
            elif node.module and node.module.split(".")[0] == "hadlab":
                out.add(".".join(node.module.split(".")[1:]) or "hadlab")
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".", 1)[1] for a in node.names
                       if a.name.startswith("hadlab."))
            if any(a.name == "hadlab" for a in node.names):
                out.add("hadlab")
    return out


@pytest.mark.parametrize("module", ["cyclotomic", "phases"])
def test_arithmetic_layers_import_only_errors(module):
    assert _hadlab_imports(SRC / f"{module}.py") <= {"errors"}


def test_the_check_sees_relative_and_absolute_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .errors import X\nfrom . import matrix\n"
                   "import hadlab.defect\nfrom hadlab.io import y\n"
                   "def f():\n    from .constructors import z\n")
    assert _hadlab_imports(src) == {"errors", "matrix", "defect", "io",
                                    "constructors"}
