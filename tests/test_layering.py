"""The import graph of hadlab, pinned.

Modules form one order; each imports at module level only hadlab modules
earlier in it.  The arithmetic layers stand alone: ``cyclotomic`` and
``phases`` import no hadlab module but ``errors``.  No import sits inside
a function.  Every name a module imports at module level is read in it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hadlab"

LAYER_ORDER = ["errors", "phases", "cyclotomic", "matrix", "constructors",
               "defect", "mcnulty_weigert", "regularity", "semigroup", "io",
               "catalog", "schemas", "cli"]

# modules that read the package's __version__ from hadlab/__init__.py
READS_VERSION = {"catalog", "cli"}


def _imported(node: ast.AST) -> set:
    """The hadlab modules one statement imports, or an empty set."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return {node.module} if node.module else {a.name for a in node.names}
        if node.module and node.module.split(".")[0] == "hadlab":
            return {".".join(node.module.split(".")[1:]) or "hadlab"}
    elif isinstance(node, ast.Import):
        return {a.name.split(".", 1)[1] if "." in a.name else a.name
                for a in node.names if a.name.split(".")[0] == "hadlab"}
    return set()


def _scoped_imports(path: Path) -> dict:
    """Scope -> the hadlab modules imported in it: None for the module
    level, else the name of the innermost enclosing function."""
    out: dict = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            names = _imported(child)
            if names:
                out.setdefault(scope, set()).update(names)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else scope)

    visit(ast.parse(path.read_text(), str(path)), None)
    return out


def _hadlab_imports(path: Path) -> set:
    """The hadlab modules a source file imports, at any depth in it."""
    return set().union(*_scoped_imports(path).values())


@pytest.mark.parametrize("module", ["cyclotomic", "phases"])
def test_arithmetic_layers_import_only_errors(module):
    assert _hadlab_imports(SRC / f"{module}.py") <= {"errors"}


def test_the_order_names_every_module():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYER_ORDER)


@pytest.mark.parametrize("module", LAYER_ORDER)
def test_module_level_imports_follow_the_order(module):
    allowed = set(LAYER_ORDER[:LAYER_ORDER.index(module)])
    if module in READS_VERSION:
        allowed.add("__version__")
    assert _scoped_imports(SRC / f"{module}.py").get(None, set()) <= allowed


def test_no_import_sits_inside_a_function():
    found = {(module, scope): names for module in LAYER_ORDER
             for scope, names in _scoped_imports(SRC / f"{module}.py").items()
             if scope is not None}
    assert found == {}


def test_the_check_sees_relative_and_absolute_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .errors import X\nfrom . import matrix\n"
                   "import hadlab.defect\nfrom hadlab.io import y\n"
                   "def f():\n    from .constructors import z\n"
                   "class C:\n    def g(self):\n        import hadlab.cli\n")
    assert _scoped_imports(src) == {None: {"errors", "matrix", "defect", "io"},
                                    "f": {"constructors"}, "g": {"cli"}}
    assert _hadlab_imports(src) == {"errors", "matrix", "defect", "io",
                                    "constructors", "cli"}


def _unread_imports(path: Path) -> set:
    """Names that module-level imports of a source file bind but that the
    file never reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return bound - read


@pytest.mark.parametrize("module", LAYER_ORDER + ["__main__"])
def test_every_module_level_import_is_read(module):
    assert _unread_imports(SRC / f"{module}.py") == set()


def test_the_unread_import_check_sees_each_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\n"
                   "import os.path\nimport numpy as np\n"
                   "from typing import List, Optional\nfrom . import matrix\n"
                   "def f(x: Optional[int]):\n    import sys\n"
                   "    return np.zeros(1), sys\n")
    assert _unread_imports(src) == {"os", "List", "matrix"}
