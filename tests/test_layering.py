"""The import graph of hadlab, pinned.

Modules form one order; each imports at module level only hadlab modules
earlier in it.  The arithmetic layers stand alone: ``cyclotomic`` and
``phases`` import no hadlab code but ``errors``.  ``matrix`` does not import
``cyclotomic``, so a command that only builds or verifies matrices never
loads it.  The analysis modules each CLI command names follow the order.
``import hadlab`` loads no submodule: the first public name read binds
them all.  No import sits inside a function.  Every name a module imports at module
level is read in it.
What counts as an integer is decided in ``errors`` alone
(``errors.is_integer`` and ``errors.integer``): no other module tests for
a boolean or defines an integer predicate of its own.  The small float
constants left in the source are the documented ones: the default
tolerance in ``errors``, the file modulus tolerance in ``io`` and two
1e-12 guards.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hadlab"

LAYER_ORDER = ["errors", "phases", "cyclotomic", "matrix", "constructors",
               "defect", "mcnulty_weigert", "regularity", "semigroup", "io",
               "catalog", "schemas", "cli"]

# the names modules read from the package itself, hadlab/__init__.py
FROM_PACKAGE = {"catalog": {"__version__"}, "cli": {"__version__", "_submodule"}}


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


def test_matrix_does_not_import_cyclotomic():
    assert "cyclotomic" not in _hadlab_imports(SRC / "matrix.py")


def test_each_command_names_earlier_modules_in_layer_order():
    from hadlab.cli import COMMANDS
    earlier = LAYER_ORDER[:LAYER_ORDER.index("cli")]
    for name, command in COMMANDS.items():
        assert set(command.modules) <= set(earlier), name
        assert list(command.modules) == sorted(set(command.modules),
                                               key=LAYER_ORDER.index), name


def test_the_order_names_every_module():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYER_ORDER)


@pytest.mark.parametrize("module", LAYER_ORDER)
def test_module_level_imports_follow_the_order(module):
    allowed = set(LAYER_ORDER[:LAYER_ORDER.index(module)])
    allowed |= FROM_PACKAGE.get(module, set())
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


def _integer_rules(path: Path) -> list:
    """(line, what) for each isinstance(..., bool) call and each function
    named like an integer predicate (``integer``, ``is_int...``,
    ``_is_int...``) in a source file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and re.fullmatch(r"integer|_?is_int\w*", node.name):
            out.append((node.lineno, f"def {node.name}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            kind = node.args[1]
            kinds = kind.elts if isinstance(kind, ast.Tuple) else [kind]
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                out.append((node.lineno, "isinstance(..., bool)"))
    return sorted(out)


def test_only_errors_decides_what_an_integer_is():
    found = {module: _integer_rules(SRC / f"{module}.py")
             for module in LAYER_ORDER + ["__init__", "__main__"] if module != "errors"}
    assert {m: rules for m, rules in found.items() if rules} == {}
    assert {what for _, what in _integer_rules(SRC / "errors.py")} \
        == {"def is_integer", "def integer", "isinstance(..., bool)"}


def test_the_integer_rule_check_sees_each_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def _is_integer(x):\n    return isinstance(x, (int, bool))\n"
                   "def integer(x):\n    return x\n"
                   "def _integer_table(t):\n    return isinstance(t, bool)\n"
                   "ok = isinstance(1, int) and isinstance(1, (float, str))\n")
    assert _integer_rules(src) == [(1, "def _is_integer"), (2, "isinstance(..., bool)"),
                                   (3, "def integer"), (6, "isinstance(..., bool)")]


def _small_floats(path: Path) -> list:
    """(line, value) for each float literal in (0, 0.5) in a source file,
    read by ``ast``, so every spelling of a value is one value."""
    return sorted((node.lineno, node.value)
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0 < node.value < 0.5)


def test_the_small_float_constants_are_the_documented_ones():
    """errors.DEFAULT_TOL, io.MODULUS_TOL, and the 1e-12 of defect_master's
    equal-eigenphase rule and of _value_classes' bucket guard: every other
    threshold reads one of these."""
    found = sorted((module, value) for module in LAYER_ORDER + ["__init__", "__main__"]
                   for _, value in _small_floats(SRC / f"{module}.py"))
    assert found == [("defect", 1e-12), ("errors", 1e-9),
                     ("io", 1e-6), ("regularity", 1e-12)]
    from hadlab import errors, io
    assert (errors.DEFAULT_TOL, io.MODULUS_TOL) == (1e-9, 1e-6)


def test_the_small_float_check_sees_each_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("a = 1e-9\nb = 1E-9\nc = 0.000000001\nd = -1e-8\n"
                   "e = f(x, tol=1e-10)\nok = (0.5, 1.0, 1e6, 0, 1, '1e-9')\n")
    assert _small_floats(src) == [(1, 1e-9), (2, 1e-9), (3, 1e-9), (4, 1e-8),
                                  (5, 1e-10)]


PACKAGE_CHECK = """
import sys
before = set(sys.modules)
import hadlab
assert hadlab.__version__ and set(sys.modules) - before == {"hadlab"}
# a submodule loads with what it imports, and no more
assert hadlab.cyclotomic.__name__ == "hadlab.cyclotomic"
assert sorted(m for m in sys.modules if m.startswith("hadlab")) == [
    "hadlab", "hadlab.cyclotomic", "hadlab.errors"]
import hadlab.regularity   # loads hadlab.defect, the module
from hadlab import defect
assert callable(defect) and hadlab.defect is defect is hadlab.regularity.defect
assert all(hasattr(hadlab, n) for names in hadlab._PUBLIC.values() for n in names)
print(sorted(m for m in sys.modules if m.startswith("hadlab")))
"""


def test_the_package_binds_every_public_name_on_first_use():
    """``import hadlab`` loads no submodule; the first public name read
    binds them all, and the function ``defect`` keeps its name even when
    the module ``hadlab.defect`` was imported first."""
    proc = subprocess.run([sys.executable, "-c", PACKAGE_CHECK], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == sorted(
        ["hadlab"] + [f"hadlab.{m}" for m in LAYER_ORDER if m != "cli"])


STAR_CHECK = """
from hadlab import *
import hadlab
names = [n for names in hadlab._PUBLIC.values() for n in names]
print([n for n in names if globals().get(n) is not getattr(hadlab, n)])
"""


def test_a_star_import_binds_every_public_name():
    """``from hadlab import *`` reads ``__all__``, so each public name goes
    through __getattr__ and is bound."""
    proc = subprocess.run([sys.executable, "-c", STAR_CHECK], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_package_refuses_a_name_it_does_not_have():
    import hadlab
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hadlab.no_such_name
    assert hadlab.__getattr__("cli") is sys.modules["hadlab.cli"]
