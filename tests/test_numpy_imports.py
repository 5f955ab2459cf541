"""The package reaches into NumPy's private modules in one place only.

``hingetree.linear`` imports the LAPACK gufuncs of ``numpy.linalg._umath_linalg``,
which every supported NumPy has.  Other private modules move between releases
(``numpy.core`` became ``numpy._core`` in NumPy 2), so an import of one, or an
attribute path through one, would break the package on another NumPy.
"""
import ast
import pathlib

import pytest

ALLOWED = {"numpy.linalg._umath_linalg"}
SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "hingetree").glob("*.py"))


def _private(path: str) -> bool:
    parts = path.split(".")
    return parts[0] == "numpy" and any(
        part.startswith("_") and not part.endswith("__") for part in parts)


def private_numpy_uses(tree: ast.AST, numpy_names=("np", "numpy")):
    """Each private NumPy module path that ``tree`` imports, or reaches as ``np._name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            paths = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in numpy_names):
            paths = [f"numpy.{node.attr}"]
        else:
            continue
        yield from (path for path in paths if _private(path) and path not in ALLOWED)


def test_the_sources_are_found():
    assert "linear.py" in {source.name for source in SOURCES}


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_no_private_numpy_module_but_umath_linalg(source):
    assert list(private_numpy_uses(ast.parse(source.read_text(), str(source)))) == []


@pytest.mark.parametrize("code, found", [
    ("from numpy.linalg import _umath_linalg", []),
    ("import numpy as np\nnp.linalg.solve", []),
    ("from numpy import __version__", []),
    ("from numpy._core.multiarray import count_nonzero", ["numpy._core.multiarray.count_nonzero"]),
    ("import numpy.core._multiarray_umath", ["numpy.core._multiarray_umath"]),
    ("from numpy import _core", ["numpy._core"]),
    ("import numpy as np\nnp._core.umath.add", ["numpy._core"]),
], ids=["allowed", "public", "dunder", "from-private", "import-private", "private-name",
        "attribute"])
def test_the_guard_finds_private_uses(code, found):
    assert list(private_numpy_uses(ast.parse(code))) == found
