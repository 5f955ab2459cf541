"""The test oracle, ``tests/reference.py``, uses only a few public names of the package.

The oracle writes the split loop's objective, partition and damped step
from the docstrings.  Had it imported one of the loop's private helpers, a
fault there would change the oracle and the package alike, and no
comparison between them would show it.  So it imports from ``hingetree``
only the names in ``ALLOWED``, and reaches no ``_`` attribute through one.
"""
import ast
import pathlib

import pytest

from hingetree import HingeTreeError, errors

REFERENCE = pathlib.Path(__file__).with_name("reference.py")
ERROR_TYPES = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, HingeTreeError)}
ALLOWED = {f"hingetree.{name}" for name in (
    "augment", "ridge_solve", "initialize_params", "SplitConfig", "HingeKind", *ERROR_TYPES)}
ALLOWED.add("hingetree.linear.check_training")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _in_package(module: str) -> bool:
    return module == "hingetree" or module.startswith("hingetree.")


def package_uses(tree: ast.AST):
    """Each package path that ``tree`` imports, then each private attribute it reaches through one.

    ``import hingetree.split`` imports ``hingetree.split`` and binds
    ``hingetree``; an attribute path is followed from the name an import
    bound, so ``hingetree.split._hinge`` there is reported as that path.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _in_package(alias.name):
                    yield alias.name
                    name = alias.asname or "hingetree"
                    bound[name] = alias.name if alias.asname else name
        elif isinstance(node, ast.ImportFrom) and node.module and _in_package(node.module):
            for alias in node.names:
                yield f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        parts, base = [], node
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in bound:
            yield ".".join([bound[base.id], *reversed(parts)])


def violations(tree: ast.AST) -> list[str]:
    return [path for path in package_uses(tree) if path not in ALLOWED]


def test_the_error_types_are_allowed():
    assert {"hingetree.DegenerateSystem", "hingetree.NonFiniteInput"} <= ALLOWED


def test_the_reference_uses_only_the_allowed_public_names():
    assert violations(ast.parse(REFERENCE.read_text(), str(REFERENCE))) == []


@pytest.mark.parametrize("code, found", [
    ("from hingetree import augment, HingeKind, NonFiniteInput", []),
    ("from hingetree.linear import check_training", []),
    ("from hingetree import SplitConfig\nSplitConfig.__name__", []),
    ("import numpy as np\nnp._core", []),
    ("from hingetree import find_optimal_split", ["hingetree.find_optimal_split"]),
    ("from hingetree.split import _hinge", ["hingetree.split._hinge"]),
    ("from hingetree import split", ["hingetree.split"]),
    ("import hingetree.split\nhingetree.split._evaluate",
     ["hingetree.split", "hingetree.split._evaluate"]),
    ("import hingetree.split as s\ns._evaluate", ["hingetree.split", "hingetree.split._evaluate"]),
    ("from hingetree import SplitConfig\nSplitConfig._check", ["hingetree.SplitConfig._check"]),
], ids=["allowed", "check-training", "dunder", "other-package", "public", "private-import",
        "module", "attribute", "aliased-module", "through-an-allowed-name"])
def test_the_guard_finds_other_uses(code, found):
    assert violations(ast.parse(code)) == found
