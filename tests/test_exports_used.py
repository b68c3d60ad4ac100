"""Every public name of ``geometry`` and ``gram`` is used inside the package.

A name in either module's ``__all__`` must be referenced by another module
of the package: the command line, the certifiers or the other layer.  The
package's ``__init__`` re-exports every name and does not count.  What only
tests use, such as the paper's enhanced point sets and the harmonics on
S^2, and the per-degree layers of a quadratic form, lives in
``tests/conftest.py``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import spdkernels

SOURCES = sorted(Path(spdkernels.__file__).parent.glob("*.py"))
MODULES = ("geometry", "gram")


def referenced_names(source: str) -> set:
    """The names a module's source refers to: bare names, attribute names and
    the names it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_export_is_used_by_another_module(module):
    exports = set(importlib.import_module(f"spdkernels.{module}").__all__)
    used = set().union(*(
        referenced_names(path.read_text()) for path in SOURCES if path.stem not in (module, "__init__")
    ))
    assert sorted(exports - used) == []


def test_the_check_sees_every_form_of_a_reference():
    source = "\n".join([
        "from .gram import check_pd",
        "from . import gram as gram_mod",
        "def f(w: gram_mod.WitnessReport):",
        "    return gram_mod.MAX_POINTS, sample_config(2, 1, 1, 0)",
        '"""build_enhanced is named in a string only"""',
    ])
    names = referenced_names(source)
    assert {"check_pd", "gram", "WitnessReport", "MAX_POINTS", "sample_config"} <= names
    assert "build_enhanced" not in names
