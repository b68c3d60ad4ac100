"""Space kinds are read from one table, ``kernels._SPACE_KINDS``.

Outside ``kernels`` no module of the package compares a space's ``kind``
with the name of a space kind: it reads the kind's axes, or looks the kind
up in a table keyed by kind.  A new kind is then a new row, not a new branch
at every site.  Scheme kinds ("constant", "geometric"), term types and
witness kinds are not space kinds and are not flagged.
"""

import ast
from pathlib import Path

import pytest

import spdkernels
from spdkernels.kernels import _SPACE_KINDS

SOURCES = sorted(p for p in Path(spdkernels.__file__).parent.glob("*.py") if p.name != "kernels.py")


def _is_kind(node: ast.AST) -> bool:
    """A ``.kind`` attribute, or a name ``kind`` that holds one."""
    return (isinstance(node, ast.Attribute) and node.attr == "kind") or (
        isinstance(node, ast.Name) and node.id == "kind"
    )


def _strings(node: ast.AST) -> list:
    """The string constants of a node: itself, or the items of a tuple, list or set."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return [n.value for n in items if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def kind_comparisons(source: str) -> list:
    """(line, name) for each space-kind name that a comparison with a kind,
    or a ``match`` on one, tests."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_kind, operands)):
                found += [(node.lineno, s) for op in operands for s in _strings(op)]
        elif isinstance(node, ast.Match) and _is_kind(node.subject):
            found += [
                (p.lineno, p.value.value)
                for case in node.cases for p in ast.walk(case.pattern)
                if isinstance(p, ast.MatchValue) and isinstance(p.value, ast.Constant)
            ]
    return sorted((line, name) for line, name in found if name in _SPACE_KINDS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_space_kind_is_compared_outside_the_table(path):
    assert kind_comparisons(path.read_text()) == []


def test_the_check_sees_every_form_of_a_kind_comparison():
    source = "\n".join([
        'if spec.space.kind == "circle": pass',
        'if "sphere" != space.kind: pass',
        'if kind in ("circle_sphere", "torus"): pass',
        'match space.kind:',
        '    case "circle_tph": pass',
        '    case _: pass',
        'if scheme.kind == "constant" or data["type"] == "circle": pass',
        'if term.kind == "one" and w.kind != "parity": pass',
        'if space._axes[1] == "sphere": pass',
    ])
    assert kind_comparisons(source) == [
        (1, "circle"), (2, "sphere"), (3, "circle_sphere"), (5, "circle_tph"),
    ]
