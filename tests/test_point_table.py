"""Point models are read from one table, ``gram._POINT_CLASSES``.

Outside ``geometry``, which defines the point classes, and the package's
``__init__``, which re-exports them, no module of the package names
``CirclePoint`` or ``SpherePoint`` or reads a point's ``theta`` or
``coords``, except where ``gram`` defines the table: the assignment of
``_POINT_CLASSES`` and its import of the classes.  Every other site reads
an axis kind's row, so a new point model is a new row, not a new branch
at every site.

The sites that handle points read each slot's row, not a named kind: no
``thetas`` or ``zs`` and no ``.m`` in the bodies of ``gram``'s
``_split_points``, ``_check_duplicates`` and ``gram_matrix``, and
``sample_config`` draws every row through the one loop ``_draw``, which
calls no other function of ``geometry``.
"""

import ast
from pathlib import Path

import pytest

import spdkernels

SOURCES = sorted(
    p for p in Path(spdkernels.__file__).parent.glob("*.py") if p.name not in ("geometry.py", "__init__.py")
)
CLASSES = {"CirclePoint", "SpherePoint"}
FIELDS = {"theta", "coords"}
TABLE = "_POINT_CLASSES"


def _definition(tree: ast.Module) -> set:
    """The ids of the nodes of the table's definition: a top-level
    assignment of ``_POINT_CLASSES`` and the imports from ``geometry``."""
    nodes = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if (isinstance(node, ast.ImportFrom) and node.module == "geometry") or any(
            isinstance(t, ast.Name) and t.id == TABLE for t in targets
        ):
            nodes.update(map(id, ast.walk(node)))
    return nodes


def point_references(source: str, table: bool = False) -> list:
    """(line, name) for each point class named, imported or read as an
    attribute, and each ``theta`` or ``coords`` attribute; with ``table``,
    the table's definition is left out."""
    tree = ast.parse(source)
    skip = _definition(tree) if table else set()
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and node.id in CLASSES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in CLASSES | FIELDS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in CLASSES]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_point_class_or_field_is_named_outside_the_table(path):
    assert point_references(path.read_text(), table=path.name == "gram.py") == []


def test_the_check_sees_every_form_of_a_point_reference():
    source = "\n".join([
        "from .geometry import CirclePoint, sample_config",
        "x = SpherePoint((1.0, 0.0, 0.0))",
        "thetas = np.array([p.theta for p in points])",
        "if isinstance(p, geometry.CirclePoint): form = {'coords': list(p.coords)}",
        "theta, coords = 0.0, ()",
        "form = {'theta': t}",
    ])
    assert point_references(source) == [
        (1, "CirclePoint"), (2, "SpherePoint"), (3, "theta"), (4, "CirclePoint"), (4, "coords"),
    ]


def test_the_table_definition_is_left_out_where_it_lives():
    source = "\n".join([
        "from .geometry import TWO_PI, CirclePoint, SpherePoint",
        "_POINT_CLASSES = {'circle': _PointModel(CirclePoint, 'theta'), 'sphere': _PointModel(SpherePoint, 'coords')}",
        "xs = [CirclePoint(t) for t in thetas]",
        "zs = [z.coords for z in sphere]",
    ])
    assert point_references(source, table=True) == [(3, "CirclePoint"), (4, "coords")]
    assert len(point_references(source)) == 6


# --- the sites that handle points read each slot's row -------------------------------

GRAM_SITES = ("_split_points", "_check_duplicates", "gram_matrix")
KIND_NAMES = {"thetas", "zs"}


def _functions(tree: ast.Module) -> dict:
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def kind_references(source: str, sites=GRAM_SITES) -> list:
    """(site, name) for each ``thetas`` or ``zs``, as a name or an argument,
    and each ``.m`` attribute in the named functions."""
    functions = _functions(ast.parse(source))
    found = []
    for site in sites:
        for node in ast.walk(functions[site]):
            if isinstance(node, ast.Name) and node.id in KIND_NAMES:
                found.append((site, node.id))
            elif isinstance(node, ast.arg) and node.arg in KIND_NAMES:
                found.append((site, node.arg))
            elif isinstance(node, ast.Attribute) and node.attr == "m":
                found.append((site, ".m"))
    return found


def module_calls(source: str) -> dict:
    """For ``sample_config`` and ``_draw``, the module-level functions of
    the source that each calls by name; None for one the source lacks."""
    functions = _functions(ast.parse(source))
    return {
        site: sorted({node.func.id for node in ast.walk(functions[site])
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in functions}) if site in functions else None
        for site in ("sample_config", "_draw")
    }


PACKAGE = Path(spdkernels.__file__).parent


def test_gram_sites_name_no_point_kind():
    assert kind_references((PACKAGE / "gram.py").read_text()) == []


def test_sample_config_draws_every_row_through_one_loop():
    assert module_calls((PACKAGE / "geometry.py").read_text()) == {"sample_config": ["_draw"], "_draw": []}


def test_the_guards_see_the_per_kind_forms():
    gram = "\n".join([
        "def _split_points(spec, points):",
        "    return [x for x in arrays if x.shape[1] != spec.space.m + 1]",
        "def _check_duplicates(thetas, zs):",
        "    n = len(zs)",
        "def gram_matrix(spec, points):",
        "    thetas, zs = _split_points(spec, points)",
    ])
    assert kind_references(gram) == [
        ("_split_points", ".m"), ("_check_duplicates", "thetas"), ("_check_duplicates", "zs"),
        ("_check_duplicates", "zs"), ("gram_matrix", "thetas"), ("gram_matrix", "zs"),
    ]
    geometry = "\n".join([
        "def sample_config(m, n_circle, n_sphere, seed):",
        "    return _sample_circle(rng, n_circle), _sample_sphere(rng, m, n_sphere), np.empty(0)",
        "def _sample_circle(rng, n):",
        "    return _circle_batch_near(points, batch)",
        "def _sample_sphere(rng, m, n): pass",
        "def _circle_batch_near(points, batch): pass",
    ])
    assert module_calls(geometry) == {"sample_config": ["_sample_circle", "_sample_sphere"], "_draw": None}
    draw = "def sample_config(): return _draw()\ndef _draw(): return _circle_batch_near()\ndef _circle_batch_near(): pass"
    assert module_calls(draw) == {"sample_config": ["_draw"], "_draw": ["_circle_batch_near"]}
