"""Every function, method and class defined in ``src`` is reached from
``src``. A definition whose name no ``src`` module uses, as a name or as an
attribute, is API that only the tests or ``bench/`` reach; it fails the test
below unless ``UNREACHED`` lists it with its reason. Dunders are called by the
language itself and are left out."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gtyang"

# qualified name -> why it stays with no caller in src
UNREACHED = {
    "tangent_graded": "a bench/tracing.py layer target",
    "amplitudes_via_localization": "a bench/tracing.py layer target",
    "DeformationComplex.gauge_rank_sector": "a bench/tracing.py layer target",
    "verify_f_terms": "the crystal suite of ROADMAP item 3 will call it",
    "FTermReport.failures": "the crystal suite of ROADMAP item 3 will call it",
    "GTPattern.node_dimension": "the crystal suite of ROADMAP item 3 will call it",
}


def _definitions(node, prefix=""):
    """(qualified name, name) of each def and class under ``node``, a
    nested one qualified by the defs and classes around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child.name
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def test_every_src_definition_is_named_in_src_or_listed():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    named = {node.id for node in nodes if isinstance(node, ast.Name)}
    named |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    unreached = {
        qualified
        for tree in trees
        for qualified, name in _definitions(tree)
        if name not in named and not (name.startswith("__") and name.endswith("__"))
    }
    # a listed name that gains a caller leaves the list, so the list stays exact
    assert unreached == set(UNREACHED)
