"""Every function, method and class defined in ``src`` is reached from
``src``, and every name a ``src`` module imports is used in it.

A method or property, a definition directly in a class body, is reached only
through an attribute access (``x.name``): a parameter or a local of the same
name calls nothing. Any other definition is reached by a name or an attribute
of its name. A definition that no ``src`` module reaches is API that only the
tests or ``bench/`` reach; it fails the test below unless ``UNREACHED`` lists
it with its reason. Dunders are called by the language itself and are left
out.

An exception class in ``src`` exists only where ``src`` tells it apart, in
an ``except`` clause or an ``isinstance`` test; ``UNCAUGHT`` lists the one
that is raised and never caught."""

import ast
import builtins
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gtyang"
TRACING = ROOT / "bench" / "tracing.py"

# qualified name -> why it stays with no caller in src
UNREACHED = {
    "tangent_graded": "a bench/tracing.py layer target",
    "amplitudes_via_localization": "a bench/tracing.py layer target",
    "DeformationComplex.gauge_rank_sector": "a bench/tracing.py layer target",
    "RationalMatrix.entries": "read by the bench/tracing.py product hook",
    "verify_f_terms": "the crystal suite of ROADMAP item 3 will call it",
    "FTermReport.ok": "the crystal suite of ROADMAP item 3 will call it",
    "FTermReport.failures": "the crystal suite of ROADMAP item 3 will call it",
    "GTPattern.node_dimension": "the crystal suite of ROADMAP item 3 will call it",
}

# exception class -> why it stays with no handler in src
UNCAUGHT = {
    "InvariantViolation": "a bug, never bad input: it ends the run with its traceback",
}


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(node, prefix="", in_class=False):
    """(qualified name, name, is a method) of each def and class under
    ``node``, a nested one qualified by the defs and classes around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child.name, in_class
            is_class = isinstance(child, ast.ClassDef)
            yield from _definitions(child, f"{prefix}{child.name}.", is_class)
        else:
            yield from _definitions(child, prefix, in_class)


def test_every_src_definition_is_named_in_src_or_listed():
    trees = _trees().values()
    nodes = [node for tree in trees for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    named = attributes | {node.id for node in nodes if isinstance(node, ast.Name)}
    unreached = {
        qualified
        for tree in trees
        for qualified, name, is_method in _definitions(tree)
        if name not in (attributes if is_method else named)
        and not (name.startswith("__") and name.endswith("__"))
    }
    # a listed name that gains a caller leaves the list, so the list stays exact
    assert unreached == set(UNREACHED)


def test_every_bench_reason_holds_in_bench():
    """An entry kept for ``bench/tracing.py`` is named there, as a layer
    target ``module:qualified`` or read as an attribute ``.name``; once the
    bench stops reaching it, it fails here and can be deleted."""
    text = TRACING.read_text()
    stale = [
        qualified
        for qualified, reason in UNREACHED.items()
        if "bench/tracing.py" in reason
        and not re.search(rf"(:{re.escape(qualified)}|\.{qualified.rsplit('.', 1)[-1]})\b", text)
    ]
    assert stale == []


def test_every_src_import_is_used():
    """No ``src`` module imports a name it never uses: a re-export is API
    that only the tests could reach."""
    unused = set()
    for stem, tree in _trees().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.add(f"{stem}:{bound}")
    assert unused == set()


def _names(node) -> set:
    """The class names in an ``except`` type or an ``isinstance`` class
    argument: a name, an attribute, or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def test_every_src_exception_is_caught_in_src():
    """Each class whose base is a builtin exception or a ``src`` one is
    named by an ``except`` or an ``isinstance`` in ``src``, or listed in
    ``UNCAUGHT``; a type no handler tells apart is one raise of
    ``InvariantViolation`` or a builtin error."""
    nodes = [node for tree in _trees().values() for node in ast.walk(tree)]
    builtin = {
        name
        for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    classes = [node for node in nodes if isinstance(node, ast.ClassDef)]
    bases = {node.name: set().union(*map(_names, node.bases)) for node in classes}
    # a class whose base is a src exception is one too, in whatever order
    # the modules define them
    exceptions: set = set()
    while found := {name for name, of in bases.items() if of & (builtin | exceptions)} - exceptions:
        exceptions |= found
    caught = set()
    for node in nodes:
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught |= _names(node.type)
        elif isinstance(node, ast.Call) and _names(node.func) == {"isinstance"}:
            caught |= _names(node.args[1])
    assert exceptions - caught == set(UNCAUGHT)
