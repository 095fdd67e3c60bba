"""Every function, class and method of the package has a caller.

A name counts as used when the program (``src/phcover``) or the benchmark
(``bench/``) refers to it, as a name or an attribute, outside the body
that defines it.  Helpers that only tests call are deleted, or moved into
the tests that need them; the names below are kept on purpose.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phcover"

KEPT = {
    # the lift and extension helpers, which the stabilizer checks of
    # ROADMAP item 5 are to take over
    "act_lift", "compose_extension", "lift_adjacent", "stabilizer_closure_check",
    # reports that ROADMAP item 10 wires into `verify all`
    "w2_span_report", "verify_reduct_is_neighborhood_equality",
    # the tuple forms that test fixtures build their references from
    "n_project", "subgraph",
}


def _definitions(tree):
    """(name, first line, last line) of every top-level function and class
    and of every method, dunder methods aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item.lineno, item.end_lineno


def _references(tree):
    """(name, line) of every name and attribute read in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_has_a_caller():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    refs = [(name, path, line) for path, tree in trees.items()
            for name, line in _references(tree)]
    defined, unused = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(trees[path]):
            defined.add(name)
            if name not in KEPT and not any(
                    ref == name and not (where == path and first <= line <= last)
                    for ref, where, line in refs):
                unused.append(f"{path.name}:{first} {name}")
    assert unused == []
    assert KEPT <= defined  # no stale exception
