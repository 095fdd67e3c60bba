"""Every function, class and method of the package has a caller, and
every report has one shape.

A function or class counts as used when the program (``src/phcover``) or
the benchmark (``bench/``) refers to it, as a name or an attribute,
outside the body that defines it; a method counts as used only through
an attribute read (``.name``), so that a function of the same name does
not hide it.  Helpers that only tests call are deleted, or moved into
the tests that need them; the names below are kept on purpose.

The attribute reads are matched by name alone, whatever object they are
read from, so a method is hidden by any method of the same name on
another class: ``span.add`` (``F2Span.add``) and ``seen.add`` (a set)
kept an unused ``GF.add`` counted as used.  Such a name is checked by
hand.

Only ``voltage.report`` builds a report, so every report and every report
nested in one carries the same seven keys, and passes exactly when it
counts no violation.
"""

import ast
import json
import pathlib

import pytest

from phcover import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phcover"

KEPT = {
    # reports that ROADMAP item 10 wires into `verify all`
    "w2_span_report", "verify_reduct_is_neighborhood_equality",
}


def _definitions(tree):
    """(node, is a method) of every top-level function and class and of
    every method, dunder methods aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item, True


def _references(tree):
    """(name, line, is an attribute) of every name and attribute read in
    the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def test_every_definition_has_a_caller():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    refs = [(name, path, line, attr) for path, tree in trees.items()
            for name, line, attr in _references(tree)]
    defined, unused = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, method in _definitions(trees[path]):
            name, first, last = node.name, node.lineno, node.end_lineno
            defined.add(name)
            if name not in KEPT and not any(
                    ref == name and (attr or not method)
                    and not (where == path and first <= line <= last)
                    for ref, where, line, attr in refs):
                unused.append(f"{path.name}:{first} {name}")
    assert unused == []
    assert KEPT <= defined  # no stale exception


# optional parameters that no call sets, each kept on purpose; what they
# forward counts as set
UNSET_KEPT = {
    # the non-split claim holds for every alpha outside F2, and a test
    # checks alpha = 0b100 over GF(16)
    ("nonsplit_check", "alpha"),
}


def _optional(fn, method):
    """{name: position} of the parameters of fn with a default, position
    None for a keyword-only one; a method's positions skip its first."""
    args = (fn.args.posonlyargs + fn.args.args)[method:]
    found = {arg.arg: i for i, arg in enumerate(args) if i >= len(args) - len(fn.args.defaults)}
    found.update((arg.arg, None) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                 if default is not None)
    return found


def test_every_optional_parameter_is_set_by_a_caller():
    # a parameter with a default is an option only when some call in the
    # program or the benchmark, outside the function's own body, sets it;
    # calls are matched by name, as above
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    params, bodies = {}, []  # params: (function, parameter) -> position
    for path in sorted(PACKAGE.glob("*.py")):
        for fn, method in _definitions(trees[path]):
            if isinstance(fn, ast.ClassDef):
                continue
            bodies.append((path, fn.lineno, fn.end_lineno, fn.name))
            params.update(((fn.name, arg), pos) for arg, pos in _optional(fn, method).items())
    # each value a call passes to an optional parameter, with the names of
    # the functions whose body holds the call
    passed = []
    for path, tree in trees.items():
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            callers = {name for where, first, last, name in bodies
                       if where == path and first <= call.lineno <= last}
            for (fn, arg), pos in params.items():
                if fn == callee and fn not in callers:
                    passed += [((fn, arg), callers, value) for value in
                               [k.value for k in call.keywords if k.arg in (arg, None)]
                               + [v for i, v in enumerate(call.args)
                                  if i == pos or isinstance(v, ast.Starred)]]
    # a value forwarded from a caller's own optional parameter sets nothing
    # unless that parameter is set or kept: grow the set parameters to a
    # fixed point
    set_ = set()
    while True:
        unset = params.keys() - set_ - UNSET_KEPT
        grown = {key for key, callers, value in passed
                 if not any((caller, getattr(value, "id", None)) in unset for caller in callers)}
        if grown == set_:
            break
        set_ = grown
    assert sorted(f"{fn}.{arg}" for fn, arg in unset) == []
    assert UNSET_KEPT <= params.keys() - set_  # no stale exception


def test_only_voltage_report_builds_a_report():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        builder = next((node for node in tree.body if path.name == "voltage.py"
                        and isinstance(node, ast.FunctionDef) and node.name == "report"), None)
        inside = set() if builder is None else set(map(id, ast.walk(builder)))
        for node in ast.walk(tree):
            keys = ([k.value for k in node.keys if isinstance(k, ast.Constant)]
                    if isinstance(node, ast.Dict) else
                    [k.arg for k in node.keywords]
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict"
                    else [])
            if "check" in keys and id(node) not in inside:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


BASE_KEYS = {"check": str, "field": int, "mode": str, "samples": int, "violations": int,
             "witnesses": list, "passed": bool}


def _reports(value):
    """Every report in a JSON value: the dicts with a "check" key, nested
    ones included."""
    if isinstance(value, dict):
        if "check" in value:
            yield value
        for item in value.values():
            yield from _reports(item)
    elif isinstance(value, list):
        for item in value:
            yield from _reports(item)


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_every_report_keeps_the_contract(q, capsys):
    # `verify all` is every suite in order
    assert cli.main(["verify", "all", "--field", str(q), "--samples", "100"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    reports = list(_reports(results))
    assert len(reports) > len(results)  # nested parts are checked too
    for r in reports:
        assert {key: type(r.get(key)) for key in BASE_KEYS} == BASE_KEYS, r["check"]
        assert r["passed"] == (r["violations"] == 0)
        assert len(r["witnesses"]) <= min(5, r["violations"])
        assert r["field"] == q
        if "status" in r:
            assert isinstance(r["reason"], str) and r["reason"] and "\n" not in r["reason"]
