import ast
from pathlib import Path

import pytest

import smdg

SOURCES = sorted(Path(smdg.__file__).parent.glob("*.py"))

_CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}
_DICT_MUTATORS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_guards(path):
    """Runtime guards raise: `python -O` strips `assert` statements."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_dataclasses(path):
    """Value classes derive from ``graph._Value``: importing ``dataclasses``
    loads ``inspect`` into every command and compiles methods per class."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
             or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)]
    assert not lines, f"{path.name} imports dataclasses on lines {lines}"


def _is_dict_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in {"dict", "defaultdict", "OrderedDict", "Counter"})


def memo_lines(source: str) -> list[int]:
    """Lines that use a functools cache, or that write into a module-level
    dict from inside a function: the two ways to keep results across calls
    keyed by their arguments. Module-level tables filled once at import are
    not memos and are not reported."""
    tree = ast.parse(source)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [node.lineno for a in node.names if a.name in _CACHE_DECORATORS]
        elif (isinstance(node, ast.Attribute) and node.attr in _CACHE_DECORATORS
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            out.append(node.lineno)
    dicts = set()
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else (
            [stmt.target] if isinstance(stmt, ast.AnnAssign) and stmt.value else [])
        if targets and _is_dict_value(stmt.value):
            dicts.update(t.id for t in targets if isinstance(t, ast.Name))
    functions = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    for function in functions:
        for node in ast.walk(function):
            if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Name) and node.value.id in dicts):
                out.append(node.lineno)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _DICT_MUTATORS
                  and isinstance(node.func.value, ast.Name) and node.func.value.id in dicts):
                out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_cross_call_memo(path):
    """Derived values live on the immutable value that owns them, not in a
    cache keyed by argument values: a repeated input must cost what a new
    one costs."""
    lines = memo_lines(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name} keeps a memo across calls on lines {lines}"


@pytest.mark.parametrize("source, expected", [
    ("import functools\n@functools.lru_cache\ndef f(x):\n    return x\n", [2]),
    ("from functools import cache\n", [1]),
    ("_MEMO = {}\ndef f(x):\n    _MEMO[x] = x\n    return x\n", [3]),
    ("_MEMO: dict = dict()\ndef f(x):\n    return _MEMO.setdefault(x, x)\n", [3]),
    ("_TABLE = {'a': 1}\n_INDEX = {v: k for k, v in _TABLE.items()}\n"
     "def f(x):\n    return _TABLE[x]\n", []),
    ("def f(x):\n    seen = {}\n    seen[x] = x\n    return seen\n", []),
], ids=["lru_cache", "from_import", "subscript_store", "setdefault", "read_only_table",
        "local_dict"])
def test_memo_detector(source, expected):
    assert memo_lines(source) == expected


def _tree(name: str) -> ast.Module:
    return ast.parse((Path(smdg.__file__).parent / name).read_text(encoding="utf-8"))


def test_evaluator_imports_no_fractions():
    """The sum-product evaluator multiplies and adds integers only."""
    lines = [node.lineno for node in ast.walk(_tree("sumproduct.py"))
             if isinstance(node, ast.ImportFrom) and node.module == "fractions"
             or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)]
    assert not lines, f"sumproduct.py imports fractions on lines {lines}"


def _fields(class_name: str) -> dict[str, ast.expr]:
    """The annotated fields of a class of ``model.py``."""
    (node,) = [node for node in _tree("model.py").body
               if isinstance(node, ast.ClassDef) and node.name == class_name]
    return {field.target.id: field.annotation for field in node.body
            if isinstance(field, ast.AnnAssign)}


def test_kernel_fields_hold_no_fractions():
    """A kernel stores one form, integer numerators over one denominator;
    ``Fraction``s are made only when a row is read."""
    fields = _fields("KernelTable")
    assert {"parents", "den", "rows"} <= set(fields)
    holding = sorted(name for name, annotation in fields.items()
                     if "Fraction" in ast.unparse(annotation))
    assert not holding, f"KernelTable fields annotated with Fraction: {holding}"


def test_prob_table_fields_hold_no_fractions():
    """A distribution stores integer weights over one denominator; its
    ``Fraction``s are made only when its table is read."""
    fields = _fields("ProbTable")
    assert {"variables", "den", "weights"} <= set(fields)
    holding = sorted(name for name, annotation in fields.items()
                     if "Fraction" in ast.unparse(annotation))
    assert not holding, f"ProbTable fields annotated with Fraction: {holding}"


def fresh_set_membership_lines(source: str) -> list[int]:
    """Lines that test membership against a ``set(...)`` or ``frozenset(...)``
    built in the test itself: the copy walks the whole collection to answer
    one lookup that the graph's own maps answer directly."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.In, ast.NotIn)) and isinstance(right, ast.Call)
                and isinstance(right.func, ast.Name) and right.func.id in {"set", "frozenset"}
                for op, right in zip(node.ops, node.comparators))
    )


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_membership_against_a_fresh_set(path):
    lines = fresh_set_membership_lines(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name} tests membership against a fresh set on lines {lines}"


@pytest.mark.parametrize("source, expected", [
    ("x in set(d.edges)\n", [1]),
    ("if (a, b) not in frozenset(edges):\n    pass\n", [1]),
    ("x in edges_set\n", []),
    ("x in d.children_of(a)\n", []),
    ("s = set(d.edges)\nx in s\n", []),
], ids=["in_set", "not_in_frozenset", "name", "query", "bound_once"])
def test_fresh_set_membership_detector(source, expected):
    assert fresh_set_membership_lines(source) == expected
