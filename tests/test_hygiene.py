"""Static hygiene of the package source, read with ``ast``: no ``assert``
statement (they vanish under ``python -O``) and no unused import."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dynstar"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                      args.vararg, args.kwarg):
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including names inside quoted
    annotations such as ``"TensorUEA | FieldElement"``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted)
                         if isinstance(n, ast.Name)}
    return used


def imported_names(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, bound name) of every import outside ``__future__``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.asname or a.name.split(".")[0])
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.lineno, a.asname or a.name) for a in node.names]
    return out


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    used = used_names(tree)
    return [(line, name) for line, name in imported_names(tree)
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert(path):
    asserts = [n.lineno for n in ast.walk(_tree(path))
               if isinstance(n, ast.Assert)]
    assert not asserts, f"{path.name}: assert at lines {asserts}"


# the package's __init__ imports only to re-export
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    unused = unused_imports(_tree(path))
    assert not unused, f"{path.name}: unused imports {unused}"


def test_scanner_sees_unused_and_quoted_names():
    tree = ast.parse(
        "from typing import Optional, Sequence\n"
        "import sympy as sp\n"
        "import os.path\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    return sp.Integer(1)\n")
    assert unused_imports(tree) == [(1, "Optional"), (3, "os")]
