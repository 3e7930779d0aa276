"""Hygiene of the package source. Read with ``ast``: no ``assert``
statement (they vanish under ``python -O``), no unused import, no keyed
sum formed outside the accumulators of ``scalars``, no
rational type other than QQ outside ``scalars``, no read of a field
element's integer pair or a context's ring outside ``scalars``, no string literal
parsed by a context, and no sparse container that redefines the protocol
of ``LinearCombination``. Run under a profiler: no function that no
verdict calls."""

import ast
import json
import os
import pathlib
import subprocess
import sys

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


def keyed_sum_sites(tree: ast.Module) -> list[int]:
    """Lines of every ``+`` or ``-`` whose left operand is
    ``X.get(key, default)``, such as ``out[k] = out.get(k, 0) + v``: a
    hand-rolled keyed sum."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
        and isinstance(node.left, ast.Call)
        and isinstance(node.left.func, ast.Attribute)
        and node.left.func.attr == "get" and len(node.left.args) == 2)


# scalars.py defines the keyed-sum kernel (and the container's own + and -)
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "scalars.py"],
                         ids=lambda p: p.name)
def test_keyed_sums_use_the_accumulator(path):
    sites = keyed_sum_sites(_tree(path))
    assert not sites, f"{path.name}: hand-rolled keyed sums at lines {sites}"


def test_scanner_sees_keyed_sums():
    tree = ast.parse(
        "out[k] = out.get(k, z) + v\n"
        "out[k] = out.get(k, ctx.zero()) - v\n"
        "n = counts.get(k, 0) + 1\n"
        "m = counts.get(k, -1) - 1\n"
        "w = v - out.get(k, z)\n"
        "x = out.get(k, z) * v\n")
    assert keyed_sum_sites(tree) == [1, 2, 3, 4]


def rational_constructor_sites(tree: ast.Module) -> list[int]:
    """Lines of every call to ``Rational``, ``Fraction`` or ``Integer``, bare
    or as an attribute such as ``sp.Rational(1, 2)``."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.attr if isinstance(node.func, ast.Attribute)
             else getattr(node.func, "id", None))
        in ("Rational", "Fraction", "Integer"))


# scalars.py coerces every rational type into the field
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "scalars.py"],
                         ids=lambda p: p.name)
def test_rationals_are_QQ(path):
    sites = rational_constructor_sites(_tree(path))
    assert not sites, f"{path.name}: Rational/Fraction/Integer calls at lines {sites}"


def test_scanner_sees_rational_constructors():
    tree = ast.parse(
        "a = sp.Rational(1, 2)\n"
        "b = Fraction(1, 2)\n"
        "c = fractions.Fraction(3)\n"
        "d = QQ(1, 2)\n"
        "e = isinstance(x, Fraction)\n"
        "f = sp.Integer(1)\n")
    assert rational_constructor_sites(tree) == [1, 2, 3, 6]


# the integer pair of a field element, its constant and a context's
# polynomial ring
FIELD_INTERNALS = ("num", "den", "_const", "ring")


def field_internal_sites(tree: ast.Module) -> list[int]:
    """Lines of every read of an attribute named ``num``, ``den``,
    ``_const`` or ``ring``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in FIELD_INTERNALS)


# scalars.py alone knows how a field element is represented
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "scalars.py"],
                         ids=lambda p: p.name)
def test_field_representation_stays_in_scalars(path):
    sites = field_internal_sites(_tree(path))
    assert not sites, f"{path.name}: field element internals read at lines {sites}"


def test_scanner_sees_field_internals():
    tree = ast.parse(
        "a = c.num\n"
        "b = f(c).den * 2\n"
        "c = x._const\n"
        "d = ctx.ring.gens\n"
        "e = q.numerator + q.denominator\n"
        "f = num + den\n")
    assert field_internal_sites(tree) == [1, 2, 3, 4]


def context_string_sites(tree: ast.Module) -> list[int]:
    """Lines of every call of a context (``ctx(...)``, ``self.ctx(...)``,
    ``x.context(...)``) with a string literal argument: a value parsed
    through sympy on every call instead of built from the field."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.attr if isinstance(node.func, ast.Attribute)
             else getattr(node.func, "id", None)) in ("ctx", "context")
        and any(isinstance(a, ast.JoinedStr)
                or (isinstance(a, ast.Constant) and isinstance(a.value, str))
                for a in node.args))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_string_parsed_by_a_context(path):
    sites = context_string_sites(_tree(path))
    assert not sites, f"{path.name}: string literals parsed by a context at lines {sites}"


def test_scanner_sees_context_strings():
    tree = ast.parse(
        "a = ctx('1/lam')\n"
        "b = self.ctx(\"-1/lam\")\n"
        "c = sp.pbw.context(f'{n}/lam')\n"
        "d = ctx(val)\n"
        "e = ctx(1)\n"
        "f = Context(['lam', 'hbar'])\n"
        "g = _context()\n")
    assert context_string_sites(tree) == [1, 2, 3]


PROTOCOL = ("__eq__", "__hash__", "__rmul__")


def protocol_overrides(trees: list[ast.Module]) -> list[tuple[str, str]]:
    """(class, name) of every ``__eq__``, ``__hash__`` or ``__rmul__`` that
    a class deriving from ``LinearCombination`` (directly or through other
    classes of the package) defines, as a method or by assignment."""
    classes = [n for t in trees for n in ast.walk(t) if isinstance(n, ast.ClassDef)]
    bases = {c.name: {b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", None)
                      for b in c.bases} for c in classes}
    derived = {"LinearCombination"}
    while True:
        more = {name for name, bs in bases.items() if bs & derived} - derived
        if not more:
            break
        derived |= more
    out = []
    for c in classes:
        if c.name == "LinearCombination" or c.name not in derived:
            continue
        for node in c.body:
            names = [node.name] if isinstance(node, ast.FunctionDef) else \
                [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
            out += [(c.name, n) for n in names if n in PROTOCOL]
    return out


def test_containers_share_one_protocol():
    found = protocol_overrides([_tree(p) for p in MODULES])
    assert not found, f"containers redefining the LinearCombination protocol: {found}"


def test_scanner_sees_protocol_overrides():
    tree = ast.parse(
        "class LinearCombination:\n"
        "    __hash__ = None\n"
        "    def __eq__(self, other): ...\n"
        "class _Tensor(LinearCombination):\n"
        "    def __rmul__(self, other): ...\n"
        "class Tensor2(_Tensor):\n"
        "    __hash__ = None\n"
        "    def __mul__(self, other): ...\n"
        "class Element(scalars.LinearCombination):\n"
        "    def __eq__(self, other): ...\n"
        "class Other:\n"
        "    def __eq__(self, other): ...\n")
    assert sorted(protocol_overrides([tree])) == [
        ("Element", "__eq__"), ("Tensor2", "__hash__"), ("_Tensor", "__rmul__")]


# One PASS case and one FAIL or bad-input case of every command, at
# orders <= 3: together they run every verdict path of the package.
REACH_ARGVS = [
    ["classify", "--type", "A", "--rank", "2", "--delta", "a1", "--u", "pm-a1"],
    ["classify", "--type", "A", "--rank", "2", "--delta", "a1", "--t", "a1=0"],
    ["verify-rmatrix", "--type", "A", "--rank", "2", "--delta", "a1", "--recover"],
    ["verify-rmatrix", "--type", "A", "--rank", "2", "--delta", "a1",
     "--t", "a1=1"],
    ["lagrangian", "--type", "B", "--rank", "3", "--delta", "a2,a3",
     "--u", "pm-a2"],
    ["lagrangian", "--type", "A", "--rank", "2", "--delta", "a1", "--u", "pm-a2"],
    ["abrr-check", "--order", "3"],
    ["abrr-check", "--order", "-1"],
    ["cdybe-check", "--order", "3"],
    ["cdybe-check", "--order", "0"],
    ["star", "--order", "3"],
    ["star", "--order", "4"],
    ["verma-oracle", "--v", "2", "--w", "4"],
    ["verma-oracle", "--v", "2", "--w", "2", "--mutate"],
    ["project-twist", "--order", "3"],
    ["project-twist", "--order", "3", "--variant", "chevalley"],
    ["project-twist", "--order", "-1"],
]

# The child process imports sympy first, so that only the package's own
# import runs under the profiler, then records the code object of every
# Python call that any of the argument vectors makes.
_REACH_SCRIPT = """
import contextlib, io, json, sys
import sympy
reached = set()
def profile(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
from dynstar import cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.run(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""

# Functions no argument vector reaches, each with the reason it stays.
UNREACHED_ALLOWED = {
    "enveloping.UEAElement.__pow__": "the power notation of the demos and of "
                                     "the tests' oracles",
    "scalars.FieldElement.__rsub__": "perfbench/tracer.py wraps it by name",
    "scalars.FieldElement.is_one": "perfbench/tracer.py wraps it by name",
    "orbits.invariant_derivative": "perfbench/tracer.py wraps it by name",
    "scalars.FieldElement.expr": "the sympy bridge of the tests' oracles",
    "scalars.terms_repr": "the repr of every sparse container",
    "cli.main": "the process entry point: it only calls run() and exits",
}


# Called by printing, hashing and comparison, which no verdict needs.
EXEMPT_DUNDERS = ("__repr__", "__str__", "__hash__", "__eq__")


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> dotted name of every
    function and method of the package, operator dunders included; only
    the printing and comparison protocol (``EXEMPT_DUNDERS``) is left out.
    A decorated function's code starts at its first decorator."""
    out = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if child.name not in EXEMPT_DUNDERS:
                    line = min([d.lineno for d in child.decorator_list]
                               + [child.lineno])
                    out[str(path), line] = name
                visit(child, name, path)
            else:
                visit(child, prefix, path)

    for path in MODULES:
        visit(_tree(path), path.stem, path.resolve())
    return out


def test_every_function_is_reached():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    child = subprocess.run(
        [sys.executable, "-c", _REACH_SCRIPT, json.dumps(REACH_ARGVS)],
        capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr[-2000:]
    result = json.loads(child.stdout)
    # a PASS and a FAIL or bad input of every command
    commands = {argv[0]: set() for argv in REACH_ARGVS}
    for argv, code in zip(REACH_ARGVS, result["codes"]):
        commands[argv[0]].add(code)
    assert all(0 in codes and codes - {0} for codes in commands.values()), commands
    reached = {(str(pathlib.Path(f).resolve()), line)
               for f, line in result["reached"]}
    defined = defined_functions()
    assert set(UNREACHED_ALLOWED) <= set(defined.values())
    unreached = sorted(name for key, name in defined.items()
                       if key not in reached and name not in UNREACHED_ALLOWED)
    assert not unreached, f"functions no verdict reaches: {unreached}"
