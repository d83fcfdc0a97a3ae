"""Source-level guards for invariants the engine relies on without re-checking.

FilteredComplex does not recompute d^2 = 0: it is an invariant of every
GradedComplex, because `GradedComplex.create` checks it densely and the one
direct constructor call, in `forms.ce_complex`, checks it sparsely.
"""

import ast
from pathlib import Path

import eqss

SOURCES = sorted(Path(eqss.__file__).parent.glob("*.py"))
ALLOWED = {("forms.py", "ce_complex")}


def direct_constructor_calls(source: str, module: str) -> set[tuple[str, str | None]]:
    """(module, enclosing function) of each direct GradedComplex(...) call."""
    tree = ast.parse(source)
    names = {"GradedComplex"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "GradedComplex" and alias.asname
    }
    found = set()

    def visit(node: ast.AST, func: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if callee in names:
                    found.add((module, func))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(tree, None)
    return found


def test_graded_complexes_are_built_only_by_checked_constructors():
    calls = set()
    for path in SOURCES:
        calls |= direct_constructor_calls(path.read_text(), path.name)
    assert calls == ALLOWED, f"unchecked GradedComplex(...) calls: {calls - ALLOWED}"


def test_guard_sees_aliased_and_qualified_calls():
    source = (
        "from eqss.linalg import GradedComplex as G\n"
        "import eqss.linalg as la\n"
        "def f():\n"
        "    return G((1,), ())\n"
        "def g():\n"
        "    return la.GradedComplex((1,), ())\n"
        "h = GradedComplex.create((1,), ())\n"
    )
    assert direct_constructor_calls(source, "m.py") == {("m.py", "f"), ("m.py", "g")}
