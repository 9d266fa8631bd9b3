"""No function in trisym calls itself, so the depth of a tree is bounded by
memory, not by the interpreter's recursion limit.

The only recursions allowed walk the oracle's shapes, which have at most
oracle.MAX_LEAVES leaves."""

import ast
from pathlib import Path

import trisym

BOUNDED = {"oracle.rooted_shapes", "oracle._grow_below", "oracle._labellings.rec",
           "oracle._materialize.add"}


def _calls_itself(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                return True
    return False


def self_calls(module: str, source: str) -> list[str]:
    """Qualified names (module.outer.inner) of every function in the source,
    nested ones and methods included, whose body calls the function itself."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                    found.append(name)
                visit(child, name)
            else:
                visit(child, prefix)

    visit(ast.parse(source), module)
    return found


def test_the_guard_finds_nested_functions_and_methods():
    source = ("def flat(n):\n    return n\n"
              "def outer():\n    def inner(n):\n        return inner(n - 1)\n    return inner\n"
              "class C:\n    def m(self):\n        return self.m()\n")
    assert self_calls("mod", source) == ["mod.outer.inner", "mod.C.m"]


def test_no_function_calls_itself():
    found = set()
    for path in sorted(Path(trisym.__file__).parent.glob("*.py")):
        found.update(self_calls(path.stem, path.read_text()))
    assert found >= BOUNDED, "the allowlist names a function that no longer recurses"
    assert sorted(found - BOUNDED) == []
