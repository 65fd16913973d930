"""Every definition in the package is used by the package or by the demos.

A top-level function or class, or a non-dunder method, defined in
src/layerq/ must be referred to by name somewhere in src/layerq/ outside
__init__.py (which only re-exports) or in demos/. Anything that only tests
call belongs in tests/reference.py, next to the tests that pin it. The scan is
by name: a call, an attribute access or an import of the name counts as a
reference, so a method counts as used when any object's attribute of that name
is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "layerq"
DEMOS = ROOT / "demos"

# Definitions that stay although nothing refers to them, each with its reason.
ALLOWED: dict[str, str] = {}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(tree: ast.Module):
    """(qualified name, bare name) of the top-level functions and classes and
    of the classes' non-dunder methods."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_definition_is_referenced():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5  # the scan found the package
    used = set()
    for path in sources + sorted(DEMOS.glob("*.py")):
        if path.name != "__init__.py":
            used |= referenced_names(parse(path))
    dead = [
        f"{path.name}: {qualified}"
        for path in sources
        for qualified, name in definitions(parse(path))
        if name not in used and qualified not in ALLOWED
    ]
    assert dead == []


def test_the_scan_flags_an_unreferenced_method():
    tree = ast.parse(
        "class A:\n"
        "    def used(self): return self.other()\n"
        "    def other(self): return 1\n"
        "    def dead(self): return 2\n"
        "    def __len__(self): return 0\n"
        "def helper(): return A().used()\n"
    )
    used = referenced_names(tree)
    dead = [q for q, name in definitions(tree) if name not in used]
    assert dead == ["A.dead", "helper"]
