"""Every name the package exports is used by the package or by a demo.

A name that `layerq/__init__.py` imports but nothing in `src/layerq/` (outside
`__init__.py`) or `demos/` refers to is code only the tests call; such test
references belong in `tests/reference.py`, not in the package. A reference is
an ast Name, an Attribute or an import of the name.
"""

import ast
from pathlib import Path

import layerq

PACKAGE = Path(layerq.__file__).resolve().parent
DEMOS = PACKAGE.parents[1] / "demos"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def referenced_names(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_every_export_is_used_outside_the_tests():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    used = referenced_names(sources + sorted(DEMOS.glob("*.py")))
    exported = exported_names()
    assert len(exported) > 50  # the scan found the package's exports
    assert sorted(exported - used) == []
