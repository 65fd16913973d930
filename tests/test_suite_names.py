"""The test modules themselves: a second top-level `def test_x` in a module
rebinds the name, so pytest collects only the last one and the first never
runs, with no warning."""

import ast
from collections import Counter
from pathlib import Path

import pytest

TEST_FILES = sorted(Path(__file__).resolve().parent.glob("test_*.py"))


def duplicate_test_names(source: str) -> list[str]:
    tree = ast.parse(source)
    names = Counter(
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith(("test_", "Test"))
    )
    return sorted(name for name, count in names.items() if count > 1)


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.name)
def test_no_duplicate_top_level_test_names(path):
    assert duplicate_test_names(path.read_text(encoding="utf-8")) == []


def test_duplicate_names_are_caught():
    source = "def test_a():\n    pass\n\ndef test_b():\n    pass\n\ndef test_a(x):\n    pass\n"
    assert duplicate_test_names(source) == ["test_a"]
    assert duplicate_test_names("def test_a():\n    def test_a():\n        pass\n") == []
