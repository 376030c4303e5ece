"""Static checks on the library source, standing in for a linter."""

import ast
from pathlib import Path

import pytest

import trendsax

SOURCES = sorted(Path(trendsax.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import and never read, nor listed in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    source = "import csv\nimport io\nfrom json import dumps, loads\n__all__ = ['loads']\nio.StringIO()\n"
    assert unused_imports(source) == ["line 1: csv", "line 3: dumps"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []
