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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level names defined in one of ``sources`` and read in none of them."""
    defined, read = {}, set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            for target in targets:
                if target.startswith("_") and not target.startswith("__"):
                    defined[f"{name}: {target}"] = target
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [where for where, target in defined.items() if target not in read]


def test_finds_an_unused_import():
    source = "import csv\nimport io\nfrom json import dumps, loads\n__all__ = ['loads']\nio.StringIO()\n"
    assert unused_imports(source) == ["line 1: csv", "line 3: dumps"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unread_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_SPARE = 4\ndef _helper():\n    return _LIMIT\nclass _Old:\n    pass\n",
        "b.py": "import a\nprint(a._helper())\n",
    }
    assert unread_private_names(sources) == ["a.py: _SPARE", "a.py: _Old"]


def test_every_private_name_is_read_in_the_library():
    assert unread_private_names({path.name: path.read_text() for path in SOURCES}) == []
