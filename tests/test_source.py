"""Static checks on the library source, standing in for a linter."""

import ast
from pathlib import Path

import pytest

import trendsax

SOURCES = sorted(Path(trendsax.__file__).parent.glob("*.py"))

# the import stack: each module may import only the modules before it
LAYERS = ("core", "segmentation", "distance", "dataset", "classify", "benchmark", "cli")


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


def library_imports(source: str) -> set[str]:
    """The ``trendsax`` modules that ``source`` imports at run time, so not under ``if TYPE_CHECKING:``."""
    tree = ast.parse(source)
    hints = {id(node) for block in ast.walk(tree)
             if isinstance(block, ast.If) and isinstance(block.test, ast.Name) and block.test.id == "TYPE_CHECKING"
             for statement in block.body for node in ast.walk(statement)}
    modules = set()
    for node in ast.walk(tree):
        if id(node) in hints:
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "trendsax":
            names = [f"trendsax.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        modules.update(name.split(".")[1] for name in names if name.startswith("trendsax."))
    return modules


def test_finds_library_imports():
    source = ("from typing import TYPE_CHECKING\nimport numpy\nimport trendsax.core\nfrom trendsax import dataset\n"
              "from trendsax.distance import mindist\nif TYPE_CHECKING:\n    from trendsax.cli import main\n"
              "else:\n    from trendsax.segmentation import segment\n")
    assert library_imports(source) == {"core", "dataset", "distance", "segmentation"}


def test_the_stack_names_every_module():
    assert {path.stem for path in SOURCES} - {"__init__", "__main__"} == set(LAYERS)


@pytest.mark.parametrize("layer", LAYERS)
def test_each_module_imports_only_the_modules_before_it(layer):
    source = (Path(trendsax.__file__).parent / f"{layer}.py").read_text()
    assert library_imports(source) <= set(LAYERS[:LAYERS.index(layer)])


def pair_dist_squares(source: str) -> list[int]:
    """Lines that square a ``pair_dist`` or cast one to float32: a power, a product or a call on it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Pow, ast.Mult)):
            operands = [node.left, node.right]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in (
                "astype", "square", "power", "multiply", "float32", "asarray", "array"):
            operands = [node.func.value, *node.args]
        else:
            continue
        if any(isinstance(inner, ast.Attribute) and inner.attr == "pair_dist"
               for operand in operands for inner in ast.walk(operand)):
            lines.append(node.lineno)
    return lines


def test_finds_a_squared_pair_dist():
    source = ("a = table.pair_dist**2\nb = t.pair_dist * t.pair_dist\nc = t.pair_dist.astype(np.float32)\n"
              "d = np.square(t.pair_dist)\ne = t._sq\nf = t.pair_dist[0, 2]\n")
    assert pair_dist_squares(source) == [1, 2, 3, 4]


@pytest.mark.parametrize("path", [path for path in SOURCES if path.stem != "core"], ids=lambda path: path.name)
def test_only_the_table_squares_its_distances(path):
    # AlphabetTable builds _sq and _sq32 once; the word distances read them
    assert pair_dist_squares(path.read_text()) == []


# an internal format and the modules that may use it: its owner and the layer that
# consumes it; the bound audit takes block means of raw pairs, so distance may too;
# the zero rule for constant rows, and the choice between searching and counting
# symbols, have core as their one user; only benchmark turns a dataset directory
# into reports, so `trendsax evaluate` runs a benchmark row's code: the streamed
# test split and the scoring of its blocks have benchmark as their one user
# outside their module, and the whole-split path is the package's alone
FORMAT_USERS = {
    "_sq": {"core", "distance"},
    "_sq32": {"core", "distance"},
    "_stats": {"core", "dataset"},
    "_row_stats": {"core", "dataset"},
    "_block_means": {"core", "dataset", "distance"},
    "_DEGENERATE_STD": {"core"},
    "_SEARCH_MEANS": {"core"},
    "searchsorted": {"core"},
    "_evaluate": {"classify", "benchmark"},
    "_stream_dataset_pair": {"dataset", "benchmark"},
    "evaluate": {"classify", "__init__"},
    "load_dataset_pair": {"dataset", "__init__"},
}


def names_used(source: str) -> set[str]:
    """Names that ``source`` loads, imports from a module, or reaches as an attribute."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_finds_used_names():
    source = ("from trendsax.core import _block_means as means\nx = t._sq\nt._sq32 = x\n"
              "def _stats():\n    return _row_stats\n_unread = 1\n")
    assert names_used(source) == {"_block_means", "t", "_sq", "_sq32", "x", "_row_stats"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_each_format_is_used_only_by_its_owners(path):
    used = names_used(path.read_text())
    assert [name for name, users in FORMAT_USERS.items() if name in used and path.stem not in users] == []

