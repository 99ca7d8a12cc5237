"""Every public name of a hypzeta module has a caller in the program.

The program is the package itself and the benchmark harness; tests do not
count. A name only `__init__.py` re-exports, or only its own definition
mentions, is dead API. The sources are parsed, never imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypzeta"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PROGRAM = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


def _definitions(tree: ast.Module, name: str) -> set[int]:
    """ids of every node inside a top-level definition of `name`."""
    inside = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            inside.update(id(child) for child in ast.walk(node))
    return inside


def _mentions(tree: ast.Module, name: str, skip: set[int]) -> int:
    return sum(
        1 for node in ast.walk(tree)
        if id(node) not in skip and isinstance(getattr(node, "ctx", None), ast.Load)
        and ((isinstance(node, ast.Name) and node.id == name)
             or (isinstance(node, ast.Attribute) and node.attr == name))
    )


@pytest.fixture(scope="module")
def trees():
    return {path: _tree(path) for path in PROGRAM}


def test_scan_sees_the_package_and_the_harness(trees):
    assert any(p.name == "special_functions.py" for p in trees)
    assert any(p.parent.name == "perfbench" for p in trees)
    assert sum(len(_public_names(trees[p])) for p in MODULES) > 30


def test_every_public_name_is_used_beyond_its_definition(trees):
    unused = []
    for module in MODULES:
        for name in _public_names(trees[module]):
            count = sum(
                _mentions(tree, name, _definitions(tree, name) if path == module else set())
                for path, tree in trees.items()
            )
            if count == 0:
                unused.append(f"{module.stem}.{name}")
    assert unused == []
