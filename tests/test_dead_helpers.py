"""No private helper outlives its last caller.

A private module-level name (function, class or assignment) or private
method of `chromatic_hbt` must be loaded somewhere in the package's own
source, as a name or an attribute; what the tests load does not count.
"""

import ast
from pathlib import Path

import chromatic_hbt

PACKAGE = Path(chromatic_hbt.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree: ast.Module):
    """(name, line) of each private module-level name and private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno


def _loads(tree: ast.Module):
    """Every name and attribute that the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_private_helper_is_loaded_by_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    loaded = {name for tree in trees.values() for name in _loads(tree)}
    dead = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _definitions(tree)
        if _private(name) and name not in loaded
    ]
    assert dead == [], f"private names that no package code loads: {dead}"
