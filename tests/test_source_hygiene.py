"""Source hygiene of the package, read with the stdlib ``ast`` module: no
module imports a name it never uses, and every module-level private function
or class is referenced somewhere in the package besides its own definition."""

import ast
import pathlib
from collections import Counter

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ramseyforge"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _imported_names(tree):
    """Names bound by the module's import statements, with their line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _references(tree) -> Counter:
    """Every use of a name in a tree: loaded names, attributes, imported names."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__.py"])
def test_no_unused_imports(module):
    # __init__.py is exempt: its imports are the package's re-exports
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_every_private_definition_is_referenced():
    refs = sum((_references(tree) for tree in TREES.values()), Counter())
    orphans = []
    for module, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") or not node.name.startswith("_"):
                continue
            # uses inside the definition itself (recursion) do not count
            if refs[node.name] - _references(node)[node.name] <= 0:
                orphans.append(f"{module}:{node.lineno} {node.name}")
    assert not orphans, f"private definitions nothing refers to: {orphans}"
