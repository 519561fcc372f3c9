"""Checks on the package's source text."""

import ast

from conftest import SRC


def _unused_imports(path):
    """``file:line: name`` of each name ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports to re-export.
    modules = sorted(p for p in (SRC / "entmi").glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [entry for path in modules for entry in _unused_imports(path)] == []
