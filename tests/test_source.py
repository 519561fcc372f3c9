"""Checks on the package's source text."""

import ast

from conftest import SRC
from entmi import errors


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


def _environment_reads(path):
    """``file:line: name`` of each ``os.environ``/``os.getenv`` that ``path`` reads."""
    names = {"environ", "environb", "getenv", "getenvb"}
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in names]
    return [f"{path.name}:{line}: {name}" for line, name in found]


def test_no_module_reads_the_environment():
    # A run is set by its command line alone.
    modules = sorted((SRC / "entmi").glob("*.py"))
    assert modules
    assert [entry for path in modules for entry in _environment_reads(path)] == []


def _foreign_raises(path, allowed):
    """``file:line: name`` of each ``raise X(...)`` in ``path`` whose ``X`` is not in ``allowed``."""
    tree = ast.parse(path.read_text(), str(path))
    return [f"{path.name}:{node.lineno}: {ast.unparse(node.exc.func)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and ast.unparse(node.exc.func) not in allowed]


def test_every_raise_is_an_entmi_or_os_error():
    # A bad argument surfaces as an EntmiError; a bare ``raise`` or a
    # re-raised name (``raise part``) passes on an error already made.
    allowed = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.EntmiError)}
    allowed |= {"OSError", "ChildProcessError", "SystemExit"}
    modules = sorted((SRC / "entmi").glob("*.py"))
    assert modules
    assert [entry for path in modules for entry in _foreign_raises(path, allowed)] == []


def test_every_error_class_has_a_raiser():
    # An error class that no ``raise`` names is API that nothing can produce.
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.EntmiError)
               and value is not errors.EntmiError}
    raised = set()
    for path in (SRC / "entmi").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                call = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(call))
    assert classes
    assert sorted(classes - raised) == []
