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


def _error_classes():
    """Names of the ``EntmiError`` subclasses in ``errors``, leaving out ``EntmiError``."""
    return {name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, errors.EntmiError)
            and value is not errors.EntmiError}


def _raisers_and_catches():
    """The functions that raise each error name, and the names ``except`` clauses catch.

    A function is named by its module and its enclosing definitions
    (``states._require_unit_norm``); a raise outside any function counts
    for its module.
    """
    raisers, caught = {}, set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                raisers.setdefault(ast.unparse(exc).split(".")[-1], set()).add(owner)
            elif isinstance(child, ast.ExceptHandler) and child.type is not None:
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                caught.update(ast.unparse(t).split(".")[-1] for t in types)
            visit(child, owner)

    for path in sorted((SRC / "entmi").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return raisers, caught


def test_every_error_class_has_a_raiser():
    # An error class that no ``raise`` names is API that nothing can produce.
    classes = _error_classes()
    raisers, _ = _raisers_and_catches()
    assert classes
    assert sorted(classes - raisers.keys()) == []


def test_every_error_class_is_caught_or_raised_twice():
    # A class with one raiser and no catcher tells a caller nothing that
    # DomainError and its message do not; DomainError is the catch-all.
    classes = _error_classes() - {"DomainError"}
    raisers, caught = _raisers_and_catches()
    assert classes
    assert sorted(name for name in classes
                  if name not in caught and len(raisers.get(name, ())) < 2) == []
