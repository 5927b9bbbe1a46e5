"""The public API is what the package itself runs: every name exported in
``fibspec.__all__``, and every public method of an exported class, is used
by some module of ``src/fibspec`` besides ``__init__.py``, so no public
name exists only for the tests.  And every public module-level function,
class or constant is exported or used by the package, so no orphan is
left behind when a name leaves ``__all__``.  Every exported exception is
raised by the package, so no failure type outlives its last ``raise``."""

import ast
import inspect
from pathlib import Path

import fibspec

SRC = Path(fibspec.__file__).resolve().parent


def _uses_in_src() -> tuple[set[str], set[str]]:
    """Names loaded, and attribute names, over the package's modules."""
    names, attributes = set(), set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def test_every_export_is_used_by_the_package():
    names, attributes = _uses_in_src()
    unused = sorted(set(fibspec.__all__) - names - attributes)
    assert unused == []


def _public_methods():
    """(class name, method name) of every exported class's own public
    methods, properties and class or static methods."""
    for name in fibspec.__all__:
        cls = getattr(fibspec, name)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            if not attr.startswith("_") and (
                    inspect.isfunction(value)
                    or isinstance(value, (property, classmethod, staticmethod))):
                yield name, attr


def test_every_public_method_is_used_by_the_package():
    _, attributes = _uses_in_src()
    unused = [f"{cls}.{attr}" for cls, attr in _public_methods()
              if attr not in attributes]
    assert unused == []


def _public_definitions():
    """(module, name) of every public function, class and constant defined
    at the top level of a module of the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            for name in targets:
                if not name.startswith("_"):
                    yield path.stem, name


def test_every_public_definition_is_exported_or_used():
    names, attributes = _uses_in_src()
    orphans = [f"{module}.{name}" for module, name in _public_definitions()
               if name not in fibspec.__all__ and name not in names
               and name not in attributes]
    assert orphans == []


def test_every_exported_exception_is_raised_by_the_package():
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                raised.add(node.exc.func.id)
    exceptions = [name for name in fibspec.__all__
                  if inspect.isclass(getattr(fibspec, name))
                  and issubclass(getattr(fibspec, name), BaseException)]
    assert exceptions
    assert sorted(set(exceptions) - raised) == []
