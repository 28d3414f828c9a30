"""Stale public names, unused exports, dead tolerance-table entries and untyped raises."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import lapcoarse
from lapcoarse import errors, numerics


def test_every_exported_name_resolves():
    modules = [lapcoarse] + [
        importlib.import_module(f"lapcoarse.{info.name}")
        for info in pkgutil.iter_modules(lapcoarse.__path__)
    ]
    stale = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert stale == []


def loaded_names(paths) -> set[str]:
    """Every name and attribute that the code in ``paths`` reads."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_tolerance_in_the_table_is_read_by_the_package():
    """Each TOL_* entry is loaded as a name somewhere in the package's code."""
    read = loaded_names(Path(lapcoarse.__file__).parent.glob("*.py"))
    names = {name for name in vars(numerics) if name.startswith("TOL_")}
    assert names
    assert sorted(names - read) == []


def test_every_root_export_is_used_or_documented():
    """A root export is read by a package module, or named under "Library use"."""
    package = Path(lapcoarse.__file__).parent
    read = loaded_names(p for p in package.glob("*.py") if p.name != "__init__.py")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library_use = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`([A-Za-z_]\w*)", library_use))
    documented |= set(re.findall(r"\blc\.([A-Za-z_]\w*)", library_use))
    unused = [name for name in lapcoarse.__all__ if name not in read | documented]
    assert unused == []


class _Raises(ast.NodeVisitor):
    """The class each ``raise`` names, and the error class each ``require`` call passes.

    A ``raise`` of a parameter of its function (``require``'s ``error``) is
    left out: the classes passed to it are collected at the calls.
    """

    def __init__(self):
        self.params: list[set[str]] = [set()]
        self.names: list[tuple[int, str]] = []

    def visit_FunctionDef(self, node):
        self.params.append({arg.arg for arg in node.args.args})
        self.generic_visit(node)
        self.params.pop()

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if exc is not None and not (isinstance(exc, ast.Name) and exc.id in self.params[-1]):
            self.names.append((node.lineno, ast.unparse(exc)))
        self.generic_visit(node)

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "require":
            self.names.append((node.lineno, ast.unparse(node.args[0])))
        self.generic_visit(node)


def test_every_raise_outside_the_cli_names_a_package_error():
    defined = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    foreign = []
    for path in sorted(Path(lapcoarse.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        visitor = _Raises()
        visitor.visit(ast.parse(path.read_text()))
        foreign += [
            f"{path.name}:{line} {name}" for line, name in visitor.names if name not in defined
        ]
    assert foreign == []
    assert issubclass(errors.InvalidOption, errors.ValidationError)
    assert issubclass(errors.InvalidOption, ValueError)


def test_only_io_builds_graphs_from_edge_lists():
    """Inside the package only ``io`` calls ``build_graph``: derived graphs come from arrays."""
    callers = []
    for path in sorted(Path(lapcoarse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "build_graph":
                    callers.append(f"{path.name}:{node.lineno}")
    assert callers and {caller.split(":")[0] for caller in callers} == {"io.py"}
