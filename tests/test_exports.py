"""Stale public names and dead tolerance-table entries."""

import ast
import importlib
import pkgutil
from pathlib import Path

import lapcoarse
from lapcoarse import numerics


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


def test_every_tolerance_in_the_table_is_read_by_the_package():
    """Each TOL_* entry is loaded as a name somewhere in the package's code."""
    read = set()
    for path in Path(lapcoarse.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    names = {name for name in vars(numerics) if name.startswith("TOL_")}
    assert names
    assert sorted(names - read) == []
