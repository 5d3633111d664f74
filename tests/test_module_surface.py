"""Every logsod module exports what its __all__ names and imports nothing it
leaves unused, so a name retired from a module takes its imports with it."""

import ast
import importlib
import pathlib

import pytest

import logsod

MODULES = sorted(p.stem for p in pathlib.Path(logsod.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_and_imports_are_used(name):
    mod = importlib.import_module(f"logsod.{name}")
    exported = getattr(mod, "__all__", ())
    assert [e for e in exported if not hasattr(mod, e)] == []
    exec(f"from logsod.{name} import *", {})
    tree = ast.parse(pathlib.Path(mod.__file__).read_text(encoding="utf-8"))
    imported = {
        (a.asname or a.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for a in node.names
    }
    # A name listed in __all__ is used: the module re-exports it.
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - read - set(exported)) == []
