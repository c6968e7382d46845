"""Source hygiene: every module-level import of the package is used, every
exported name exists, and only the worker helper forks."""

import ast
import importlib
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "airpolicy"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing else names."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_guard_finds_an_unused_import():
    assert unused_imports("import csv\nimport json\n\njson.dumps(1)\n") == ["csv"]
    assert unused_imports("from a import b as c\nimport d.e\n\nc(d)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", ["airpolicy", "airpolicy.models"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert all(hasattr(mod, name) for name in mod.__all__), [
        name for name in mod.__all__ if not hasattr(mod, name)]
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def fork_calls(source: str) -> int:
    """How many times the source calls ``os.fork``."""
    return sum(1 for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "fork" and isinstance(node.func.value, ast.Name)
               and node.func.value.id == "os")


def test_guard_finds_a_fork_call():
    assert fork_calls("import os\n\npid = os.fork()\n") == 1
    assert fork_calls("import os\n\nhasattr(os, 'fork')\n") == 0


def test_only_the_worker_helper_forks():
    forking = [str(p.relative_to(PACKAGE)) for p in MODULES
               if fork_calls(p.read_text(encoding="utf-8"))]
    assert forking == ["workers.py"]
