"""Source hygiene: every module-level import of the package is used, every
exported name exists, every error class is raised and is either caught by
name or builds its own message, only the worker helper forks, and each
command loads only the modules it runs."""

import ast
import importlib
import pathlib
import subprocess
import sys

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


def test_models_exports_one_fit_and_no_test_helpers():
    import airpolicy.models

    assert sorted(airpolicy.models.__all__) == [
        "HYPER_DEFAULTS", "KINDS", "ModelSpec", "TrainedModel", "fit",
        "load_model", "model_from_json", "model_to_json", "save_model"]


def raised_names(source: str) -> set[str]:
    """The names the source raises: ``X`` of ``raise X``, ``raise X(...)`` and
    ``raise m.X(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_guard_finds_raised_names():
    source = "raise A('x')\nraise B\nraise m.C(1) from None\ntry:\n    f()\nexcept D:\n    raise\n"
    assert raised_names(source) == {"A", "B", "C"}


def test_every_error_class_is_raised():
    """A class of errors.py that no code raises is dead; a base class other
    classes derive from is caught, not raised."""
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases}
    raised = set().union(*(raised_names(p.read_text(encoding="utf-8"))
                           for p in PACKAGE.rglob("*.py")))
    assert [c.name for c in classes if c.name not in bases | raised] == []


def _names(node) -> set[str]:
    """``X`` of ``X`` and ``m.X``, and of each element of a tuple of them."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    return {node.attr} if isinstance(node, ast.Attribute) else set()


def caught_names(source: str) -> set[str]:
    """The names the source's ``except`` clauses catch, a module-level tuple
    constant such as ``_ERRORS = (A, B)`` counting as its elements."""
    tree = ast.parse(source)
    constants = {target.id: _names(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                 for target in node.targets if isinstance(target, ast.Name)}
    caught = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for name in _names(node.type):
                caught |= constants.get(name, {name})
    return caught


def test_guard_finds_caught_names():
    source = ("E = (A, m.B)\ntry:\n    f()\nexcept E:\n    pass\nexcept (C, m.D) as e:\n"
              "    pass\nexcept F:\n    raise G\nexcept:\n    pass\n")
    assert caught_names(source) == {"A", "B", "C", "D", "F"}


def test_every_error_class_is_caught_or_builds_its_message():
    """A class that no caller catches by name and that formats no message of
    its own tells a caller nothing its base class does not: raise the class
    its callers catch instead."""
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    caught = set().union(*(caught_names(p.read_text(encoding="utf-8"))
                           for p in PACKAGE.rglob("*.py")))
    own_message = {node.name for node in tree.body if isinstance(node, ast.ClassDef)
                   and any(isinstance(f, ast.FunctionDef) and f.name == "__init__"
                           for f in node.body)}
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)
            and node.name not in caught | own_message] == []


def module_calls(source: str, module: str, names: tuple[str, ...]) -> int:
    """How many times the source calls ``module.<name>`` for a name in ``names``."""
    return sum(1 for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr in names and isinstance(node.func.value, ast.Name)
               and node.func.value.id == module)


def fork_calls(source: str) -> int:
    """How many times the source calls ``os.fork``."""
    return module_calls(source, "os", ("fork",))


def test_guard_finds_a_fork_call():
    assert fork_calls("import os\n\npid = os.fork()\n") == 1
    assert fork_calls("import os\n\nhasattr(os, 'fork')\n") == 0


def test_only_the_worker_helper_forks():
    forking = [str(p.relative_to(PACKAGE)) for p in MODULES
               if fork_calls(p.read_text(encoding="utf-8"))]
    assert forking == ["workers.py"]


def test_guard_finds_json_and_csv_writer_calls():
    source = "import csv, json\n\njson.dump(1, f)\njson.dumps(2)\njson.loads('3')\ncsv.writer(f)\n"
    assert module_calls(source, "json", ("dump", "dumps")) == 2
    assert module_calls(source, "csv", ("writer",)) == 1


@pytest.mark.parametrize("module, names, writers", [
    # dataset.write_json and write_csv, plus the streaming model writer.
    ("json", ("dump", "dumps"), ["dataset.py", "models/base.py"]),
    ("csv", ("writer",), ["dataset.py"]),
])
def test_only_the_dataset_writers_format_json_and_csv(module, names, writers):
    calling = [str(p.relative_to(PACKAGE)) for p in MODULES
               if module_calls(p.read_text(encoding="utf-8"), module, names)]
    assert calling == writers


# A command prints the package modules it loaded to stderr as it exits.
_LIST_MODULES = """\
import sys
from airpolicy.cli import main
code = main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m.split(".")[0] == "airpolicy"), file=sys.stderr)
sys.exit(code)
"""

# The modules each command must not load: the learners, the DTW screen, the
# worker helper, the report and the generator cost a process their import
# and, without a bytecode cache, their compilation.
NOT_LOADED = {
    "benchmark": {"similarity", "synth"},
    "ingest": {"models", "evaluation", "similarity", "workers", "report", "synth"},
    "screen": {"models", "evaluation", "synth"},
    "predict": {"similarity", "evaluation", "workers", "synth"},
}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A synthetic config and an output directory holding its cities and a CO linreg model."""
    from airpolicy.cli import main

    root = tmp_path_factory.mktemp("modules")
    sets = ['--set=pollutants=["CO"]', '--set=models.kinds=["linreg"]',
            "--set=predict.kind=linreg"]
    cfg = str(root / "synth" / "config.json")
    out = str(root / "run")
    assert main(["synth", "--out", str(root / "synth")]) == 0
    assert main(["ingest", "--config", cfg, "--out", out]) == 0
    assert main(["benchmark", "--config", cfg, "--out", out, "--jobs", "1", *sets]) == 0
    return cfg, out, sets


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_command_loads_only_its_own_modules(small_run, command):
    cfg, out, sets = small_run
    proc = subprocess.run([sys.executable, "-c", _LIST_MODULES, command,
                           "--config", cfg, "--out", out, "--jobs", "1", *sets],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {m.split(".")[1] for m in proc.stderr.split() if "." in m}
    assert loaded & NOT_LOADED[command] == set(), sorted(loaded)
