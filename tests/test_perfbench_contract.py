"""The names the benchmark scripts take from permpack still exist.

The scripts under perfbench/ are read as source only: parsed with ast,
never imported or run.  Every name imported from a permpack module,
every (module, function) pair the tracer wraps, and every attribute read
off an imported permpack module must resolve in the current package.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def _resolve(dotted: str):
    """The object a dotted permpack name refers to, importing submodules
    on the way; AttributeError or ImportError when it is missing."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            # a submodule not yet imported by its package
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def _permpack_module(name: str | None) -> bool:
    return name is not None and (name == "permpack" or name.startswith("permpack."))


def _used_names(tree: ast.AST) -> set[str]:
    """Dotted permpack names the script imports or reads."""
    used: set[str] = set()
    modules: dict[str, str] = {}  # local name -> permpack module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _permpack_module(node.module):
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                used.add(full)
                modules[alias.asname or alias.name] = full
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _permpack_module(alias.name):
                    used.add(alias.name)
                    # `import permpack.cli` binds permpack
                    modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else "permpack")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        root = node
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id in modules:
            base = modules[root.id]
            try:
                is_module = isinstance(_resolve(base), types.ModuleType)
            except (AttributeError, ImportError):
                continue  # the import itself is reported
            if is_module:
                used.add(".".join([base, *reversed(chain)]))
    return used


def _traced_pairs() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "TRACED"):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED list")


def test_perfbench_scripts_are_present():
    assert PERFBENCH / "tracing.py" in SCRIPTS
    assert PERFBENCH / "workloads.py" in SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_perfbench_names_exist(script):
    for dotted in sorted(_used_names(ast.parse(script.read_text()))):
        try:
            _resolve(dotted)
        except (AttributeError, ImportError):
            pytest.fail(f"{script.name} uses {dotted}, which permpack no longer has")


def test_traced_functions_exist():
    pairs = _traced_pairs()
    assert pairs
    for modname, fname in pairs:
        assert callable(getattr(importlib.import_module(f"permpack.{modname}"), fname, None)), (
            f"perfbench traces permpack.{modname}.{fname}, which does not exist")


def test_cli_import_loads_every_traced_module():
    # the tracer of the CLI workload wraps sys.modules["permpack." + mod]
    # right after `import permpack.cli`, so that import must load each
    # traced module itself
    src = pathlib.Path(importlib.import_module("permpack").__file__).resolve().parent.parent
    code = "import json, sys, permpack.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    loaded = set(json.loads(proc.stdout))
    missing = {f"permpack.{mod}" for mod, _ in _traced_pairs()} - loaded
    assert not missing, f"import permpack.cli leaves {sorted(missing)} unloaded"
