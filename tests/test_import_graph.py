"""The import-graph rule: pool and portal modules never load the seismic
stack at import.

``repro.core`` imports its submodules eagerly, and the pool, WfFormat,
portal and service paths all import it. Its runner and checkpoint load
:mod:`repro.seismo` (and with it ``scipy.linalg``) only where a run
executes its phases or writes its archive. Each probe is a fresh
interpreter, since this test process has long loaded everything.

The functions the runner calls by name and the e2e harness
(``benchmarks/e2e/layers.py``) wraps where the runner looks them up
stay bound at its import, so they live in modules that load no seismic
code. The harness itself must still find every entry point it wraps:
a moved method or import breaks each traced benchmark run, and the
harness's own tests are outside this suite.

Every module under ``src/repro`` is also part of a program: the CLI, or
a module that a benchmark or an example imports, loads it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(_ROOT / "src")
_PACKAGE = _ROOT / "src" / "repro"
_LAYERS = str(_ROOT / "benchmarks" / "e2e" / "layers.py")

_LOADED = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(
    m for m in sys.modules
    if m.split(".")[:2] in (["scipy", "linalg"], ["repro", "seismo"])
)))
"""

_BOUND = """
import sys
import repro.core.local as local
assert not [m for m in sys.modules if m.startswith("repro.seismo")]
from repro.core import gfcache
from repro.seismo import mudpy_io
assert local.publish_shared_bank is gfcache.publish_shared_bank
assert local.attach_shared_bank is gfcache.attach_shared_bank
assert local.write_rupt is mudpy_io.write_rupt
print("ok")
"""

_EXPORTS = """
import repro.core, repro.seismo
for package in (repro.core, repro.seismo):
    for name in package.__all__:
        getattr(package, name)
print("ok")
"""


_WRAPPERS = """
import importlib.util, inspect, sys
spec = importlib.util.spec_from_file_location("e2e_layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = layers
spec.loader.exec_module(layers)
def bound():
    return [
        inspect.getattr_static(place, t.attr)
        for t in layers.TARGETS
        for place in (layers._resolve(t.owner), *map(importlib.import_module, t.lookups))
    ]
before = bound()
uninstall = layers.install(layers.SpanRecorder())
assert all(now is not then for now, then in zip(bound(), before))
uninstall()
assert all(now is then for now, then in zip(bound(), before))
print(len(layers.TARGETS))
"""


def _run(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "module",
    ["repro.wf", "repro.osg", "repro.condor", "repro.service", "repro.vdc", "repro.core.config"],
)
def test_pool_and_portal_imports_load_no_seismic_stack(module):
    assert json.loads(_run(_LOADED, module)) == []


def test_package_exports_resolve():
    """The deferred imports removed no name from either package."""
    assert _run(_EXPORTS).split() == ["ok"]


def test_runner_binds_the_wrapped_functions_without_the_seismic_stack():
    """``repro.core.local`` holds the shared-bank helpers and the
    ``.rupt`` writer as the objects their owner modules export."""
    assert _run(_BOUND).split() == ["ok"]


def test_e2e_harness_wraps_every_target():
    """``install`` finds each wrapped method and function on its owner
    and in every module that looks it up, and ``uninstall`` restores
    them all."""
    assert int(_run(_WRAPPERS, _LAYERS)) > 0


def _module_name(path: Path) -> str:
    parts = path.relative_to(_PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path, modules: set[str]) -> set[str]:
    """The ``repro`` modules ``path`` imports anywhere in its body,
    inside functions too, with the packages that hold them."""
    names: list[str] = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    found = set()
    for name in names:
        parts = name.split(".")
        found.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return found & modules


def test_every_module_is_reachable_from_a_program():
    """No module under ``src/repro`` is orphaned: each is in the static
    import closure of ``repro.cli`` or of a module that a file under
    ``benchmarks/`` or ``examples/`` imports."""
    files = {_module_name(path): path for path in _PACKAGE.rglob("*.py")}
    modules = set(files)
    todo = {"repro.cli"}
    for top in ("benchmarks", "examples"):
        for path in (_ROOT / top).rglob("*.py"):
            todo |= _imports(path, modules)
    reached: set[str] = set()
    while todo:
        module = todo.pop()
        reached.add(module)
        todo |= _imports(files[module], modules) - reached
    assert sorted(modules - reached) == []
