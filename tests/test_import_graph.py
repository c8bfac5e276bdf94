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
code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")

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


def _run(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout


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
