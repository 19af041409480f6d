"""Every demo runs to completion: each is copied under tmp_path, so what it
writes next to itself (demos/out/) lands there, and run in a fresh
interpreter with the package source on its path; a nonzero exit fails the
test with the demo's stderr.  The five take a few seconds in all.  A name
a demo imports from semirelax is also checked without running it, so a
renamed one is named as such."""

import ast
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def semirelax_imports(path):
    """(module, name) of each ``from semirelax... import name`` in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and module.split(".")[0] == "semirelax":
            yield from ((node.module, alias.name) for alias in node.names)


def test_every_demo_is_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(path):
    imports = list(semirelax_imports(path))
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"from {module} import {name}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, tmp_path):
    demo = shutil.copy(path, tmp_path)
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [sys.executable, demo], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
