"""The demos are run by hand, not by the suite; this checks that every
name a demo imports from semirelax still exists, without running it."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
