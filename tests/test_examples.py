"""Every name an ``examples/*.py`` script imports from ``repro`` exists.

The scripts are parsed, never run: each ``import repro...`` must name a
module, and each ``from repro... import name`` must name an attribute
or a submodule of that module.  A deleted or renamed export then fails
here instead of on the first reader who runs the example.
"""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def _repro_imports(path):
    """``(module, name or None)`` for every import of ``repro`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name


def _resolves(module_name, name):
    try:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            return True
        importlib.import_module("%s.%s" % (module_name, name))
    except ModuleNotFoundError:
        return False
    return True


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    imports = list(_repro_imports(path))
    assert imports, "%s imports nothing from repro" % path.name
    missing = [
        "%s.%s" % (module, name) if name else module
        for module, name in imports
        if not _resolves(module, name)
    ]
    assert not missing, "%s imports names repro lacks: %s" % (path.name, missing)
