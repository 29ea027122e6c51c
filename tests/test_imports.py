"""Every name a package module imports is used in that module.

A static scan with the standard library's ``ast``: an import binds names,
and each bound name must be read somewhere in the module.  ``__init__.py``
is exempt, because its imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "fdc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .dataset import PointSet, load_json\nload_json(np)\n"
    assert unused_imports(source) == [(1, "os"), (3, "PointSet")]


def test_scan_reads_attribute_bases_and_nested_scopes():
    source = "import os.path\nfrom . import rng\ndef f():\n    return os.path.join(rng.BLOCK)\n"
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
