"""Static scans of imports and callers, with the standard library's ``ast``.

- Every name a package module imports is read in that module.
  ``__init__.py`` is exempt, because its imports are the package's
  re-exports.
- Every public top-level function and class of the package is read in some
  package module or benchmark script, or exported in ``fdc.__all__``: the
  package holds no code that only tests call.
- ``tests/reference.py`` imports numpy and the standard library only, so
  its engines share no code with the package they check.
"""

import ast
import pathlib
import sys

import pytest

import fdc

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fdc"
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


def unread_definitions(defining, reading, exported):
    """Public top-level functions and classes of the ``defining`` sources
    that no ``reading`` source reads (as a name or an attribute) and that
    are not ``exported``."""
    defined = {node.name for source in defining for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    read = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(defined - read - set(exported))


def test_caller_scan_finds_an_unread_definition():
    package = "def used(): pass\nclass Unread: pass\ndef _private(): pass\nused()\n"
    bench = "import fdc.m\nfdc.m.Exported\n"
    assert unread_definitions([package], [package, bench], ()) == ["Unread"]
    assert unread_definitions([package], [package, bench], ["Unread"]) == []
    assert unread_definitions([package], ["m.Unread = 1\n"], ()) == ["Unread", "used"]


def test_every_public_definition_has_a_caller():
    package = [p.read_text() for p in MODULES]
    bench = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    assert unread_definitions(package, package + bench, fdc.__all__) == []


def foreign_imports(source):
    """(line, module) of every import of ``source`` that is neither numpy
    nor the standard library; a relative import counts as foreign."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    return found


def test_independence_scan_finds_a_package_import():
    source = ("import math\nimport numpy as np\nfrom fractions import Fraction\n"
              "from fdc import exact\nimport fdc.linalg\nfrom . import conftest\n")
    assert foreign_imports(source) == [(4, "fdc"), (5, "fdc.linalg"), (6, ".")]


def test_reference_engines_import_numpy_and_the_standard_library_only():
    assert foreign_imports((ROOT / "tests" / "reference.py").read_text()) == []
