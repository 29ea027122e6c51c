"""Every error class the package defines is raised by the package.

A static scan with the standard library's ``ast``: each ``FdcError``
subclass in ``errors.py`` must appear in some ``raise`` statement of a
``src/fdc`` module, so an error class outlives its last raiser only until
this test runs.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "fdc"


def error_classes(source):
    """Names of the classes in ``source`` that derive from FdcError."""
    derived = {"FdcError"}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in derived for b in node.bases):
            derived.add(node.name)
    return derived - {"FdcError"}


def raised_names(source):
    """Names raised in ``source``: ``raise X``, ``raise X(...)`` and
    ``raise module.X(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_scan_finds_an_unraised_class():
    errors = ("class FdcError(Exception): pass\n"
              "class A(FdcError): pass\nclass B(A): pass\nclass C(Exception): pass\n")
    assert error_classes(errors) == {"A", "B"}
    assert raised_names("def f():\n    raise A('x')\nraise errors.B\nraise\n") == {"A", "B"}


def test_every_error_class_is_raised():
    classes = error_classes((PACKAGE / "errors.py").read_text())
    raised = set().union(*(raised_names(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert classes and sorted(classes - raised) == []
