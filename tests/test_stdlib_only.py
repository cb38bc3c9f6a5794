"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import autsplit

PACKAGE = Path(autsplit.__file__).parent


def outside_imports(tree):
    """Top-level modules imported anywhere in tree that are neither in the
    standard library nor relative or absolute imports of autsplit."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "autsplit" and top not in sys.stdlib_module_names:
                found.add(name)
    return found


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not outside_imports(tree), path.name


def test_guard_sees_nested_and_dotted_imports():
    tree = ast.parse("import os\n"
                     "from . import series\n"
                     "from autsplit.series import LaurentSeries\n"
                     "def f():\n"
                     "    import numpy.linalg\n"
                     "    from sympy import factorint\n"
                     "    return [__import__('json')]\n")
    assert outside_imports(tree) == {"numpy.linalg", "sympy"}
