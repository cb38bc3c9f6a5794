"""The runtime imports nothing outside the standard library and reads no
environment variable: every setting comes from the command line."""

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


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree):
    """Line numbers in tree that read os.environ or os.getenv, as an
    attribute of os or imported from it."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in ENVIRONMENT_READERS
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            found.add(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(a.name in ENVIRONMENT_READERS for a in node.names)):
            found.add(node.lineno)
    return found


def package_trees():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_runtime_imports_only_the_standard_library():
    for path, tree in package_trees():
        assert not outside_imports(tree), path.name


def test_runtime_reads_no_environment_variable():
    for path, tree in package_trees():
        assert not environment_reads(tree), path.name


def test_guard_sees_nested_and_dotted_imports():
    tree = ast.parse("import os\n"
                     "from . import series\n"
                     "from autsplit.series import LaurentSeries\n"
                     "def f():\n"
                     "    import numpy.linalg\n"
                     "    from sympy import factorint\n"
                     "    return [__import__('json')]\n")
    assert outside_imports(tree) == {"numpy.linalg", "sympy"}


def test_guard_sees_every_environment_read():
    tree = ast.parse("import os\n"
                     "from os import getenv\n"
                     "a = os.environ.get('X')\n"
                     "def f():\n"
                     "    return os.getenv('Y'), os.environ['Z']\n"
                     "b = os.path.join('p', 'q')\n"
                     "environ = {}\n")
    assert environment_reads(tree) == {2, 3, 5}
