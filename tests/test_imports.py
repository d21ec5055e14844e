"""The exact modules import only the standard library and each other."""
import ast
import sys
from pathlib import Path

import pytest

import pwuncert

EXACT_MODULES = ("poly", "piecewise", "moments", "bspline", "dictionaries")


def imported_modules(name):
    """Top-level names imported by a module; relative ones keep a leading dot."""
    path = Path(pwuncert.__file__).parent / f"{name}.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield "." + node.module.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield from ("." + alias.name for alias in node.names)


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_exact_module_imports_stdlib_and_exact_modules_only(name):
    for module in imported_modules(name):
        if module.startswith("."):
            assert module[1:] in EXACT_MODULES, f"{name} imports {module}"
        else:
            assert module in sys.stdlib_module_names, f"{name} imports {module}"
