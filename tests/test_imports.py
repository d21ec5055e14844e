"""The exact modules import only the standard library and each other."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pwuncert

EXACT_MODULES = ("poly", "piecewise", "moments", "bspline", "dictionaries",
                 "symmetry")


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


def test_exact_route_loads_no_numpy_or_scipy(tent_file):
    script = (
        "import sys, pwuncert, pwuncert.cli\n"
        f"assert pwuncert.cli.main(['moments', {tent_file!r}]) == 0\n"
        "loaded = sorted({'numpy', 'scipy'} & set(sys.modules))\n"
        "assert not loaded, f'loaded {loaded}'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pwuncert.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_oracle_imports_scipy_special_on_first_quadrature():
    script = (
        "import sys\n"
        "import pwuncert.spectrum as spectrum\n"
        "from pwuncert.piecewise import tent\n"
        "for name in ('scipy.special', 'numpy.polynomial'):\n"
        "    assert name not in sys.modules, f'{name} loaded at import'\n"
        "spectrum.quad_sigma_w2(tent())\n"
        "for name in ('scipy.special', 'numpy.polynomial'):\n"
        "    assert name in sys.modules, f'{name} not loaded by quadrature'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pwuncert.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
