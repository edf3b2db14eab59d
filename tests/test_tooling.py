"""The library steps its ODEs in one place and imports only the scipy it runs.

``profile_ode.shoot`` is the one stepping loop; it reads the DOP853 tableau
from the in-repo copy ``dop853_coefficients`` and never builds scipy's solver
object, and no module imports from scipy's private ``_``-prefixed modules.
Importing the library loads no ``scipy.integrate``, ``scipy.optimize`` or
``scipy.special``: only the PDE module needs scipy, for LAPACK's ``dgtsv``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).parents[1] / "src" / "selfsim").glob("*.py"))
BANNED_CALLS = {"DOP853", "solve_ivp"}


def _private_scipy(module: str | None) -> bool:
    parts = (module or "").split(".")
    return parts[0] == "scipy" and any(part.startswith("_") for part in parts[1:])


def violations(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and _private_scipy(node.module):
            found.append(f"from {node.module} import")
        elif isinstance(node, ast.Import):
            found += [f"import {alias.name}" for alias in node.names if _private_scipy(alias.name)]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in BANNED_CALLS:
                found.append(f"{name}(...) at line {node.lineno}")
    return found


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_public_scipy_and_one_stepper(path):
    assert violations(path.read_text()) == []


def test_the_guard_sees_what_it_bans():
    source = (
        "from scipy.integrate._ivp.rk import rk_step\n"
        "import scipy._lib\n"
        "from scipy.integrate import DOP853, solve_ivp\n"
        "DOP853(f, 0, y, 1)\n"
        "scipy.integrate.solve_ivp(f, (0, 1), y)\n"
        "A = DOP853.A\n"
    )
    assert len(violations(source)) == 4


def modules_after(statement: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``statement``."""
    code = f"import json, sys; {statement}; print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_the_library_import_skips_integrate_optimize_and_special():
    loaded = modules_after("import selfsim, selfsim.pde, selfsim.reporting")
    subpackages = {m.split(".")[1] for m in loaded if "." in m}
    assert "linalg" in subpackages
    assert subpackages.isdisjoint({"integrate", "optimize", "special"})


def test_the_profile_side_imports_no_scipy():
    assert modules_after("import selfsim") == []
