"""The library steps its ODEs in one place, imports only the scipy it runs and starts no process or thread.

``profile_ode.shoot`` is the one stepping loop; it reads the DOP853 tableau
from the in-repo copy ``dop853_coefficients`` and never builds scipy's solver
object, and no module imports from scipy's private ``_``-prefixed modules.
Importing the library loads no scipy at all: only the PDE sweeps need it,
for LAPACK's ``dptsv`` (``dgtsv`` on grids that cannot be symmetrised), and
the first sweep of a run imports it. No module
imports ``concurrent.futures``, ``multiprocessing``, ``threading`` or
``subprocess``: every command runs in the calling process.
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
CONCURRENCY = {"concurrent.futures", "multiprocessing", "threading", "subprocess"}


def _banned_module(module: str | None) -> bool:
    """scipy's private modules, and every module that starts a process or thread."""
    parts = (module or "").split(".")
    private_scipy = parts[0] == "scipy" and any(part.startswith("_") for part in parts[1:])
    return private_scipy or any(".".join(parts[:n]) in CONCURRENCY for n in (1, 2))


def violations(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            _banned_module(node.module) or any(_banned_module(f"{node.module}.{alias.name}") for alias in node.names)
        ):
            found.append(f"from {node.module} import")
        elif isinstance(node, ast.Import):
            found += [f"import {alias.name}" for alias in node.names if _banned_module(alias.name)]
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
        "from concurrent.futures import ProcessPoolExecutor\n"
    )
    assert len(violations(source)) == 5


def modules_after(statement: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``statement``."""
    code = f"import json, sys; {statement}; print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_the_library_import_skips_integrate_optimize_and_special():
    # nor anything else of scipy: not at the benchmark's import, not at the CLI's
    assert modules_after("import selfsim, selfsim.pde, selfsim.reporting") == []
    assert modules_after("import selfsim.cli") == []


def test_the_first_sweep_loads_lapack():
    run = (
        "from selfsim import make_params; from selfsim.pde import PdeConfig, RadialGrid, make_initial, "
        "run_to_extinction; cfg = PdeConfig(params=make_params(3, 1.97)); "
        "run_to_extinction(cfg, make_initial(cfg, RadialGrid(15.3, 8)))"
    )
    loaded = modules_after(run)
    assert "scipy.linalg" in loaded
    assert not {"scipy.integrate", "scipy.optimize", "scipy.special"} & set(loaded)


def test_the_profile_side_imports_no_scipy():
    assert modules_after("import selfsim") == []
