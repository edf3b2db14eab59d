"""The library steps its ODEs in one place, imports only the scipy it runs and starts no process or thread.

``profile_ode.shoot`` is the one stepping loop; it reads the DOP853 tableau
from the in-repo copy ``dop853_coefficients`` and never builds scipy's solver
object, and no module imports from scipy's private ``_``-prefixed modules.
Importing the library loads no scipy at all: only the PDE sweeps need it,
for LAPACK's ``dptsv`` (and ``dgtsv`` where a pivot of ptsv fails). The
first sweep of a run imports ``scipy`` and loads those routines from the
file of the compiled extension that ``scipy.linalg.lapack`` re-exports,
without the ``scipy.linalg`` package (``tests/test_pde_sweep.py`` checks
that they are the routines the package exports). No module
imports ``concurrent.futures``, ``multiprocessing``, ``threading`` or
``subprocess``: every command runs in the calling process. Every parameter
of every library function is read in its body, and none takes or holds a
``Params`` or a ``PdeConfig`` beside a run that carries its own. A private
function's default is a fallback some call in ``src/`` or ``scripts/`` takes. Under the
suite's warning filters a failing property test still shows its falsifying
example.
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


def unread_parameters(source: str) -> list[str]:
    """Parameters no function body reads, but self, cls, *args, **kwargs and _-prefixed names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg not in read and arg.arg not in ("self", "cls") and not arg.arg.startswith("_"):
                found.append(f"{getattr(node, 'name', 'lambda')}({arg.arg}) at line {node.lineno}")
    return found


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_the_parameter_guard_sees_what_it_flags():
    source = (
        "def f(self, a, b, *args, _c, d=1, **kwargs):\n"
        "    b = 2\n"
        "    return lambda e, g: [a + g for _ in args]\n"
        "def h(x):\n"
        "    def inner():\n"
        "        return x\n"
        "    return inner\n"
    )
    assert unread_parameters(source) == ["f(b) at line 1", "f(d) at line 1", "lambda(e) at line 3"]


PRODUCTION = SRC + sorted((Path(__file__).parents[1] / "scripts").glob("*.py"))


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _passes(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether call passes the parameter name, at position index if it has one; an unpacked *args may not."""
    if any(keyword.arg == name for keyword in call.keywords):
        return True
    known = [] if any(isinstance(arg, ast.Starred) for arg in call.args) else call.args
    return index is not None and index < len(known)


def defaults_every_call_passes(sources: dict[str, str]) -> list[str]:
    """Defaulted parameters of private (_-prefixed, not dunder) functions that every call in sources passes:
    a fallback that no caller takes. Calls are matched by the function's name; one that never runs is left alone."""
    trees = {label: ast.parse(source) for label, source in sources.items()}
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    found = []
    for label, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or not node.name.startswith("_"):
                continue
            if node.name.startswith("__"):  # a dunder is called by the language, not by name
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            # a method's call passes self or cls through its attribute, not in its arguments
            shift = 1 if positional and positional[0].arg in ("self", "cls") else 0
            mine = [call for call in calls if _callee(call) == node.name]
            for arg in defaulted:
                index = next((i - shift for i, a in enumerate(positional) if a is arg), None)
                if mine and all(_passes(call, arg.arg, index) for call in mine):
                    found.append(f"{label}: {node.name}({arg.arg}) at line {node.lineno}")
    return found


def test_every_private_default_is_left_out_by_some_call():
    sources = {path.name: path.read_text() for path in PRODUCTION}
    assert defaults_every_call_passes(sources) == []


def test_the_default_guard_sees_what_it_flags():
    module = (
        "def _f(a, b=None, *, c=1, d=2): ...\n"
        "class K:\n"
        "    def _g(self, x=None, y=0): ...\n"
        "def h(a=None): ...\n"
        "def _never_called(a=None): ...\n"
        "def __init__(self, a=None): ...\n"
    )
    caller = (
        "_f(1, 2, c=3)\n"
        "m._f(1, b=2, c=4)\n"
        "_f(*xs, c=5)\n"
        "K()._g(1)\n"
        "self._g(x=2, y=3)\n"
        "h(1)\n"
        "__init__(0, 1)\n"
    )
    assert defaults_every_call_passes({"m": module, "c": caller}) == ["m: _f(c) at line 1", "m: _g(x) at line 3"]


CARRIERS = {"Trajectory", "GroundStateResult"}  # each holds the Params of its run
HOLDERS = {"Params", "PdeConfig"}  # (N, p) itself, and a config that holds it


def _names(annotation) -> set[str]:
    """The names an annotation reads, a quoted one included."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval")
    return set() if annotation is None else {n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)}


def params_beside_a_carrier(source: str) -> list[str]:
    """Functions taking, and classes holding, a Params or PdeConfig beside a Trajectory or GroundStateResult: a
    second copy of the (N, p) the carrier already holds, which a caller could set apart from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [arg.annotation for arg in args.posonlyargs + args.args + args.kwonlyargs]
        elif isinstance(node, ast.ClassDef):
            annotations = [stmt.annotation for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
        else:
            continue
        names = set().union(*map(_names, annotations))
        if names & HOLDERS and names & CARRIERS:
            found.append(f"{node.name} at line {node.lineno}")
    return found


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_params_are_read_off_the_run(path):
    assert params_beside_a_carrier(path.read_text()) == []


def test_the_copy_guard_sees_what_it_flags():
    source = (
        "def f(params: Params, traj: Trajectory | None = None): ...\n"
        "def g(params: Params, a: float) -> Trajectory: ...\n"
        "class R:\n"
        "    params: Params\n"
        "    gs: 'GroundStateResult'\n"
        "    def h(self, traj: Trajectory): ...\n"
        "def m(config: PdeConfig, grid: RadialGrid, profile: Trajectory | None = None) -> Field: ...\n"
    )
    assert params_beside_a_carrier(source) == ["f at line 1", "R at line 3", "m at line 7"]


SCIPY_MODULES = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


def value_after(statement: str, expression: str):
    """The value of the JSON ``expression`` in a fresh interpreter after running ``statement``."""
    code = f"import json, sys; {statement}; print(json.dumps({expression}))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def modules_after(statement: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``statement``."""
    return value_after(statement, SCIPY_MODULES)


def test_the_library_import_skips_integrate_optimize_and_special():
    # nor anything else of scipy: not at the benchmark's import, not at the CLI's
    assert modules_after("import selfsim, selfsim.pde, selfsim.reporting") == []
    assert modules_after("import selfsim.cli") == []


# a PDE run takes its LAPACK from scipy's compiled extension, without the
# scipy.linalg package, whose import cost a first sweep 0.2 s and 26 MB
PACKAGES_A_RUN_SKIPS = {"scipy.linalg", "scipy.integrate", "scipy.optimize", "scipy.special"}


def test_the_first_sweep_loads_lapack():
    # the run's sweeps load dptsv alone: dgtsv only steps in where a pivot of ptsv fails
    run = (
        "from selfsim import make_params, pde; cfg = pde.PdeConfig(params=make_params(3, 1.97)); "
        "load, routines = pde._lapack, set(); pde._lapack = lambda name: routines.add(name) or load(name); "
        "pde.run_to_extinction(cfg, pde.make_initial(cfg, pde.RadialGrid(15.3, 40)))"
    )
    loaded, routines = value_after(run, f"[{SCIPY_MODULES}, sorted(routines)]")
    assert not PACKAGES_A_RUN_SKIPS & set(loaded)
    assert routines == ["dptsv"]


def test_the_pde_run_command_loads_no_scipy_package(tmp_path):
    argv = ["pde-run", "--N", "3", "--p", "1.97", "--M", "40", "--r-inf", "15.3", "--out", str(tmp_path / "run")]
    loaded, code = value_after(f"from selfsim import cli; code = cli.main({argv!r})", f"[{SCIPY_MODULES}, code]")
    assert code == 0 and (tmp_path / "run_summary.json").exists()
    assert not PACKAGES_A_RUN_SKIPS & set(loaded)


def test_the_profile_side_imports_no_scipy():
    assert modules_after("import selfsim") == []


def test_a_failing_property_test_reports_its_example(tmp_path):
    # the suite turns warnings into errors; one raised inside hypothesis's
    # report hook would end the session in INTERNALERROR and hide the example
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 3\n"
    )
    config = Path(__file__).parents[1] / "pyproject.toml"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert out.returncode == 1
    assert "Falsifying example" in out.stdout and "INTERNALERROR" not in out.stdout + out.stderr
