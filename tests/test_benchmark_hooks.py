"""The library names the benchmark hooks into and reads.

perfbench/tracing.py wraps module attributes of the library and counts ODE
steps through ``Trajectory.dense``; a target it cannot find silently drops
that metric from a traced run. perfbench/workloads.py imports the library's
functions and reads fields of its run and ground-state records. These tests
load both files by path, as the benchmark does, and fail when the library
stops offering what they use.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from selfsim import cli
from selfsim.classify import GroundStateResult
from selfsim.pde import FrameSeries, PdeConfig, RadialGrid
from selfsim.profile_ode import IntegratorOptions, integrate, shoot

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_callable():
    tracing = _load("tracing")
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_ode_steps_counts_the_accepted_steps(P2):
    tracing = _load("tracing")
    traj = integrate(P2, 1.0)
    # a = 1 is far below a_*: the run is truncated at r_max, so no terminal
    # event cuts it short; the same run without dense output counts its steps
    assert traj.status == "horizon"
    # the tracer's r_end_mean reads r_end: it is the last sample radius
    assert traj.r_end == traj.r[-1]
    steps = tracing.ode_steps(traj)
    assert steps > 0
    assert steps == shoot(P2, 1.0, IntegratorOptions()).steps


def test_workloads_import_and_read_only_what_the_library_offers():
    # executing the file runs its imports: a name the library dropped fails here
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {"ground_state", "extinction_fine"}
    records = {"frames": FrameSeries, "gs": GroundStateResult}
    read = {name: set() for name in records}
    for node in ast.walk(ast.parse(Path(workloads.__file__).read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in records:
            read[node.value.id].add(node.attr)
    for name, record in records.items():
        fields = {f.name for f in dataclasses.fields(record)}
        assert read[name], f"workloads.py reads no field of {name}"
        assert read[name] <= fields, f"{name}.{sorted(read[name] - fields)}"


def test_workload_calls_bind_to_the_library_signatures():
    # perfbench changes only with the benchmark: a renamed or dropped
    # parameter would otherwise show only as failed benchmark operations
    workloads = _load("workloads")
    tree = ast.parse(Path(workloads.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "selfsim"
        for alias in node.names
    }
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in imported
        # a starred call's arity is known only at run time
        and not any(isinstance(arg, ast.Starred) for arg in node.args)
        and all(kw.arg is not None for kw in node.keywords)
    ]
    assert calls, "workloads.py calls nothing it imports from selfsim"
    for call in calls:
        signature = inspect.signature(getattr(workloads, call.func.id))
        try:
            signature.bind(*(object() for _ in call.args), **{kw.arg: object() for kw in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"workloads.py:{call.lineno} {call.func.id}: {exc}") from None


def test_the_benchmark_summary_keys_are_the_cli_summary_keys(P2):
    # perfbench writes the summary `selfsim pde-run` writes, a subset of its keys; a key that left the
    # CLI summary first (clamp_events, say) would leave the benchmark writing a summary no command writes
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    write_outputs = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "write_outputs")
    written = {
        key.value: {k.value for k in value.keys}
        for node in ast.walk(write_outputs)
        if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if isinstance(key, ast.Constant) and key.value in ("inputs", "results") and isinstance(value, ast.Dict)
    }
    assert set(written) == {"inputs", "results"}, "write_outputs writes no inputs or results"
    summary = cli._pde_summary(FrameSeries(grid=RadialGrid(8.0, 32), config=PdeConfig(params=P2)))
    for part, keys in written.items():
        assert keys <= set(summary[part]), f"{part}: {sorted(keys - set(summary[part]))}"
