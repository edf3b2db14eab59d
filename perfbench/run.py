#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ground_state --seed 0 --seconds 20 --trace 0

The library is imported from the ``src/`` directory of the checkout that
holds this file; without it the command fails with exit code 2.

``setup_s`` is the median time of five library imports, each in a fresh
interpreter, plus the median of three set-ups of the workload in this
process. Then rounds repeat until ``--seconds`` have passed, at least one. A
round runs each part of the workload once and times each part on its own.
``wall_s`` is the sum over the parts of each part's median time. With
``--trace 1`` the workload is set up once under the span wrappers of
``tracing.py``, and after the untraced rounds one more round runs under them.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, the ``per_layer`` ones with
``--trace 1``. ``--out FILE`` also writes the full record (machine, code,
inputs, checks, exact counts, samples, spans) for ``perfbench/compare.py``.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXACT = ("pde.steps", "classify.bisect.iterations", "profile_ode.ode_steps")
ACC = (
    "acc.a_star_dev",
    "acc.bracket_width",
    "acc.sup_err_rel",
    "acc.supersolution_excess",
    "acc.rate_r2",
    "acc.rate_exponent_err",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the full record to this JSON file")
    return ap.parse_args(argv)


def check_digest(key: str, digest: str) -> bool:
    """Compare with the digest an earlier run recorded under the same key.

    The key hashes the library sources, the benchmark's own sources, the
    machine record, the workload and its inputs, so two runs of the same
    code must agree byte for byte.
    """
    path = WORKDIR / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    if key in store:
        return store[key] == digest
    store[key] = digest
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def time_import() -> float:
    """Seconds for a fresh interpreter to start and import the library."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import selfsim, selfsim.pde, selfsim.reporting"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - t0


def layer_metrics(tracer, rnd, overhead: float) -> dict[str, float]:
    """Per-layer figures of the traced set-up and round; absent wrapper targets drop theirs."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    counts = tracer.counts
    verdicts = {v: counts[f"classify.verdict.{v}"] for v in ("A", "C", "Unresolved")}
    n_classify = calls("classify.classify")
    steps = rnd.layer.get("pde.steps", 0)
    run_s = secs("pde.run_to_extinction")
    m = {
        "profile_ode.integrate.calls": calls("profile_ode.integrate"),
        "profile_ode.integrate.s": secs("profile_ode.integrate"),
        "profile_ode.ode_steps": counts["profile_ode.ode_steps"],
        "profile_ode.r_end_mean": statistics.fmean(tracer.r_ends) if tracer.r_ends else 0.0,
        "pohozaev.J_along.calls": calls("pohozaev.J_along"),
        "pohozaev.J_along.s": secs("pohozaev.J_along"),
        "pohozaev.find_r_G.calls": calls("pohozaev.find_r_G"),
        "pohozaev.find_r_G.s": secs("pohozaev.find_r_G"),
        "classify.classify.calls": n_classify,
        "classify.classify.self_s": totals.get("classify.classify", (0, 0.0, 0.0))[2],
        **{f"classify.verdict.{v}": n for v, n in verdicts.items()},
        "classify.useful_ratio": (verdicts["A"] + verdicts["C"]) / n_classify if n_classify else 0.0,
        "classify.bisect.iterations": rnd.layer.get("classify.bisect.iterations", 0),
        "classify.bracket.probes": tracer.children_of("classify.bracket", "classify.classify"),
        "classify.estimate_l.s": secs("classify.estimate_l"),
        "pde.run_to_extinction.s": run_s,
        "pde.steps": steps,
        "pde.step_us": 1e6 * run_s / steps if steps else 0.0,
        "pde.cell_steps_per_s": rnd.layer.get("pde.cells", 0) * steps / run_s if steps else 0.0,
        "pde.weighted_functionals.calls": calls("pde.weighted_functionals"),
        "pde.weighted_functionals.s": secs("pde.weighted_functionals"),
        "pde.fit_extinction.s": secs("pde.fit_extinction"),
        "pde.make_initial.s": secs("pde.make_initial"),
        "pde.compare.s": secs("pde.compare"),
        "reporting.write.s": secs("reporting.write"),
        "trace.overhead_frac": overhead,
    }
    for name in ("pde.records", "pde.snapshots", "pde.sink_saturations", "pde.monotone_violations", "reporting.bytes"):
        m[name] = rnd.layer.get(name, 0)
    # an accuracy value that the workload does not produce reads 0
    m.update(dict.fromkeys(ACC, 0.0))
    m.update(rnd.acc)
    dependents = {
        "profile_ode.integrate": ("profile_ode.",),
        "classify.classify": ("classify.classify.", "classify.verdict.", "classify.useful_ratio", "classify.bracket.probes"),
    }
    for absent in tracer.absent:
        for prefix in dependents.get(absent, (absent,)):
            m = {k: v for k, v in m.items() if not k.startswith(prefix)}
    return m


def emit(metrics: dict, spec: list[dict]) -> dict:
    """The measured metrics that BENCHMARK.json lists, in its order, with its units."""
    return {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in spec if s["name"] in metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "selfsim" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    import selfsim

    if not Path(selfsim.__file__).resolve().is_relative_to(SRC):
        print(f"error: selfsim imported from {selfsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import machine
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    t_origin = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload]
    inp = workload.inputs(args.seed)
    tracer = tracing.Tracer()
    WORKDIR.mkdir(exist_ok=True)

    if args.trace:
        with tracer.tracing():
            state = workload.setup(inp, tracer)
    else:
        import_times = [time_import() for _ in range(IMPORT_REPEATS)]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup(inp, tracer)
            setup_times.append(time.perf_counter() - t0)
    rounds, samples = [], {part: [] for part in workload.parts}
    t_begin = time.perf_counter()
    while not rounds or time.perf_counter() - t_begin < args.seconds:
        for part in workload.parts:
            t0 = time.perf_counter()
            rounds.append(workload.run(state, part, tracer, WORKDIR))
            samples[part].append(time.perf_counter() - t0)
    wall_s = sum(statistics.median(times) for times in samples.values())
    last = workloads.merge(rounds[-len(workload.parts):])
    if args.trace:
        with tracer.tracing():
            t0 = time.perf_counter()
            traced = workloads.merge([workload.run(state, part, tracer, WORKDIR) for part in workload.parts])
            traced_wall = time.perf_counter() - t0
        rounds.append(traced)
        last = traced

    mach, code = machine.machine_record(), machine.code_record(ROOT)
    ops = [op for rnd in rounds for op in rnd.ops]
    failed = sum(not op.passed for op in ops)
    digests = [rnd.digest for rnd in rounds if rnd.digest is not None]
    if digests:
        identity = json.dumps([code["src_sha256"], code["bench_sha256"], mach, args.workload, inp], sort_keys=True).encode()
        key = f"{args.workload}:{args.seed}:{hashlib.sha256(identity).hexdigest()[:16]}"
        mismatched = sum(not check_digest(key, d) for d in digests)
        failed += mismatched
        if mismatched:
            print(f"FAIL  output digest differs from an earlier run of the same code ({key})")
    if args.trace:
        metrics = layer_metrics(tracer, last, traced_wall / wall_s - 1.0)
        reported = emit(metrics, spec["per_layer"])
    else:
        metrics = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        reported = emit(metrics, spec["end_to_end"])

    print(f"machine: {json.dumps(mach, sort_keys=True)}")
    print(f"code: {json.dumps(code, sort_keys=True)}")
    print(f"workload: {args.workload}  seed: {args.seed}  inputs: {json.dumps(inp, sort_keys=True)}")
    for op in ops:
        print(f"{'ok  ' if op.passed else 'FAIL'}  {op.label}" + (f"  ({op.error})" if op.error else ""))
        for name, value, gate, passed in op.checks:
            shown = "" if value is None else f" = {value:.6g} ({gate})"
            print(f"      {'ok  ' if passed else 'FAIL'}  {name}{shown}")
    if digests:
        print(f"output sha256: {digests[-1]}")
    for name, m in reported.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": reported}
    if args.out:
        known = {**last.layer, **metrics}
        exact = {k: known[k] for k in EXACT if k in known}
        if digests:
            exact["digest"] = digests[-1]
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "inputs": inp,
            "machine": mach,
            "code": code,
            "result": result,
            "exact": exact,
            "checks": [[op.label, op.error, op.checks] for op in ops],
            "samples": {str(part): times for part, times in samples.items()},
            "spans": [[n, s - t_origin, e - t_origin, p] for n, s, e, p in tracer.spans],
        }
        args.out.write_text(json.dumps(record, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
