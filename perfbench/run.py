#!/usr/bin/env python3
"""Benchmark of squeeze-dyn: one workload per process, timed end to end,
or per layer with ``--trace 1``.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The process pins BLAS/OpenMP and the package's own pool to one thread
before numpy is imported, then drives the CLI in-process through
``squeeze_dyn.cli.main(argv)``. It repeats whole rounds of the workload's
fixed operation list until ``--seconds`` have passed (at least two
rounds), checks every output after the timed region, and prints one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SQUEEZE_DYN_THREADS": "1",
}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
#: fresh processes timed for setup_s; the first one is a warm-up
SETUP_PROBES = 9
MIN_ROUNDS = 2

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _import_package():
    sys.path.insert(0, str(SRC))
    import squeeze_dyn
    import squeeze_dyn.cli  # noqa: F401
    import squeeze_dyn.kappa  # noqa: F401

    if Path(squeeze_dyn.__file__).resolve().parent != SRC / "squeeze_dyn":
        raise ImportError(f"squeeze_dyn imported from {squeeze_dyn.__file__}, not {SRC}")
    return squeeze_dyn


def _setup(workload: str, seed: int, work: Path):
    """Import the package and build the inputs; no workload computation."""
    sd = _import_package()
    work.mkdir(parents=True, exist_ok=True)
    return sd, workloads.build_plan(workload, seed, str(work))


def _probe_setup(workload: str, seed: int) -> float:
    """setup_s: median over fresh processes of import plus input build."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload,
           "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


# ---------------------------------------------------------------------------
# operations


def _solve(sd, spec: dict, path: str) -> None:
    import numpy as np

    res = sd.ReservoirConfig(gamma=spec["gamma"], eta0=spec["eta0"])
    if spec["kernel"] == "exponential":
        kernel = sd.kappa.MemoryKernel.exponential(res)
    else:
        scale, gamma = 0.5 * spec["eta0"] * spec["gamma"], spec["gamma"]

        def plain(u):
            return scale * np.exp(-gamma * np.asarray(u, dtype=float))

        kernel = sd.kappa.MemoryKernel(evaluator=plain)
    series = sd.kappa.solve_volterra(kernel, sd.TimeGrid(0.0, spec["t_end"], spec["step"]))
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        series.to_csv(fp)


def _run_op(sd, op, work: Path) -> str | None:
    """Run one operation; returns None on success or the failure text."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if op.solver is not None:
                _solve(sd, op.solver, str(work / op.output))
                return None
            rc = sd.cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an operation failure is counted, not fatal
        return f"{type(exc).__name__}: {exc}"
    return None if rc == 0 else f"exit {rc}: {sink.getvalue().strip()[-500:]}"


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _round(sd, plan, work: Path) -> dict:
    lat, failures = [], {}
    c0, t0 = time.process_time(), time.perf_counter()
    for op in plan.ops:
        s = time.perf_counter()
        err = _run_op(sd, op, work)
        lat.append(time.perf_counter() - s)
        if err is not None:
            failures[op.name] = err
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    digests = {op.name: _digest(work / op.output) for op in plan.ops if op.name not in failures}
    return {"wall_s": wall, "cpu_s": cpu, "latency_s": lat, "failures": failures,
            "digests": digests}


# ---------------------------------------------------------------------------
# checks


def _check(sd, plan, work: Path, every: list[dict]) -> tuple[list[str], dict[str, list[str]]]:
    """Check the outputs of the last round and their repeatability over
    ``every`` round: (errors, faults).

    A fault is a known program defect that makes an operation's output
    wrong on every run whatever the seed; that operation counts as failed
    instead of making the run incorrect.
    """
    import checks  # imports numpy, so not before setup_s is timed

    failed = set().union(*(r["failures"] for r in every))
    errs = checks.check_repeatable([r["digests"] for r in every])
    faults: dict[str, list[str]] = {}
    solver_sup: dict[str, float] = {}
    oracle = checks.Oracle(sd)
    for op in plan.ops:
        if op.name in failed:
            continue
        try:
            errs += _check_op(checks, plan, op, str(work / op.output), solver_sup, faults, oracle)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            errs.append(f"{op.name}: unreadable output: {type(exc).__name__}: {exc}")
    return errs, {name: f for name, f in faults.items() if f}


def _check_op(checks, plan, op, path, solver_sup, faults, oracle) -> list[str]:
    p = plan.params
    if op.solver is not None:
        errs, solver_sup[op.output] = checks.check_solver(path, op.solver)
        return errs
    if op.argv[0] == "alpha-scan":
        # optimal_alpha brackets its golden search between scan nodes,
        # so an optimum below the first node (N above ~6e4) is missed
        faults[op.name] = checks.alpha_scan_faults(path)
        return checks.check_alpha_scan(path, op.argv)
    if op.argv[0] == "verify":
        return checks.check_verify(path, op.argv)
    if "tabulated" in op.argv:
        spec = next(o.solver for o in plan.ops if o.output == "kappa-strong.csv")
        err = checks.tabulated_error(solver_sup.get("kappa-strong.csv", 1.0), spec)
        if op.argv[0] == "evolve":
            return checks.check_curve(
                path, op.argv, lambda t: checks.kappa_lorentzian(p["gamma"], p["eta0"], t), err)
        return checks.check_death(path, op.argv, p["gamma"], p["eta0"], kappa_err=err)
    if op.argv[0] == "evolve":
        errs = checks.check_curve(path, op.argv)
        opt = checks.options(op.argv)
        if opt["form"] == "exact" and int(opt["n"]) == workloads.CURVE_N:
            errs += checks.check_curve_oracle(path, op.argv, oracle)
        return errs
    if op.argv[0] == "death-times":
        return checks.check_death(path, op.argv, p["gamma"], p["eta0"])
    return [f"{op.name}: no check for this operation"]


# ---------------------------------------------------------------------------
# reporting


def _machine(sd) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "volterra_backend": getattr(sd, "volterra_backend", None),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--digests", action="store_true",
                    help="run one round and print the sha256 of each --reproducible output")
    args = ap.parse_args(argv)

    if not (SRC / "squeeze_dyn" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC / 'squeeze_dyn'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.probe:
            t0 = time.perf_counter()
            _setup(args.workload, args.seed, work)
            print(time.perf_counter() - t0)
            return 0
        return _digests(args, work) if args.digests else _bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it


def _digests(args, work: Path) -> int:
    sd, plan = _setup(args.workload, args.seed, work)
    rnd = _round(sd, plan, work)
    for op in plan.ops:
        print(f"{rnd['digests'].get(op.name)}  {args.workload}/{op.name}")
    return 1 if rnd["failures"] else 0


def _bench(args, work: Path) -> int:
    setup_s = None if args.trace else _probe_setup(args.workload, args.seed)
    sd, plan = _setup(args.workload, args.seed, work)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds, traced, layer = [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(rounds) + len(traced) < MIN_ROUNDS or time.perf_counter() < deadline:
        # a traced run alternates untraced and traced rounds
        if tracer is not None and len(rounds) > len(traced):
            tracer.install()
            mark = tracer.mark()
            try:
                traced.append(_round(sd, plan, work))
            finally:
                tracer.unpatch()
            layer.append(tracer.round_metrics(mark))
        else:
            rounds.append(_round(sd, plan, work))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = rounds + traced
    attempted = len(plan.ops) * len(every)
    errs, faults = _check(sd, plan, work, every)
    for r in every:
        r["failures"].update({name: "; ".join(f) for name, f in faults.items()})
    failed = sum(len(r["failures"]) for r in every)
    for name, err in sorted({kv for r in every for kv in r["failures"].items()}):
        print(f"failed: {name}: {err}", file=sys.stderr)
    for e in errs:
        print(f"check: {e}", file=sys.stderr)

    if tracer is None:
        # each operation's median over the rounds, then the median operation:
        # op costs differ by 10x, so a median over single samples jumps
        # between neighbouring operations from run to run
        per_op = zip(*(r["latency_s"] for r in rounds))
        op_p50 = statistics.median(statistics.median(lat) for lat in per_op)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median([r["wall_s"] for r in rounds]), "s"),
            "op_p50_ms": (op_p50 * 1e3, "ms"),
            "cpu_s": (statistics.median([r["cpu_s"] for r in rounds]), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        values = {name: statistics.median([m[name] for m in layer]) for name in layer[0]}
        values["trace.overhead_s"] = (
            statistics.median([r["wall_s"] for r in traced]) - statistics.median([r["wall_s"] for r in rounds]))
        values["trace.missing_names"] = len(set(tracer.missing))
        metrics = {name: (values[name], unit) for name, unit in _layer_units().items()}
        for name in sorted(set(tracer.missing)):
            print(f"trace: {name} is missing; its layer reads 0", file=sys.stderr)

    result = {
        "correct": not errs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": plan.params, "machine": _machine(sd),
        "result": result, "errors": errs,
        "rounds": [{k: r[k] for k in ("wall_s", "cpu_s", "latency_s", "failures")} for r in rounds],
        "traced_rounds": [{k: r[k] for k in ("wall_s", "cpu_s")} for r in traced],
        "ops": [op.name for op in plan.ops],
    }
    if tracer is not None:
        record["spans"] = tracer.dump()
        record["missing"] = sorted(set(tracer.missing))
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def _layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        return {m["name"]: m["unit"] for m in json.load(fp)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
