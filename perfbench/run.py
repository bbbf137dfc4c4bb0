"""matorder benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload exact-battery --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the loop calls operations back to back for ``--seconds``
seconds and reports the end-to-end metrics. With ``--trace 1`` a fixed
prefix of the operations runs once untraced and once under the tracer, and
the per-layer metrics are reported. Every operation's output is checked
against the library's own oracles and, at the reference seed, against the
shipped reference outputs.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A fuller record, environment included, goes to .bench_results/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 1
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "__import__(sys.argv[1]); print(time.perf_counter() - t)")

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "op_ok_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Name and unit of every per-layer metric a traced run prints.

    ``errors`` is printed for the predicate and driver functions, where an
    exception from any layer surfaces; the result file has it for all.
    """
    import tracer
    from workloads import SWEEP

    units = {}
    for name in tracer.traced_names():
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
        if name.split(".")[0] in ("orders", "predecessors", "poset", "cli"):
            units[name + ".errors"] = "count"
    for name in tracer.FACTORIZATIONS:
        units[name + ".distinct"] = "count"
        units[name + ".useful_ratio"] = "ratio"
    units["matrix.matmul.madds"] = "count"
    units["matrix.matmul.bytes_computed"] = "B"
    for layer in tracer.LAYERS:
        units["layer.%s.self_s" % layer] = "s"
    units["trace.errors"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    units["cli.import_s"] = "s"
    for backend, dims in SWEEP:
        for n in dims:
            units["sweep.leq_diamond.%s.n%d_s" % (backend, n)] = "s"
    return units


def import_seconds(module: str) -> float:
    """Time to import ``module`` in a fresh interpreter, measured inside it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, module],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout)


def blas_threads():
    """OpenBLAS thread count of the numpy build, when it bundles OpenBLAS."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(args) -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "blas_env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "machine": platform.machine(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


# A machine shared with other work changes speed by tens of percent from
# one second to the next. So in the timed loop each operation is preceded
# by a fixed calibration kernel, and the operation's time is scaled by
# CAL_REF_S over the kernel's time: reported times are those of a machine
# on which the kernel takes CAL_REF_S. Scaling by the kernel run just
# before each operation cut the seed-to-seed spread of exact-battery from
# about 16% to about 3%. The kernel shares the process, so a slowdown of
# all pure-Python work from the process's own state (a much larger heap,
# say) is scaled out too; the result file keeps the unscaled figures.
CAL_REF_S = 0.004


def calibration_kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python rational and complex
    arithmetic, the two kinds of work matorder's kernels do."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    z = 1j
    for _ in range(20000):
        z = z * (0.5 + 0.5j) + 1
    return time.perf_counter() - start


# One timed operation: unit visit number, pool index, name, seconds, time
# scale, JSON-normalised output and the exception text if it raised.
Record = namedtuple("Record", "visit unit op latency scale output error")


def run_ops(workload, pool, workdir, deadline=None, units=None, in_process=False,
            calibrated=False):
    """Closed loop over the pool: stop at ``deadline`` or after ``units`` units."""
    records = []
    scale = 1.0
    visit = 0
    clock = time.perf_counter
    while (units is None or visit < units) and (deadline is None or clock() < deadline):
        idx = visit % len(pool)
        for op, thunk in workload.ops(pool[idx], workdir, in_process):
            if deadline is not None and clock() >= deadline:
                break
            if calibrated:
                scale = CAL_REF_S / calibration_kernel()
            output = error = None
            start = clock()
            try:
                output = thunk()
            except Exception as exc:  # a raising operation is a failed one
                error = "%s: %s" % (type(exc).__name__, exc)
            records.append(Record(visit, idx, op, clock() - start, scale,
                                  json.loads(json.dumps(output)), error))
        visit += 1
    return records


def verify(workload, pool, records, reference) -> dict:
    """Index of each failed record -> reason."""
    failed = {}
    visits = {}
    for i, rec in enumerate(records):
        visits.setdefault(rec.visit, []).append(i)
    for idxs in visits.values():
        unit = pool[records[idxs[0]].unit]
        expected = None if reference is None else reference.get(unit["key"], {})
        outputs = {}
        for i in idxs:
            rec = records[i]
            if rec.error is not None:
                failed[i] = rec.error
                continue
            outputs[rec.op] = rec.output
            if expected is not None and expected.get(rec.op) != rec.output:
                failed[i] = "differs from reference: %r, expected %r" % (
                    rec.output, expected.get(rec.op))
        for op, reason in workload.oracle(unit, outputs).items():
            for i in idxs:
                if records[i].op == op:
                    failed.setdefault(i, reason)
    return failed


def load_reference(workload_name: str, seed: int):
    if seed != REFERENCE_SEED:
        return None
    data = json.loads(REFERENCE.read_text())
    return data["workloads"][workload_name]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_setup(workload, seed, workdir):
    """Seconds to import matorder in a fresh interpreter and generate a pool."""
    imp = import_seconds("matorder")
    start = time.perf_counter()
    pool = workload.generate(seed, workdir)
    return imp + time.perf_counter() - start, pool


def measure(workload, args, workdir):
    # How long a pool takes to draw depends on the draws (one exact
    # idempotent can take seconds), so setup_s times three set-ups of the
    # reference seed's pool, the same work in every run, and reports their
    # median. The pool the run uses comes from one more set-up, for --seed.
    setups = []
    for i in range(3):
        where = workdir.with_name("%s-setup%d" % (workdir.name, i))
        setups.append(timed_setup(workload, REFERENCE_SEED, where)[0])
        shutil.rmtree(where, ignore_errors=True)
    seed_setup_s, pool = timed_setup(workload, args.seed, workdir)
    reference = load_reference(workload.name, args.seed)
    records = run_ops(workload, pool, workdir, calibrated=True,
                      deadline=time.perf_counter() + args.seconds)
    failed = verify(workload, pool, records, reference)

    def timings(lat):
        lat = sorted(lat)
        return {"ops_per_s": len(lat) / sum(lat),
                "op_p50_ms": statistics.median(lat) * 1e3,
                "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3}

    metrics = timings([r.latency * r.scale for r in records])
    metrics["setup_s"] = statistics.median(setups)
    metrics["op_ok_rate"] = 1.0 - len(failed) / len(records)
    metrics["peak_rss_mb"] = peak_rss_mb(children=workload.name == "cli")
    extra = {"samples": len(records),
             "beyond_p90": sum(r.latency * r.scale * 1e3 > metrics["op_p90_ms"] for r in records),
             "op_fail_rate": len(failed) / len(records),
             "unscaled": timings([r.latency for r in records]),
             "setups_s": setups, "seed_setup_s": seed_setup_s,
             "median_scale": statistics.median(r.scale for r in records),
             "units_visited": records[-1].visit + 1}
    return records, failed, metrics, extra


def measure_traced(workload, args, workdir):
    import random

    import tracer
    from matorder import orders
    from workloads import SWEEP, sweep_pair

    pool = workload.generate(args.seed, workdir)
    reference = load_reference(workload.name, args.seed)
    problems = tracer.self_test()

    # One untimed unit first, so that neither pass pays for first calls.
    # The calibration kernel is not traced, so scaled times compare the two
    # passes at the same machine speed.
    run_ops(workload, pool, workdir, units=1, in_process=True)
    plain = run_ops(workload, pool, workdir, units=workload.trace_units,
                    in_process=True, calibrated=True)
    trace = tracer.Tracer()
    with trace.installed():
        records = run_ops(workload, pool, workdir, units=workload.trace_units,
                          in_process=True, calibrated=True)
    plain_s = sum(r.latency * r.scale for r in plain)
    traced_s = sum(r.latency * r.scale for r in records)

    failed = verify(workload, pool, records, reference)
    if [(r.op, r.output) for r in plain] != [(r.op, r.output) for r in records]:
        problems.append("tracing changed an output")
    full = trace.metrics()
    full["trace.overhead_ratio"] = traced_s / plain_s
    full["cli.import_s"] = statistics.median(import_seconds("matorder.cli")
                                             for _ in range(3))
    rng = random.Random(args.seed)
    for backend, dims in SWEEP:
        for n in dims:
            a, b = sweep_pair(backend, n, rng)
            start = time.perf_counter()
            verdict = orders.leq_diamond(a, b).verdict
            full["sweep.leq_diamond.%s.n%d_s" % (backend, n)] = time.perf_counter() - start
            if not verdict:
                problems.append("sweep pair %s n=%d is not diamond-comparable" % (backend, n))
    metrics = {k: full[k] for k in per_layer_units()}
    # the self-test, the traced/untraced comparison and one call per sweep point
    checks = 2 + sum(len(dims) for _, dims in SWEEP)
    extra = {"all_counters": full, "untraced_s": plain_s, "traced_s": traced_s,
             "checks": checks, "problems": problems}
    return records, failed, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "matorder" / "__init__.py").is_file():
        print("error: no matorder sources under %s; run from a checkout root" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / ("%s-%d" % (workload.name, os.getpid()))
    try:
        if args.trace:
            records, failed, metrics, extra = measure_traced(workload, args, workdir)
            units = per_layer_units()
        else:
            records, failed, metrics, extra = measure(workload, args, workdir)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = extra.get("problems", [])
    failures = [{"op": records[i].op, "reason": why} for i, why in sorted(failed.items())]
    failures += [{"op": "check", "reason": why} for why in problems]
    result = {"correct": not failures, "attempted": len(records) + extra.get("checks", 0),
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    detail = {"environment": environment(args), "result": result, "extra": extra,
              "failures": failures[:50]}
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / ("%s-seed%d-trace%d.json" % (workload.name, args.seed, args.trace))).write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps({"environment": detail["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
