"""Verdict corpus: the output of every benchmark operation, in one file.

    python3 tools/verdicts.py [OUT]
    python3 tools/verdicts.py --check [FILE]
    python3 tools/verdicts.py --stdout DIR

Runs, in this process, every operation of every unit of the benchmark pools
at the seeds SEEDS lists for each workload, and the two fixed-seed fuzz runs
of the CLI, and writes one JSON object, one line per unit, to OUT (default:
VERDICTS.json at the root of this checkout). section() regenerates one part
of it: a workload's pools, or the fuzz runs. Outputs are verdicts, integer
witnesses, booleans, exact entries and graph text; no float margin is
recorded, so a change that only moves roundoff leaves the file unchanged.
Regenerate the file and diff it against the committed copy to see every
verdict a change moves, or run with --check: it regenerates the corpus in
memory, writes nothing, prints each key whose output differs from FILE
(default: the committed VERDICTS.json) and exits 1 on any difference, 0
when the regenerated file would be byte-identical.

With --stdout, it instead writes the seed-1 cli pool's input files to
DIR/inputs, runs each of its commands, the two fuzz runs and the two
decompositions (``decompose svd fa.json`` and ``decompose hs base.json``,
which no pool command runs) as a ``python -m matorder.cli`` process in
that directory, and writes each run's argv, raw stdout, raw stderr and
exit code to DIR/cli/NN, DIR/fuzz-exact and DIR/fuzz-float, or
DIR/decompose-svd and DIR/decompose-hs. Float margins and error messages
are part of that output. It also writes DIR/reports: for every relation and
alternative diamond route on every unit of the seed-1 exact-battery and
float-battery pools, run in this process, the sorted-key JSON of the
report's ``to_dict()``, every witness and margin included, or the type of
the exception the call raised. And it writes DIR/family: for every unit of the seed-1
diamond-family pool and each of its idempotents, the ``matrix_to_dict``
JSON of the predecessor that ``build_predecessor`` builds and of its
closed-form pseudoinverse, whose floats JSON writes to round-trip exactly.
So ``diff -r`` on the directories written by two checkouts shows every
byte a change moves in what a user sees, and every library report and
predecessor entry it moves.

The pools come from perfbench/workloads.py, loaded without writing
bytecode into perfbench/.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import matorder.cli  # noqa: E402
from matorder import orders, predecessors  # noqa: E402
from matorder.matrix import matrix_from_dict, matrix_to_dict  # noqa: E402

SEEDS = {"exact-battery": range(1, 4), "float-battery": range(1, 11),
         "diamond-family": range(1, 4), "cli": range(1, 2)}
REPORT_POOLS = ("exact-battery", "float-battery")
FUZZ = {"fuzz/exact": ["fuzz", "--trials", "200"],
        "fuzz/float": ["--backend", "float", "fuzz", "--trials", "100"]}
SECTIONS = (*SEEDS, "fuzz")
# run by --stdout only, on inputs of the seed-1 cli pool
DECOMPOSE = {"decompose/svd": ["decompose", "svd", "fa.json"],
             "decompose/hs": ["decompose", "hs", "base.json"]}


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def pool(workload, seed: int, workdir: Path) -> list:
    """(corpus key, unit) for every unit of the workload's pool at ``seed``."""
    return [("%s/%d/%s" % (workload.name, seed, unit["key"]), unit)
            for unit in workload.generate(seed, workdir)]


def unit_outputs(workload, unit, workdir: Path) -> dict:
    """Operation name -> JSON-normal output, or the exception type it raised."""
    out = {}
    for op, thunk in workload.ops(unit, workdir, in_process=True):
        try:
            out[op] = json.loads(json.dumps(thunk()))
        except Exception as exc:  # a raising operation is recorded, not fatal
            out[op] = "raised %s" % type(exc).__name__
    return out


def fuzz_output(argv) -> dict:
    text = io.StringIO()
    with redirect_stdout(text):
        code = matorder.cli.main(argv)
    return {"exit": code, "stdout": json.loads(text.getvalue())}


def section(name: str):
    """Yield (corpus key, output), in corpus order, for one section: a
    workload of SEEDS at each of its seeds, or "fuzz", the FUZZ runs. A
    section's keys are those that start with its name and a slash."""
    if name == "fuzz":
        for key, argv in FUZZ.items():
            yield key, fuzz_output(argv)
        return
    workload = load_workloads().WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS[name]:
            workdir = Path(tmp) / name / str(seed)
            for key, unit in pool(workload, seed, workdir):
                yield key, unit_outputs(workload, unit, workdir)


def corpus() -> dict:
    return {key: out for name in SECTIONS for key, out in section(name)}


def run_cli(argv, cwd: Path, out: Path):
    """Run ``matorder`` with ``argv`` in ``cwd``; write what it printed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-B", "-m", "matorder.cli"] + argv,
                          cwd=cwd, env=env, capture_output=True, timeout=600)
    out.mkdir(parents=True)
    (out / "argv").write_text(" ".join(argv) + "\n")
    (out / "stdout").write_bytes(proc.stdout)
    (out / "stderr").write_bytes(proc.stderr)
    (out / "exit").write_text("%d\n" % proc.returncode)


def report(name: str, a, b) -> str:
    """The sorted-key JSON of the report of the relation or diamond route
    ``name`` (a workload operation name) on (a, b)."""
    if name.startswith("diamond/"):
        fn = orders.DIAMOND_ROUTES[name.split("/", 1)[1]]
    else:
        fn = orders.RELATIONS[name]
    try:
        return json.dumps(fn(a, b).to_dict(), sort_keys=True)
    except Exception as exc:  # a raising call is recorded, not fatal
        return "raised %s" % type(exc).__name__


def report_lines(workloads, workdir: Path) -> list:
    """'<key> <operation> <report>' for every relation and route on every
    unit of the seed-1 battery pools."""
    lines = []
    for name in REPORT_POOLS:
        for key, unit in pool(workloads.WORKLOADS[name], 1, workdir / name):
            a, b = matrix_from_dict(unit["a"]), matrix_from_dict(unit["b"])
            lines += ["%s %s %s\n" % (key, op, report(op, a, b))
                      for op in workloads.CALL_NAMES]
    return lines


def family_lines(workloads, workdir: Path) -> list:
    """'<key> p<i> <predecessor JSON> <pinv JSON>' for every idempotent of
    every unit of the seed-1 diamond-family pool."""
    lines = []
    for key, unit in pool(workloads.WORKLOADS["diamond-family"], 1, workdir):
        b = matrix_from_dict(unit["b"])
        for i, t in enumerate(unit["ts"]):
            try:
                bundle = predecessors.build_predecessor(b, matrix_from_dict(t))
                text = "%s %s" % (json.dumps(matrix_to_dict(bundle.predecessor)),
                                  json.dumps(matrix_to_dict(bundle.predecessor_pinv)))
            except Exception as exc:  # a raising call is recorded, not fatal
                text = "raised %s" % type(exc).__name__
            lines.append("%s p%d %s\n" % (key, i, text))
    return lines


def dump_stdout(directory: Path):
    """Write the raw output of every cli command, fuzz run and
    decomposition, the battery reports and the family's predecessors
    under ``directory``, which must not exist yet."""
    directory.mkdir(parents=True)
    inputs = directory / "inputs"
    workloads = load_workloads()
    [(_, unit)] = pool(workloads.WORKLOADS["cli"], 1, inputs)
    for i, argv in enumerate(unit["commands"], 1):
        argv = [w[1:] if w.startswith("@") else w for w in argv]
        run_cli(argv, inputs, directory / "cli" / ("%02d" % i))
    for key, argv in {**FUZZ, **DECOMPOSE}.items():
        run_cli(argv, inputs, directory / key.replace("/", "-"))
    with tempfile.TemporaryDirectory() as tmp:
        reports = report_lines(workloads, Path(tmp))
        family = family_lines(workloads, Path(tmp) / "diamond-family")
    (directory / "reports").write_text("".join(reports))
    (directory / "family").write_text("".join(family))


def dumps(entries: dict) -> str:
    lines = ["%s: %s" % (json.dumps(key), json.dumps(value, sort_keys=True))
             for key, value in entries.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def moved(committed: dict, fresh: dict) -> list:
    """The sorted keys whose output differs between the two corpora,
    including each key that only one of them has."""
    missing = object()
    return [key for key in sorted(set(committed) | set(fresh))
            if committed.get(key, missing) != fresh.get(key, missing)]


def check(path: Path) -> int:
    """Print every key whose regenerated output differs from ``path``;
    return 1 if the regenerated text differs at all, else 0."""
    text = path.read_text()
    fresh = corpus()
    differ = moved(json.loads(text), fresh)
    for key in differ:
        print(key)
    if dumps(fresh) == text:
        return 0
    if not differ:
        print("same outputs, but the file is not in canonical form")
    return 1


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Write or check the verdict corpus.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare with FILE instead of writing it")
    mode.add_argument("--stdout", type=Path, metavar="DIR",
                      help="write the raw output of the cli commands, "
                           "fuzz runs and decompositions under DIR instead")
    parser.add_argument("file", nargs="?", type=Path, default=ROOT / "VERDICTS.json")
    args = parser.parse_args(argv)
    if args.stdout:
        dump_stdout(args.stdout)
        return 0
    if args.check:
        return check(args.file)
    args.file.write_text(dumps(corpus()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
