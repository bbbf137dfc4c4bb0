"""The four benchmark workloads: seeded inputs, operations and oracles.

A workload turns a seed into a pool of units. A unit is plain data (the
JSON wire form of its matrices, or a list of command lines), so the
library sees fresh Matrix objects on every visit and nothing carries over
from one visit to the next. A unit expands into named operations; the
runner times each one and hands the outputs of a visit back to the
workload's oracle.

Every call into the library looks its function up at call time, through
the module or the RELATIONS/DIAMOND_ROUTES dicts, so that an installed
tracer sees it.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import matorder.cli
from matorder import orders, poset, predecessors, sampling
from matorder.matrix import Matrix, block, matrix_from_dict, matrix_to_dict, matrix_to_json

CALL_NAMES = list(orders.RELATIONS) + [
    "diamond/" + route for route in orders.DIAMOND_ROUTES if route != "definition"]
ROUTE_OPS = ("diamond", "diamond/dagger-minus", "diamond/range-split", "diamond/rank")


def _call(name: str, a: Matrix, b: Matrix) -> bool:
    if name.startswith("diamond/"):
        return orders.DIAMOND_ROUTES[name.split("/", 1)[1]](a, b).verdict
    return orders.RELATIONS[name](a, b).verdict


def _disagreement(verdicts: dict) -> dict:
    """Every operation in ``verdicts`` (op -> diamond verdict of one pair)
    when the routes do not all agree."""
    if len(set(verdicts.values())) <= 1:
        return {}
    return {op: "diamond routes disagree: %s" % verdicts for op in verdicts}


class Battery:
    """Pairs judged by the six relations and the three alternative diamond
    routes, one call per operation, the pair's Matrix objects shared by its
    nine calls."""

    def ops(self, unit, workdir, in_process=False):
        a = matrix_from_dict(unit["a"])
        b = matrix_from_dict(unit["b"])
        return [(name, lambda name=name: _call(name, a, b)) for name in CALL_NAMES]

    def oracle(self, unit, outputs: dict) -> dict:
        return _disagreement({op: outputs[op] for op in ROUTE_OPS if op in outputs})

    @staticmethod
    def _unit(units, kind, a, b):
        units.append({"key": "p%03d" % len(units), "kind": kind,
                      "a": matrix_to_dict(a), "b": matrix_to_dict(b)})


def draw_kind(sample, seed, slot: int, kind: str, *shape):
    """A labeled pair of the given construction kind from ``sample(rng, *shape)``.

    The pools fix how many pairs of each kind and shape they hold, so that
    only the entries change with the seed and the cost of a pool does not.
    The samplers draw the kind before anything that depends on the shape,
    so a 1-by-1 draw from the same rng state shows the kind cheaply; the
    full draw is checked again.
    """
    for attempt in range(1000):
        key = "%s/%d/%d" % (seed, slot, attempt)
        if sample(random.Random(key), *[1] * len(shape))[0] == kind:
            pair = sample(random.Random(key), *shape)
            if pair[0] == kind:
                return pair
    raise RuntimeError("sampler never produced a %r pair" % kind)


class ExactBattery(Battery):
    # 72 pairs: every (m, n) with m, n in 3..8 twice, in one fixed
    # interleaved order, with the construction kinds in a fixed cycle
    # weighted as exact_pair weights them. 36 is 4 mod 8, so the second
    # pass gives each shape the kind half a cycle away from its first.
    KINDS = ("random", "equal", "zero", "scaled", "star", "sandwich", "lowrank", "random")
    SHAPES = [(m, n) for m in range(3, 9) for n in range(3, 9)]
    random.Random(0).shuffle(SHAPES)
    name = "exact-battery"
    trace_units = 12

    def generate(self, seed, workdir: Path) -> list:
        units = []
        for m, n in self.SHAPES * 2:
            slot = len(units)
            kind = self.KINDS[slot % len(self.KINDS)]
            self._unit(units, *draw_kind(sampling.exact_pair, seed, slot, kind, m, n))
        return units


class FloatBattery(Battery):
    # BLOCKS blocks of one pair at each of n = 16, 32, 64, kinds in a fixed
    # cycle weighted as float_pair weights them. A diamond pair at n = 64
    # takes up to seconds to draw (its exact idempotent), so the blocks share
    # one n = 64 pair of each kind round-robin.
    KINDS = ("diamond", "diamond", "random", "equal", "scaled")
    BIG_KINDS = ("diamond", "random", "equal", "scaled")
    BLOCKS = 8
    name = "float-battery"
    trace_units = 3

    def generate(self, seed, workdir: Path) -> list:
        big = []
        for kind in self.BIG_KINDS:
            self._unit(big, *draw_kind(sampling.float_pair, seed, len(big), kind, 64))
        units = []
        for i in range(self.BLOCKS):
            for n, offset in ((16, 0), (32, 2)):
                kind = self.KINDS[(i + offset) % len(self.KINDS)]
                slot = len(self.BIG_KINDS) + len(units)
                self._unit(units, *draw_kind(sampling.float_pair, seed, slot, kind, n))
            units.append(dict(big[i % len(big)], key="p%03d" % len(units)))
        return units


def _reaches(edges, lo: int, hi: int) -> bool:
    seen, todo = {lo}, [lo]
    while todo:
        node = todo.pop()
        for x, y in edges:
            if x == node and y not in seen:
                seen.add(y)
                todo.append(y)
    return hi in seen


class DiamondFamily:
    """One operation per float base: build its predecessors from seeded
    idempotents, evaluate the three criteria on them, and draw the diamond
    cover diagram of the base and its predecessors."""

    name = "diamond-family"
    trace_units = 12
    BASES = 40
    IDEMPOTENTS = 8

    def generate(self, seed, workdir: Path) -> list:
        rng = random.Random(seed)
        units = []
        for i in range(self.BASES):
            # n cycles through 6..10; per n the rank steps through 1..n, and
            # per base the idempotents' ranks step through 0..r
            n = 6 + i % 5
            r = 1 + (i // 5) * n // (self.BASES // 5)
            b = sampling.random_base_matrix(n, r, rng)
            ts = [predecessors.random_idempotent(r, j * r // (self.IDEMPOTENTS - 1), rng)
                  for j in range(self.IDEMPOTENTS)]
            units.append({"key": "b%03d" % i, "b": matrix_to_dict(b),
                          "ts": [matrix_to_dict(t) for t in ts]})
        return units

    def ops(self, unit, workdir, in_process=False):
        b = matrix_from_dict(unit["b"])
        ts = [matrix_from_dict(t) for t in unit["ts"]]
        return [("family", lambda: self._family(b, ts))]

    @staticmethod
    def _family(b: Matrix, ts: list) -> dict:
        bundles = [predecessors.build_predecessor(b, t) for t in ts]
        rol = [list(predecessors.reverse_order_law(x.predecessor, b)) for x in bundles]
        iso = [list(predecessors.dagger_isotone(b, t)) for t in ts]
        bid = list(predecessors.is_bidagger(b))
        items = [("b", b)] + [("p%d" % i, x.predecessor) for i, x in enumerate(bundles)]
        graph = poset.build_poset(items, "diamond")
        return {"nodes": [list(n) for n in graph.nodes],
                "edges": [list(e) for e in graph.edges],
                "reverse_order_law": rol, "dagger_isotone": iso, "bidagger": bid}

    def oracle(self, unit, outputs: dict) -> dict:
        out = outputs.get("family")
        if out is None:
            return {}
        problems = []
        for crit in ("reverse_order_law", "dagger_isotone"):
            for i, (direct, closed) in enumerate(out[crit]):
                if direct != closed:
                    problems.append("%s on p%d: direct %s, criterion %s"
                                    % (crit, i, direct, closed))
        if out["bidagger"][0] != out["bidagger"][1]:
            problems.append("bidagger: direct and criterion differ")
        node = {label: idx for idx, labels in enumerate(out["nodes"]) for label in labels}
        edges = [tuple(e) for e in out["edges"]]
        for i in range(len(unit["ts"])):
            lo, hi = node["p%d" % i], node["b"]
            if lo != hi and not _reaches(edges, lo, hi):
                problems.append("p%d is not diamond-below its base" % i)
        return {"family": "; ".join(problems)} if problems else {}


def _strict_json(text: str):
    def reject(token):
        raise ValueError("non-standard JSON constant %s" % token)
    return json.loads(text, parse_constant=reject)


class CliWorkload:
    """Each operation is one ``python -m matorder.cli`` process run to the
    end. The single unit is the whole command mix; the traced run calls
    ``matorder.cli.main`` in-process instead."""

    name = "cli"
    trace_units = 1

    def generate(self, seed, workdir: Path) -> list:
        rng = random.Random(seed)
        (workdir / "poset").mkdir(parents=True, exist_ok=True)

        def put(name, m):
            (workdir / name).write_text(matrix_to_json(m))

        _, a, b = sampling.exact_pair(rng, 3, 3)
        put("ea.json", a)
        put("eb.json", b)
        _, a, b = sampling.float_pair(rng, 4)
        put("fa.json", a)
        put("fb.json", b)
        r = rng.randint(1, 5)
        put("base.json", sampling.random_base_matrix(5, r, rng))
        rank, cli_seed = rng.randint(0, r), rng.randint(0, 10 ** 6)
        poset_r = rng.randint(1, 4)
        poset_b = sampling.random_base_matrix(4, poset_r, rng)
        put("poset/b.json", poset_b)
        for i in range(3):
            t = predecessors.random_idempotent(poset_r, rng.randint(0, poset_r), rng)
            put("poset/p%d.json" % i, predecessors.diamond_predecessor(poset_b, t))

        # "@name" marks a file argument, resolved against the work directory
        commands = []
        for lane in ("e", "f"):
            pair = ["@%sa.json" % lane, "@%sb.json" % lane]
            for order in orders.RELATIONS:
                commands.append(["check", "--order", order] + pair)
            for route in orders.DIAMOND_ROUTES:
                if route != "definition":
                    commands.append(["check", "--order", "diamond", "--via", route] + pair)
        commands += [["pinv", "@ea.json"], ["pinv", "@fa.json"],
                     ["--seed", str(cli_seed), "predecessor", "@base.json", "--rank", str(rank)],
                     ["--seed", str(cli_seed), "criteria", "@base.json", "--rank", str(rank)],
                     ["poset", "@poset"]]
        return [{"key": "mix", "commands": commands}]

    def ops(self, unit, workdir, in_process=False):
        return [(" ".join(w.lstrip("@") for w in argv),
                 lambda argv=argv: self._run(argv, workdir, in_process))
                for argv in unit["commands"]]

    @staticmethod
    def _run(argv, workdir: Path, in_process: bool) -> dict:
        argv = [str(workdir / w[1:]) if w.startswith("@") else w for w in argv]
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = matorder.cli.main(argv)
            stdout = out.getvalue()
        else:
            env = dict(os.environ, PYTHONPATH=str(Path(matorder.__file__).parent.parent))
            proc = subprocess.run([sys.executable, "-m", "matorder.cli"] + argv,
                                  cwd=workdir, env=env, capture_output=True,
                                  text=True, timeout=120)
            code, stdout = proc.returncode, proc.stdout
            if code not in (0, 1):
                raise RuntimeError("exit code %d: %s" % (code, proc.stderr[-300:]))
        return _summarize(argv, code, stdout)

    def oracle(self, unit, outputs: dict) -> dict:
        problems = {}
        for op, out in outputs.items():
            if "verdict" in out and out["exit"] != (0 if out["verdict"] else 1):
                problems[op] = "exit code %d for verdict %s" % (out["exit"], out["verdict"])
        for lane in ("ea.json eb.json", "fa.json fb.json"):
            problems.update(_disagreement({
                op: out["verdict"] for op, out in outputs.items()
                if op.startswith("check --order diamond") and op.endswith(lane)}))
        return problems


def _summarize(argv, code: int, stdout: str) -> dict:
    """The parts of a CLI result that are compared with the reference."""
    command = next(w for w in argv if w in ("check", "pinv", "predecessor",
                                              "criteria", "poset"))
    if code not in (0, 1):
        raise RuntimeError("exit code %d" % code)
    if command == "poset":
        if not stdout.startswith("digraph"):
            raise ValueError("poset output is not a DOT graph")
        return {"exit": code, "dot": stdout}
    obj = _strict_json(stdout)
    if command == "check":
        return {"exit": code, "verdict": obj["verdict"]}
    if command == "pinv":
        out = {"exit": code, "shape": [obj["rows"], obj["cols"]]}
        if obj["backend"] == "exact":
            out["entries"] = obj["entries"]
        return out
    if command == "predecessor":
        return {"exit": code, "idempotent": obj["idempotent"]["entries"],
                "shape": [obj["predecessor"]["rows"], obj["predecessor"]["cols"]]}
    return {"exit": code, **{k: obj[k] for k in ("reverse_order_law", "bidagger",
                                                 "dagger_isotone")}}


WORKLOADS = {w.name: w for w in (ExactBattery(), FloatBattery(), DiamondFamily(),
                                 CliWorkload())}


# -- predicate-layer dimension sweep (traced runs only) -------------------

SWEEP = (("float", (8, 32, 128)), ("exact", (3, 5, 8, 12)))


def sweep_pair(backend: str, n: int, rng: random.Random):
    """A pair with a below b in the diamond order, so leq_diamond does the
    full work of a true verdict.

    Float: the predecessor of a random base of rank n/2 for the idempotent
    diag(1, .., 1, 0, .., 0) of rank n/4. Exact: a = diag(A1, 0) and
    b = diag(A1, D), an orthogonal sum, which is star-below and so
    diamond-below.
    """
    if backend == "float":
        r = max(n // 2, 1)
        b = sampling.random_base_matrix(n, r, rng)
        t = Matrix.from_ndarray(np.diag([1.0] * (r // 2) + [0.0] * (r - r // 2)))
        return predecessors.diamond_predecessor(b, t), b
    k = n // 2
    a1 = sampling.exact_matrix(rng, k, k)
    d = sampling.exact_matrix(rng, n - k, n - k)
    z = Matrix.zeros(k, n - k)
    zt = Matrix.zeros(n - k, k)
    return (block([[a1, z], [zt, Matrix.zeros(n - k, n - k)]]),
            block([[a1, z], [zt, d]]))
