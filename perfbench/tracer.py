"""Per-call tracing of matorder's public functions, from outside the library.

A Tracer replaces every binding of each traced function with one timing
wrapper while it is installed: the attribute on the defining module, the
``from .x import f`` copies in the other matorder modules and the package
namespace, values in module-level dicts such as RELATIONS, the Matrix
methods on the class, and ``numpy.linalg.svd``. Uninstalling puts every
original back. Nothing under ``src/`` changes.

Each wrapper keeps a stack of open spans, so a function's self time is its
duration minus the part covered by traced callees. Counts (calls, distinct
inputs, multiply-adds) depend only on the inputs, so two traced runs at one
seed give identical counts.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import numpy as np

from matorder import cli, decomp, matrix, orders, pinv, poset, predecessors, subspaces
from matorder.matrix import FLOAT, Matrix

# (metric prefix, owner object, attribute name); the prefix is
# "<module>.<function>", with Matrix operators under matrix.<operation>.
_METHODS = [
    ("matrix.matmul", Matrix, "__matmul__"),
    ("matrix.add", Matrix, "__add__"),
    ("matrix.sub", Matrix, "__sub__"),
    ("matrix.neg", Matrix, "__neg__"),
    ("matrix.conj_transpose", Matrix, "conj_transpose"),
    ("matrix.frobenius", Matrix, "frobenius"),
]
_FUNCTIONS = [
    (matrix, ["matrices_equal", "rank", "exact_rref", "inverse",
              "matrix_from_json", "matrix_to_dict"]),
    (pinv, ["moore_penrose", "inner_inverse", "projector_range",
            "projector_rowspace"]),
    (subspaces, ["column_space", "subspace_leq", "subspace_intersection_dim"]),
    (decomp, ["hartwig_spindelbock"]),
    (orders, sorted({f.__name__ for f in list(orders.RELATIONS.values())
                     + list(orders.DIAMOND_ROUTES.values())})),
    (predecessors, ["build_predecessor", "diamond_predecessor",
                    "predecessor_mp", "recover_idempotent",
                    "reverse_order_law", "is_bidagger", "dagger_isotone"]),
    (poset, ["build_poset"]),
    (cli, ["main"]),
]

# Factorizations whose first argument is recorded by value, to count how
# many calls repeat work already done on an equal matrix.
FACTORIZATIONS = ("matrix.rank", "pinv.moore_penrose", "subspaces.column_space",
                  "decomp.hartwig_spindelbock")

LAYERS = {
    "kernels": ("matrix.matmul", "matrix.add", "matrix.sub", "matrix.neg",
                "matrix.conj_transpose", "matrix.frobenius",
                "matrix.matrices_equal"),
    "factorizations": ("matrix.rank", "matrix.exact_rref", "matrix.inverse",
                       "numpy.linalg.svd", "pinv.", "subspaces.", "decomp."),
    "predicates": ("orders.", "predecessors."),
    "drivers": ("poset.", "cli.", "matrix.matrix_from_json",
                "matrix.matrix_to_dict"),
}


def traced_names():
    """Metric prefixes of every traced function, in a fixed order."""
    names = [prefix for prefix, _, _ in _METHODS]
    for module, attrs in _FUNCTIONS:
        short = module.__name__.rsplit(".", 1)[1]
        names.extend("%s.%s" % (short, attr) for attr in attrs)
    names.append("numpy.linalg.svd")
    return names


def layer_of(name: str) -> str:
    for layer, prefixes in LAYERS.items():
        if any(name == p or (p.endswith(".") and name.startswith(p))
               for p in prefixes):
            return layer
    raise KeyError(name)


class _Stat:
    __slots__ = ("calls", "errors", "self_s", "keys", "madds", "bytes")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.self_s = 0.0
        self.keys = set()
        self.madds = 0
        self.bytes = 0


class Tracer:
    """Collects calls, self time, errors and input counts per traced function."""

    def __init__(self):
        self.stats = {name: _Stat() for name in traced_names()}
        self._open = []
        self._undo = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        open_spans = self._open
        keyed = name in FACTORIZATIONS
        product = name == "matrix.matmul"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stat.calls += 1
            if keyed:
                stat.keys.add(hash(args[0]))
            if product:
                a, b = args
                m, k, n = a.rows, a.cols, b.cols
                stat.madds += m * k * n
                if a.backend == FLOAT:
                    stat.bytes += 16 * (m * k + k * n + m * n)
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                span = clock() - start
                open_spans.pop()
                stat.self_s += span - children[0]
                if open_spans:
                    open_spans[-1][0] += span

        traced.__wrapped__ = fn
        traced.traced_name = name
        return traced

    def _set(self, owner, key, value, setter):
        old = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        self._undo.append((owner, key, old, setter))
        setter(owner, key, value)

    def install(self):
        originals = {}
        for prefix, cls, attr in _METHODS:
            fn = cls.__dict__[attr]
            wrapper = self._wrap(prefix, fn)
            self._set(cls, attr, wrapper, setattr)
        for module, attrs in _FUNCTIONS:
            short = module.__name__.rsplit(".", 1)[1]
            for attr in attrs:
                fn = getattr(module, attr)
                originals[id(fn)] = self._wrap("%s.%s" % (short, attr), fn)
        # every module-level binding and dict value that holds an original
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "matorder"
                                      or mod_name.startswith("matorder.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    self._set(module, attr, originals[id(value)], setattr)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals:
                            self._set(value, key, originals[id(item)],
                                      dict.__setitem__)
        self._set(np.linalg, "svd",
                  self._wrap("numpy.linalg.svd", np.linalg.svd), setattr)

    def uninstall(self):
        while self._undo:
            owner, key, old, setter = self._undo.pop()
            setter(owner, key, old)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def metrics(self) -> dict:
        """Every stat of every traced function, plus per-layer self time."""
        out = {}
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            out[name + ".calls"] = st.calls
            out[name + ".self_s"] = st.self_s
            out[name + ".errors"] = st.errors
            layers[layer_of(name)] += st.self_s
            if name in FACTORIZATIONS:
                out[name + ".distinct"] = len(st.keys)
                out[name + ".useful_ratio"] = (len(st.keys) / st.calls
                                               if st.calls else 0.0)
        out["matrix.matmul.madds"] = self.stats["matrix.matmul"].madds
        out["matrix.matmul.bytes_computed"] = self.stats["matrix.matmul"].bytes
        out["trace.errors"] = sum(st.errors for st in self.stats.values())
        for layer, total in layers.items():
            out["layer.%s.self_s" % layer] = total
        return out


def self_test() -> list:
    """Check the wrapping on one float leq_minus call and return any problems.

    leq_minus computes three ranks (a, b and b - a) and each float rank is
    one SVD, so exactly three of each must be counted, and the verdict must
    match the untraced call.
    """
    a = Matrix.from_complex([[1, 0], [0, 0]])
    b = Matrix.from_complex([[1, 0], [0, 2]])
    plain = orders.RELATIONS["minus"](a, b).verdict
    tracer = Tracer()
    with tracer.installed():
        traced = orders.RELATIONS["minus"](a, b).verdict
    problems = []
    for name in ("matrix.rank", "numpy.linalg.svd"):
        calls = tracer.stats[name].calls
        if calls != 3:
            problems.append("%s counted %d calls, expected 3" % (name, calls))
    if plain != traced:
        problems.append("tracing changed the leq_minus verdict")
    if any(hasattr(f, "traced_name") for f in (
            np.linalg.svd, Matrix.__matmul__, orders.RELATIONS["minus"],
            orders.rank, matrix.rank)):
        problems.append("uninstall left a wrapper in place")
    return problems
