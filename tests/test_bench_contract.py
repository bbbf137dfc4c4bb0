"""The benchmark's tracer still finds every binding it wraps.

perfbench/tracer.py times matorder from outside by replacing named
bindings: functions on their modules and their ``from .x import f`` copies,
the RELATIONS values, Matrix operators and ``numpy.linalg.svd``. A refactor
that renames or drops one of them breaks the traced benchmark run, so this
suite loads the tracer (without writing into its directory) and checks that
it installs and uninstalls cleanly.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import matorder
from matorder import matrix, orders
from matorder.matrix import Matrix

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _bindings():
    """Every (owner, name, value) the tracer may replace."""
    out = [(np.linalg, "svd", np.linalg.svd)]
    out += [(Matrix, k, v) for k, v in vars(Matrix).items()]
    out += [(orders.RELATIONS, k, v) for k, v in orders.RELATIONS.items()]
    for name, module in sys.modules.items():
        if name == "matorder" or name.startswith("matorder."):
            out += [(module, k, v) for k, v in vars(module).items()]
    return out


def test_self_test_is_clean(tracer):
    assert tracer.self_test() == []


def test_install_covers_every_traced_name_and_uninstall_restores(tracer):
    before = _bindings()
    t = tracer.Tracer()
    with t.installed():
        during = _bindings()
        found = {getattr(v, "traced_name", None) for _, _, v in during}
        assert set(tracer.traced_names()) <= found
        assert orders.rank.traced_name == "matrix.rank"
        assert matrix.rank.traced_name == "matrix.rank"
        for fn in orders.RELATIONS.values():
            name = fn.__wrapped__.__name__
            assert fn.traced_name == "orders." + name
            assert getattr(orders, name) is fn
            assert getattr(matorder, name) is fn
        # a float rank reaches numpy's svd through the call-time lookup
        matrix.rank(Matrix.from_complex([[1, 0], [0, 2]]))
        assert t.stats["numpy.linalg.svd"].calls == 1
    after = _bindings()
    assert [(o, k) for o, k, _ in after] == [(o, k) for o, k, _ in before]
    assert all(v is w for (_, _, v), (_, _, w) in zip(before, after))
    assert not any(hasattr(v, "traced_name") for _, _, v in after)
