"""The package loads a module only when one of its names is used.

``import matorder`` loads no submodule, and each CLI command imports only
the modules it runs, so a process never compiles the rest. The public
names still resolve through the package, always to the home module's
current binding.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matorder
from matorder import Matrix, matrix_to_json, orders

SRC = str(Path(matorder.__file__).resolve().parent.parent)

# run one CLI command in a fresh interpreter and print the matorder
# modules it loaded, with the exit code
PROBE = """
import contextlib, io, json, sys
from matorder.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] == "matorder")]))
"""

CORE = {"matorder", "matorder.cli", "matorder.errors", "matorder.scalars",
        "matorder.matrix", "matorder.subspaces", "matorder.pinv",
        "matorder.orders"}


def _fresh(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return proc.stdout


@pytest.mark.parametrize("command, mat, extra", [
    (["check", "--order", "star"], Matrix.exact([[1, 2], [0, 0]]), set()),
    (["pinv"], Matrix.exact([[1, 2], [0, 0]]), set()),
    (["check", "--order", "space"], Matrix.from_complex([[1, 2j], [0.3, 4.5]]),
     {"matorder.sampling"}),
], ids=["check-star", "pinv", "check-space"])
def test_cli_command_loads_only_its_modules(tmp_path, command, mat, extra):
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json(mat))
    files = [str(path)] * (2 if command[0] == "check" else 1)
    code, loaded = json.loads(_fresh("-c", PROBE, *command, *files))
    assert code == 0
    assert set(loaded) == CORE | extra


def test_bare_import_loads_no_submodule():
    out = _fresh("-c", "import json, sys, matorder; print(json.dumps(sorted(sys.modules)))")
    assert [m for m in json.loads(out) if m.startswith("matorder.")] == []


def test_every_public_name_is_its_home_modules_attribute():
    assert set(matorder.__all__) == {*matorder._HOME, "__version__"}
    for name, module in matorder._HOME.items():
        home = importlib.import_module("matorder." + module)
        value = getattr(matorder, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_star_import_and_dir_cover_every_public_name():
    namespace = {}
    exec("from matorder import *", namespace)
    assert set(matorder.__all__) <= set(namespace)
    assert set(matorder.__all__) <= set(dir(matorder))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        matorder.no_such_name
    assert not hasattr(matorder, "leq_nothing")


def test_package_keeps_no_stale_binding(monkeypatch):
    before = matorder.leq_star
    sentinel = object()
    monkeypatch.setattr(orders, "leq_star", sentinel)
    assert matorder.leq_star is sentinel
    monkeypatch.undo()
    assert matorder.leq_star is before
