"""A fixed slice of the verdict corpus still gives the committed outputs.

tools/verdicts.py writes VERDICTS.json: the output of every operation of the
benchmark pools at fixed seeds, plus two fixed-seed fuzz runs. Rerunning all
of it takes minutes, so this suite replays about 200 of those operations
(the first units of one pool per workload) and checks each output against
the committed file, so that a change that moves a verdict fails fast. The
script's --check mode is tested on a stand-in corpus.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (workload, seed, units of its pool): 72 + 108 + 10 + 23 operations. Every
# ninth exact pair covers the eight construction kinds of that pool, and
# the first twelve float pairs its kinds at n = 16, 32 and 64.
SLICE = [("exact-battery", 1, slice(0, None, 9)),
         ("float-battery", 1, slice(0, 12)),
         ("diamond-family", 1, slice(0, None, 4)),
         ("cli", 1, slice(None))]


@pytest.fixture(scope="module")
def verdicts():
    spec = importlib.util.spec_from_file_location(
        "matorder_verdicts", ROOT / "tools" / "verdicts.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def workloads(verdicts):
    return verdicts.load_workloads().WORKLOADS


@pytest.fixture(scope="module")
def committed():
    return json.loads((ROOT / "VERDICTS.json").read_text())


def test_corpus_covers_every_operation(committed):
    # 4,224 pool operations (exact-battery 1-3, float-battery 1-10,
    # diamond-family 1-3) and the 23 commands of the cli pool
    ops = sum(len(out) for key, out in committed.items()
              if not key.startswith("fuzz/"))
    assert ops == 4224 + 23
    assert committed["fuzz/exact"]["exit"] == 0
    assert committed["fuzz/float"]["exit"] == 0


@pytest.mark.parametrize("name, seed, units", SLICE, ids=[w for w, _, _ in SLICE])
def test_slice_matches_committed_corpus(verdicts, workloads, committed,
                                        tmp_path, name, seed, units):
    workload = workloads[name]
    for key, unit in verdicts.pool(workload, seed, tmp_path)[units]:
        assert verdicts.unit_outputs(workload, unit, tmp_path) == committed[key], key


def test_check_prints_each_moved_key_and_writes_nothing(verdicts, committed, tmp_path,
                                                      monkeypatch, capsys):
    path = tmp_path / "VERDICTS.json"
    text = verdicts.dumps(committed)
    path.write_text(text)
    monkeypatch.setattr(verdicts, "corpus", lambda: committed)
    assert verdicts.main(["--check", str(path)]) == 0
    assert capsys.readouterr().out == ""
    first, last = list(committed)[0], list(committed)[-1]
    moved = dict(committed, **{first: {"moved": True}})
    del moved[last]
    monkeypatch.setattr(verdicts, "corpus", lambda: moved)
    assert verdicts.main(["--check", str(path)]) == 1
    assert capsys.readouterr().out.split() == sorted([first, last])
    assert path.read_text() == text
