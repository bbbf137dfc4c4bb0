"""Every entry of the verdict corpus still gives the committed output.

tools/verdicts.py writes VERDICTS.json: the output of every operation of the
benchmark pools at fixed seeds, plus two fixed-seed fuzz runs. This suite
regenerates the whole corpus, one case per section (each workload's pools,
and the fuzz runs), and compares it with the committed file, so a change
that moves any recorded verdict fails and names the keys it moved. The
script's --check mode is tested on a stand-in corpus.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_verdicts():
    spec = importlib.util.spec_from_file_location(
        "matorder_verdicts", ROOT / "tools" / "verdicts.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


verdicts = _load_verdicts()


@pytest.fixture(scope="module")
def committed():
    return json.loads((ROOT / "VERDICTS.json").read_text())


def _in_section(key: str, name: str) -> bool:
    return key.startswith(name + "/")


def test_corpus_covers_every_operation(committed):
    # with the section cases this is what --check checks: the file is in
    # the form the script writes, and each key lies in exactly one
    # section, no section empty, the sections in corpus order
    assert verdicts.dumps(committed) == (ROOT / "VERDICTS.json").read_text()
    owners = []
    for key in committed:
        owner = [i for i, name in enumerate(verdicts.SECTIONS) if _in_section(key, name)]
        assert len(owner) == 1, key
        owners += owner
    assert owners == sorted(owners)
    assert set(owners) == set(range(len(verdicts.SECTIONS)))
    assert committed["fuzz/exact"]["exit"] == 0
    assert committed["fuzz/float"]["exit"] == 0


@pytest.mark.parametrize("name", verdicts.SECTIONS)
def test_section_matches_committed_corpus(committed, name):
    fresh = dict(verdicts.section(name))
    want = {key: out for key, out in committed.items() if _in_section(key, name)}
    assert verdicts.moved(want, fresh) == []
    # the same keys in the same order and the same JSON text: moved()
    # compares values, and 1 == 1.0 == True
    assert verdicts.dumps(fresh) == verdicts.dumps(want)


def test_check_prints_each_moved_key_and_writes_nothing(committed, tmp_path,
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
