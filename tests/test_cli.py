"""End-to-end command line behavior, run in process via main(argv)."""

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matorder
from conftest import AS_CAP
from matorder import EQ_TOL, MatOrderError, Matrix, leq_space, matrix_to_json
from matorder.cli import _json_text, main
from matorder.fuzz import EXACT_PROPERTIES
from matorder.orders import DIAMOND_ROUTES, RELATIONS

A = Matrix.exact([[0, 1], [0, 0]])
B = Matrix.exact([[1, 1], [0, 1]])
B2 = Matrix.exact([[1, 0], [-1, 1]])
DIAG = Matrix.exact([[2, 0], [0, 1]])


@pytest.fixture
def files(tmp_path):
    def write(name, mat):
        p = tmp_path / name
        p.write_text(matrix_to_json(mat))
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_true_pair(files, capsys):
    a, b = files("a.json", A), files("b.json", B)
    code, out, _ = run(capsys, "check", "--order", "diamond", a, b)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["relation"] == "diamond"


def test_check_space_on_empty_columns(files, capsys):
    a = files("a.json", Matrix.zeros(3, 0))
    code, out, _ = run(capsys, "check", "--order", "space", a, a)
    assert code == 0
    assert json.loads(out)["verdict"] is True


@pytest.mark.parametrize("pair", [
    (A, B),
    (Matrix.from_complex([[1, 2j, 0], [0, 0, 0]]),
     Matrix.from_complex([[1, 2j, 0], [0, 0.5, 3]])),
], ids=["exact", "float"])
def test_check_space_reports_five_inner_samples(files, capsys, pair):
    # the library samples no inner inverse by default; check asks for five
    a, b = pair
    code, out, _ = run(capsys, "check", "--order", "space",
                       files("a.json", a), files("b.json", b))
    want = leq_space(a, b, EQ_TOL, inner_samples=5).to_dict()
    assert code == 0
    assert out == json.dumps(want, indent=2) + "\n"
    assert '"inner_inverse_identities": true' in out


def test_check_space_samples_from_seed(files, capsys):
    # the sampled inner inverses, and so the margin, follow --seed
    b = Matrix.from_complex([[1, 2j], [0.3, 4.5]])
    path = files("b.json", b)
    outs = {}
    for seed in (0, 1):
        code, outs[seed], _ = run(capsys, "--seed", str(seed), "check",
                                  "--order", "space", path, path)
        want = leq_space(b, b, EQ_TOL, inner_samples=5,
                         rng=random.Random(seed)).to_dict()
        assert code == 0
        assert outs[seed] == json.dumps(want, indent=2) + "\n"
    assert outs[0] != outs[1]


def test_check_false_pair_exits_one(files, capsys):
    a, b = files("a.json", A), files("b2.json", B2)
    code, out, _ = run(capsys, "check", "--order", "diamond", a, b)
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_check_each_route(files, capsys):
    a, b = files("a.json", A), files("b.json", B)
    for via in ("definition", "dagger-minus", "range-split", "rank"):
        code, out, _ = run(capsys, "check", "--order", "diamond",
                           "--via", via, a, b)
        assert code == 0, via


def test_via_is_diamond_only(files, capsys):
    a, b = files("a.json", A), files("b.json", B)
    code, _, err = run(capsys, "check", "--order", "star", "--via", "rank",
                       a, b)
    assert code == 2
    assert "--via" in err


def test_check_reflexive(files, capsys):
    b = files("b.json", B)
    code, _, _ = run(capsys, "check", "--order", "star", b, b)
    assert code == 0


def test_pinv_round_trip(files, capsys):
    a = files("a.json", A)
    code, out, _ = run(capsys, "pinv", a)
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 2 and payload["backend"] == "exact"
    from matorder import matrix_from_dict
    assert matrix_from_dict(payload) == Matrix.exact([[0, 0], [1, 0]])


def test_decompose_needs_float(files, capsys):
    d = files("diag.json", DIAG)
    code, _, err = run(capsys, "decompose", "svd", d)
    assert code == 2
    assert "float" in err


def test_decompose_svd_with_cast(files, capsys):
    d = files("diag.json", DIAG)
    code, out, _ = run(capsys, "--backend", "float", "decompose", "svd", d)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"u", "sigma", "v"}
    assert abs(payload["sigma"][0] - 2.0) < 1e-9


def test_decompose_hs(files, capsys):
    d = files("diag.json", DIAG.to_float())
    code, out, _ = run(capsys, "decompose", "hs", d)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"u", "sigma", "k", "l", "rank"}
    assert payload["rank"] == 2


def test_predecessor_seeded_and_repeatable(files, capsys):
    d = files("diag.json", DIAG.to_float())
    code, out1, _ = run(capsys, "--seed", "5", "predecessor", d)
    assert code == 0
    code, out2, _ = run(capsys, "--seed", "5", "predecessor", d)
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {"idempotent", "predecessor", "pinv"}


def test_predecessor_with_explicit_parameter(files, capsys):
    d = files("diag.json", DIAG.to_float())
    t = files("t.json", Matrix.from_complex([[1, 1], [0, 0]]))
    code, out, _ = run(capsys, "predecessor", d, "--t", t)
    assert code == 0
    from matorder import matrices_equal, matrix_from_dict
    payload = json.loads(out)
    pred = matrix_from_dict(payload["predecessor"])
    assert matrices_equal(pred, Matrix.from_complex([[1, 0], [1, 0]]), 1e-9)


def test_predecessor_rank_flag(files, capsys):
    d = files("diag.json", DIAG.to_float())
    code, out, _ = run(capsys, "predecessor", d, "--rank", "0")
    assert code == 0
    payload = json.loads(out)
    from matorder import matrix_from_dict
    assert matrix_from_dict(payload["predecessor"]).frobenius() < 1e-12


def test_criteria_payload(files, capsys):
    d = files("diag.json", DIAG.to_float())
    t = files("t.json", Matrix.from_complex([[1, 0], [0, 0]]))
    code, out, _ = run(capsys, "criteria", d, "--t", t)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"idempotent", "reverse_order_law", "bidagger",
                            "dagger_isotone"}
    for key in ("reverse_order_law", "bidagger", "dagger_isotone"):
        block = payload[key]
        assert set(block) == {"direct", "criterion"}
        assert block["direct"] == block["criterion"]


def test_fuzz_green_run(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "5", "--dim-max", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    assert payload["trials"] == 5


def test_fuzz_zero_trials(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "0")
    assert code == 0
    assert json.loads(out)["properties"] == []


def test_fuzz_dim_max_one(capsys):
    # float pairs are at least 2 x 2, so the float suite refuses the bound
    # as a usage error; the exact suite runs 1 x 1 pairs as before
    code, out, err = run(capsys, "--backend", "float", "fuzz", "--trials", "1",
                         "--dim-max", "1")
    assert code == 2 and out == ""
    assert err == "error: the float suite needs dim_max >= 2\n"
    code, out, _ = run(capsys, "fuzz", "--trials", "1", "--dim-max", "1")
    assert code == 0
    assert json.loads(out) == {
        "backend": "exact", "seed": 0, "trials": 1, "tol": EQ_TOL,
        "dims": [1, 1], "failures": 0,
        "properties": [{"name": name, "trials": 1, "failures": 0,
                        "first_counterexample": None}
                       for name, _ in EXACT_PROPERTIES]}


def test_fuzz_deterministic(capsys):
    code, out1, _ = run(capsys, "--seed", "4", "fuzz", "--trials", "4",
                        "--dim-max", "3")
    _, out2, _ = run(capsys, "--seed", "4", "fuzz", "--trials", "4",
                     "--dim-max", "3")
    assert code == 0 and out1 == out2


def test_poset_directory(tmp_path, capsys):
    corpus = tmp_path / "mats"
    corpus.mkdir()
    (corpus / "a.json").write_text(matrix_to_json(A))
    (corpus / "b.json").write_text(matrix_to_json(B))
    (corpus / "zero.json").write_text(matrix_to_json(Matrix.zeros(2, 2)))
    (corpus / "notes.txt").write_text("ignored")
    code = main(["poset", str(corpus)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph poset {")
    assert '"zero" -> "a";' in out
    assert '"a" -> "b";' in out
    assert '"zero" -> "b";' not in out


def test_poset_rejects_non_directory(tmp_path, capsys):
    code, _, err = run(capsys, "poset", str(tmp_path / "missing"))
    assert code == 2 and "directory" in err


def test_poset_rejects_empty_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(capsys, "poset", str(empty))
    assert code == 2


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "pinv", "/nonexistent/m.json")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 1}')
    code, _, err = run(capsys, "pinv", str(bad))
    assert code == 2


def test_check_load_error_names_the_file(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "check", "--order", "diamond",
                         files("a.json", A), str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: %s: invalid JSON: " % bad)
    assert err.count("\n") == 1


def test_poset_load_error_names_the_file(tmp_path, capsys):
    corpus = tmp_path / "mats"
    corpus.mkdir()
    (corpus / "a.json").write_text(matrix_to_json(A))
    (corpus / "bad.json").write_text('{"rows": 1}')
    code, out, err = run(capsys, "poset", str(corpus))
    assert code == 2 and out == ""
    assert err == ("error: %s: matrix object needs rows/cols/backend/entries\n"
                   % (corpus / "bad.json"))


@pytest.mark.parametrize("content", [
    b"\xff" + random.Random(0).randbytes(199),
    b"[" * 100000 + b"]" * 100000,
], ids=["non-utf-8", "nested-100000-deep"])
@pytest.mark.parametrize("command", ["pinv", "poset"])
def test_unparsable_bytes_are_a_usage_error(tmp_path, capsys, content, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, command, str(bad if command == "pinv" else tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: %s: invalid JSON: " % bad)
    assert err.count("\n") == 1


@pytest.mark.parametrize("backend", ["[" * 900 + "]" * 900,
                                     json.dumps("b" * 5_000_000)])
def test_error_line_echoes_a_huge_backend_cut_short(tmp_path, capsys, backend):
    # the repr of the 900-deep list alone runs past 1,800 bytes
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 1, "cols": 1, "backend": %s, '
                   '"entries": [[["1", "0"]]]}' % backend)
    code, out, err = run(capsys, "pinv", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: %s: unknown backend " % bad)
    assert err.count("\n") == 1
    assert len(err) < len(str(bad)) + 80


def test_closed_stdout_ends_without_a_traceback(files):
    # the pipe's read end is closed before the process starts, so its
    # first write fails with EPIPE; it exits with check's own code
    a = files("a.json", A)
    b = files("b.json", B2)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "matorder.cli", "check", "--order", "star", a, b],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(Path(matorder.__file__).parent.parent)))
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_running_out_of_memory_exits_two(tmp_path, backend):
    # the free side of an empty matrix asks the float pinv for a full SVD of
    # 256 PiB, and the exact one for one JSON row per column: both pass the
    # address-space cap that conftest.py sets, which the process inherits
    assert resource.getrlimit(resource.RLIMIT_AS)[0] <= AS_CAP
    wide = tmp_path / "wide.json"
    wide.write_text('{"rows": 0, "cols": 134217728, "backend": "%s", '
                    '"entries": []}' % backend)
    proc = subprocess.run(
        [sys.executable, "-m", "matorder.cli", "pinv", str(wide)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(matorder.__file__).parent.parent)))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
def test_pinv_reads_every_json_encoding(tmp_path, capsys, encoding):
    text = matrix_to_json(Matrix.from_complex([[1, 2j], [0.3, 4.5]]))
    paths = [tmp_path / "utf-8.json", tmp_path / ("%s.json" % encoding)]
    paths[0].write_bytes(text.encode("utf-8"))
    paths[1].write_bytes(text.encode(encoding))
    want = run(capsys, "pinv", str(paths[0]))
    assert want[0] == 0
    assert run(capsys, "pinv", str(paths[1])) == want


def test_non_finite_entries_are_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"rows": 1, "cols": 2, "backend": "float", '
                   '"entries": [[[NaN, 0.0], [1.0, 0.0]]]}')
    code, _, err = run(capsys, "pinv", str(bad))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("order", ["star", "minus", "diamond"])
def test_overflowing_entries_are_a_usage_error(files, capsys, order):
    # a 1e308 entry is finite, but the products the relations form are not;
    # the overflow is reported once, as the error, without numpy warnings
    a = files("a.json", Matrix.from_complex([[1e308]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "check", "--order", order, a, a)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, entry", [
    # 1 / (1 + iN) has a denominator of 8,000 digits, past what int() writes
    (["pinv"], (1, int("9" * 4000))),
    # an exact entry beyond the float range, cast to float
    (["--backend", "float", "pinv"], (10 ** 400, 0)),
])
def test_unwritable_result_is_a_usage_error(files, capsys, argv, entry):
    a = files("a.json", Matrix.exact([[entry]]))
    code, out, err = run(capsys, *argv, a)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_mixed_backends_need_explicit_cast(files, capsys):
    a = files("a.json", A)
    bf = files("bf.json", B.to_float())
    code, _, err = run(capsys, "check", "--order", "diamond", a, bf)
    assert code == 2
    assert "mix backends" in err
    code, _, _ = run(capsys, "--backend", "float", "check", "--order",
                     "diamond", a, bf)
    assert code == 0


def test_exact_flag_refuses_float_input(files, capsys):
    bf = files("bf.json", B.to_float())
    code, _, err = run(capsys, "--backend", "exact", "pinv", bf)
    assert code == 2
    assert "exact" in err


@pytest.mark.parametrize("tol", ["-1", "nan"])
@pytest.mark.parametrize("order, via", [("star", "definition"), ("minus", "definition"),
                                        ("diamond", "definition"), ("diamond", "rank")])
def test_invalid_tolerance_is_a_usage_error(files, capsys, tol, order, via):
    a = files("a.json", Matrix.from_complex([[1, 2j], [0, 3]]))
    code, out, err = run(capsys, "--tol", tol, "check", "--order", order,
                         "--via", via, a, a)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("tol", ["-1", "nan"])
@pytest.mark.parametrize("command", [["check", "--order", "star"],
                                     ["check", "--order", "space"], ["poset"]])
def test_invalid_tolerance_on_exact_input_is_a_usage_error(tmp_path, capsys,
                                                           tol, command):
    # an exact comparison takes no bound, and these once exited 0
    (tmp_path / "e.json").write_text(matrix_to_json(Matrix.exact([[1, 2], [0, 3]])))
    paths = [str(tmp_path)] if command == ["poset"] else [str(tmp_path / "e.json")] * 2
    code, out, err = run(capsys, "--tol", tol, *command, *paths)
    assert code == 2
    assert out == ""
    assert err.startswith("error: tolerance bound")


def test_fuzz_rejects_nan_tolerance(capsys):
    code, out, err = run(capsys, "--tol", "nan", "fuzz", "--trials", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_non_finite_result_is_a_usage_error(capsys):
    with pytest.raises(MatOrderError):
        _json_text({"margin": float("nan")})
    assert capsys.readouterr().out == ""


def test_zero_tolerance_check_on_equal_float_operands(files, capsys):
    # a zero bound once divided 0 by 0 here and ended in a traceback
    a = files("a.json", Matrix.from_complex([[1, 0], [0, 2]]))
    code, out, err = run(capsys, "--tol", "0", "check", "--order", "star", a, a)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["verdict"] is True and payload["witnesses"]["margin"] == 0.0


def test_zero_tolerance_false_verdict_prints_null_margin(files, capsys):
    # unequal sides under a zero bound have an infinite margin, which JSON
    # spells as null
    a = files("a.json", Matrix.from_complex([[1, 0], [0, 2]]))
    b = files("b.json", Matrix.from_complex([[1, 0], [0, 3]]))
    code, out, err = run(capsys, "--tol", "0", "check", "--order", "star", a, b)
    assert code == 1 and err == ""
    payload = _strict_json(out)
    assert payload["verdict"] is False and payload["witnesses"]["margin"] is None


@pytest.mark.parametrize("order, margin", [
    ("space", None), ("diamond", None), ("star", 0.0)])
def test_zero_tolerance_prints_true_verdict(files, capsys, order, margin):
    # B B+ A = A carries roundoff, infinite over a zero bound, while the
    # range inclusions that decide space and diamond hold
    b_mat = Matrix.from_complex([[1, 2j], [0.3, 4.5]])
    assert leq_space(b_mat, b_mat, 0.0).witnesses["margin"] == float("inf")
    b = files("b.json", b_mat)
    code, out, err = run(capsys, "--tol", "0", "check", "--order", order, b, b)
    assert code == 0 and err == ""
    payload = _strict_json(out)
    assert payload["verdict"] is True and payload["witnesses"]["margin"] == margin


@pytest.mark.parametrize("via", sorted(DIAMOND_ROUTES))
def test_zero_tolerance_diamond_routes_agree(files, capsys, via):
    # the rank route once read the roundoff of (I - B+B) B+ as rank here
    b = files("b.json", Matrix.from_complex([[1, 2j], [0.3, 4.5]]))
    code, out, err = run(capsys, "--tol", "0", "check", "--order", "diamond",
                         "--via", via, b, b)
    assert code == 0 and err == ""
    assert _strict_json(out)["verdict"] is True


def test_zero_tolerance_poset(tmp_path, capsys):
    corpus = tmp_path / "mats"
    corpus.mkdir()
    (corpus / "a.json").write_text(matrix_to_json(Matrix.from_complex([[1, 0], [0, 2]])))
    (corpus / "zero.json").write_text(matrix_to_json(Matrix.from_complex([[0, 0], [0, 0]])))
    code, out, err = run(capsys, "--tol", "0", "poset", str(corpus))
    assert code == 0 and err == ""
    assert '"zero" -> "a";' in out


# JSON values that stress the wire format: huge ints, subnormals, -0.0,
# 1e308, bools, strings (rationals among them) and nesting. json.dumps
# cannot write an int past the 4,300 digits that int() converts by
# default, so a marker string stands for one until the text is written.
HUGE_INT = "<int of 5000 digits>"
EDGE_NUMBERS = st.sampled_from([0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300,
                                1e154, 1e308, -1e308, 1.7976931348623157e308,
                                10 ** 400, -(10 ** 400)]) | st.just(HUGE_INT)
SMALL_NUMBERS = st.integers(-2, 2) | st.floats(-4, 4)
NUMBERS = (EDGE_NUMBERS | SMALL_NUMBERS
           | st.floats(allow_nan=False, allow_infinity=False))
SMALL_RATIONALS = st.sampled_from(["0", "1", "-1/2", "3/7", "2"])
RATIONALS = SMALL_RATIONALS | st.sampled_from([
    "1/0", "2.5", "1e300", "-0", "9" * 4000, "9" * 5000 + "/7",
    "1/" + "3" * 300, " 1/2 ", "x", "", "1//2"])
SCALARS = (st.none() | st.booleans() | NUMBERS | RATIONALS
           | st.text(alphabet="ab/.- ", max_size=4))
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3), max_leaves=8)


def _matrix_docs(rows, cols):
    """rows x cols matrix documents: well formed with small entries, well
    formed with edge values anywhere, damaged in any field, or no matrix."""
    def doc(backend, value, junk=st.nothing()):
        pair = st.lists(value, min_size=2, max_size=2) | junk
        grid = st.lists(st.lists(pair, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows)
        return st.fixed_dictionaries({
            "rows": st.just(rows) | junk, "cols": st.just(cols) | junk,
            "backend": st.just(backend) | junk, "entries": grid | junk})

    return st.one_of(doc("float", SMALL_NUMBERS), doc("exact", SMALL_RATIONALS),
                     doc("float", NUMBERS), doc("exact", RATIONALS),
                     doc("float", SCALARS, JSON_VALUES),
                     doc("exact", SCALARS, JSON_VALUES), JSON_VALUES)


def _strict_json(text: str):
    def reject(token):
        raise ValueError("non-standard JSON constant %s" % token)
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("entry", ["1e-4301", "2.5E+4_301", "1e-1000000"])
def test_huge_decimal_exponent_is_a_usage_error(tmp_path, capsys, entry):
    # Fraction would compute 10**exponent before anything could refuse it
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"rows": 1, "cols": 1, "backend": "exact",
                                "entries": [[[entry, "0"]]]}))
    code, out, err = run(capsys, "pinv", str(path))
    assert code == 2
    assert out == ""
    assert "decimal exponent" in err


def _run_quietly(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@st.composite
def _cli_cases(draw):
    """(docs, order, via, backend, encoding): two matrix documents, the
    second often the first, and the options a ``check`` of them runs with."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    docs = [draw(_matrix_docs(rows, cols))]
    docs.append(draw(st.just(docs[0]) | _matrix_docs(rows, cols)))
    order = draw(st.sampled_from(sorted(RELATIONS)))
    via = draw(st.sampled_from(sorted(DIAMOND_ROUTES))) if order == "diamond" \
        else "definition"
    backend = draw(st.sampled_from([[], ["--backend", "float"]]))
    # the same documents written in any JSON encoding read the same
    encoding = draw(st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "utf-32"]))
    return docs, order, via, backend, encoding


# a side numpy cannot allocate once ended pinv in a ValueError traceback
_WIDE_EMPTY = {"rows": 0, "cols": 10 ** 400, "backend": "float", "entries": []}


@settings(max_examples=150, deadline=None)
@example(case=([_WIDE_EMPTY, _WIDE_EMPTY], "star", "definition", [], "utf-8"))
@example(case=([dict(_WIDE_EMPTY, backend="exact", cols=2 ** 40)] * 2, "space",
               "definition", [], "utf-8"))
@given(case=_cli_cases())
def test_cli_is_total_on_json_documents(case):
    docs, order, via, backend, encoding = case
    texts = [json.dumps(doc, ensure_ascii=False).replace('"%s"' % HUGE_INT, "9" * 5000)
             for doc in docs]
    with tempfile.TemporaryDirectory() as tmp:
        def runs(enc):
            paths = []
            for i, text in enumerate(texts):
                path = Path(tmp) / ("m%d.%s.json" % (i, enc))
                path.write_bytes(text.encode(enc))
                paths.append(str(path))
            return [backend + ["check", "--order", order, "--via", via] + paths,
                    backend + ["pinv", paths[0]]]
        for argv, again in zip(runs("utf-8"), runs(encoding)):
            code, out = _run_quietly(argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert out == "", argv
            else:
                _strict_json(out)
            assert _run_quietly(again) == (code, out), again
