"""End-to-end command line behavior, run in process via main(argv)."""

import json
import warnings

import pytest

from matorder import Matrix, matrix_to_json
from matorder.cli import main

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
