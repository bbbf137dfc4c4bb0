"""Fuzz harness configuration, determinism, small green runs, and the
counterexamples a failing property reports."""

import json
import random

import pytest

from matorder import (EXACT, FLOAT, MatOrderError, Matrix, PropertyResult,
                      RunConfig, is_partial_isometry, leq_star,
                      matrix_from_dict, rank, run_all, run_property,
                      run_suite)
from matorder import cli, fuzz, orders
from matorder.fuzz import EXACT_PROPERTIES, FLOAT_PROPERTIES
from matorder.sampling import (exact_pair, float_pair, log_uniform_sigma,
                               partial_isometry_pair, random_base_matrix,
                               random_partial_isometry, random_unitary)


def test_config_validation():
    with pytest.raises(MatOrderError):
        RunConfig(backend="decimal")
    with pytest.raises(MatOrderError):
        RunConfig(tol=0.0)
    with pytest.raises(MatOrderError):
        RunConfig(rank_factor=-1.0)
    for knob in ("tol", "rank_factor"):
        with pytest.raises(MatOrderError):
            RunConfig(**{knob: float("nan")})
    with pytest.raises(MatOrderError):
        RunConfig(dim_min=0)
    with pytest.raises(MatOrderError):
        RunConfig(dim_min=4, dim_max=2)
    with pytest.raises(MatOrderError):
        RunConfig(trials=-1)


def test_float_config_needs_square_pairs_of_size_two():
    # the float properties draw n from max(2, dim_min)..dim_max, an empty
    # range at dim_max 1 that once ended the run in a ValueError
    with pytest.raises(MatOrderError, match="dim_max >= 2"):
        RunConfig(backend=FLOAT, dim_max=1)
    assert RunConfig(backend=FLOAT, dim_max=2).dim_max == 2
    assert RunConfig(backend=EXACT, dim_max=1).dim_max == 1


@pytest.mark.parametrize("knob", ["tol", "rank_factor"])
def test_config_refuses_an_infinite_knob(knob):
    # inf once passed here and stopped run_all at its first float rank or
    # bound with a DomainError
    with pytest.raises(MatOrderError, match="finite"):
        RunConfig(**{knob: float("inf")})


def test_property_result_shape():
    res = PropertyResult("x", 10, 0, None)
    assert res.passed
    assert res.to_dict() == {"name": "x", "trials": 10, "failures": 0,
                             "first_counterexample": None}
    assert not PropertyResult("x", 10, 3, {"trial": 7}).passed


def test_unknown_property_name():
    with pytest.raises(MatOrderError):
        run_property(RunConfig(trials=1), "no-such-property")


def test_zero_trials_yields_empty_suite():
    cfg = RunConfig(trials=0)
    assert run_suite(cfg) == []
    summary = run_all(cfg)
    assert summary["properties"] == []
    assert summary["failures"] == 0


def test_exact_suite_green_and_deterministic():
    cfg = RunConfig(backend=EXACT, trials=12, dim_max=4, seed=9)
    one = run_all(cfg)
    two = run_all(cfg)
    assert one == two
    assert one["failures"] == 0
    assert one["backend"] == EXACT and one["seed"] == 9
    assert one["dims"] == [1, 4]
    names = [p["name"] for p in one["properties"]]
    assert names == [n for n, _ in EXACT_PROPERTIES]
    assert all(p["failures"] == 0 for p in one["properties"])


def test_float_suite_green():
    cfg = RunConfig(backend=FLOAT, trials=10, dim_max=4, seed=3)
    summary = run_all(cfg)
    assert summary["failures"] == 0
    assert [p["name"] for p in summary["properties"]] == [n for n, _ in FLOAT_PROPERTIES]


def test_single_property_runs():
    cfg = RunConfig(backend=EXACT, trials=30, dim_max=4, seed=1)
    res = run_property(cfg, "implication-chains")
    assert res.trials == 30 and res.failures == 0
    assert res.first_counterexample is None


def test_different_seeds_change_nothing_about_green():
    for seed in (0, 1, 2026):
        cfg = RunConfig(backend=EXACT, trials=8, dim_max=3, seed=seed)
        assert run_all(cfg)["failures"] == 0


def test_random_unitary_is_unitary():
    from matorder import matrices_equal

    rng = random.Random(5)
    for n in (1, 2, 4):
        u = random_unitary(n, rng)
        assert matrices_equal(u.ct @ u, Matrix.identity(n, FLOAT), 1e-9)


def test_log_uniform_sigma_bounds():
    rng = random.Random(8)
    for _ in range(20):
        sig = log_uniform_sigma(rng, 4)
        assert list(sig) == sorted(sig, reverse=True)
        assert all(0.25 <= s <= 4.0 for s in sig)
    lo = log_uniform_sigma(rng, 3, lo=1.0, hi=1.0)
    assert all(abs(s - 1.0) < 1e-12 for s in lo)


def test_random_base_matrix_rank():
    rng = random.Random(12)
    for n, r in ((2, 1), (3, 3), (5, 2), (3, 0)):
        b = random_base_matrix(n, r, rng)
        assert b.shape == (n, n)
        assert rank(b) == r


def test_random_partial_isometry_property():
    rng = random.Random(20)
    for m, n, k in ((2, 2, 1), (3, 2, 2), (4, 4, 0)):
        a = random_partial_isometry(m, n, k, rng)
        assert a.shape == (m, n)
        assert rank(a) == k
        assert is_partial_isometry(a)


def test_pair_generators_are_deterministic():
    for one, two in (
            (exact_pair(random.Random(33), 3, 4),
             exact_pair(random.Random(33), 3, 4)),
            (float_pair(random.Random(33), 4),
             float_pair(random.Random(33), 4)),
            (partial_isometry_pair(random.Random(33), 3, 4),
             partial_isometry_pair(random.Random(33), 3, 4))):
        assert one[0] == two[0]
        assert one[1] == two[1] and one[2] == two[2]


def test_pair_generators_cover_kinds():
    kinds = set()
    rng = random.Random(0)
    for _ in range(80):
        kinds.add(exact_pair(rng, 3, 3)[0])
    assert {"equal", "zero", "star", "sandwich", "lowrank"} <= kinds
    fkinds = set()
    for _ in range(40):
        fkinds.add(float_pair(rng, 4)[0])
    assert "diamond" in fkinds
    pkinds = set()
    for _ in range(30):
        pkinds.add(partial_isometry_pair(rng, 3, 3)[0])
    assert pkinds == {"nested", "independent"}


def _never_minus(a, b, tol, rank_factor):
    return orders.OrderReport("minus", False, "stub")


def _strict_json(text: str):
    def reject(constant):
        raise ValueError("non-standard JSON constant %s" % constant)
    return json.loads(text, parse_constant=reject)


def test_a_broken_implication_reports_its_first_counterexample(monkeypatch, capsys):
    # with minus never holding, every star pair breaks star => minus
    monkeypatch.setitem(orders.RELATIONS, "minus", _never_minus)
    cfg = RunConfig(trials=12, dim_max=3, seed=2)
    result = run_property(cfg, "implication-chains")
    assert result.failures > 0 and not result.passed
    ce = result.first_counterexample
    assert set(ce) == {"trial", "kind", "broken_links", "a", "b"}
    assert 0 <= ce["trial"] < cfg.trials
    assert "star=>minus" in ce["broken_links"]
    a, b = matrix_from_dict(ce["a"]), matrix_from_dict(ce["b"])
    assert a.backend == EXACT and leq_star(a, b).verdict

    code = cli.main(["--seed", "2", "fuzz", "--trials", "12", "--dim-max", "3"])
    summary = _strict_json(capsys.readouterr().out)
    assert code == 1 and summary["failures"] >= result.failures
    chains = next(p for p in summary["properties"]
                  if p["name"] == "implication-chains")
    assert chains == result.to_dict()


def test_a_single_matrix_property_reports_its_matrix(monkeypatch):
    real = fuzz.rank
    monkeypatch.setattr(fuzz, "rank", lambda m, *rf: real(m, *rf) + (m.backend == FLOAT))
    result = run_property(RunConfig(trials=3, dim_max=3), "backend-rank-agreement")
    assert result.failures == 3
    ce = result.first_counterexample
    assert set(ce) == {"trial", "kind", "a", "exact_rank", "float_rank"}
    assert ce["trial"] == 0 and ce["kind"] == "rank"
    a = matrix_from_dict(ce["a"])
    assert ce["exact_rank"] == real(a) and ce["float_rank"] == real(a) + 1



def test_predecessor_roundtrip_compares_at_the_run_tolerance(monkeypatch):
    # t_back off by a relative 1e-7 is within tol 1e-6 and beyond tol 1e-9;
    # a fixed 1e-8 threshold would fail both runs
    real = fuzz.recover_idempotent
    monkeypatch.setattr(fuzz, "recover_idempotent",
                        lambda *args: real(*args).scale(1.0 + 1e-7))
    runs = {tol: run_property(RunConfig(backend=FLOAT, tol=tol, trials=6,
                                        dim_max=3, seed=4),
                              "predecessor-roundtrip")
            for tol in (1e-6, 1e-9)}
    assert runs[1e-6].failures == 0
    assert runs[1e-9].failures > 0
    assert runs[1e-9].first_counterexample["reason"] == "recovered parameter differs"
