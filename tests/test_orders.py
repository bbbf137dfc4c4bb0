"""Order relations: fixtures, route agreement, witnesses, and transfer."""

import random

import pytest

from matorder import (DIAMOND_ROUTES, EXACT, FLOAT, RELATIONS, BackendError,
                      DomainError, Matrix, ShapeError, build_poset,
                      diamond_via_dagger_minus, diamond_via_range_split,
                      diamond_via_rank, idempotent_factor_witness,
                      is_zero_matrix, left_star_equivalents, leq_diamond,
                      leq_left_star, leq_minus, leq_right_star, leq_space,
                      leq_star, matrices_equal, moore_penrose,
                      projector_transfer, rank, right_star_equivalents)
from matorder.subspaces import column_space
from matorder import orders
from matorder.orders import diamond_verdict

# Nilpotent below an invertible: diamond holds, minus does not.
A1 = Matrix.exact([[0, 1], [0, 0]])
B1 = Matrix.exact([[1, 1], [0, 1]])
# Same lower matrix below a different invertible: minus holds, diamond fails.
B2 = Matrix.exact([[1, 0], [-1, 1]])
# Rank-one row below the identity: star fails but passes to projectors.
A3 = Matrix.exact([[1, 1], [0, 0]])
B3 = Matrix.identity(2)
# Diamond pair on which both one-sided star orders fail.
A4 = Matrix.exact([[1, 0], [0, 0]])
B4 = Matrix.exact([[1, 1], [1, -1]])
# Star fails on the right Gram identity alone: A*A = A*B, AA* != BA*.
A5 = Matrix.exact([[1, 0], [0, 0]])
B5 = Matrix.exact([[1, 0], [1, 1]])


def test_registry_key_sets():
    assert set(RELATIONS) == {"star", "minus", "space", "diamond",
                              "left-star", "right-star"}
    assert set(DIAMOND_ROUTES) == {"definition", "dagger-minus",
                                   "range-split", "rank"}


def test_nilpotent_pair_verdicts():
    assert leq_diamond(A1, B1).verdict
    assert leq_space(A1, B1).verdict
    assert not leq_minus(A1, B1).verdict
    assert not leq_star(A1, B1).verdict
    for route in DIAMOND_ROUTES.values():
        assert route(A1, B1).verdict


def test_minus_without_diamond_pair():
    assert leq_minus(A1, B2).verdict
    assert not leq_diamond(A1, B2).verdict
    for route in DIAMOND_ROUTES.values():
        assert not route(A1, B2).verdict


def test_dagger_pair_reverses_the_split():
    ad = moore_penrose(A1)
    bd = moore_penrose(B1)
    assert leq_minus(ad, bd).verdict
    assert not leq_diamond(ad, bd).verdict
    ad2 = moore_penrose(A1)
    bd2 = moore_penrose(B2)
    assert leq_diamond(ad2, bd2).verdict
    assert not leq_minus(ad2, bd2).verdict


def test_projector_pair_star_verdicts():
    assert not leq_star(A3, B3).verdict
    direct, projected = projector_transfer(A3, B3, "star")
    assert (direct, projected) == (False, True)


def test_one_sided_star_failures():
    assert leq_diamond(A4, B4).verdict
    assert not leq_left_star(A4, B4).verdict
    assert not leq_right_star(A4, B4).verdict


@pytest.mark.parametrize("to_backend", [lambda m: m, Matrix.to_float],
                         ids=["exact", "float"])
def test_star_needs_both_gram_identities(to_backend):
    rep = leq_star(to_backend(A5), to_backend(B5))
    assert not rep.verdict
    assert rep.witnesses["gram_left"] is True
    assert rep.witnesses["gram_right"] is False


def test_star_pinv_follows_rank_factor():
    # the Gram identities hold; A+ reads 1e-13 as rank at the default
    # rank_factor and as roundoff at 1e3, which the dagger witnesses show
    a = Matrix.from_complex([[1, 0], [0, 1e-13]])
    b = Matrix.from_complex([[1, 0], [0, 0]])
    assert not leq_star(a, b).witnesses["dagger_agrees"]
    rep = leq_star(a, b, rank_factor=1e3)
    assert rep.verdict and rep.witnesses["dagger_agrees"]


def test_diagonal_star_pair():
    a = Matrix.exact([[2, 0], [0, 0]])
    b = Matrix.exact([[2, 0], [0, 1]])
    assert leq_star(a, b).verdict
    assert leq_left_star(a, b).verdict
    assert leq_right_star(a, b).verdict
    assert leq_minus(a, b).verdict
    assert leq_diamond(a, b).verdict


def test_space_needs_both_ranges():
    a = Matrix.exact([[1, 0], [0, 0]])
    b = Matrix.exact([[0, 0], [0, 1]])
    rep = leq_space(a, b)
    assert not rep.verdict
    assert not rep.witnesses["range_inclusion"]


def test_relations_are_reflexive():
    for name, rel in RELATIONS.items():
        rep = rel(B1, B1)
        assert rep.verdict, name
        assert rep.relation == name


def test_zero_is_below_everything():
    zero = Matrix.zeros(2, 2)
    for rel in RELATIONS.values():
        assert rel(zero, B4).verdict


def test_report_shape_and_dict():
    rep = leq_star(A1, B1)
    d = rep.to_dict()
    assert d["relation"] == "star" and d["verdict"] is False
    assert set(d["witnesses"]) == {"gram_left", "gram_right", "dagger_left",
                                   "dagger_right", "dagger_agrees", "margin"}
    assert rep.witnesses["dagger_agrees"] is True
    assert rep.witnesses["gram_left"] is False


def test_minus_witnesses_expose_ranks():
    rep = leq_minus(A1, B1)
    w = rep.witnesses
    assert (w["rank_a"], w["rank_b"], w["rank_diff"]) == (1, 2, 2)
    rep2 = leq_minus(A1, B2)
    assert rep2.witnesses["rank_diff"] == 1


def test_space_witnesses_cross_check():
    rep = leq_space(A1, B1, inner_samples=5, rng=random.Random(3))
    w = rep.witnesses
    assert w["range_inclusion"] and w["row_range_inclusion"]
    assert w["projector_identities"] and w["projector_agrees"]
    assert w["inner_inverse_identities"] is True
    norep = leq_space(A1, B1, inner_samples=0)
    assert norep.witnesses["inner_inverse_identities"] is None


def test_range_split_witnesses():
    rep = diamond_via_range_split(A1, B1)
    w = rep.witnesses
    assert w["intersection_dim"] == 0
    assert w["direct_sum"] is True
    assert w["dim_rows_a"] + w["dim_diff"] == w["dim_rows_b"]
    bad = diamond_via_range_split(A1, B2)
    assert not bad.verdict


def test_rank_route_witnesses():
    rep = diamond_via_rank(A1, B1)
    w = rep.witnesses
    assert w["rank_dagger_diff"] == w["rank_complement_product"] == 1
    assert w["row_range_inclusion"]
    bad = diamond_via_rank(A1, B2)
    assert not bad.verdict


def test_rank_route_ignores_roundoff_of_ill_conditioned_pair():
    # A constructed diamond pair with cond(A) ~ 5e3: (I - A+A) B+ has rank 7
    # but a roundoff singular value of 4e-13 above its own cutoff of 3.7e-13.
    from matorder.sampling import float_pair

    kind, a, b = float_pair(random.Random("9/19/2"), 16)
    assert kind == "diamond"
    for name, route in DIAMOND_ROUTES.items():
        assert route(a, b).verdict, name


def test_four_way_equivalents_all_true():
    a = Matrix.exact([[2, 0], [0, 0]])
    b = Matrix.exact([[2, 0], [0, 1]])
    for fourway in (left_star_equivalents, right_star_equivalents):
        rep = fourway(a, b)
        assert rep.verdict
        w = rep.witnesses
        assert w["all_equal"]
        assert w["definition"] and w["diamond_and_gram"]
        assert w["diamond_and_dagger"] and w["diamond_and_hermitian"]


def test_four_way_equivalents_all_false_but_diamond():
    for fourway in (left_star_equivalents, right_star_equivalents):
        rep = fourway(A4, B4)
        assert not rep.verdict
        w = rep.witnesses
        assert w["all_equal"]
        assert w["diamond"]
        assert not w["definition"]


def test_four_way_matches_plain_relation():
    rng = random.Random(11)
    from matorder.sampling import exact_pair

    for i in range(25):
        _, a, b = exact_pair(rng, 3, 3)
        assert left_star_equivalents(a, b).verdict == leq_left_star(a, b).verdict
        assert right_star_equivalents(a, b).verdict == leq_right_star(a, b).verdict


def test_factor_witness_examples():
    q = idempotent_factor_witness(A1, B1)
    assert q is not None
    assert q @ q == q
    assert q @ moore_penrose(B1) == moore_penrose(A1)
    assert q == Matrix.exact([[0, 0], [1, 1]])

    same = idempotent_factor_witness(B1, B1)
    assert same == Matrix.identity(2)

    zero = Matrix.zeros(2, 2)
    assert idempotent_factor_witness(zero, B1) == zero

    from matorder import DomainError
    with pytest.raises(DomainError):
        idempotent_factor_witness(A1, B2)


def test_factor_witness_is_none_when_roundoff_breaks_idempotence():
    # B has singular values 1e-8 ... 1e-1 and A is a diamond predecessor
    # of it, so every route says diamond; but A+ has norm about 1e8, and
    # the roundoff of Q = A+ B exceeds the bound of Q Q = Q
    from matorder.decomp import HSForm
    from matorder.predecessors import diamond_predecessor, random_idempotent
    from matorder.sampling import random_unitary

    rng = random.Random(0)
    u, g = random_unitary(4, rng), random_unitary(4, rng)
    sigma = [10.0 ** (-8 + 7 * i / 3) for i in range(4)]
    b = HSForm(u, sigma, g, g.submatrix(0, 4, 4, 4)).reconstruct()
    a = diamond_predecessor(b, random_idempotent(4, 1, rng))
    assert all(route(a, b).verdict for route in DIAMOND_ROUTES.values())
    q = moore_penrose(a) @ b
    assert not matrices_equal(q @ q, q)
    assert idempotent_factor_witness(a, b) is None


def test_factor_witness_is_pinv_times_base():
    from matorder.sampling import exact_pair, float_pair

    rng = random.Random(17)
    found = {EXACT: 0, FLOAT: 0}
    draws = [exact_pair(rng, rng.randint(1, 4), rng.randint(1, 4))
             for _ in range(60)]
    draws += [float_pair(rng, rng.randint(2, 8)) for _ in range(30)]
    for _, a, b in draws:
        if leq_diamond(a, b).verdict:
            found[a.backend] += 1
            assert idempotent_factor_witness(a, b) == moore_penrose(a) @ b
    assert found[EXACT] >= 10 and found[FLOAT] >= 10


def test_projector_transfer_forward_only():
    direct, projected = projector_transfer(A1, B1, "diamond")
    assert direct and projected
    # Full-column weight on one column: projectors agree, pair does not.
    a = Matrix.exact([[1, 0], [1, 0]])
    b = Matrix.exact([[1, 1], [1, 1]])
    direct, projected = projector_transfer(a, b, "space")
    assert not direct and projected


def test_projector_transfer_passes_rank_factor():
    # at rank_factor 1e3 the 1e-13 entry is roundoff and a is minus-below b
    a = Matrix.from_complex([[1, 0], [0, 0]])
    b = Matrix.from_complex([[1, 0], [0, 1e-13]])
    assert projector_transfer(a, b, "minus", rank_factor=1e3) == (True, True)
    assert projector_transfer(a, b, "minus")[0] is False


def test_pair_validation_errors():
    with pytest.raises(ShapeError):
        leq_star(A1, Matrix.exact([[1, 2, 3]]))
    with pytest.raises(ShapeError, match="compare two matrices"):
        leq_star(A1, [[0, 1], [0, 0]])
    with pytest.raises(BackendError):
        leq_minus(A1, B1.to_float())
    with pytest.raises(Exception):
        projector_transfer(A1, B1, "no-such-relation")


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
def test_space_order_on_empty_pairs(backend, shape):
    # the sampled inner-inverse parameters of a 3x0 pair are 0x3
    a = Matrix.zeros(*shape, backend)
    rep = leq_space(a, a, inner_samples=5)
    assert rep.verdict and rep.witnesses["inner_inverse_identities"] is True
    assert leq_space(a, a).witnesses["inner_inverse_identities"] is None
    assert projector_transfer(a, a, "space") == (True, True)
    assert build_poset([("x", a), ("y", a)], "space").nodes == (("x", "y"),)


def test_space_verdict_callers_draw_no_sample(monkeypatch):
    # the sampled inner inverses only cross-check the range inclusions, so
    # a caller that reads the verdict alone must never draw one
    from matorder.sampling import exact_pair, float_pair
    rng = random.Random(23)
    pairs = [(A1, B1), (B1, A1), (A4, B4)]
    pairs += [exact_pair(rng, 3, 4)[1:] for _ in range(4)]
    pairs += [(a.to_float(), b.to_float()) for a, b in pairs[:3]]
    pairs += [float_pair(rng, 6)[1:] for _ in range(4)]
    audited = [leq_space(a, b, inner_samples=5).verdict for a, b in pairs]
    assert True in audited and False in audited
    assert {a.backend for a, _ in pairs} == {EXACT, FLOAT}

    def no_draw(*args):
        raise AssertionError("sampled an inner-inverse parameter")

    monkeypatch.setattr(orders, "_random_param", no_draw)
    for (a, b), want in zip(pairs, audited):
        rep = leq_space(a, b)
        assert rep.verdict is want
        assert rep.witnesses["inner_inverse_identities"] is None
        assert RELATIONS["space"](a, b).verdict is want
        graph = build_poset([("a", a), ("b", b)], "space")
        ia, ib = ([i for i, node in enumerate(graph.nodes) if label in node][0]
                  for label in "ab")
        assert (ia == ib or (ia, ib) in graph.edges) is want
        assert projector_transfer(a, b, "space")[0] is want
        rng = random.Random(5)
        state = rng.getstate()
        assert leq_space(a, b, rng=rng).verdict is want
        assert rng.getstate() == state


BAD_TOLS = [pytest.param(-1.0, id="negative"), pytest.param(float("nan"), id="nan")]


@pytest.mark.parametrize("tol", BAD_TOLS)
@pytest.mark.parametrize("name, fn", sorted(RELATIONS.items()) + [
    ("diamond/" + k, f) for k, f in sorted(DIAMOND_ROUTES.items())])
def test_invalid_tolerance_is_a_domain_error(name, fn, tol):
    # no comparison is decided against a negative or NaN bound: with one,
    # star read a matrix as not below itself and reported a NaN margin
    a = Matrix.from_complex([[1, 2j], [0, 3]])
    with pytest.raises(DomainError):
        fn(a, a, tol)
    with pytest.raises(DomainError):
        matrices_equal(a, a, tol)
    with pytest.raises(DomainError):
        is_zero_matrix(a - a, tol)


ALL_ROUTES = sorted(RELATIONS.items()) + [
    ("diamond/" + k, f) for k, f in sorted(DIAMOND_ROUTES.items())]


@pytest.mark.parametrize("name, fn", ALL_ROUTES)
def test_zero_tolerance_decides_a_float_matrix_below_itself(name, fn):
    # tol = 0 makes every float bound 0; equal sides must not divide 0 by it
    a = Matrix.from_complex([[1, 0], [0, 2]])
    assert fn(a, a, 0.0).verdict


@pytest.mark.parametrize("name, fn", ALL_ROUTES)
def test_zero_tolerance_reads_roundoff_as_no_rank(name, fn):
    # (I - B+B) B+ of this b is roundoff, singular values 3.3e-16 and
    # 3.6e-17, which the rank route once counted as rank 2 under tol 0
    b = Matrix.from_complex([[1, 2j], [0.3, 4.5]])
    assert fn(b, b, 0.0).verdict


@pytest.mark.parametrize("rank_factor", [-1.0, float("nan"), float("inf")])
def test_rank_factor_without_cutoff_is_a_domain_error(rank_factor):
    # NaN and inf once gave rank 0 and a zero pinv; a negative factor
    # counts roundoff as rank
    a = Matrix.from_complex([[1, 0], [0, 2]])
    calls = (rank, moore_penrose, column_space,
             lambda x, rf: leq_minus(x, x, rank_factor=rf))
    for call in calls:
        with pytest.raises(DomainError):
            call(a, rank_factor)
    assert rank(a, 0.0) == 2


def test_zero_tolerance_margins():
    # under a zero bound only an exactly zero residual is equal: its margin
    # is 0.0, and any other residual is infinitely far past the bound
    a = Matrix.from_complex([[1, 0], [0, 2]])
    b = Matrix.from_complex([[1, 0], [0, 3]])
    same = leq_star(a, a, 0.0)
    assert same.verdict and same.witnesses["margin"] == 0.0
    other = leq_star(a, b, 0.0)
    assert not other.verdict and other.witnesses["margin"] == float("inf")
    assert diamond_verdict(a, a, 0.0)
    assert not diamond_verdict(a, b, 0.0)
    zero = Matrix.zeros(2, 2, FLOAT)
    items = [("a", a), ("b", b), ("zero", zero)]
    graph = build_poset(items, "diamond", 0.0)
    assert graph == build_poset(items, "diamond")
    assert set(graph.edges) == {(2, 0), (2, 1)}
