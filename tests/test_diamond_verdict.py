"""The verdict-only diamond check agrees with the diamond report.

``diamond_verdict`` decides A below B in the diamond order from the same
three terms as ``leq_diamond`` (the sandwich identity A B* A = A A* A and
the two range inclusions), without B+ or the projector identities, and
stops at the first false term. These properties hold it equal to the
report's verdict on every input family the library feeds it, and hold the
diamond ``build_poset`` equal to a cover diagram built from the reports.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder import (DomainError, Matrix, build_poset, build_predecessor,
                      leq_diamond, matrix_to_json, moore_penrose,
                      random_idempotent)
from matorder.cli import main
from matorder.orders import diamond_verdict
from matorder.sampling import (exact_pair, float_pair, log_uniform_sigma,
                               random_base_matrix, random_unitary)

seeds = st.integers(0, 2 ** 32 - 1)


def assert_agrees(a: Matrix, b: Matrix):
    """The verdict equals the report's on (a, b) and on (b, a)."""
    for lo, hi in ((a, b), (b, a)):
        assert diamond_verdict(lo, hi) == leq_diamond(lo, hi).verdict


def _family(seed: int, n: int, count: int):
    """A float base of size n and ``count`` predecessor bundles of it."""
    rng = random.Random(seed)
    r = rng.randint(1, n)
    b = random_base_matrix(n, r, rng)
    return b, [build_predecessor(b, random_idempotent(r, rng.randint(0, r), rng))
               for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(1, 4), st.integers(1, 4))
def test_agrees_on_exact_pairs(seed, m, n):
    _, a, b = exact_pair(random.Random(seed), m, n)
    assert_agrees(a, b)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 6))
def test_agrees_on_float_pairs(seed, n):
    _, a, b = float_pair(random.Random(seed), n)
    assert_agrees(a, b)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(2, 7))
def test_agrees_on_predecessors_and_their_pseudoinverses(seed, n):
    # (predecessor, base) as reverse_order_law compares them, and their
    # pseudoinverses as dagger_isotone does
    b, bundles = _family(seed, n, 3)
    for x in bundles:
        assert diamond_verdict(x.predecessor, b)
        assert_agrees(x.predecessor, b)
        assert_agrees(moore_penrose(x.predecessor), moore_penrose(b))


def report_verdict(a: Matrix, b: Matrix) -> bool:
    return leq_diamond(a, b).verdict


def reference_poset(items, decide=report_verdict):
    """(nodes, edges) of the diamond cover diagram, from ``decide`` on each
    ordered pair (by default the leq_diamond reports).

    Each input joins the class of the first earlier class representative it
    is related to both ways, or starts a class; an edge joins two classes
    whose representatives are strictly related with no class between.
    """
    mats = [m for _, m in items]
    leq = {(i, j): i == j or decide(mats[i], mats[j])
           for i in range(len(mats)) for j in range(len(mats))}
    classes = []
    for j in range(len(mats)):
        home = next((c for c in classes if leq[c[0], j] and leq[j, c[0]]), None)
        if home is None:
            classes.append([j])
        else:
            home.append(j)

    def below(x, y):
        return x != y and leq[classes[x][0], classes[y][0]]

    g = range(len(classes))
    edges = tuple((x, y) for x in g for y in g if below(x, y)
                  and not any(below(x, z) and below(z, y) for z in g))
    nodes = tuple(tuple(items[i][0] for i in c) for c in classes)
    return nodes, edges


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(2, 6))
def test_float_poset_equals_the_report_diagram(seed, n):
    b, bundles = _family(seed, n, 3)
    items = ([("b", b), ("z", Matrix.zeros(n, n, "float"))]
             + [("p%d" % i, x.predecessor) for i, x in enumerate(bundles)]
             + [("bd", moore_penrose(b))])
    graph = build_poset(items, "diamond")
    assert (graph.nodes, graph.edges) == reference_poset(items)


def _spectral_pieces(rng: random.Random, m: int, n: int) -> list:
    """An m x n matrix u s v* of random rank and some of its partial sums
    over the singular triples, each star-below and so diamond-below it."""
    r = rng.randint(0, min(m, n))
    u = random_unitary(m, rng).to_ndarray()[:, :r]
    v = random_unitary(n, rng).to_ndarray()[:, :r]
    s = np.array(log_uniform_sigma(rng, r))
    keeps = [list(range(r))] + [rng.sample(range(r), rng.randint(0, r))
                                for _ in range(3)]
    return [Matrix.from_ndarray((u[:, keep] * s[keep]) @ v[:, keep].conj().T)
            for keep in keeps]


@st.composite
def float_families(draw):
    """Labelled float families of k = 1..6 equally shaped matrices: pieces of
    a rectangular (possibly empty) matrix, or a square base with its
    predecessors and pseudoinverse, mixed with zeros, duplicates and
    copies scaled by powers of two."""
    rng = random.Random(draw(seeds))
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        b, bundles = _family(rng.getrandbits(32), n, 3)
        pool = [b, moore_penrose(b)] + [x.predecessor for x in bundles]
        m = n
    else:
        m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        pool = _spectral_pieces(rng, m, n)
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("pool", "zero", "duplicate", "scaled")))
        if kind == "zero":
            mats.append(Matrix.zeros(m, n, "float"))
        elif kind == "pool" or not mats:
            mats.append(draw(st.sampled_from(pool)))
        elif kind == "duplicate":
            mats.append(draw(st.sampled_from(mats)))
        else:
            mats.append(draw(st.sampled_from(mats)).scale(2.0 ** draw(st.integers(-3, 3))))
    return [("m%d" % i, x) for i, x in enumerate(mats)]


@settings(max_examples=150, deadline=None)
@given(float_families())
def test_stacked_float_poset_equals_the_pairwise_diagram(items):
    graph = build_poset(items, "diamond")
    assert (graph.nodes, graph.edges) == reference_poset(items, diamond_verdict)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 4), st.integers(1, 4))
def test_exact_poset_equals_the_report_diagram(seed, m, n):
    _, a, b = exact_pair(random.Random(seed), m, n)
    items = [("a", a), ("b", b), ("z", Matrix.zeros(m, n)), ("d", b - a),
             ("a2", a.scale(2))]
    graph = build_poset(items, "diamond")
    assert (graph.nodes, graph.edges) == reference_poset(items)


# Orthogonal columns and rows, so either inclusion alone answers false, but
# A A* A overflows. The report raises DomainError at the sandwich; the
# verdict decides the sandwich first, so it raises there too.
HUGE_A = Matrix.from_complex([[1e120, 0], [0, 0]])
HUGE_B = Matrix.from_complex([[0, 0], [0, 1e120]])


def test_overflowing_sandwich_raises_before_the_inclusions():
    # numpy warns about the overflow that Matrix turns into the DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        for decide in (leq_diamond, diamond_verdict):
            with pytest.raises(DomainError):
                decide(HUGE_A, HUGE_B)
        with pytest.raises(DomainError):
            build_poset([("a", HUGE_A), ("b", HUGE_B)], "diamond")


def test_cli_poset_on_overflowing_sandwich_exits_two(tmp_path, capsys):
    (tmp_path / "a.json").write_text(matrix_to_json(HUGE_A))
    (tmp_path / "b.json").write_text(matrix_to_json(HUGE_B))
    code = main(["poset", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verdict_needs_no_pseudoinverse_of_the_upper_matrix():
    # B+ of a subnormal B overflows. Only the report's projector identities
    # use it, so the report raises while the verdict, and the cover diagram
    # built from it, decide that zero is below B.
    zero = Matrix.zeros(1, 1, "float")
    tiny = Matrix.from_complex([[1e-310]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError):
            leq_diamond(zero, tiny)
        assert diamond_verdict(zero, tiny)
        graph = build_poset([("tiny", tiny), ("zero", zero)], "diamond")
    assert graph.edges == ((1, 0),)


def first_loop_error(items, tol):
    """(type, message) of what diamond_verdict first raises over the ordered
    pairs i != j in row-major order, the order of the pair loop."""
    mats = [m for _, m in items]
    try:
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                if i != j:
                    diamond_verdict(a, b, tol)
    except DomainError as exc:
        return type(exc), str(exc)
    return None


SMALL = Matrix.from_complex([[1, 0], [0, 0]])
# 1 x 1 sandwiches of +-1.25e308: finite, but their norms sum beyond the
# float range, so the tolerance bound raises
CUBE_BIG = Matrix.from_complex([[5e102]])
# A A* A = [[2x^3, 2x^3]] is finite and its Frobenius norm is not
ROW_BIG = Matrix.from_complex([[4.2e102, 4.2e102]])
# k·n < m, so each block holds one j: row 0's A A* A overflows, its own
# block j = 0 decides no pair, and the next block raises
COL_BIG = Matrix.from_complex([[1e103], [0.0], [0.0], [0.0]])


@pytest.mark.parametrize("items, tol", [
    # only the pairs of the later rows overflow
    ([("s", SMALL), ("t", SMALL.scale(2.0)), ("h", HUGE_A), ("g", HUGE_B)], 1e-9),
    ([("z", Matrix.zeros(2, 2, "float")), ("h", HUGE_A), ("s", SMALL)], 1e-9),
    ([("c", Matrix.from_complex([[1.0]])), ("x", CUBE_BIG), ("y", CUBE_BIG.scale(-1.0))], 1e-9),
    ([("r", Matrix.from_complex([[1.0, 0.0]])), ("big", ROW_BIG)], 1e-9),
    ([("s", SMALL), ("t", SMALL)], -1e-9),
    ([("s", SMALL), ("t", SMALL)], float("nan")),
    ([("e", Matrix.zeros(0, 3, "float")), ("f", Matrix.zeros(0, 3, "float"))], -1.0),
    ([("big", COL_BIG), ("unit", COL_BIG.scale(1e-103))], 1e-9),
])
def test_stacked_poset_raises_what_the_pair_loop_raises(items, tol):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = first_loop_error(items, tol)
        assert expected is not None
        with pytest.raises(DomainError) as info:
            build_poset(items, "diamond", tol)
    assert (type(info.value), str(info.value)) == expected


def test_one_overflowing_matrix_is_a_one_node_diagram():
    # A A* A overflows, but a single matrix is compared with nothing
    for tol in (1e-9, -1.0):
        graph = build_poset([("h", HUGE_A)], "diamond", tol)
        assert graph.nodes == (("h",),) and graph.edges == ()
