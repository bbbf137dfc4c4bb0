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
from matorder.sampling import exact_pair, float_pair, random_base_matrix

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


def reference_poset(items):
    """(nodes, edges) of the diamond cover diagram, from leq_diamond reports.

    Each input joins the class of the first earlier class representative it
    is related to both ways, or starts a class; an edge joins two classes
    whose representatives are strictly related with no class between.
    """
    mats = [m for _, m in items]
    leq = {(i, j): i == j or leq_diamond(mats[i], mats[j]).verdict
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
