"""Cover diagrams: node merging, transitive reduction, DOT text."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder import poset
from matorder import (FLOAT, DomainError, MatOrderError, Matrix, PosetGraph,
                      ShapeError, build_poset, leq_minus, to_dot)
from matorder.orders import verdict_table

ZERO = Matrix.zeros(2, 2)
A = Matrix.exact([[0, 1], [0, 0]])
B = Matrix.exact([[1, 1], [0, 1]])
B2 = Matrix.exact([[1, 0], [-1, 1]])


def test_chain_reduces_to_two_covers():
    g = build_poset([("zero", ZERO), ("a", A), ("b", B)])
    assert g.relation == "diamond"
    assert g.nodes == (("zero",), ("a",), ("b",))
    assert g.edges == ((0, 1), (1, 2))


def test_antichain_above_zero():
    g = build_poset([("zero", ZERO), ("a", A), ("b", B2)])
    assert g.edges == ((0, 1), (0, 2))


def test_single_node_and_empty():
    g = build_poset([("only", A)])
    assert g.nodes == (("only",),) and g.edges == ()
    empty = build_poset([])
    assert empty.nodes == () and empty.edges == ()


def test_duplicates_merge_into_one_class():
    g = build_poset([("x", A), ("y", A), ("zero", ZERO)])
    assert g.nodes == (("x", "y"), ("zero",))
    assert g.node_label(0) == "x=y"
    assert g.edges == ((1, 0),)


def test_space_preorder_merges_scaled_copies():
    g = build_poset([("a", A), ("double", A.scale(2))], relation="space")
    assert len(g.nodes) == 1
    assert g.nodes[0] == ("a", "double")


def test_relation_choice_changes_edges():
    g = build_poset([("a", A), ("b", B)], relation="minus")
    assert g.edges == ()
    g2 = build_poset([("a", A), ("b", B2)], relation="minus")
    assert g2.edges == ((0, 1),)


def test_rank_factor_reaches_the_relation():
    # leq_minus holds both ways at rank_factor 1e3, where 1e-13 is roundoff,
    # so the two inputs form one node
    a = Matrix.from_complex([[1, 0], [0, 0]])
    b = Matrix.from_complex([[1, 0], [0, 1e-13]])
    assert leq_minus(a, b, rank_factor=1e3).verdict
    assert leq_minus(b, a, rank_factor=1e3).verdict
    g = build_poset([("a", a), ("b", b)], relation="minus", rank_factor=1e3)
    assert g.nodes == (("a", "b"),)
    assert len(build_poset([("a", a), ("b", b)], relation="minus").nodes) == 2


def _reference_classes_and_covers(leq):
    """Classes and covers of a verdict table, written out step by step (an
    assigned list, a strict table, a triple loop, a final sort) as an
    oracle for ``build_poset``."""
    n = len(leq)
    assigned = [-1] * n
    groups = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        group = [i]
        assigned[i] = len(groups)
        for j in range(i + 1, n):
            if assigned[j] < 0 and leq[i][j] and leq[j][i]:
                group.append(j)
                assigned[j] = len(groups)
        groups.append(group)

    g = len(groups)
    strict = [[False] * g for _ in range(g)]
    for gi in range(g):
        for gj in range(g):
            if gi != gj:
                strict[gi][gj] = leq[groups[gi][0]][groups[gj][0]]

    edges = []
    for gi in range(g):
        for gj in range(g):
            if not strict[gi][gj]:
                continue
            if any(strict[gi][gk] and strict[gk][gj] for gk in range(g)):
                continue
            edges.append((gi, gj))
    return tuple(tuple(group) for group in groups), tuple(sorted(edges))


@st.composite
def _tables(draw):
    """A k x k verdict table, k in 0..8, true on the diagonal and free off
    it: mutual comparability may be non-transitive and the strict part
    cyclic, as a float tolerance allows."""
    k = draw(st.integers(0, 8))
    return [[i == j or draw(st.booleans()) for j in range(k)] for i in range(k)]


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_build_poset_matches_the_reference_on_any_table(table):
    labels = ["m%d" % i for i in range(len(table))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poset, "verdict_table", lambda mats, *args: table)
        g = build_poset([(label, None) for label in labels])
    groups, edges = _reference_classes_and_covers(table)
    assert g.nodes == tuple(tuple(labels[i] for i in group) for group in groups)
    assert g.edges == edges


def test_validation_errors():
    with pytest.raises(DomainError):
        build_poset([("a", A)], relation="lexicographic")
    with pytest.raises(ShapeError):
        build_poset([("a", A), ("wide", Matrix.zeros(2, 3))])
    with pytest.raises(DomainError):
        build_poset([("a", A), ("f", B.to_float())])


def test_items_must_be_matrices():
    # wherever the non-matrix sits, and also when it is the only item
    for items in ([("n", 3)], [("a", A), ("n", 3)], [("n", 3), ("a", A)],
                  [("a", A), ("arr", np.zeros((2, 2)))]):
        with pytest.raises(ShapeError, match="poset needs matrices"):
            build_poset(items)


# each family once ended a direct verdict_table call in a raw error
@pytest.mark.parametrize("relation, mats", [
    ("lexicographic", [A, B]),  # KeyError
    ("lexicographic", []),
    ("diamond", [A.to_float(), Matrix.zeros(2, 3, FLOAT)]),  # numpy's error
    ("diamond", [3, A]),  # AttributeError
    ("diamond", [A.to_float(), B]),  # AttributeError
    ("star", [A, np.zeros((2, 2))]),
], ids=["relation", "empty", "shapes", "non-matrix", "backends", "array"])
def test_verdict_table_refuses_what_build_poset_refuses(relation, mats):
    with pytest.raises(MatOrderError) as refused:
        build_poset([(str(i), m) for i, m in enumerate(mats)], relation)
    with pytest.raises(type(refused.value)) as direct:
        verdict_table(mats, relation)
    assert str(direct.value) == str(refused.value)


def test_dot_rendering_exact_text():
    g = build_poset([("zero", ZERO), ("a", A), ("b", B)])
    dot = to_dot(g)
    assert dot == ('digraph poset {\n'
                   '  "zero";\n'
                   '  "a";\n'
                   '  "b";\n'
                   '  "zero" -> "a";\n'
                   '  "a" -> "b";\n'
                   '}\n')


def test_dot_escapes_quotes_and_backslashes():
    g = PosetGraph("star", (('say "hi"\\x',), ("q",)), ((0, 1),))
    assert to_dot(g) == ('digraph poset {\n'
                         '  "say \\"hi\\"\\\\x";\n'
                         '  "q";\n'
                         '  "say \\"hi\\"\\\\x" -> "q";\n'
                         '}\n')


def test_dot_edges_match_recomputed_verdicts():
    from matorder import RELATIONS

    items = [("zero", ZERO), ("a", A), ("b", B), ("b2", B2)]
    g = build_poset(items, relation="diamond")
    dot = to_dot(g)
    arrow_lines = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(arrow_lines) == len(g.edges)
    by_label = dict(items)
    pred = RELATIONS["diamond"]
    for ln in arrow_lines:
        lo, hi = [part.strip().strip('";') for part in ln.split("->")]
        assert pred(by_label[lo], by_label[hi]).verdict


def test_graph_is_plain_data():
    g = PosetGraph("star", (("p",), ("q",)), ((0, 1),))
    assert g.node_label(1) == "q"
    assert to_dot(g).startswith("digraph poset {")
