"""Order diagrams over a finite set of matrices.

Builds the directed graph of a chosen relation on labeled matrices,
collapses mutually comparable elements into one node (relevant for the
space pre-order and for duplicate inputs): each input joins the first
class whose first member it is mutually comparable with. It keeps only
covering edges, i.e. the transitive reduction of the strict order between
nodes, in one pass that emits them sorted. The DOT rendering lists every
node and one edge per cover.

The relation's verdicts on all pairs come from ``orders.verdict_table``,
which also refuses an unknown relation and a family that is not equally
shaped matrices on one backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import EQ_TOL, RANK_FACTOR
from .orders import verdict_table


@dataclass(frozen=True)
class PosetGraph:
    """Cover diagram of a relation on labeled matrices.

    nodes holds tuples of input labels (singletons unless inputs were
    mutually comparable); edges holds (lower, upper) node indices and form
    a transitively reduced acyclic graph.
    """

    relation: str
    nodes: tuple
    edges: tuple

    def node_label(self, idx: int) -> str:
        return "=".join(self.nodes[idx])


def build_poset(items, relation: str = "diamond", tol: float = EQ_TOL,
                rank_factor: float = RANK_FACTOR) -> PosetGraph:
    """Cover diagram of the relation over [(label, matrix), ...].

    An input joins the first class whose first member it is mutually
    comparable with, or starts a class of its own. Classes are compared
    through their first members, and a strict pair is a cover unless a
    third class lies between; covers come out sorted as (lower, upper).
    """
    leq = verdict_table([m for _, m in items], relation, tol, rank_factor)
    # merge mutually comparable inputs into one class
    classes = []
    for i in range(len(items)):
        for members in classes:
            if leq[members[0]][i] and leq[i][members[0]]:
                members.append(i)
                break
        else:
            classes.append([i])

    firsts = [members[0] for members in classes]
    strict = [[x != y and leq[x][y] for y in firsts] for x in firsts]
    g = range(len(classes))
    edges = tuple((lo, hi) for lo in g for hi in g if strict[lo][hi]
                  and not any(strict[lo][mid] and strict[mid][hi] for mid in g))
    nodes = tuple(tuple(items[i][0] for i in members) for members in classes)
    return PosetGraph(relation, nodes, edges)


def to_dot(graph: PosetGraph) -> str:
    """DOT text with one quoted node per class and one edge per cover.
    Labels come from file names, so quotes and backslashes are escaped."""
    ids = ['"%s"' % graph.node_label(idx).replace("\\", "\\\\").replace('"', '\\"')
           for idx in range(len(graph.nodes))]
    lines = ["digraph poset {"] + ["  %s;" % node for node in ids]
    lines += ["  %s -> %s;" % (ids[lo], ids[hi]) for lo, hi in graph.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
