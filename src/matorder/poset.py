"""Order diagrams over a finite set of matrices.

Builds the directed graph of a chosen relation on labeled matrices,
collapses mutually comparable elements into one node (relevant for the
space pre-order and for duplicate inputs), and keeps only covering edges,
i.e. the transitive reduction of the strict order between nodes. The DOT
rendering lists every node and one edge per cover.

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
    """Cover diagram of the relation over [(label, matrix), ...]."""
    labels = [label for label, _ in items]
    mats = [m for _, m in items]
    leq = verdict_table(mats, relation, tol, rank_factor)
    n = len(mats)

    # merge mutually comparable inputs into one node
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

    nodes = tuple(tuple(labels[i] for i in group) for group in groups)
    return PosetGraph(relation, nodes, tuple(sorted(edges)))


def to_dot(graph: PosetGraph) -> str:
    """DOT text with one quoted node per class and one edge per cover.
    Labels come from file names, so quotes and backslashes are escaped."""
    ids = ['"%s"' % graph.node_label(idx).replace("\\", "\\\\").replace('"', '\\"')
           for idx in range(len(graph.nodes))]
    lines = ["digraph poset {"] + ["  %s;" % node for node in ids]
    lines += ["  %s -> %s;" % (ids[lo], ids[hi]) for lo, hi in graph.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
