"""Partial orders and pre-orders on complex matrices.

Each predicate takes two equally shaped matrices on the same backend and
returns an OrderReport: the boolean verdict plus witness data (ranks,
identity residuals, cross-checks). Verdicts are decided by equational and
rank characterizations, never by sampling; sampled inner inverses, drawn
only on request, cross-check the universally quantified formulations.
Every float threshold comes from ``matrix``: identities are decided by its
``_compare``, whose residual over bound is the report's margin, and ranks
by its rank rule, which the rank route floors at ``rank_floor``.

Relations covered, in the usual notation:

  space      A = B B^- A = A B^- B for every inner inverse, equivalently
             col(A) <= col(B) and col(A*) <= col(B*)
  star       A*A = A*B and AA* = BA*
  minus      rank(B - A) = rank(B) - rank(A)
  diamond    space order plus A B* A = A A* A
  left-star  A*A = A*B and col(A) <= col(B)
  right-star AA* = BA* and col(A*) <= col(B*)

The diamond order also has three alternative characterizations exposed as
separate functions, all provably equivalent to the definition: the minus
relation between pseudoinverses, a range direct-sum split, and a rank
condition; dedicated suites assert the agreement on random inputs.

Callers that read only the diamond verdict (the cover diagram, the
criteria, the witness constructions) use ``diamond_verdict``, which
returns that boolean without building the report. ``diamond_table``
returns the verdicts of every ordered pair of a float family, the same
as ``diamond_verdict`` on each, with one stacked product per row for the
sandwich identities; it holds one row, O(k·m·n) entries, at a time.
``verdict_table`` returns that table for any relation in ``RELATIONS``,
through those two for diamond; the cover diagram reads it.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DomainError, ShapeError
from .matrix import (EQ_TOL, EXACT, FLOAT, RANK_FACTOR, Matrix, _compare,
                     _kept, _rank, float_norm, matrices_equal, rank,
                     rank_floor, tolerance_bound)
from .pinv import (_inner_inverse, moore_penrose, projector_range,
                   projector_rowspace)
from .subspaces import (column_space, subspace_intersection_dim, subspace_leq)


@dataclass(frozen=True)
class OrderReport:
    """Outcome of one order comparison."""

    relation: str
    verdict: bool
    characterization: str
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _check_pair(a: Matrix, b: Matrix):
    if not isinstance(a, Matrix) or not isinstance(b, Matrix):
        raise ShapeError("order predicates compare two matrices")
    a._check_same_shape(b, "order comparison")


def _max_margin(ratios) -> Optional[float]:
    return max((r for r in ratios if r is not None), default=None)


def leq_star(a: Matrix, b: Matrix, tol: float = EQ_TOL,
             rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Star order: A*A = A*B and AA* = BA*.

    The equivalent pseudoinverse form A+A = A+B, AA+ = BA+ is evaluated
    as well and recorded for cross-checking.
    """
    _check_pair(a, b)
    act = a.ct
    g_left, m1 = _compare(act @ a, act @ b, tol)
    g_right, m2 = _compare(a @ act, b @ act, tol)
    ad = moore_penrose(a, rank_factor)
    d_left, m3 = _compare(projector_rowspace(a, rank_factor), ad @ b, tol)
    d_right, m4 = _compare(projector_range(a, rank_factor), b @ ad, tol)
    verdict = g_left and g_right
    return OrderReport("star", verdict, "definition", {
        "gram_left": g_left, "gram_right": g_right,
        "dagger_left": d_left, "dagger_right": d_right,
        "dagger_agrees": (d_left and d_right) == verdict,
        "margin": _max_margin([m1, m2, m3, m4]),
    })


def _difference(a: Matrix, b: Matrix, tol: float) -> Matrix:
    """B - A, or exact zero on the float backend when A equals B within
    tol, kept on b under ``("difference", tol)`` for a: the routes that
    rank B+ - A+ or take its column space share one object, and with it,
    on the exact backend, one elimination.

    The difference of two equal float matrices is pure roundoff; the SVD
    rank cutoff is relative to the matrix's own largest singular value, so
    such noise would otherwise read as full rank.
    """
    def build(b: Matrix, key: tuple) -> Matrix:
        if a.backend == FLOAT and matrices_equal(a, b, tol):
            return Matrix.zeros(a.rows, a.cols, FLOAT)
        return b - a

    return _kept(b, ("difference", tol), build, owner=a)


def leq_minus(a: Matrix, b: Matrix, tol: float = EQ_TOL,
              rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Minus order: rank(B - A) = rank(B) - rank(A)."""
    _check_pair(a, b)
    ra = rank(a, rank_factor)
    rb = rank(b, rank_factor)
    rd = rank(_difference(a, b, tol), rank_factor)
    return OrderReport("minus", rd == rb - ra, "rank", {
        "rank_a": ra, "rank_b": rb, "rank_diff": rd,
    })


def leq_space(a: Matrix, b: Matrix, tol: float = EQ_TOL,
              rank_factor: float = RANK_FACTOR, inner_samples: int = 0,
              rng: Optional[random.Random] = None) -> OrderReport:
    """Space pre-order: col(A) <= col(B) and col(A*) <= col(B*).

    The verdict comes from the two range inclusions. The equivalent
    formulation A = B G A = A G B over inner inverses G of B is verified
    against the pseudoinverse and recorded in the witnesses. Sampled G
    cross-check it only when ``inner_samples > 0``: that many are drawn
    from ``rng`` (default ``random.Random(0)``) and
    ``inner_inverse_identities`` records whether all passed; otherwise no
    sample is drawn, ``rng`` is left untouched and that witness is None.
    """
    _check_pair(a, b)
    col_ok = subspace_leq(a, b, rank_factor)
    row_ok = subspace_leq(a.ct, b.ct, rank_factor)
    verdict = col_ok and row_ok

    bd = moore_penrose(b, rank_factor)
    p1, m1 = _compare(projector_range(b, rank_factor) @ a, a, tol)
    p2, m2 = _compare(a @ bd @ b, a, tol)
    proj_ok = p1 and p2
    ratios = [m1, m2]

    sampled_ok = None
    if inner_samples > 0:
        if rng is None:
            rng = random.Random(0)
        sampled_ok = True
        for _ in range(inner_samples):
            w = _random_param(a.cols, a.rows, a.backend, rng)
            g = _inner_inverse(b, w, rank_factor)
            s1, r1 = _compare(b @ g @ a, a, tol)
            s2, r2 = _compare(a @ g @ b, a, tol)
            ratios.extend([r1, r2])
            if not (s1 and s2):
                sampled_ok = False
    return OrderReport("space", verdict, "definition", {
        "range_inclusion": col_ok, "row_range_inclusion": row_ok,
        "projector_identities": proj_ok,
        "projector_agrees": proj_ok == verdict,
        "inner_inverse_identities": sampled_ok,
        "margin": _max_margin(ratios),
    })


def _random_param(rows: int, cols: int, backend: str, rng: random.Random) -> Matrix:
    """rows x cols small integers (exact) or standard normal draws (float),
    drawn in row-major order, built with the declared shape so that an
    empty side stays empty."""
    from .sampling import gauss_array

    if backend == EXACT:
        re = np.array([rng.randint(-2, 2) for _ in range(rows * cols)],
                      dtype=object).reshape(rows, cols)
        return Matrix._from_ints(re, np.zeros((rows, cols), dtype=object), 1)
    draws = gauss_array(rng, rows * cols).reshape(rows, cols)
    return Matrix._wrap(draws.astype(complex))


def leq_diamond(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Diamond order: the space pre-order plus A B* A = A A* A."""
    space = leq_space(a, b, tol, rank_factor)
    sandwich, ratio = _compare(a @ b.ct @ a, a @ a.ct @ a, tol)
    return OrderReport("diamond", space.verdict and sandwich, "definition", {
        "space": space.verdict, "sandwich": sandwich,
        "range_inclusion": space.witnesses["range_inclusion"],
        "row_range_inclusion": space.witnesses["row_range_inclusion"],
        "margin": _max_margin([space.witnesses["margin"], ratio]),
    })


def diamond_verdict(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                    rank_factor: float = RANK_FACTOR) -> bool:
    """``leq_diamond(a, b, tol, rank_factor).verdict``, without the report.

    Decides A B* A = A A* A, then col(A) <= col(B), then col(A*) <= col(B*),
    and stops at the first false term. B+ and the projector identities,
    which only feed the report's margin, are never computed. The sandwich
    goes first because its products are the ones that overflow: a pair
    whose report raises DomainError there raises it here too.
    """
    _check_pair(a, b)
    return (_compare(a @ b.ct @ a, a @ a.ct @ a, tol)[0]
            and _ranges_leq(a, b, rank_factor))


def _require_diamond(a: Matrix, b: Matrix, tol: float, rank_factor: float):
    if not diamond_verdict(a, b, tol, rank_factor):
        raise DomainError("pair is not diamond-comparable")


def _ranges_leq(a: Matrix, b: Matrix, rank_factor: float) -> bool:
    """col(A) <= col(B) and then col(A*) <= col(B*), diamond's space terms."""
    return (subspace_leq(a, b, rank_factor)
            and subspace_leq(a.ct, b.ct, rank_factor))


def diamond_table(mats, tol: float = EQ_TOL,
                  rank_factor: float = RANK_FACTOR) -> list:
    """``[[i == j or diamond_verdict(mats[i], mats[j], tol, rank_factor)
    for j ...] for i ...]`` for k equally shaped float matrices.

    Row i forms the sandwich products (A_i B_j*) A_i for all j in one
    stacked matmul on B_j*, laid out as ``B_j.ct`` is, so that each is the
    per-pair product bit for bit, and A_i A_i* A_i once. It then decides
    the pairs i != j in order by ``_compare``'s rule, and only pairs
    whose sandwich holds go on to the range inclusions. A block of the row
    holding a non-finite entry (an overflow) is decided by
    ``diamond_verdict``, which warns and raises there as the pair loop does;
    a single matrix computes nothing. The stacks held at once are one block
    of one row: at most about 3·k·m·n entries for m x n inputs, or one
    m x m product when m > k·n.
    """
    k = len(mats)
    table = [[i == j for j in range(k)] for i in range(k)]
    if k < 2:
        return table
    m, n = mats[0].shape
    adj = np.stack([x._entries for x in mats]).conj().transpose(0, 2, 1)
    # a block of j whose m x m products (A_i B_j*) stay within k·m·n entries
    step = max(1, k * n // max(m, n, 1))
    for i, a in enumerate(mats):
        e = a._entries
        with np.errstate(over="ignore", invalid="ignore"):
            aaa = (e @ adj[i]) @ e
        aaa_norm = None
        for lo in range(0, k, step):
            js = [j for j in range(lo, min(lo + step, k)) if j != i]
            with np.errstate(over="ignore", invalid="ignore"):
                s = (e @ adj[lo:lo + step]) @ e
                d = s - aaa
            if not np.isfinite(d).all():
                for j in js:
                    table[i][j] = diamond_verdict(a, mats[j], tol, rank_factor)
                continue
            for j in js:
                # _compare's order: |S|, |A A* A|, the bound, |S - A A* A|
                s_norm = float_norm(s[j - lo])
                if aaa_norm is None:
                    aaa_norm = float_norm(aaa)
                bound = tolerance_bound(tol, s_norm, aaa_norm)
                table[i][j] = (float_norm(d[j - lo]) <= bound
                               and _ranges_leq(a, mats[j], rank_factor))
    return table


def leq_left_star(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                  rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Left-star order: A*A = A*B and col(A) <= col(B)."""
    _check_pair(a, b)
    gram, ratio = _compare(a.ct @ a, a.ct @ b, tol)
    incl = subspace_leq(a, b, rank_factor)
    return OrderReport("left-star", gram and incl, "definition", {
        "gram": gram, "range_inclusion": incl, "margin": _max_margin([ratio]),
    })


def leq_right_star(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                   rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Right-star order: AA* = BA* and col(A*) <= col(B*), which is A*
    below B* in the left-star order."""
    _check_pair(a, b)
    left = leq_left_star(a.ct, b.ct, tol, rank_factor)
    w = left.witnesses
    return OrderReport("right-star", left.verdict, "definition", {
        "gram": w["gram"], "row_range_inclusion": w["range_inclusion"],
        "margin": w["margin"],
    })


# -- alternative diamond characterizations ------------------------------


def diamond_via_dagger_minus(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                             rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Diamond order via the pseudoinverses: A+ below B+ in the minus order."""
    _check_pair(a, b)
    inner = leq_minus(moore_penrose(a, rank_factor),
                      moore_penrose(b, rank_factor), tol, rank_factor)
    return OrderReport("diamond", inner.verdict, "dagger-minus", inner.witnesses)


def diamond_via_range_split(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                            rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Diamond order via ranges: col(A*) ∩ col(B+ - A+) = 0 and col(A*) <= col(B*).

    Witnesses also record whether col(B*) splits as the direct sum of the
    two ranges, which is an equivalent reading of the same condition.
    """
    _check_pair(a, b)
    ad = moore_penrose(a, rank_factor)
    bd = moore_penrose(b, rank_factor)
    diff = _difference(ad, bd, tol)
    inter = subspace_intersection_dim(a.ct, diff, rank_factor)
    incl = subspace_leq(a.ct, b.ct, rank_factor)
    verdict = inter == 0 and incl
    diff_in_b = subspace_leq(diff, b.ct, rank_factor)
    dim_a, dim_diff, dim_b = (column_space(x, rank_factor).cols
                              for x in (a.ct, diff, b.ct))
    return OrderReport("diamond", verdict, "range-split", {
        "intersection_dim": inter, "row_range_inclusion": incl,
        "dim_rows_a": dim_a, "dim_diff": dim_diff, "dim_rows_b": dim_b,
        "direct_sum": verdict and diff_in_b and dim_a + dim_diff == dim_b,
    })


def diamond_via_rank(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                     rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Diamond order via ranks: rank(B+ - A+) = rank((I - A+A) B+),
    together with col(A*) <= col(B*).

    On the float backend (I - A+A) B+ carries roundoff of order
    eps cond(A) |B+|, which the cutoff relative to its own largest singular
    value would read as rank, so both ranks count only singular values above
    ``rank_floor`` of |A+|_F and |B+|_F, the scale of the operands: their
    ``tolerance_bound``, or under a tiny tol their spectral cutoff.
    """
    _check_pair(a, b)
    ad = moore_penrose(a, rank_factor)
    bd = moore_penrose(b, rank_factor)
    eye = Matrix.identity(a.cols, a.backend)
    floor = 0.0  # exact ranks take no floor
    if a.backend == FLOAT:
        floor = rank_floor(tol, rank_factor, bd.shape, ad.frobenius(),
                           bd.frobenius())
    r_diff = _rank(_difference(ad, bd, tol), rank_factor, floor)
    r_proj = _rank((eye - projector_rowspace(a, rank_factor)) @ bd,
                   rank_factor, floor)
    incl = subspace_leq(a.ct, b.ct, rank_factor)
    return OrderReport("diamond", r_diff == r_proj and incl, "rank", {
        "rank_dagger_diff": r_diff, "rank_complement_product": r_proj,
        "row_range_inclusion": incl,
    })


def idempotent_factor_witness(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                              rank_factor: float = RANK_FACTOR):
    """An idempotent Q with A+ = Q B+, which exists exactly under diamond.

    Q = A+ B: under diamond A+ B A+ = A+ and A+ B B+ = A+, since B is an
    inner inverse of B+, so Q is idempotent and Q B+ = A+ in exact
    arithmetic. Returns Q once both identities verify within tol, and None
    when float roundoff breaks them.
    """
    _require_diamond(a, b, tol, rank_factor)
    ad = moore_penrose(a, rank_factor)
    q = ad @ b
    if (matrices_equal(q @ q, q, tol)
            and matrices_equal(q @ moore_penrose(b, rank_factor), ad, tol)):
        return q
    return None


# -- one-sided star equivalence bundles ----------------------------------


def left_star_equivalents(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                          rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Four equivalent readings of the left-star relation.

    (a) the definition; (b) diamond plus A*A = A*B; (c) diamond plus
    A+A = A+B; (d) diamond plus A*B Hermitian. All four booleans are
    reported; they agree on every valid input.
    """
    _check_pair(a, b)
    base = leq_left_star(a, b, tol, rank_factor)
    dia = diamond_verdict(a, b, tol, rank_factor)
    ad = moore_penrose(a, rank_factor)
    dag = matrices_equal(projector_rowspace(a, rank_factor), ad @ b, tol)
    herm_m = a.ct @ b
    herm = matrices_equal(herm_m, herm_m.ct, tol)
    votes = {
        "definition": base.verdict,
        "diamond_and_gram": dia and base.witnesses["gram"],
        "diamond_and_dagger": dia and dag,
        "diamond_and_hermitian": dia and herm,
    }
    return OrderReport("left-star", base.verdict, "four-way", {
        **votes, "diamond": dia, "all_equal": len(set(votes.values())) == 1,
    })


def right_star_equivalents(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                           rank_factor: float = RANK_FACTOR) -> OrderReport:
    """The four readings of the right-star relation, which are those of
    ``left_star_equivalents`` on (A*, B*): (a) definition; (b) diamond plus
    AA* = BA*; (c) diamond plus AA+ = BA+; (d) diamond plus BA* Hermitian."""
    _check_pair(a, b)
    return replace(left_star_equivalents(a.ct, b.ct, tol, rank_factor),
                   relation="right-star")


RELATIONS = {
    "star": leq_star,
    "minus": leq_minus,
    "space": leq_space,
    "diamond": leq_diamond,
    "left-star": leq_left_star,
    "right-star": leq_right_star,
}

DIAMOND_ROUTES = {
    "definition": leq_diamond,
    "dagger-minus": diamond_via_dagger_minus,
    "range-split": diamond_via_range_split,
    "rank": diamond_via_rank,
}


def verdict_table(mats, relation: str, tol: float = EQ_TOL,
                  rank_factor: float = RANK_FACTOR) -> list:
    """The table ``leq[i][j]`` of equally shaped matrices on one backend:
    True for i == j, else the verdict of ``RELATIONS[relation]`` on (mats[i],
    mats[j]). Diamond builds no report: ``diamond_table`` decides a float
    family and ``diamond_verdict`` an exact one. An unknown relation, a
    member that is not a Matrix, and mixed shapes or backends are refused
    before any verdict, an empty family included."""
    if relation not in RELATIONS:
        raise DomainError("unknown relation %r" % relation)
    for m in mats:
        if not isinstance(m, Matrix):
            raise ShapeError("poset needs matrices")
        if m.shape != mats[0].shape:
            raise ShapeError("poset needs equally shaped matrices")
        if m.backend != mats[0].backend:
            raise DomainError("poset needs a single backend")
    if relation != "diamond":
        pred = RELATIONS[relation]

        def holds(x, y, tol, rank_factor):
            return pred(x, y, tol, rank_factor).verdict
    elif mats and mats[0].backend == FLOAT:
        return diamond_table(mats, tol, rank_factor)
    else:
        holds = diamond_verdict
    k = len(mats)
    return [[i == j or holds(mats[i], mats[j], tol, rank_factor)
             for j in range(k)] for i in range(k)]


def projector_transfer(a: Matrix, b: Matrix, relation: str,
                       tol: float = EQ_TOL,
                       rank_factor: float = RANK_FACTOR):
    """Verdicts of the relation on (A, B) and on their range projectors.

    The relation passes to the projector pair whenever it holds for the
    original pair; the converse can fail, since the range projectors
    carry no row-space information. Pairing this with the same check on
    the row-space projectors recovers an exact equivalence for the space
    pre-order.
    """
    if relation not in RELATIONS:
        raise DomainError("unknown relation %r" % relation)
    _check_pair(a, b)
    pred = RELATIONS[relation]
    direct = pred(a, b, tol, rank_factor).verdict
    pa = projector_range(a, rank_factor)
    pb = projector_range(b, rank_factor)
    projected = pred(pa, pb, tol, rank_factor).verdict
    return direct, projected
