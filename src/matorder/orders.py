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

A report's verdict is decided when it is made and its witnesses on their
first read, so callers that read only verdicts (the cover diagram, the
criteria, the fuzz implications) pay for no witness. ``diamond_table``
decides every ordered pair of a square or wide float family in the
diamond order, with one stacked product per row for the sandwich
identities; ``verdict_table`` returns the table of any relation in
``RELATIONS``, through it where it decides and by the pair loop otherwise.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

from .errors import DomainError, ShapeError
from .matrix import (EQ_TOL, EXACT, FLOAT, RANK_FACTOR, Matrix,
                     _check_rank_factor, _compare, _kept, _rank, float_norm,
                     matrices_equal, rank, rank_floor, tolerance_bound)
from .pinv import (_inner_inverse, moore_penrose, projector_range,
                   projector_rowspace)
from .subspaces import (column_space, subspace_intersection_dim, subspace_leq)


class OrderReport:
    """Outcome of one order comparison: the verdict, decided by the call
    that made the report, and its witnesses, a dict or a zero-argument
    function returning one, which the first read of ``witnesses`` calls and
    replaces by its dict, so the report stops holding the compared pair."""

    def __init__(self, relation: str, verdict: bool, characterization: str,
                 witnesses=None):
        self.relation = relation
        self.verdict = verdict
        self.characterization = characterization
        self._witnesses = {} if witnesses is None else witnesses

    @property
    def witnesses(self) -> dict:
        if callable(self._witnesses):
            self._witnesses = self._witnesses()
        return self._witnesses

    def to_dict(self) -> dict:
        return {"relation": self.relation, "verdict": self.verdict,
                "characterization": self.characterization,
                "witnesses": dict(self.witnesses)}


def _check_pair(a: Matrix, b: Matrix, tol: float, rank_factor: float):
    if not isinstance(a, Matrix) or not isinstance(b, Matrix):
        raise ShapeError("order predicates compare two matrices")
    a._check_same_shape(b, "order comparison")
    # on the exact backend too, which compares and ranks without them
    tolerance_bound(tol)
    _check_rank_factor(rank_factor)


def _max_margin(ratios) -> Optional[float]:
    return max((r for r in ratios if r is not None), default=None)


def leq_star(a: Matrix, b: Matrix, tol: float = EQ_TOL,
             rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Star order: A*A = A*B and AA* = BA*.

    The equivalent pseudoinverse form A+A = A+B, AA+ = BA+ is evaluated
    for the witnesses and recorded for cross-checking.
    """
    _check_pair(a, b, tol, rank_factor)
    act = a.ct
    g_left, m1 = _compare(act @ a, act @ b, tol)
    g_right, m2 = _compare(a @ act, b @ act, tol)
    verdict = g_left and g_right

    def witnesses():
        ad = moore_penrose(a, rank_factor)
        d_left, m3 = _compare(projector_rowspace(a, rank_factor), ad @ b, tol)
        d_right, m4 = _compare(projector_range(a, rank_factor), b @ ad, tol)
        return {"gram_left": g_left, "gram_right": g_right,
                "dagger_left": d_left, "dagger_right": d_right,
                "dagger_agrees": (d_left and d_right) == verdict,
                "margin": _max_margin([m1, m2, m3, m4])}
    return OrderReport("star", verdict, "definition", witnesses)


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
    _check_pair(a, b, tol, rank_factor)
    ra = rank(a, rank_factor)
    rb = rank(b, rank_factor)
    rd = rank(_difference(a, b, tol), rank_factor)
    return OrderReport("minus", rd == rb - ra, "rank", {
        "rank_a": ra, "rank_b": rb, "rank_diff": rd,
    })


def _ranges_leq(a: Matrix, b: Matrix, rank_factor: float) -> bool:
    """col(A) <= col(B) and then col(A*) <= col(B*): the space pre-order."""
    return (subspace_leq(a, b, rank_factor)
            and subspace_leq(a.ct, b.ct, rank_factor))


def leq_space(a: Matrix, b: Matrix, tol: float = EQ_TOL,
              rank_factor: float = RANK_FACTOR, inner_samples: int = 0,
              rng: Optional[random.Random] = None) -> OrderReport:
    """Space pre-order: col(A) <= col(B) and col(A*) <= col(B*).

    The verdict is ``_ranges_leq``; the witnesses read both inclusions,
    kept on the pair. A = B G A = A G B over inner inverses G of B is
    verified against the pseudoinverse and recorded in the witnesses.
    Sampled G cross-check it only when ``inner_samples > 0``: the call draws
    that many from ``rng`` (default ``random.Random(0)``) before any witness
    is read, and ``inner_inverse_identities`` records whether all passed;
    otherwise no sample is drawn, ``rng`` is left untouched and that witness
    is None.
    """
    _check_pair(a, b, tol, rank_factor)
    verdict = _ranges_leq(a, b, rank_factor)
    if inner_samples > 0 and rng is None:
        rng = random.Random(0)
    params = [_random_param(a.cols, a.rows, a.backend, rng)
              for _ in range(inner_samples)]

    def witnesses():
        col_ok = subspace_leq(a, b, rank_factor)
        row_ok = subspace_leq(a.ct, b.ct, rank_factor)
        bd = moore_penrose(b, rank_factor)
        p1, m1 = _compare(projector_range(b, rank_factor) @ a, a, tol)
        p2, m2 = _compare(a @ bd @ b, a, tol)
        proj_ok = p1 and p2
        ratios = [m1, m2]
        sampled_ok = True if params else None
        for w in params:
            g = _inner_inverse(b, w, rank_factor)
            s1, r1 = _compare(b @ g @ a, a, tol)
            s2, r2 = _compare(a @ g @ b, a, tol)
            ratios.extend([r1, r2])
            if not (s1 and s2):
                sampled_ok = False
        return {"range_inclusion": col_ok, "row_range_inclusion": row_ok,
                "projector_identities": proj_ok,
                "projector_agrees": proj_ok == verdict,
                "inner_inverse_identities": sampled_ok,
                "margin": _max_margin(ratios)}
    return OrderReport("space", verdict, "definition", witnesses)


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
    """Diamond order: the space pre-order plus A B* A = A A* A. The verdict
    decides the sandwich first, since its products are the ones that
    overflow, then col(A) <= col(B) and col(A*) <= col(B*), stopping at
    the first false term."""
    _check_pair(a, b, tol, rank_factor)
    sandwich, ratio = _compare(a @ b.ct @ a, a @ a.ct @ a, tol)
    verdict = sandwich and _ranges_leq(a, b, rank_factor)

    def witnesses():
        space = leq_space(a, b, tol, rank_factor)
        w = space.witnesses
        return {"space": space.verdict, "sandwich": sandwich,
                "range_inclusion": w["range_inclusion"],
                "row_range_inclusion": w["row_range_inclusion"],
                "margin": _max_margin([w["margin"], ratio])}
    return OrderReport("diamond", verdict, "definition", witnesses)


def _require_diamond(a: Matrix, b: Matrix, tol: float, rank_factor: float):
    if not leq_diamond(a, b, tol, rank_factor).verdict:
        raise DomainError("pair is not diamond-comparable")


def diamond_table(mats, tol: float = EQ_TOL,
                  rank_factor: float = RANK_FACTOR) -> Optional[list]:
    """``[[i == j or leq_diamond(mats[i], mats[j], tol, rank_factor).verdict
    for j ...] for i ...]`` for k >= 2 equally shaped m x n float matrices
    with m <= n. It returns None for any other family, and for one where a
    row's products leave the float range: the pair loop decides those,
    raising and warning as it does.

    Row i forms the sandwich products (A_i B_j*) A_i for all j in one
    stacked matmul on B_j*, laid out as ``B_j.ct`` is, so that each is the
    per-pair product bit for bit, and A_i A_i* A_i is its slice i. It then
    decides the pairs i != j in order by ``_compare``'s rule, and only
    pairs whose sandwich holds go on to the range inclusions. It holds one
    row's stacks at a time: k·m·m <= k·m·n entries of the A_i B_j* and
    2·k·m·n of the sandwiches and their differences.
    """
    k = len(mats)
    if k < 2 or mats[0].rows > mats[0].cols:
        return None
    adj = np.stack([x._entries for x in mats]).conj().transpose(0, 2, 1)
    table = [[i == j for j in range(k)] for i in range(k)]
    for i, a in enumerate(mats):
        e = a._entries
        with np.errstate(over="ignore", invalid="ignore"):
            s = (e @ adj) @ e
            d = s - s[i]
        if not np.isfinite(d).all():
            return None
        aaa_norm = float_norm(s[i])
        for j in range(k):
            if j != i:
                bound = tolerance_bound(tol, float_norm(s[j]), aaa_norm)
                table[i][j] = (float_norm(d[j]) <= bound
                               and _ranges_leq(a, mats[j], rank_factor))
    return table


def leq_left_star(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                  rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Left-star order: A*A = A*B and col(A) <= col(B)."""
    _check_pair(a, b, tol, rank_factor)
    gram, ratio = _compare(a.ct @ a, a.ct @ b, tol)
    incl = subspace_leq(a, b, rank_factor)
    return OrderReport("left-star", gram and incl, "definition", {
        "gram": gram, "range_inclusion": incl, "margin": _max_margin([ratio]),
    })


def leq_right_star(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                   rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Right-star order: AA* = BA* and col(A*) <= col(B*), which is A*
    below B* in the left-star order."""
    _check_pair(a, b, tol, rank_factor)
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
    _check_pair(a, b, tol, rank_factor)
    inner = leq_minus(moore_penrose(a, rank_factor),
                      moore_penrose(b, rank_factor), tol, rank_factor)
    return OrderReport("diamond", inner.verdict, "dagger-minus", inner.witnesses)


def diamond_via_range_split(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                            rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Diamond order via ranges: col(A*) ∩ col(B+ - A+) = 0 and col(A*) <= col(B*).

    Witnesses also record whether col(B*) splits as the direct sum of the
    two ranges, which is an equivalent reading of the same condition.
    """
    _check_pair(a, b, tol, rank_factor)
    ad = moore_penrose(a, rank_factor)
    bd = moore_penrose(b, rank_factor)
    diff = _difference(ad, bd, tol)
    inter = subspace_intersection_dim(a.ct, diff, rank_factor)
    incl = subspace_leq(a.ct, b.ct, rank_factor)
    verdict = inter == 0 and incl

    def witnesses():
        diff_in_b = subspace_leq(diff, b.ct, rank_factor)
        dim_a, dim_diff, dim_b = (column_space(x, rank_factor).cols
                                  for x in (a.ct, diff, b.ct))
        return {"intersection_dim": inter, "row_range_inclusion": incl,
                "dim_rows_a": dim_a, "dim_diff": dim_diff, "dim_rows_b": dim_b,
                "direct_sum": verdict and diff_in_b and dim_a + dim_diff == dim_b}
    return OrderReport("diamond", verdict, "range-split", witnesses)


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
    _check_pair(a, b, tol, rank_factor)
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
    _check_pair(a, b, tol, rank_factor)
    base = leq_left_star(a, b, tol, rank_factor)

    def witnesses():
        dia = leq_diamond(a, b, tol, rank_factor).verdict
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
        return {**votes, "diamond": dia,
                "all_equal": len(set(votes.values())) == 1}
    return OrderReport("left-star", base.verdict, "four-way", witnesses)


def right_star_equivalents(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                           rank_factor: float = RANK_FACTOR) -> OrderReport:
    """The four readings of the right-star relation, which are those of
    ``left_star_equivalents`` on (A*, B*): (a) definition; (b) diamond plus
    AA* = BA*; (c) diamond plus AA+ = BA+; (d) diamond plus BA* Hermitian."""
    _check_pair(a, b, tol, rank_factor)
    left = left_star_equivalents(a.ct, b.ct, tol, rank_factor)
    return OrderReport("right-star", left.verdict, left.characterization,
                       lambda: left.witnesses)


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
    mats[j]), which ``diamond_table`` decides for a float diamond family
    where it returns a table.
    An unknown relation, a member that is not a Matrix, mixed shapes or
    backends, a tol that ``tolerance_bound`` refuses and a rank_factor
    that the float rank rule refuses are refused before any verdict, on
    both backends, an empty family included."""
    if relation not in RELATIONS:
        raise DomainError("unknown relation %r" % relation)
    for m in mats:
        if not isinstance(m, Matrix):
            raise ShapeError("poset needs matrices")
        if m.shape != mats[0].shape:
            raise ShapeError("poset needs equally shaped matrices")
        if m.backend != mats[0].backend:
            raise DomainError("poset needs a single backend")
    tolerance_bound(tol)
    _check_rank_factor(rank_factor)
    if relation == "diamond" and mats and mats[0].backend == FLOAT:
        table = diamond_table(mats, tol, rank_factor)
        if table is not None:
            return table
    pred = RELATIONS[relation]
    k = len(mats)
    return [[i == j or pred(mats[i], mats[j], tol, rank_factor).verdict
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
    _check_pair(a, b, tol, rank_factor)
    pred = RELATIONS[relation]
    direct = pred(a, b, tol, rank_factor).verdict
    pa = projector_range(a, rank_factor)
    pb = projector_range(b, rank_factor)
    projected = pred(pa, pb, tol, rank_factor).verdict
    return direct, projected
