"""Partial orders and pre-orders on complex matrices.

Each predicate takes two equally shaped matrices on the same backend and
returns an OrderReport: the boolean verdict plus witness data (ranks,
identity residuals, cross-checks). Verdicts are decided by equational and
rank characterizations, never by sampling; sampled inner inverses only
cross-check the universally quantified formulations.

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DomainError, ShapeError
from .matrix import (EQ_TOL, EXACT, FLOAT, RANK_FACTOR, Matrix,
                     float_residual, matrices_equal, rank, spectral_rank)
from .pinv import moore_penrose, projector_range
from .scalars import GaussianRational
from .subspaces import (column_space, subspace_intersection_dim, subspace_leq)


@dataclass(frozen=True)
class OrderReport:
    """Outcome of one order comparison."""

    relation: str
    verdict: bool
    characterization: str
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"relation": self.relation, "verdict": self.verdict,
                "characterization": self.characterization,
                "witnesses": self.witnesses}


def _check_pair(a: Matrix, b: Matrix):
    if not isinstance(a, Matrix) or not isinstance(b, Matrix):
        raise ShapeError("order predicates compare two matrices")
    a._check_same_shape(b, "order comparison")


def _ident(lhs: Matrix, rhs: Matrix, tol: float):
    """Equality verdict plus residual-over-tolerance ratio (float backend)."""
    if lhs.backend == EXACT:
        return matrices_equal(lhs, rhs, tol), None
    diff, bound = float_residual(lhs, rhs, tol)
    return diff <= bound, diff / bound


def _range_leq(a: Matrix, b: Matrix, rank_factor: float) -> bool:
    """Whether col(a) <= col(b)."""
    return subspace_leq(column_space(a, rank_factor),
                        column_space(b, rank_factor), rank_factor)


def _max_margin(ratios) -> Optional[float]:
    vals = [r for r in ratios if r is not None]
    return max(vals) if vals else None


def leq_star(a: Matrix, b: Matrix, tol: float = EQ_TOL,
             rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Star order: A*A = A*B and AA* = BA*.

    The equivalent pseudoinverse form A+A = A+B, AA+ = BA+ is evaluated
    as well and recorded for cross-checking.
    """
    _check_pair(a, b)
    act = a.ct
    g_left, m1 = _ident(act @ a, act @ b, tol)
    g_right, m2 = _ident(a @ act, b @ act, tol)
    ad = moore_penrose(a, rank_factor)
    d_left, m3 = _ident(ad @ a, ad @ b, tol)
    d_right, m4 = _ident(a @ ad, b @ ad, tol)
    verdict = g_left and g_right
    return OrderReport("star", verdict, "definition", {
        "gram_left": g_left, "gram_right": g_right,
        "dagger_left": d_left, "dagger_right": d_right,
        "dagger_agrees": (d_left and d_right) == verdict,
        "margin": _max_margin([m1, m2, m3, m4]),
    })


def _snapped_diff(a: Matrix, b: Matrix, tol: float) -> Matrix:
    """B - A, or exact zero on the float backend when A equals B.

    The difference of two equal float matrices is pure roundoff; the SVD
    rank cutoff is relative to the matrix's own largest singular value, so
    such noise would otherwise read as full rank.
    """
    if a.backend == FLOAT and matrices_equal(a, b, tol):
        return Matrix.zeros(a.rows, a.cols, FLOAT)
    return b - a


def leq_minus(a: Matrix, b: Matrix, tol: float = EQ_TOL,
              rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Minus order: rank(B - A) = rank(B) - rank(A)."""
    _check_pair(a, b)
    ra = rank(a, rank_factor)
    rb = rank(b, rank_factor)
    rd = rank(_snapped_diff(a, b, tol), rank_factor)
    return OrderReport("minus", rd == rb - ra, "rank", {
        "rank_a": ra, "rank_b": rb, "rank_diff": rd,
    })


def leq_space(a: Matrix, b: Matrix, tol: float = EQ_TOL,
              rank_factor: float = RANK_FACTOR, inner_samples: int = 5,
              rng: Optional[random.Random] = None) -> OrderReport:
    """Space pre-order: col(A) <= col(B) and col(A*) <= col(B*).

    The verdict comes from the two range inclusions. The equivalent
    formulation A = B G A = A G B over inner inverses G of B is verified
    against the pseudoinverse and ``inner_samples`` sampled G and recorded
    in the witnesses.
    """
    _check_pair(a, b)
    col_ok = _range_leq(a, b, rank_factor)
    row_ok = _range_leq(a.ct, b.ct, rank_factor)
    verdict = col_ok and row_ok

    bd = moore_penrose(b, rank_factor)
    p1, m1 = _ident(b @ bd @ a, a, tol)
    p2, m2 = _ident(a @ bd @ b, a, tol)
    proj_ok = p1 and p2
    ratios = [m1, m2]

    sampled_ok = None
    if inner_samples > 0:
        if rng is None:
            rng = random.Random(0)
        sampled_ok = True
        qb = bd @ b
        pb = b @ bd
        for _ in range(inner_samples):
            w = _random_param(a.cols, a.rows, a.backend, rng)
            g = bd + w - qb @ w @ pb
            s1, r1 = _ident(b @ g @ a, a, tol)
            s2, r2 = _ident(a @ g @ b, a, tol)
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
    built with the declared shape so that an empty side stays empty."""
    if backend == EXACT:
        grid = [[GaussianRational(rng.randint(-2, 2)) for _ in range(cols)]
                for _ in range(rows)]
    else:
        grid = [[rng.gauss(0.0, 1.0) for _ in range(cols)] for _ in range(rows)]
    return Matrix(rows, cols, backend, grid)


def leq_diamond(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Diamond order: the space pre-order plus A B* A = A A* A."""
    _check_pair(a, b)
    space = leq_space(a, b, tol, rank_factor, inner_samples=0)
    sandwich, ratio = _ident(a @ b.ct @ a, a @ a.ct @ a, tol)
    return OrderReport("diamond", space.verdict and sandwich, "definition", {
        "space": space.verdict, "sandwich": sandwich,
        "range_inclusion": space.witnesses["range_inclusion"],
        "row_range_inclusion": space.witnesses["row_range_inclusion"],
        "margin": _max_margin([space.witnesses["margin"], ratio]),
    })


def leq_left_star(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                  rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Left-star order: A*A = A*B and col(A) <= col(B)."""
    _check_pair(a, b)
    gram, ratio = _ident(a.ct @ a, a.ct @ b, tol)
    incl = _range_leq(a, b, rank_factor)
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
    diff = _snapped_diff(ad, bd, tol)
    s_rows_a = column_space(a.ct, rank_factor)
    s_diff = column_space(diff, rank_factor)
    s_rows_b = column_space(b.ct, rank_factor)
    inter = subspace_intersection_dim(s_rows_a, s_diff, rank_factor)
    incl = subspace_leq(s_rows_a, s_rows_b, rank_factor)
    verdict = inter == 0 and incl
    diff_in_b = subspace_leq(s_diff, s_rows_b, rank_factor)
    split = (verdict and diff_in_b
             and s_rows_a.dim + s_diff.dim == s_rows_b.dim)
    return OrderReport("diamond", verdict, "range-split", {
        "intersection_dim": inter, "row_range_inclusion": incl,
        "dim_rows_a": s_rows_a.dim, "dim_diff": s_diff.dim,
        "dim_rows_b": s_rows_b.dim, "direct_sum": split,
    })


def _rank_above(m: Matrix, floor: float, rank_factor: float) -> int:
    """Rank, counting on the float backend only singular values above
    ``floor`` as well as above the spectral cutoff."""
    if m.backend == EXACT:
        return rank(m)
    s = np.linalg.svd(m.to_ndarray(), compute_uv=False)
    return spectral_rank(s, m.shape, rank_factor, floor)


def diamond_via_rank(a: Matrix, b: Matrix, tol: float = EQ_TOL,
                     rank_factor: float = RANK_FACTOR) -> OrderReport:
    """Diamond order via ranks: rank(B+ - A+) = rank((I - A+A) B+),
    together with col(A*) <= col(B*).

    On the float backend (I - A+A) B+ carries roundoff of order
    eps cond(A) |B+|, which the cutoff relative to its own largest singular
    value would read as rank, so both ranks count only singular values above
    tol * (1 + |A+|_F + |B+|_F), the scale of the operands.
    """
    _check_pair(a, b)
    ad = moore_penrose(a, rank_factor)
    bd = moore_penrose(b, rank_factor)
    eye = Matrix.identity(a.cols, a.backend)
    floor = tol * (1.0 + ad.frobenius() + bd.frobenius())
    r_diff = _rank_above(bd - ad, floor, rank_factor)
    r_proj = _rank_above((eye - ad @ a) @ bd, floor, rank_factor)
    incl = _range_leq(a.ct, b.ct, rank_factor)
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
    _check_pair(a, b)
    if not leq_diamond(a, b, tol, rank_factor).verdict:
        raise DomainError("pair is not diamond-comparable")
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
    dia = leq_diamond(a, b, tol, rank_factor).verdict
    ad = moore_penrose(a, rank_factor)
    dag = matrices_equal(ad @ a, ad @ b, tol)
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
