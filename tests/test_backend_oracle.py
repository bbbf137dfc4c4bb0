"""Differential oracle: the float backend against the exact one.

Small Gaussian integers, and the halves that ``exact_pair`` draws, are
exact in complex128, so a pair (A, B) and its copy
``(A.to_float(), B.to_float())`` are the same two matrices. Each of the six
relations and the three alternative diamond routes must then give the
same verdict on both backends; the exact verdict is the ground truth. No
conditioning filter is applied: every drawn pair is checked.

True verdicts come almost only from the trivial kinds. Star, left-star,
right-star and every diamond route hold only where A = 0 or A = B; the
space order also holds on 2x pairs and on nonsingular square pairs, and
minus on the odd draw with repeated rows. A random small-integer matrix
has full rank, so independent draws, sums and ``exact_pair``'s own
constructions almost never land on a relation (ROADMAP item 10).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from matorder import DIAMOND_ROUTES, RELATIONS, Matrix
from matorder.sampling import exact_pair

CALLS = sorted(RELATIONS.items()) + sorted(
    ("diamond/" + route, fn) for route, fn in DIAMOND_ROUTES.items()
    if route != "definition")
KINDS = ("independent", "sum", "equal", "zero", "double", "exact_pair")
GAUSSIAN = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def exact_pairs(draw):
    """An m x n exact pair, m and n in 1..4, of a drawn construction kind."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(KINDS))
    if kind == "exact_pair":
        _, a, b = exact_pair(random.Random(draw(st.integers(0, 2 ** 32))), m, n)
        return a, b
    grid = st.lists(st.lists(GAUSSIAN, min_size=n, max_size=n),
                    min_size=m, max_size=m).map(Matrix.exact)
    a = draw(grid)
    if kind == "independent":
        return a, draw(grid)
    if kind == "sum":
        return a, a + draw(grid)
    if kind == "equal":
        return a, a
    if kind == "zero":
        return Matrix.zeros(m, n), a
    return a, a.scale(2)


@settings(max_examples=200, deadline=None)
@given(exact_pairs())
def test_float_verdicts_match_the_exact_ones(pair):
    a, b = pair
    fa, fb = a.to_float(), b.to_float()
    exact = {name: fn(a, b).verdict for name, fn in CALLS}
    assert {name: fn(fa, fb).verdict for name, fn in CALLS} == exact, (a, b)
