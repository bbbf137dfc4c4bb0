"""Per-matrix memo: the adjoint, pseudoinverse, column space and block form
are computed once per Matrix object and change no result."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder import (DIAMOND_ROUTES, RELATIONS, Matrix, build_poset,
                      column_space, hartwig_spindelbock, moore_penrose, pinv)
from matorder.sampling import random_base_matrix

ROUTES = list(RELATIONS.items()) + [("diamond/" + k, f)
                                    for k, f in DIAMOND_ROUTES.items()]
NEAR_RANK_ONE = [[1, 0], [0, 1e-13]]


def _fresh(m: Matrix) -> Matrix:
    """An equal matrix that shares no memo with m."""
    return Matrix(m.rows, m.cols, m.backend, m.entries)


def exact_pairs(max_dim=3):
    entry = st.tuples(st.integers(-1, 1), st.integers(-1, 1))

    def grid(m, n):
        return st.lists(st.lists(entry, min_size=n, max_size=n),
                        min_size=m, max_size=m).map(Matrix.exact)

    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.tuples(grid(m, n), grid(m, n))))


@pytest.mark.parametrize("to_backend", [lambda m: m, Matrix.to_float],
                         ids=["exact", "float"])
@settings(max_examples=20, deadline=None)
@given(pair=exact_pairs())
def test_warm_reports_equal_fresh_reports(to_backend, pair):
    a, b = (to_backend(m) for m in pair)
    for _, fn in ROUTES:
        fn(a, b)
        fn(b, a)
    for name, fn in ROUTES:
        warm = fn(a, b).to_dict()
        assert warm == fn(_fresh(a), _fresh(b)).to_dict(), name


def test_each_rank_factor_gets_its_own_result():
    b = Matrix.from_complex(NEAR_RANK_ONE)
    for rf, rank in ((1e3, 1), (64.0, 2), (1e3, 1)):
        assert moore_penrose(b, rf) == moore_penrose(_fresh(b), rf)
        assert column_space(b, rf).dim == rank
        assert hartwig_spindelbock(b, rf).r == rank
    assert moore_penrose(b, 1e3) != moore_penrose(b, 64.0)


@pytest.mark.parametrize("a", [Matrix.exact([[1, (0, 1)], [2, 3]]),
                               Matrix.from_complex([[1, 1j], [2, 3]])],
                         ids=["exact", "float"])
def test_adjoint_is_cached_without_a_back_link(a):
    assert a.ct is a.ct
    assert a.ct.ct == a
    assert a.ct.ct is not a


def test_cached_values_are_read_only():
    b = Matrix.from_complex([[1, 2], [0, 0]])
    hs = hartwig_spindelbock(b)
    space = column_space(b)
    for m in (b.ct, moore_penrose(b), space.basis, hs.u, hs.k, hs.l):
        assert not m.entries.flags.writeable
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5
    for value, field in ((space, "basis"), (hs, "k")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, b)


@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_poset_computes_each_pseudoinverse_once(monkeypatch, relation):
    mats = [random_base_matrix(3, 2, random.Random(seed)) for seed in range(6)]
    done = []
    real = pinv._float_pinv

    def counted(a, rank_factor):
        done.append(a)
        return real(a, rank_factor)

    monkeypatch.setattr(pinv, "_float_pinv", counted)
    build_poset([(str(i), m) for i, m in enumerate(mats)], relation)
    assert len(done) <= len(mats)
