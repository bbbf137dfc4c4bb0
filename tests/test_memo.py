"""Per-matrix memo: the adjoint, pseudoinverse, column space, block form,
float SVD, exact integer form and exact elimination are computed once per
Matrix object, the adjoint's adjoint is the matrix itself, the diamond
predecessor is built once per idempotent and block form, and a range
inclusion and a difference once per pair; exact entries are built only
when read, no memo forms a reference cycle, and none of it changes a
result."""

import ast
import dataclasses
import gc
import math
import random
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder import (DIAMOND_ROUTES, RELATIONS, BackendError, Matrix,
                      build_poset, build_predecessor, column_space,
                      dagger_isotone, diamond_canonical_pair,
                      diamond_predecessor, exact_rref, hartwig_spindelbock,
                      hstack, matrices_equal, matrix, moore_penrose, orders,
                      pinv, random_idempotent, rank, reverse_order_law,
                      subspace_leq, subspaces, svd, vstack)
from matorder.scalars import GaussianRational
from matorder.sampling import exact_pair, float_pair, random_base_matrix

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
        assert column_space(b, rf).cols == rank
        assert hartwig_spindelbock(b, rf).r == rank
    assert moore_penrose(b, 1e3) != moore_penrose(b, 64.0)
    low, high = matrix.float_svd(b, 1e3), matrix.float_svd(b, 64.0)
    assert all(x is y for x, y in zip(low[:3], high[:3]))
    assert (low[3], high[3]) == (1, 2)


@pytest.mark.parametrize("a", [Matrix.exact([[1, (0, 1)], [2, 3]]),
                               Matrix.from_complex([[1, 1j], [2, 3]])],
                         ids=["exact", "float"])
def test_adjoint_links_back_to_its_source(a):
    assert a.ct is a.ct
    assert a.ct.ct is a
    assert a.ct.ct.ct is a.ct


@pytest.mark.parametrize("backend", [lambda m: m, Matrix.to_float],
                         ids=["exact", "float"])
def test_adjoint_of_a_freed_source_is_a_new_equal_matrix(backend):
    a = backend(Matrix.exact([[1, (0, 1)], [2, 3], [0, (1, -1)]]))
    original = _fresh(a)
    adjoint = a.ct
    source = weakref.ref(a)
    del a
    gc.collect()
    assert source() is None
    back = adjoint.ct
    assert back == original and back is adjoint.ct
    assert back.ct is adjoint


def test_cached_values_are_read_only():
    b = Matrix.from_complex([[1, 2], [0, 0]])
    hs = hartwig_spindelbock(b)
    space = column_space(b)
    u, s, vh, _ = matrix.float_svd(b)
    for arr in [m.entries for m in (b.ct, moore_penrose(b), space,
                                    hs.u, hs.k, hs.l)] + [u, s, vh]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 5
    with pytest.raises(AttributeError, match="immutable"):
        space.cols = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        hs.k = b


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


def _listed_form(m: Matrix) -> tuple:
    re, im, d = m.integer_form
    return re.tolist(), im.tolist(), d


@settings(max_examples=30, deadline=None)
@given(pair=exact_pairs(4))
def test_exact_kernels_on_warm_integer_form_equal_fresh(pair):
    a, b = pair
    c = a @ b.ct  # its integer form comes with it from the product
    for m in (a, b):
        m.integer_form
    for m in (a, b, c):
        assert rank(m) == rank(_fresh(m))
        warm, fresh = exact_rref(m), exact_rref(_fresh(m))
        assert warm == fresh
        assert _listed_form(m) == _listed_form(_fresh(m))
    assert c == _fresh(a) @ _fresh(b).ct
    assert c @ a == _fresh(c) @ _fresh(a)


def test_integer_form_is_computed_once(monkeypatch):
    computed = []
    real_lcm = math.lcm

    def counted(*args):
        computed.append(args)
        return real_lcm(*args)

    monkeypatch.setattr(matrix.math, "lcm", counted)
    # the one lcm of the entries' denominators, taken at construction
    a = Matrix.exact([["1/2", (1, "-1/3")], [0, (0, "1/5")]])
    assert computed == [(2, 1, 1, 3, 1, 1, 1, 5)]
    form = a.integer_form
    for _ in range(3):
        rank(a)
        exact_rref(a)
        prod = a @ a
        column_space(a)
    assert a.integer_form is form
    assert len(computed) == 1
    prod.integer_form  # kept from the product, not recomputed
    assert len(computed) == 1


def test_integer_form_is_read_only_and_exact():
    a = Matrix.exact([["1/2", (1, "-1/3")], [0, (0, "1/5")]])
    # the raw numerators of a @ a over 900 share the factor 3; the product
    # keeps them reduced, over 300, and later kernels start from that form
    prod = a @ a
    assert prod.integer_form[2] == 300
    assert prod @ a == _fresh(prod) @ _fresh(a)
    assert exact_rref(prod) == exact_rref(_fresh(prod))
    for m in (a, prod):
        re, im, d = m.integer_form
        assert _listed_form(m) == _listed_form(_fresh(m))
        assert d == math.lcm(*(int(q.denominator) for v in m.entries.flat
                               for q in (v.re, v.im)))
        assert all(type(x) is int for x in list(re.flat) + list(im.flat))
        for arr in (re, im):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 5
    assert a.integer_form[2] == 30
    assert a.integer_form[0].tolist() == [[15, 30], [0, 0]]
    assert a.integer_form[1].tolist() == [[0, -10], [0, 6]]
    with pytest.raises(BackendError):
        a.to_float().integer_form


def test_one_elimination_per_matrix(monkeypatch):
    a = Matrix.exact([[1, (0, 1), "1/2"], [2, (0, 2), 1], [0, 1, (1, 1)]])
    eliminated = []
    real = matrix._gauss_jordan

    def counted(m):
        eliminated.append(m)
        return real(m)

    monkeypatch.setattr(matrix, "_gauss_jordan", counted)
    for _ in range(2):
        assert rank(a) == 2
        assert column_space(a).cols == 2
        red, pivots = exact_rref(a)
        moore_penrose(a)
    assert sum(m is a for m in eliminated) == 1
    assert exact_rref(a) == (red, pivots) == exact_rref(_fresh(a))
    re, im, _, kept = a._memo["gauss_jordan"]
    assert kept == pivots == (0, 1)
    assert not re.flags.writeable and not im.flags.writeable


def _record_eliminations(monkeypatch) -> list:
    eliminated = []
    real = matrix._gauss_jordan

    def counted(m):
        eliminated.append(m)
        return real(m)

    monkeypatch.setattr(matrix, "_gauss_jordan", counted)
    return eliminated


def test_exact_inclusion_eliminates_once_per_basis_and_never_ranks(monkeypatch):
    def refused(*args):
        raise AssertionError("an exact inclusion asked for a rank")

    eliminated = _record_eliminations(monkeypatch)
    monkeypatch.setattr(subspaces, "rank", refused)
    monkeypatch.setattr(matrix, "_rank", refused)
    t = column_space(Matrix.exact([[1, 0], [(0, 1), 1], [2, "1/2"]]))
    inside = column_space(Matrix.exact([[1], [(1, 1)], ["5/2"]]))
    outside = column_space(Matrix.exact([[0], [0], [1]]))
    again = column_space(_fresh(inside))
    eliminated.clear()
    assert subspace_leq(inside, t)
    assert eliminated == [t.ct]
    assert not subspace_leq(outside, t)
    assert subspace_leq(again, t)
    assert len(eliminated) == 1


def test_exact_pair_calls_never_eliminate_a_stacked_basis(monkeypatch):
    seed = next(s for s in range(100)
                if exact_pair(random.Random(s), 4, 3)[0] == "star")
    _, a, b = exact_pair(random.Random(seed), 4, 3)
    eliminated = _record_eliminations(monkeypatch)
    compared = []
    for name in ("subspace_leq", "subspace_intersection_dim"):
        real = getattr(orders, name)

        def recorded(s, t, *args, real=real):
            compared.append((s, t))
            return real(s, t, *args)

        monkeypatch.setattr(orders, name, recorded)
    for name, fn in ROUTES:
        if name != "diamond/definition":
            fn(a, b)
    stacked = [hstack(x, y) for s, t in compared for x, y in ((s, t), (t, s))]
    assert len(compared) >= 9
    assert not [m for m in eliminated for x in stacked if m == x]


def _pair_calls(a: Matrix, b: Matrix):
    """The full reports of the six relations and the three alternative
    diamond routes, witnesses read."""
    for name, fn in ROUTES:
        if name != "diamond/definition":
            fn(a, b).witnesses


def _random_float_pair():
    seed = next(s for s in range(100)
                if float_pair(random.Random(s), 6)[0] == "random")
    return float_pair(random.Random(seed), 6)[1:]


def test_float_pair_calls_decompose_each_stacked_basis_once(monkeypatch):
    a, b = _random_float_pair()
    ranked = []
    real = np.linalg.svd

    def counted(x, *args, **kwargs):
        if not kwargs.get("compute_uv", True):
            ranked.append((x.shape, np.array(x).tobytes()))
        return real(x, *args, **kwargs)

    stacked = []
    real_hstack = subspaces.hstack

    def recorded(*mats):
        stacked.append(real_hstack(*mats))
        return stacked[-1]

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(subspaces, "hstack", recorded)
    _pair_calls(a, b)
    # four stacked bases; three ranks each in minus and dagger-minus, two
    # in the rank route, whose rank(B+ - A+) repeats dagger-minus's
    assert len(stacked) == 4
    assert len(ranked) == 12
    for m in stacked:
        assert ranked.count((m.shape, m.to_ndarray().tobytes())) == 1


def test_exact_pair_calls_eliminate_the_dagger_difference_once(monkeypatch):
    seed = next(s for s in range(100)
                if exact_pair(random.Random(s), 4, 3)[0] == "random")
    _, a, b = exact_pair(random.Random(seed), 4, 3)
    diff = moore_penrose(_fresh(b)) - moore_penrose(_fresh(a))
    assert not diff.is_zero()
    eliminated = _record_eliminations(monkeypatch)
    _pair_calls(a, b)
    assert sum(m == diff for m in eliminated) == 1
    # an exact A+ carries rank(A), so the minus order on A+ and B+ ranks
    # both without eliminating either
    daggers = (moore_penrose(_fresh(a)), moore_penrose(_fresh(b)))
    assert not any(m == d for m in eliminated for d in daggers)


@pytest.mark.parametrize("backend", [lambda m: m, Matrix.to_float],
                         ids=["exact", "float"])
def test_pair_values_go_only_to_their_partner(backend):
    s = backend(Matrix.exact([[1], [1], [0]]))
    inside = [[1, 0], [0, 1], [0, 0]]
    outside = [[1, 0], [0, 0], [0, 1]]
    t1, t2 = (backend(Matrix.exact(x)) for x in (inside, outside))
    for t in (t1, t2, t1):
        assert subspace_leq(s, t) == subspace_leq(_fresh(s), _fresh(t))
    assert subspace_leq(s, t1) and not subspace_leq(s, t2)
    # a partner built after the last one is freed gets its own verdict,
    # also where it takes the freed partner's place in memory
    for i in range(6):
        t = backend(Matrix.exact((inside, outside)[i % 2]))
        assert subspace_leq(s, t) == (i % 2 == 0)
        del t
    b = backend(Matrix.exact([[1, 2], [0, 1], [3, 0]]))
    a1 = backend(Matrix.exact([[1, 0], [0, 0], [0, 0]]))
    a2 = backend(Matrix.exact([[0, 0], [0, 1], [1, 0]]))
    for a in (a1, a2, a1):
        diff = orders._difference(a, b, 1e-9)
        assert diff == orders._difference(_fresh(a), _fresh(b), 1e-9)
        assert diff == b - a
    assert orders._difference(a1, b, 1e-9) is diff
    assert [k for k in s._memo if k[0] == "leq"] == [("leq", 64.0)]


def test_kept_difference_is_keyed_by_tol_and_shared_by_the_routes(monkeypatch):
    a = Matrix.from_complex([[2, 1j, 0], [0.5, 3, 1], [1, 0, 4]])
    b = Matrix.from_ndarray(a.to_ndarray() + 1e-14 * np.ones((3, 3)))
    routes = [RELATIONS["minus"]] + [DIAMOND_ROUTES[k] for k in
                                     ("dagger-minus", "range-split", "rank")]
    snaps = []
    real = orders.matrices_equal

    def counted(x, y, tol):
        snaps.append((x, y))
        return real(x, y, tol)

    monkeypatch.setattr(orders, "matrices_equal", counted)
    reports = [fn(a, b, 1e-9) for fn in routes]
    ad, bd = moore_penrose(a), moore_penrose(b)
    # one snapped difference per pair: B - A for minus, B+ - A+ for the rest
    assert [(x is a, y is b, x is ad, y is bd) for x, y in snaps] == [
        (True, True, False, False), (False, False, True, True)]
    for m in (b, bd):
        assert [k for k in m._memo if k[0] == "difference"] == [("difference", 1e-9)]
    assert orders._difference(ad, bd, 1e-9).is_zero()
    assert all(r.verdict for r in reports)
    assert reports[3].witnesses["rank_dagger_diff"] == 0
    # tol = 0 keeps its own difference, the true B - A, which is roundoff
    # of full rank and so not the zero kept at 1e-9
    for fn in routes:
        assert fn(a, b, 0.0).to_dict() == fn(_fresh(a), _fresh(b), 0.0).to_dict()
    assert orders._difference(a, b, 0.0) == b - a
    assert RELATIONS["minus"](a, b, 0.0).witnesses["rank_diff"] == 3
    assert sorted(k[1] for k in bd._memo if k[0] == "difference") == [0.0, 1e-9]


def test_pair_values_form_no_reference_cycle():
    a, b = _random_float_pair()
    gc.disable()
    try:
        _pair_calls(a, b)
        _pair_calls(b, a)
        assert a.ct.ct is a and b.ct.ct is b
        refs = [weakref.ref(a._entries), weakref.ref(b._entries)]
        del a, b
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_one_svd_per_float_matrix(monkeypatch):
    rng = random.Random(3)
    b = random_base_matrix(4, 3, rng)
    a = diamond_predecessor(b, random_idempotent(3, 2, rng))
    decomposed = []
    real = np.linalg.svd

    def counted(x, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            decomposed.append(x)
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    c = _fresh(b)
    for rf in (64.0, 1e3, 64.0):
        moore_penrose(c, rf)
        column_space(c, rf)
        hartwig_spindelbock(c, rf)
        svd(c)
    assert len(decomposed) == 1 and decomposed[0] is c._entries
    b = _fresh(b)
    column_space(b)
    decomposed.clear()
    pair = diamond_canonical_pair(a, b)
    assert matrices_equal(pair.second(), b)
    assert not any(x is b._entries for x in decomposed)


def test_predecessor_is_built_once_per_idempotent_and_form():
    rng = random.Random(5)
    b = random_base_matrix(5, 3, rng)
    t = random_idempotent(3, 2, rng)
    a = diamond_predecessor(b, t)
    assert diamond_predecessor(b, t) is a
    assert a == diamond_predecessor(_fresh(b), _fresh(t))
    # another base of the same rank keeps its own predecessor of t
    other = random_base_matrix(5, 3, rng)
    c = diamond_predecessor(other, t)
    assert c is not a and not matrices_equal(c, a)
    assert c == diamond_predecessor(_fresh(other), _fresh(t))
    assert diamond_predecessor(other, t) is c
    # and so does another rank_factor
    assert diamond_predecessor(b, t, rank_factor=1e3) is not a


def test_dagger_isotone_reuses_the_built_predecessor(monkeypatch):
    rng = random.Random(11)
    b = random_base_matrix(6, 4, rng)
    t = random_idempotent(4, 2, rng)
    bundle = build_predecessor(b, t)
    reverse_order_law(bundle.predecessor, b)
    decomposed = []
    real = np.linalg.svd

    def counted(x, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            decomposed.append(np.array(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    direct, criterion = dagger_isotone(b, t)
    assert direct == criterion
    assert not any(x.shape == bundle.predecessor.shape
                   and (x == bundle.predecessor.entries).all() for x in decomposed)
    assert (direct, criterion) == dagger_isotone(_fresh(b), _fresh(t))


def test_exact_kernels_build_entries_only_when_read(monkeypatch):
    a = Matrix.exact([["1/2", (1, "-1/3")], [0, (0, "1/5")]])
    b = Matrix.exact([[(2, 1), 0], ["3/7", -1]])
    built = []
    real = matrix._gaussian_array

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(matrix, "_gaussian_array", counted)

    def chain(x, y):
        p = (x @ y.ct - y.scale("2/3")) @ x + (-x)
        return vstack(p, exact_rref(p)[0]).submatrix(1, 3, 0, 2) @ hstack(x, y.ct)

    p = chain(a, b)
    assert rank(p) == 2 and p == p and hash(p) == hash(p)
    assert not p.is_zero() and p.frobenius_sq() > 0
    assert not built
    entries = p.entries
    assert len(built) == 1
    assert p.entries is entries and len(built) == 1
    assert not entries.flags.writeable
    with pytest.raises(ValueError):
        entries[0, 0] = 0
    fresh = chain(_fresh(a), _fresh(b))
    assert entries.tolist() == fresh.entries.tolist()
    assert all(isinstance(v, GaussianRational) for v in entries.flat)


def test_only_the_matrix_module_touches_the_memo():
    # matrix._kept is the one reader and writer of Matrix._memo
    sources = sorted(Path(matrix.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    touched = ["%s:%d" % (path.name, node.lineno)
               for path in sources if path.name != "matrix.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "_memo"]
    assert touched == []


def test_only_the_matrix_module_reads_the_integer_form():
    # the exact numerators and denominator are matrix.py's own format;
    # every other module computes with Matrix operations
    sources = sorted(Path(matrix.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    touched = ["%s:%d" % (path.name, node.lineno)
               for path in sources if path.name != "matrix.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "integer_form"]
    assert touched == []


def test_only_the_matrix_module_reads_float_entries():
    # every float product is Matrix.__matmul__, which wraps and checks it;
    # diamond_table's stacked sandwich is the one kernel outside matrix.py
    sources = sorted(Path(matrix.__file__).parent.glob("*.py"))
    touched = []
    for path in sources:
        if path.name == "matrix.py":
            continue
        tree = ast.parse(path.read_text())
        exempt = {id(node) for fn in ast.walk(tree)
                  if path.name == "orders.py" and isinstance(fn, ast.FunctionDef)
                  and fn.name == "diamond_table"
                  for node in ast.walk(fn)}
        touched += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "_entries"
                    and id(node) not in exempt]
    assert touched == []
