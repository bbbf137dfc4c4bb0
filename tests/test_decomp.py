"""SVD, the unitary block form, block pseudoinverses, and canonical pairs."""

import math
import random

import pytest

from matorder import (EXACT, FLOAT, BackendError, DomainError, Matrix,
                      ShapeError, diamond_canonical_pair,
                      hartwig_spindelbock, matrices_equal, moore_penrose,
                      partitioned_mp, rank, svd)
from matorder.sampling import random_base_matrix, random_spectrum_matrix

TOL = 1e-9
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _f(rows):
    return Matrix.from_complex(rows)


def test_svd_singular_values_oracle():
    form = svd(_f([[1, 1], [1, 0]]))
    assert len(form.sigma) == 2
    assert abs(form.sigma[0] - PHI) < TOL
    assert abs(form.sigma[1] - 1.0 / PHI) < TOL


def test_svd_reconstructs_and_orders():
    rng = random.Random(7)
    for m, n in ((3, 2), (2, 4), (3, 3), (1, 5)):
        a = random_spectrum_matrix(m, n, min(m, n), rng)
        form = svd(a)
        assert list(form.sigma) == sorted(form.sigma, reverse=True)
        assert matrices_equal(form.reconstruct(), a, TOL)
        assert matrices_equal(form.u.ct @ form.u,
                              Matrix.identity(m, FLOAT), TOL)
        assert matrices_equal(form.v.ct @ form.v,
                              Matrix.identity(n, FLOAT), TOL)


def test_svd_of_diagonal_and_zero():
    form = svd(_f([[2, 0], [0, 1]]))
    assert abs(form.sigma[0] - 2.0) < TOL and abs(form.sigma[1] - 1.0) < TOL
    zform = svd(Matrix.zeros(2, 2, FLOAT))
    assert all(s < TOL for s in zform.sigma)


def test_svd_rejects_exact_backend():
    with pytest.raises(BackendError):
        svd(Matrix.exact([[1]]))


def test_block_form_shift_oracle():
    hs = hartwig_spindelbock(_f([[0, 2], [0, 0]]))
    assert hs.r == 1
    assert abs(hs.sigma[0] - 2.0) < TOL
    assert abs(hs.k[0, 0]) < TOL
    assert abs(abs(hs.l[0, 0]) - 1.0) < TOL
    assert matrices_equal(hs.reconstruct(), _f([[0, 2], [0, 0]]), TOL)


def test_block_form_nonsingular_has_empty_l():
    hs = hartwig_spindelbock(_f([[2, 0], [0, 1]]))
    assert hs.r == 2
    assert hs.l.cols == 0
    assert matrices_equal(hs.k @ hs.k.ct, Matrix.identity(2, FLOAT), TOL)


def test_block_form_rank_one_row():
    hs = hartwig_spindelbock(_f([[1, 1], [0, 0]]))
    assert hs.r == 1
    assert abs(hs.sigma[0] - math.sqrt(2.0)) < TOL
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert abs(abs(hs.k[0, 0]) - inv_sqrt2) < TOL
    assert abs(abs(hs.l[0, 0]) - inv_sqrt2) < TOL


def test_block_form_rows_are_isometric():
    rng = random.Random(13)
    for n in (2, 3, 4):
        r = rng.randint(1, n)
        b = random_base_matrix(n, r, rng)
        hs = hartwig_spindelbock(b)
        assert hs.r == r
        kl = hs.k @ hs.k.ct + hs.l @ hs.l.ct
        assert matrices_equal(kl, Matrix.identity(r, FLOAT), TOL)
        assert matrices_equal(hs.reconstruct(), b, TOL)
        assert matrices_equal(hs.pinv(), moore_penrose(b), TOL)


def test_block_form_rejects_bad_input():
    with pytest.raises(ShapeError):
        hartwig_spindelbock(_f([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(BackendError):
        hartwig_spindelbock(Matrix.exact([[1]]))


def test_partitioned_pinv_frozen():
    p = Matrix.exact([[1], [0]])
    q = Matrix.exact([[0], [1]])
    m, md = partitioned_mp(p, q)
    assert m == Matrix.identity(2)
    assert md == Matrix.identity(2)
    with pytest.raises(ShapeError):
        partitioned_mp(p, Matrix.exact([[1]]))


def test_partitioned_pinv_matches_direct():
    rng = random.Random(29)
    for _ in range(6):
        m = rng.randint(1, 4)
        pc, qc = rng.randint(1, 3), rng.randint(1, 3)
        p = Matrix.exact([[rng.randint(-2, 2) for _ in range(pc)]
                          for _ in range(m)])
        q = Matrix.exact([[rng.randint(-2, 2) for _ in range(qc)]
                          for _ in range(m)])
        stacked, sd = partitioned_mp(p, q)
        pad = max(p.cols + q.cols - m, 0)
        assert stacked.rows == m + pad
        direct = moore_penrose(stacked)
        assert sd == direct


def test_partitioned_pinv_on_block_form_parts():
    rng = random.Random(31)
    b = random_base_matrix(3, 2, rng)
    hs = hartwig_spindelbock(b)
    sig = hs.sigma_diag()
    m, md = partitioned_mp(sig @ hs.k, sig @ hs.l)
    assert matrices_equal(md, moore_penrose(m), TOL)


def test_canonical_pair_shape_and_reconstruction():
    a = _f([[0, 1], [0, 0]])
    b = _f([[1, 1], [0, 1]])
    pair = diamond_canonical_pair(a, b)
    assert pair.rank_first == 1 and pair.rank_second == 2
    assert matrices_equal(pair.first(), a, TOL)
    assert matrices_equal(pair.second(), b, TOL)
    assert matrices_equal(pair.u.ct @ pair.u, Matrix.identity(2, FLOAT), TOL)
    assert matrices_equal(pair.v.ct @ pair.v, Matrix.identity(2, FLOAT), TOL)
    assert matrices_equal(pair.gram(), pair.cross_gram(), TOL)
    assert rank(pair.gram()) == pair.rank_first


def test_canonical_pair_gram_matches_cross_gram_randomly():
    from matorder.sampling import float_pair

    rng = random.Random(47)
    found = 0
    for i in range(30):
        kind, a, b = float_pair(rng, 4)
        if kind not in ("diamond",):
            continue
        if rank(a) == 0:
            continue
        pair = diamond_canonical_pair(a, b)
        assert matrices_equal(pair.first(), a, 1e-7)
        assert matrices_equal(pair.second(), b, 1e-7)
        assert matrices_equal(pair.gram(), pair.cross_gram(), 1e-7)
        found += 1
    assert found >= 5


def test_canonical_pair_passes_rank_factor():
    # a is diamond-below b only once its 1e-13 entry counts as roundoff
    a = _f([[1, 0], [0, 1e-13]])
    b = _f([[1, 0], [0, 0]])
    with pytest.raises(DomainError):
        diamond_canonical_pair(a, b)
    pair = diamond_canonical_pair(a, b, rank_factor=1e3)
    assert (pair.rank_first, pair.rank_second) == (1, 1)
    assert matrices_equal(pair.second(), b, TOL)


def test_canonical_pair_rejections():
    b = _f([[1, 0], [0, 1]])
    with pytest.raises(DomainError):
        diamond_canonical_pair(Matrix.zeros(2, 2, FLOAT), b)
    with pytest.raises(DomainError):
        diamond_canonical_pair(_f([[1, 1], [0, 0]]), _f([[1, 0], [0, 0]]))
    with pytest.raises(BackendError):
        diamond_canonical_pair(Matrix.exact([[1]]), Matrix.exact([[1]]))
    with pytest.raises(ShapeError):
        diamond_canonical_pair(_f([[1, 0]]), b)
