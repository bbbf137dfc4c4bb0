"""Bulk Gaussian draws equal the per-call random.Random stream, bit for bit.

``sampling.gauss_array`` replaces one ``rng.gauss(0.0, 1.0)`` call per entry
in the space order's sampled inner inverses and in ``random_unitary``. Each
test compares a caller with a test-local copy of the per-entry construction
it replaced, including the state the rng is left in, since later draws from
a shared rng (the fuzz suites, the benchmark pools) depend on it.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder import EXACT, FLOAT, GaussianRational, Matrix, leq_space
from matorder import orders
from matorder.sampling import exact_pair, float_pair, gauss_array, random_unitary

seeds = st.integers(0, 2 ** 32 - 1)
bulk_param = orders._random_param


def per_entry_gauss(rng, count):
    return np.array([rng.gauss(0.0, 1.0) for _ in range(count)], dtype=float)


def per_entry_unitary(n, rng):
    """``random_unitary`` as it was built from one ``complex`` per entry."""
    if n == 0:
        return Matrix.identity(0, FLOAT)
    z = np.array([[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                   for _ in range(n)] for _ in range(n)])
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return Matrix.from_ndarray(q @ np.diag(phases))


def per_entry_param(rows, cols, backend, rng):
    """``orders._random_param`` as it was built from one draw per entry."""
    if backend == EXACT:
        grid = [[GaussianRational(rng.randint(-2, 2)) for _ in range(cols)]
                for _ in range(rows)]
    else:
        grid = [[rng.gauss(0.0, 1.0) for _ in range(cols)] for _ in range(rows)]
    return Matrix(rows, cols, backend, grid)


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(0, 300), st.integers(0, 1))
def test_gauss_array_is_the_gauss_stream(seed, count, before):
    # one draw made beforehand leaves the sine half pending in gauss_next
    ref, rng = random.Random(seed), random.Random(seed)
    for _ in range(before):
        ref.gauss(0.0, 1.0)
        rng.gauss(0.0, 1.0)
    expected = per_entry_gauss(ref, count)
    got = gauss_array(rng, count)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert got.tobytes() == expected.tobytes()
    assert rng.getstate() == ref.getstate()


def test_gauss_array_calls_in_sequence_continue_the_stream():
    ref, rng = random.Random(11), random.Random(11)
    counts = (3, 0, 1, 4, 5, 2)
    expected = np.concatenate([per_entry_gauss(ref, k) for k in counts])
    got = np.concatenate([gauss_array(rng, k) for k in counts])
    assert got.tobytes() == expected.tobytes()
    assert rng.getstate() == ref.getstate()


def test_even_count_with_nothing_pending_is_one_getrandbits_call():
    # every draw the workloads make is such a call: it takes the bulk path,
    # so a selection that drew it entry by entry calls gauss
    ref, rng = random.Random(6), random.Random(6)
    calls = []
    getrandbits = rng.getrandbits

    def counted(k):
        calls.append("getrandbits")
        return getrandbits(k)

    def gauss(mu, sigma):
        calls.append("gauss")
        return random.Random.gauss(rng, mu, sigma)
    rng.getrandbits, rng.gauss = counted, gauss
    assert gauss_array(rng, 12).tobytes() == per_entry_gauss(ref, 12).tobytes()
    assert calls == ["getrandbits"]
    assert rng.getstate() == ref.getstate()


class HalvedRandom(random.Random):
    def random(self):
        return super().random() / 2


def test_gauss_array_defers_to_a_subclass():
    ref, rng = HalvedRandom(4), HalvedRandom(4)
    assert gauss_array(rng, 9).tobytes() == per_entry_gauss(ref, 9).tobytes()
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
def test_random_unitary_matches_per_entry_construction(n):
    ref, rng = random.Random(n), random.Random(n)
    ref.gauss(0.0, 1.0)
    rng.gauss(0.0, 1.0)
    for _ in range(2):
        expected = per_entry_unitary(n, ref)
        got = random_unitary(n, rng)
        assert got.to_ndarray().tobytes() == expected.to_ndarray().tobytes()
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("pending", [False, True])
def test_random_unitary_of_size_zero_draws_nothing(pending):
    # the general path serves n = 0: no draw, and QR of a 0 x 0 array
    rng = random.Random(3)
    if pending:
        rng.gauss(0.0, 1.0)
    state = rng.getstate()
    assert gauss_array(rng, 0).shape == (0,)
    q, r = np.linalg.qr(np.empty((0, 0), dtype=complex))
    assert q.shape == r.shape == (0, 0)
    u = random_unitary(0, rng)
    assert (u.shape, u.backend) == ((0, 0), FLOAT)
    assert rng.getstate() == state


def space_reports(monkeypatch, param, backend):
    """leq_space reports, with inner_samples=3 and one shared rng, over
    pairs of odd and even shapes built with ``param`` as the sampler."""
    monkeypatch.setattr(orders, "_random_param", param)
    pairs = random.Random(5)
    rng = random.Random(8)
    reports = []
    for m, n in [(1, 1), (1, 2), (3, 1), (2, 3), (3, 3), (5, 2), (4, 4)]:
        _, a, b = exact_pair(pairs, m, n)
        if backend == FLOAT:
            a, b = a.to_float(), b.to_float()
        reports.append(repr(leq_space(a, b, inner_samples=3, rng=rng).to_dict()))
    if backend == FLOAT:
        _, a, b = float_pair(pairs, 3)
        reports.append(repr(leq_space(a, b, inner_samples=3, rng=rng).to_dict()))
    return reports, rng.getstate()


@pytest.mark.parametrize("backend", [FLOAT, EXACT])
def test_space_reports_match_per_entry_samples(monkeypatch, backend):
    expected = space_reports(monkeypatch, per_entry_param, backend)
    got = space_reports(monkeypatch, bulk_param, backend)
    assert got == expected


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (1, 1), (3, 5), (4, 4)])
def test_exact_param_matches_gaussian_rational_construction(rows, cols):
    ref, rng = random.Random(rows * 10 + cols), random.Random(rows * 10 + cols)
    for _ in range(3):
        expected = per_entry_param(rows, cols, EXACT, ref)
        got = bulk_param(rows, cols, EXACT, rng)
        assert got.shape == (rows, cols)
        assert got == expected
        assert got.integer_form[2] == expected.integer_form[2] == 1
        assert (got.entries == expected.entries).all()
    assert rng.getstate() == ref.getstate()
