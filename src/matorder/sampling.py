"""Seeded random generators used by the fuzz suites and tests.

All randomness flows through an explicit random.Random instance, so every
suite is reproducible from its seed. Exact-lane pairs mix unstructured
draws with constructions that make each order relation appear with useful
frequency; float-lane matrices are built from random unitary frames with
singular values drawn log-uniformly from [1/4, 4].
"""

from __future__ import annotations

import math
import random

import numpy as np

from .matrix import EXACT, FLOAT, Matrix
from .pinv import projector_range, projector_rowspace


def exact_matrix(rng: random.Random, m: int, n: int) -> Matrix:
    """An m x n exact matrix: entry by entry, in row-major order, a real
    part ``randint(-2, 2)`` and an imaginary part ``randint(-1, 1)`` over
    ``choice((1, 2))``."""
    nums = np.empty((m, n, 2), dtype=object)
    for i, j in np.ndindex(m, n):
        re, im = rng.randint(-2, 2), rng.randint(-1, 1)
        nums[i, j] = 2 * re, 2 * im // rng.choice((1, 2))  # over d = 2
    return Matrix._from_ints(nums[..., 0], nums[..., 1], 2)


def exact_pair(rng: random.Random, m: int, n: int):
    """A labeled pair of exact matrices biased toward related pairs.

    Construction kinds:
      random    independent draws
      equal     b is a
      zero      a is 0 (below everything)
      scaled    b is 2a (range-equal, order-breaking)
      star      b = a + (I - p) d (I - q) with p, q the range/row projectors
                of a: both defining star identities hold by construction
      sandwich  b = a + d - p d q: the diamond identity a b* a = a a* a
                holds; the range inclusions may or may not
      lowrank   b = a + (rank-one perturbation): minus holds frequently
    """
    kind = rng.choice(("random", "equal", "zero", "scaled",
                       "star", "sandwich", "lowrank", "random"))
    a = exact_matrix(rng, m, n)
    if kind == "random":
        return kind, a, exact_matrix(rng, m, n)
    if kind == "equal":
        return kind, a, a
    if kind == "zero":
        return kind, Matrix.zeros(m, n, EXACT), a
    if kind == "scaled":
        return kind, a, a.scale(2)
    p = projector_range(a)
    q = projector_rowspace(a)
    eye_m = Matrix.identity(m, EXACT)
    eye_n = Matrix.identity(n, EXACT)
    d = exact_matrix(rng, m, n)
    if kind == "star":
        return kind, a, a + (eye_m - p) @ d @ (eye_n - q)
    if kind == "sandwich":
        return kind, a, a + d - p @ d @ q
    u = exact_matrix(rng, m, 1)
    v = exact_matrix(rng, 1, n)
    return kind, a, a + u @ v


_TWOPI = 2.0 * math.pi
# random() is (a * 2**26 + b) / 2**53, with a and b the top 27 and 26 bits
# of two consecutive 32-bit words; a Box-Muller pair takes two random()s
_PAIR_SHIFTS = np.array([5, 6, 5, 6], dtype=np.uint32)


def gauss_array(rng: random.Random, count: int) -> np.ndarray:
    """``[rng.gauss(0.0, 1.0) for _ in range(count)]`` as a float64 array,
    bit for bit, leaving ``rng`` in the state those calls leave it in.

    ``Random.gauss`` turns two ``random()`` uniforms into a cosine and a
    sine draw and keeps the sine in ``gauss_next`` for the next call. For
    an even count with no sine pending, one ``getrandbits`` call supplies
    the four words of every pair and the uniforms are rebuilt from them as
    ``random()`` builds them; log, cos and sin go through ``math``, the
    libm that ``gauss`` calls, because numpy's vectorized ones may round
    differently. An odd count, a pending sine or a subclass of ``Random``,
    which may redefine ``random()``, draws entry by entry.
    """
    if type(rng) is not random.Random or count % 2 or rng.gauss_next is not None:
        return np.array([rng.gauss(0.0, 1.0) for _ in range(count)], dtype=float)
    pairs = count // 2
    words = np.frombuffer(rng.getrandbits(128 * pairs).to_bytes(16 * pairs, "little"),
                          dtype="<u4").reshape(pairs, 4)
    top = (words >> _PAIR_SHIFTS).astype(float)
    u = (top[:, 0::2] * 67108864.0 + top[:, 1::2]) * (1.0 / 9007199254740992.0)
    x2pi = (u[:, 0] * _TWOPI).tolist()
    log = np.fromiter(map(math.log, (1.0 - u[:, 1]).tolist()), float, pairs)
    g2rad = np.sqrt(-2.0 * log)
    z = np.empty((pairs, 2))
    z[:, 0] = np.fromiter(map(math.cos, x2pi), float, pairs) * g2rad
    z[:, 1] = np.fromiter(map(math.sin, x2pi), float, pairs) * g2rad
    # gauss returns mu + z * sigma, and 0.0 + -0.0 is 0.0
    return z.reshape(-1) + 0.0


def random_unitary(n: int, rng: random.Random) -> Matrix:
    # entry by entry, real part then imaginary part, in row-major order
    z = gauss_array(rng, 2 * n * n).view(complex).reshape(n, n)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return Matrix._wrap(q @ np.diag(phases))


def log_uniform_sigma(rng: random.Random, r: int, lo: float = 0.25,
                      hi: float = 4.0) -> tuple:
    vals = sorted((math.exp(rng.uniform(math.log(lo), math.log(hi)))
                   for _ in range(r)), reverse=True)
    return tuple(vals)


def random_base_matrix(n: int, r: int, rng: random.Random) -> Matrix:
    """Random square n x n matrix of rank r with singular values in [1/4, 4].

    Assembled as u [[sk, sl], [0, 0]] u* from a random unitary u, singular
    values drawn log-uniformly, and [k l] the leading rows of a second
    random unitary, so the block-form invariant k k* + l l* = I holds.
    """
    from .decomp import HSForm

    u = random_unitary(n, rng)
    if r == 0:
        return Matrix.zeros(n, n, FLOAT)
    g = random_unitary(n, rng)
    k = g.submatrix(0, r, 0, r)
    l = g.submatrix(0, r, r, n)
    return HSForm(u, log_uniform_sigma(rng, r), k, l).reconstruct()


def random_spectrum_matrix(m: int, n: int, r: int, rng: random.Random) -> Matrix:
    """Random m x n matrix of rank r with singular values in [1/4, 4]."""
    if r == 0:
        return Matrix.zeros(m, n, FLOAT)
    return _spread(random_unitary(m, rng), random_unitary(n, rng),
                   log_uniform_sigma(rng, r))


def _spread(u: Matrix, v: Matrix, s: tuple) -> Matrix:
    """u [[diag(s), 0], [0, 0]] v* for unitary frames u, v."""
    r = len(s)
    return Matrix._wrap(
        (u.to_ndarray()[:, :r] * np.array(s)) @ v.to_ndarray()[:, :r].conj().T)


def random_partial_isometry(m: int, n: int, k: int, rng: random.Random) -> Matrix:
    """u [[I_k, 0], [0, 0]] v* for random unitary frames u, v."""
    return _spread(random_unitary(m, rng), random_unitary(n, rng), (1.0,) * k)


def partial_isometry_pair(rng: random.Random, m: int, n: int):
    """Pair of partial isometries, related (shared frames, nested ranks)
    about half the time and independent otherwise."""
    kmax = min(m, n)
    if rng.random() < 0.5:
        u = random_unitary(m, rng)
        v = random_unitary(n, rng)
        j = rng.randint(0, kmax)
        k = rng.randint(j, kmax)
        return "nested", _spread(u, v, (1.0,) * j), _spread(u, v, (1.0,) * k)
    a = random_partial_isometry(m, n, rng.randint(0, kmax), rng)
    b = random_partial_isometry(m, n, rng.randint(0, kmax), rng)
    return "independent", a, b


def float_pair(rng: random.Random, n: int):
    """Labeled pair of float matrices: constructed diamond pairs, perturbed
    near-pairs, and unrelated draws, roughly half related."""
    from .predecessors import diamond_predecessor, random_idempotent

    kind = rng.choice(("diamond", "diamond", "random", "equal", "scaled"))
    if kind == "diamond":
        r = rng.randint(1, n)
        b = random_base_matrix(n, r, rng)
        t = random_idempotent(r, rng.randint(0, r), rng)
        return kind, diamond_predecessor(b, t), b
    a = random_spectrum_matrix(n, n, rng.randint(0, n), rng)
    if kind == "equal":
        return kind, a, a
    if kind == "scaled":
        return kind, a, a.scale(2.0)
    return kind, a, random_spectrum_matrix(n, n, rng.randint(0, n), rng)
