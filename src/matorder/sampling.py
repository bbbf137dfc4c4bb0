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
from fractions import Fraction

import numpy as np

from .decomp import HSForm
from .matrix import EXACT, FLOAT, Matrix
from .pinv import moore_penrose


def exact_entry(rng: random.Random):
    from .scalars import GaussianRational

    re = rng.randint(-2, 2)
    im = Fraction(rng.randint(-1, 1), rng.choice((1, 2)))
    return GaussianRational(re, im)


def exact_matrix(rng: random.Random, m: int, n: int) -> Matrix:
    return Matrix.exact([[exact_entry(rng) for _ in range(n)] for _ in range(m)])


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
    ad = moore_penrose(a)
    p = a @ ad
    q = ad @ a
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


def complex_gauss(rng: random.Random) -> complex:
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


def random_unitary(n: int, rng: random.Random) -> Matrix:
    if n == 0:
        return Matrix.identity(0, FLOAT)
    z = np.array([[complex_gauss(rng) for _ in range(n)] for _ in range(n)])
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return Matrix.from_ndarray(q @ np.diag(phases))


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
    u = random_unitary(m, rng)
    v = random_unitary(n, rng)
    s = log_uniform_sigma(rng, r)
    arr = (u.to_ndarray()[:, :r] * np.array(s)) @ v.to_ndarray()[:, :r].conj().T
    return Matrix.from_ndarray(arr)


def random_partial_isometry(m: int, n: int, k: int, rng: random.Random) -> Matrix:
    """u [[I_k, 0], [0, 0]] v* for random unitary frames u, v."""
    u = random_unitary(m, rng)
    v = random_unitary(n, rng)
    if k == 0:
        return Matrix.zeros(m, n, FLOAT)
    return Matrix.from_ndarray(
        u.to_ndarray()[:, :k] @ v.to_ndarray()[:, :k].conj().T)


def partial_isometry_pair(rng: random.Random, m: int, n: int):
    """Pair of partial isometries, related (shared frames, nested ranks)
    about half the time and independent otherwise."""
    kmax = min(m, n)
    if rng.random() < 0.5:
        u = random_unitary(m, rng).to_ndarray()
        v = random_unitary(n, rng).to_ndarray()
        j = rng.randint(0, kmax)
        k = rng.randint(j, kmax)
        a = Matrix.from_ndarray(u[:, :j] @ v[:, :j].conj().T) if j else \
            Matrix.zeros(m, n, FLOAT)
        b = Matrix.from_ndarray(u[:, :k] @ v[:, :k].conj().T) if k else \
            Matrix.zeros(m, n, FLOAT)
        return "nested", a, b
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
    if kind == "equal":
        a = random_spectrum_matrix(n, n, rng.randint(0, n), rng)
        return kind, a, a
    if kind == "scaled":
        a = random_spectrum_matrix(n, n, rng.randint(0, n), rng)
        return kind, a, a.scale(2.0)
    a = random_spectrum_matrix(n, n, rng.randint(0, n), rng)
    b = random_spectrum_matrix(n, n, rng.randint(0, n), rng)
    return kind, a, b
