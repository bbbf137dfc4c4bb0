"""Every exact constructor builds the integer form, and builds the matrix it
built before.

The constructor, ``Matrix.exact``, the JSON reader and the exact sampler
each turn their input straight into the canonical integer form. The
reader and the sampler are compared with test-local copies of the
per-entry ``GaussianRational`` constructions they replaced, which pass
their grid to the public constructor.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder import (EXACT, FLOAT, DomainError, MatOrderError, Matrix,
                      matrix_from_dict, rank, sampling)
from matorder.scalars import GaussianRational, gaussian


def listed_form(m):
    re, im, d = m.integer_form
    return re.tolist(), im.tolist(), d


@pytest.mark.parametrize("value", [1, -7, True, "1/2", " -3/4 ", "1e3",
                                   Fraction(2, 6), gaussian("1/2", -1)],
                         ids=["1", "-7", "True", "'1/2'", "' -3/4 '", "'1e3'",
                              "Fraction", "GaussianRational"])
def test_constructor_places_what_exact_places(value):
    m = Matrix(1, 1, EXACT, [[value]])
    want = Matrix.exact([[value]])
    assert m == want and hash(m) == hash(want)
    assert listed_form(m) == listed_form(want)
    assert rank(m) == (1 if m[0, 0] else 0)
    assert repr(m) == repr(want)


@pytest.mark.parametrize("value", [1.5, None, 1j, object(), "abc", "1/0",
                                   (0.5, 0), ("1/2", None)],
                         ids=["1.5", "None", "1j", "object", "abc", "1/0",
                              "(0.5, 0)", "('1/2', None)"])
def test_exact_entries_that_cannot_be_placed_are_rejected(value):
    with pytest.raises(MatOrderError):
        Matrix.exact([[value]])
    if not isinstance(value, tuple):  # the constructor reads a pair as a row
        with pytest.raises(MatOrderError):
            Matrix(1, 1, EXACT, [[value]])


EXACT_PATHS = {
    "constructor": lambda v: Matrix(1, 1, EXACT, [[v]]),
    "exact": lambda v: Matrix.exact([[v]]),
    "pair": lambda v: Matrix.exact([[("0", v)]]),
    "scale": lambda v: Matrix.identity(1).scale(v),
    "gaussian": lambda v: gaussian(v, "0"),
    "json": lambda v: matrix_from_dict({"rows": 1, "cols": 1, "backend": EXACT,
                                        "entries": [[["0", v]]]}),
}


@pytest.mark.parametrize("path", sorted(EXACT_PATHS))
def test_every_exact_string_path_bounds_the_decimal_exponent(path):
    # Fraction computes 10**exponent, which for 1e-1000000 took 0.22 s and
    # a denominator of 3,321,929 bits before anything refused it
    make = EXACT_PATHS[path]
    for text in ("1e-4301", "1e+4301", "1e-1000000"):
        with pytest.raises(MatOrderError, match="decimal exponent"):
            make(text)
    make("1e-4300")


def test_exact_rejects_ragged_rows():
    with pytest.raises(MatOrderError):
        Matrix.exact([[1, 2], [3]])
    assert Matrix.exact([]).shape == (0, 0)
    assert Matrix.exact([[], []]).shape == (2, 0)


def per_entry_matrix_from_dict(d: dict) -> Matrix:
    """``matrix_from_dict`` as it read exact entries into GaussianRational."""
    try:
        rows, cols, backend, entries = d["rows"], d["cols"], d["backend"], d["entries"]
    except (KeyError, TypeError) as exc:
        raise MatOrderError("matrix object needs rows/cols/backend/entries") from exc
    if backend not in (EXACT, FLOAT):
        raise MatOrderError("unknown backend %r" % (backend,))
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 0 or cols < 0:
        raise MatOrderError("rows/cols must be non-negative integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise MatOrderError("entry grid does not match declared shape")
    grid = []
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise MatOrderError("entry grid does not match declared shape")
        out = []
        for pair in row:
            if not isinstance(pair, list) or len(pair) != 2:
                raise MatOrderError("each entry must be a [re, im] pair")
            re, im = pair
            if backend == EXACT:
                if not isinstance(re, str) or not isinstance(im, str):
                    raise MatOrderError("exact entries must be 'p/q' strings")
                try:
                    out.append(GaussianRational(re, im))
                except MatOrderError:  # the decimal exponent bound
                    raise
                except (ValueError, ZeroDivisionError) as exc:
                    raise MatOrderError("bad rational %r" % ((re, im),)) from exc
            else:
                if isinstance(re, bool) or isinstance(im, bool) or \
                        not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
                    raise MatOrderError("float entries must be numbers")
                try:
                    out.append(complex(re, im))
                except OverflowError as exc:
                    raise DomainError("float entry does not fit a double") from exc
        grid.append(out)
    return Matrix(rows, cols, backend, grid)


RATIONAL = st.one_of(
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.sampled_from([" 1/2 ", "1.5", "-2.25", "1e3", "1e-3", "1_000", "+7",
                     "-0/5", "9" * 60, "1/" + "7" * 60]),
)
NEAR_MISS = st.one_of(
    st.text(alphabet="0123456789/-+.e_ xyzE", max_size=6),
    st.sampled_from(["1/0", "1/-2", "1/2/3", "", "1__0", "9" * 5000, "1/2i"]),
)
NUMBER = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.floats(-1e6, 1e6))
NON_TEXT = st.one_of(st.integers(-10 ** 400, 10 ** 400), st.booleans(),
                     st.none(), st.floats(allow_nan=False, allow_infinity=False),
                     st.lists(st.integers(0, 9), max_size=2))


@st.composite
def documents(draw):
    """A matrix object as JSON gives it: well formed, with near misses of
    the rational syntax and non-strings among its parts, or with a
    malformed object, shape or entry."""
    mode = draw(st.sampled_from(("clean", "parts", "parts", "structure")))
    backend = draw(st.sampled_from((EXACT, EXACT, EXACT, FLOAT)))
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    part = NUMBER if backend == FLOAT else RATIONAL
    if mode == "parts":
        part = st.one_of(part, part, part, NEAR_MISS, NEAR_MISS, NON_TEXT)
    entry = st.lists(part, min_size=2, max_size=2)
    rows = m
    if mode == "structure":
        entry = st.one_of(entry, entry, st.lists(part, max_size=3), RATIONAL)
        backend = draw(st.sampled_from((backend, "decimal")))
        rows = draw(st.sampled_from((m, m, m + 1, -1, "2")))
    grid = [[draw(entry) for _ in range(n)] for _ in range(m)]
    doc = {"rows": rows, "cols": n, "backend": backend, "entries": grid}
    if mode == "structure":
        return draw(st.sampled_from((doc, doc, {"rows": m}, [doc])))
    return doc


def read(reader, doc):
    try:
        return reader(doc)
    except Exception as exc:  # the outcome compared is the exception itself
        return type(exc), str(exc)


def assert_reads_alike(doc):
    """Both readers give an equal matrix with an equal integer form (or
    equal float bits), or raise the same exception type and message."""
    got, want = read(matrix_from_dict, doc), read(per_entry_matrix_from_dict, doc)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Matrix)
    assert got == want and got.shape == want.shape
    if got.backend == EXACT:
        assert listed_form(got) == listed_form(want)
    else:
        assert got.to_ndarray().tobytes() == want.to_ndarray().tobytes()


@settings(max_examples=500, deadline=None)
@given(documents())
def test_json_reader_matches_per_entry_reader(doc):
    assert_reads_alike(doc)


PART = st.one_of(RATIONAL, NEAR_MISS, NEAR_MISS, NON_TEXT)


@settings(max_examples=300, deadline=None)
@given(PART, PART)
def test_json_reader_matches_per_entry_reader_on_one_entry(re, im):
    doc = {"rows": 1, "cols": 1, "backend": EXACT, "entries": [[[re, im]]]}
    assert_reads_alike(doc)


def test_json_reader_named_parts():
    for part in ("1/0", "1/-2", "1.5", "1e3", " 1/2 ", "1_000", "1__0",
                 "9" * 5000, "1e9999", 1, None):
        for entry in ([part, "0"], ["0", part]):
            doc = {"rows": 1, "cols": 1, "backend": EXACT, "entries": [[entry]]}
            assert_reads_alike(doc)


def per_entry_exact_matrix(rng, m, n):
    """``sampling.exact_matrix`` as it was built from one GaussianRational
    per entry (given its shape, which ``Matrix.exact`` cannot read off an
    empty grid)."""
    def entry():
        re = rng.randint(-2, 2)
        im = Fraction(rng.randint(-1, 1), rng.choice((1, 2)))
        return GaussianRational(re, im)

    return Matrix(m, n, EXACT, [[entry() for _ in range(n)] for _ in range(m)])


seeds = st.integers(0, 2 ** 32 - 1)
dims = st.integers(0, 5)


@settings(max_examples=200, deadline=None)
@given(seeds, dims, dims)
def test_exact_matrix_matches_per_entry_draws(seed, m, n):
    ref, rng = random.Random(seed), random.Random(seed)
    want = per_entry_exact_matrix(ref, m, n)
    got = sampling.exact_matrix(rng, m, n)
    assert got == want and got.shape == (m, n)
    assert listed_form(got) == listed_form(want)
    assert rng.getstate() == ref.getstate()


@settings(max_examples=100, deadline=None)
@given(seeds, dims, dims)
def test_exact_pair_matches_per_entry_draws(seed, m, n):
    ref, rng = random.Random(seed), random.Random(seed)
    with mock.patch.object(sampling, "exact_matrix", per_entry_exact_matrix):
        want = sampling.exact_pair(ref, m, n)
    got = sampling.exact_pair(rng, m, n)
    assert got[0] == want[0]
    for x, y in zip(got[1:], want[1:]):
        assert x == y and x.shape == (m, n)
        assert listed_form(x) == listed_form(y)
    assert rng.getstate() == ref.getstate()
