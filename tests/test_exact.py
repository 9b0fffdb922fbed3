from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from linepack import chartab, etf, exact, scheme
from linepack.exact import (
    INT64_BOUND,
    _TILE,
    _openblas_thread_functions,
    _product_dtype,
    blas_threads,
    check_bound,
    exact_gram,
    exact_matmul,
    gram_tiles,
    max_abs,
)

INT64_MIN = np.iinfo(np.int64).min


def _reference(a, b):
    """Arbitrary-precision product, the oracle for every kernel path."""
    return np.dot(a.astype(object), b.astype(object))


@pytest.mark.parametrize("bound, dtype", [
    ((1 << 24) - 1, np.float32),
    (1 << 24, np.float64),
    ((1 << 53) - 1, np.float64),
    (1 << 53, np.int64),
    (INT64_BOUND - 1, np.int64),
])
def test_product_dtype_at_the_bounds(bound, dtype):
    assert _product_dtype(bound) is dtype


@pytest.mark.parametrize("bound", [INT64_BOUND, INT64_BOUND * 4])
def test_product_dtype_refuses_beyond_2_62(bound):
    with pytest.raises(OverflowError):
        _product_dtype(bound)


@pytest.mark.parametrize("x, y", [
    (4095, 4097),                    # bound 2^24 - 1: float32
    (4097, 4097),                    # odd and above 2^24: float32 would round it
    ((1 << 26) + 1, (1 << 27) + 1),  # odd and above 2^53: float64 would round it
])
def test_products_at_the_bounds_are_exact(x, y):
    assert exact_matmul(np.array([[x]]), np.array([[y]]))[0, 0] == x * y
    assert exact_matmul(np.array([[-x]]), np.array([[y]]))[0, 0] == -x * y


def test_int64_min_operands():
    assert max_abs(np.array([INT64_MIN, 3])) == 1 << 63
    with pytest.raises(OverflowError):
        exact_matmul(np.array([[INT64_MIN]]), np.array([[1]]))
    # a zero partner makes the bound zero, so nothing can wrap
    zero = exact_matmul(np.array([[INT64_MIN, 1]]), np.zeros((2, 3), dtype=np.int64))
    assert zero.dtype == np.int64 and not zero.any()


def test_empty_inner_dimension():
    out = exact_matmul(np.zeros((3, 0), dtype=np.int64), np.zeros((0, 4), dtype=np.int64))
    assert out.shape == (3, 4) and out.dtype == np.int64 and not out.any()


@pytest.mark.parametrize("scale", [3, 1 << 14])   # float32, then float64
def test_operands_beyond_one_tile(scale):
    rng = np.random.default_rng(7)
    k = 2 * _TILE + 5
    a = rng.integers(-scale, scale + 1, size=(_TILE + 3, k))
    b = rng.integers(-scale, scale + 1, size=(k, 3))
    assert np.array_equal(exact_matmul(a, b), _reference(a, b))
    v = b[:, 0]
    assert np.array_equal(exact_matmul(a, v), _reference(a, v))


def test_operand_shapes_are_checked():
    with pytest.raises(ValueError):
        exact_matmul(np.ones((2, 3), dtype=np.int64), np.ones((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        exact_matmul(np.ones(3, dtype=np.int64), np.ones((3, 2), dtype=np.int64))


_magnitudes = st.sampled_from([1, 2 ** 7, 2 ** 20, 2 ** 30, 2 ** 40])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(0, 6), k=st.integers(0, 40), n=st.integers(0, 6),
       mag=_magnitudes)
def test_kernel_matches_object_dot(data, m, k, n, mag):
    elements = st.integers(-mag, mag)
    a = data.draw(hnp.arrays(np.int64, (m, k), elements=elements))
    b = data.draw(hnp.arrays(np.int64, (k, n), elements=elements))
    try:
        got = exact_matmul(a, b)
    except OverflowError:
        assert max_abs(a) * max_abs(b) * k >= INT64_BOUND
        return
    assert got.dtype == np.int64
    assert np.array_equal(got, _reference(a, b).astype(np.int64).reshape(m, n))


def test_check_bound():
    check_bound(INT64_BOUND - 1, "ok")
    with pytest.raises(OverflowError, match="hadamard"):
        check_bound(INT64_BOUND, "hadamard")


def test_blas_threads_restores_the_count():
    functions = _openblas_thread_functions()
    if functions is None:
        pytest.skip("numpy carries no OpenBLAS this build can find")
    get, _ = functions
    before = get()
    with blas_threads(1):
        assert get() == 1
    assert get() == before


def test_every_product_goes_through_the_kernel(monkeypatch, group3, rep3, table3):
    # each site's products, counted by entry point of the one checked kernel;
    # a product that bypassed them would leave its site's count short.
    # exact_gram reads gram_tiles from exact itself, so that is patched too
    calls = []

    def counting(kernel):
        def call(*args):
            calls.append(kernel.__name__)
            return kernel(*args)
        return call

    kernels = {name: getattr(exact, name) for name in ("exact_matmul", "exact_gram", "gram_tiles")}
    for module in (chartab, etf, exact, scheme):
        for name, kernel in kernels.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(kernel))
    frame = etf.synthesize_frame(group3, rep3)
    gram = etf.gram_from_frame(frame)
    sites = {
        "gram_from_frame": lambda: etf.gram_from_frame(frame),
        "parseval_defect": lambda: etf.parseval_defect(frame),
        "verify_gram": lambda: etf.verify_gram(gram),
        # the Welch pattern reads the frame's Gram tiles
        "verify_frame": lambda: etf.verify_frame(frame),
        "GaussianRationalMatrix.__matmul__": lambda: scheme.GaussianRationalMatrix(
            frame.re, frame.im) @ scheme.GaussianRationalMatrix(frame.re.T, -frame.im.T),
        "CharacterTable.verify": table3.verify,
        "krein": lambda: scheme.group_scheme(group3, table3).krein,
        "hyperdiff_check": lambda: scheme.hyperdiff_check(scheme.group_scheme(group3, table3),
                                                          table3.d_set),
    }
    counts = {}
    for name, call in sites.items():
        calls.clear()
        call()
        counts[name] = Counter(calls)
    assert counts == {
        "gram_from_frame": {"exact_gram": 1, "gram_tiles": 1},
        "parseval_defect": {"gram_tiles": 1},
        # one square per Walsh block: the n = 3 Gram commutes with its centre of order 8
        "verify_gram": {"gram_tiles": 8},
        # the Welch pattern alone, which proves the frame tight: no Parseval product
        "verify_frame": {"gram_tiles": 1},
        "GaussianRationalMatrix.__matmul__": {"exact_matmul": 4},
        # the column relations alone, which imply the row relations of a square table
        "CharacterTable.verify": {"gram_tiles": 1},
        # one Gaussian product of the c^2 x c pair table by conj(Q)
        "krein": {"exact_matmul": 4},
        # one product of the vector k o |s|^2 by Q, one per part of Q
        "hyperdiff_check": {"exact_matmul": 2},
    }


# ---------------------------------------------------------------------------
# exact_gram, the Hermitian entry point
# ---------------------------------------------------------------------------

def _gram_reference(re, im, dtype=object):
    """(re + i im)^H (re + i im): (re part, im part), in Python ints, or in
    int64 where the caller knows every sum is far below 2^62."""
    r, i = re.astype(dtype), im.astype(dtype)
    return np.dot(r.T, r) + np.dot(i.T, i), np.dot(r.T, i) - np.dot(i.T, r)


def _gram(re, im, start=0):
    n = re.shape[1]
    out = (np.full((n, n), start, dtype=np.int64), np.full((n, n), -start, dtype=np.int64))
    exact_gram(re, im, out)
    return out


def _assert_gram(re, im, start=0, dtype=object):
    want_re, want_im = _gram_reference(re, im, dtype)
    got_re, got_im = _gram(re, im, start)
    assert got_re.dtype == got_im.dtype == np.int64
    assert np.array_equal(got_re, want_re + start)
    assert np.array_equal(got_im, want_im - start)


def _tier(monkeypatch, re, im):
    """The product dtype exact_gram picks for these operands."""
    seen = []
    real = exact._product_dtype

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(exact, "_product_dtype", spy)
    _gram(re, im)
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("scale, dtype", [
    (3, np.float32),        # 2 * 9 * 37 < 2^24
    (1 << 20, np.float64),  # 2 * 2^40 * 37 < 2^53
    (1 << 27, np.int64),    # 2 * 2^54 * 37 >= 2^53
])
def test_gram_matches_python_ints_on_each_tier(monkeypatch, scale, dtype):
    # 8-entry tiles, so that 37 x 21 operands cross three K tiles and three
    # column tiles, each with a partial last tile, at Python-int speed
    rng = np.random.default_rng(11)
    re = rng.integers(-scale, scale + 1, size=(37, 21))
    im = rng.integers(-scale, scale + 1, size=(37, 21))
    assert _tier(monkeypatch, re, im) is dtype
    monkeypatch.setattr(exact, "_TILE", 8)
    _assert_gram(re, im)


def test_gram_refuses_beyond_2_62():
    big = np.array([[1 << 31]], dtype=np.int64)
    with pytest.raises(OverflowError):
        _gram(big, big)
    with pytest.raises(OverflowError):
        _gram(np.array([[INT64_MIN]]), np.array([[0]]))


@pytest.mark.parametrize("x, y, dtype", [
    (2896, 2895, np.float32),                   # 2 x^2 just below 2^24
    (2897, 2896, np.float64),                   # 2 x^2 just above 2^24; x^2 + y^2 is odd above it
    ((1 << 26) - 1, (1 << 26) - 2, np.float64),  # 2 x^2 just below 2^53
    ((1 << 26) + 1, 1 << 26, np.int64),         # 2 x^2 just above 2^53; x^2 + y^2 is odd above it
    ((1 << 31) - 1, (1 << 31) - 2, np.int64),   # each term below 2^62, their sum above it
])
def test_gram_tiers_select_on_twice_max_squared_k(monkeypatch, x, y, dtype):
    # one row, so K = 1 and the real part is the sum of two squares, the
    # one entry where the two products meet in one accumulator
    for re, im in ((np.array([[x, y]]), np.array([[y, -x]])),
                   (np.array([[y, x]]), np.array([[-x, y]]))):
        assert _tier(monkeypatch, re, im) is dtype
        _assert_gram(re, im)
    assert _gram(np.array([[x]]), np.array([[y]]))[0][0, 0] == x * x + y * y


def test_gram_of_empty_and_zero_inputs():
    # nothing is added: K = 0, and all-zero operands, whose bound is zero
    for k in (0, 4):
        zero = np.zeros((k, 3), dtype=np.int64)
        re, im = _gram(zero, zero, start=5)
        assert (re == 5).all() and (im == -5).all()


def test_gram_adds_into_large_accumulators_in_int64():
    # full-size tiles of int8 frame blocks; the float products must be added
    # in int64, not in float64, where a sum above 2^53 would round
    rng = np.random.default_rng(3)
    re = rng.integers(-1, 2, size=(2 * _TILE + 7, _TILE + 9)).astype(np.int8)
    im = rng.integers(-1, 2, size=(2 * _TILE + 7, _TILE + 9)).astype(np.int8)
    _assert_gram(re, im, start=(1 << 60) + 1, dtype=np.int64)


def test_gram_shapes_are_checked():
    with pytest.raises(ValueError):
        _gram(np.ones((2, 3), dtype=np.int64), np.ones((3, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        exact_gram(np.ones(3, dtype=np.int64), np.ones(3, dtype=np.int64), (None, None))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(0, 40), n=st.integers(1, 6), mag=_magnitudes)
def test_gram_matches_python_ints(data, k, n, mag):
    elements = st.integers(-mag, mag)
    re = data.draw(hnp.arrays(np.int64, (k, n), elements=elements))
    im = data.draw(hnp.arrays(np.int64, (k, n), elements=elements))
    try:
        got = _gram(re, im)
    except OverflowError:
        assert max_abs(re, im) ** 2 * k >= INT64_BOUND
        return
    want = _gram_reference(re, im)
    assert all(np.array_equal(g, w.astype(np.int64).reshape(n, n)) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# gram_tiles, the tile-yielding form of the Hermitian entry point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale, dtype", [
    (3, np.float32),        # 2 * 9 * 23 < 2^24
    (1 << 20, np.float64),  # 2 * 2^40 * 23 < 2^53
    (1 << 27, np.int64),    # 2 * 2^54 * 23 >= 2^53
])
def test_gram_tiles_match_python_ints_on_each_tier(monkeypatch, scale, dtype):
    # 7-entry tiles, which divide neither K = 23 nor N = 17, so partial K
    # chunks and a partial last band are crossed; the tiles must be int64,
    # exact, on and above the diagonal only, in row-band order, and cover
    # each entry of the upper bands once
    rng = np.random.default_rng(5)
    re = rng.integers(-scale, scale + 1, size=(23, 17))
    im = rng.integers(-scale, scale + 1, size=(23, 17))
    assert _tier(monkeypatch, re, im) is dtype
    monkeypatch.setattr(exact, "_TILE", 7)
    want_re, want_im = _gram_reference(re, im)
    seen = np.zeros((17, 17), dtype=int)
    order = []
    for rows, cols, t_re, t_im in gram_tiles(re, im):
        assert t_re.dtype == t_im.dtype == np.int64
        assert np.array_equal(t_re, want_re[rows, cols])
        assert np.array_equal(t_im, want_im[rows, cols])
        seen[rows, cols] += 1
        order.append((rows.start, cols.start))
    assert order == [(0, 0), (0, 7), (0, 14), (7, 7), (7, 14), (14, 14)]
    band = np.arange(17) // 7
    assert np.array_equal(seen, (band[:, None] <= band[None, :]).astype(int))


def test_gram_tiles_of_empty_and_zero_inputs(monkeypatch):
    # K = 0 and all-zero operands give zero tiles over every upper band, so
    # a consumer compares them like any other product
    monkeypatch.setattr(exact, "_TILE", 3)
    for k in (0, 4):
        zero = np.zeros((k, 4), dtype=np.int64)
        tiles = list(gram_tiles(zero, zero))
        assert [(r.start, r.stop, c.start, c.stop) for r, c, _, _ in tiles] == [
            (0, 3, 0, 3), (0, 3, 3, 4), (3, 4, 3, 4)]
        assert all(t.dtype == np.int64 and not t.any() for _, _, *pair in tiles for t in pair)
    assert list(gram_tiles(np.zeros((5, 0)), np.zeros((5, 0)))) == []


def test_gram_tiles_check_at_the_first_tile():
    tiles = gram_tiles(np.ones((2, 3), dtype=np.int64), np.ones((3, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        next(tiles)
    with pytest.raises(OverflowError):
        next(gram_tiles(np.array([[1 << 31]]), np.array([[1 << 31]])))
