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
    exact_matmul,
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


def test_every_product_goes_through_the_kernel(monkeypatch, group3, rep3, table3, scheme3):
    calls = []

    def counting(a, b):
        calls.append((a.shape, b.shape))
        return exact.exact_matmul(a, b)

    for module in (chartab, etf, scheme):
        monkeypatch.setattr(module, "exact_matmul", counting)
    frame = etf.synthesize_frame(group3, rep3)
    sites = {
        "gram_from_frame": lambda: etf.gram_from_frame(frame),
        "parseval_defect": lambda: etf.parseval_defect(frame),
        "GaussianRationalMatrix.__matmul__": lambda: scheme.GaussianRationalMatrix(
            frame.re, frame.im) @ scheme.GaussianRationalMatrix(frame.re.T, -frame.im.T),
        "CharacterTable.verify": table3.verify,
        "krein": lambda: scheme.group_scheme(group3, table3).krein,
    }
    counts = {}
    for name, call in sites.items():
        calls.clear()
        call()
        counts[name] = len(calls)
    d1 = scheme3.class_count
    assert counts == {
        "gram_from_frame": 4,
        "parseval_defect": 4,
        "GaussianRationalMatrix.__matmul__": 4,
        "CharacterTable.verify": 8,
        "krein": 2 * d1 * (d1 + 1),
    }
