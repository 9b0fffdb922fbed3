"""Exact int64 matrix products on floating-point BLAS, and the checked bound.

numpy never sends an integer matmul to BLAS, so the certified products
G = Phi^H Phi, Phi Phi^H, G^2 and the character orthogonality sums used
to run in numpy's scalar int64 loop.  One kernel runs them on float BLAS
when a bound proves the float result is the exact integer: with
bound = max|a| * max|b| * K, every product and every partial sum of a
K-term integer dot product has magnitude at most `bound`, so below 2^24
(float32) or 2^53 (float64) each is an integer the float type holds
exactly, whatever the summation order or FMA use of a classical BLAS.
This is the exact-via-floating-point technique of FFLAS-FFPACK (Dumas,
Giorgi, Pernet, ACM TOMS 2008).

The kernel has two entry points.  `exact_matmul` is the general product
a @ b.  `exact_gram` is the Hermitian product A^H A of A = re + i im,
whose real part re^T re + im^T im is the one symmetric product S^T S of
the stacked S = [re; im] (BLAS syrk) and whose imaginary part is X - X^T
for the one product X = re^T im: half the flops of four general
products.  Its real part sums 2K terms in one accumulator, so its float
tiers need 2 max^2 K, max over re and im, below 2^24 or 2^53.

Every int64 computation in the package keeps each product term below
2^62 (`INT64_BOUND`), so the sum or difference of two such terms, as in
the real and imaginary parts of a complex product, cannot wrap either.
`check_bound` is that test; it raises `OverflowError` and never wraps.
"""

from __future__ import annotations

import contextlib
import ctypes
from pathlib import Path

import numpy as np

__all__ = ["INT64_BOUND", "blas_threads", "check_bound", "exact_gram", "exact_matmul",
           "max_abs"]

INT64_BOUND = 1 << 62

# tile edge over rows, columns and the inner dimension: each float copy holds
# at most _TILE * max(_TILE, N) entries for an N-column product, and 2 _TILE * N
# for the stacked tile of an N x N Hermitian product, whatever M and K are
_TILE = 256


def max_abs(*arrays: np.ndarray) -> int:
    """The largest |entry| over the arrays as a Python int; 0 when all are empty.

    Read from max() and min(), so there is no np.abs temporary and no
    wrap at INT64_MIN.
    """
    hi = 0
    for a in arrays:
        if a.size:
            hi = max(hi, int(a.max()), -int(a.min()))
    return hi


def check_bound(bound: int, what: str) -> None:
    """Raise OverflowError unless every term of an int64 computation is below 2^62."""
    if bound >= INT64_BOUND:
        raise OverflowError(f"{what}: int64 bound {bound} reaches 2**62; refusing to wrap")


def _product_dtype(bound: int, terms: int = 1) -> type:
    """The narrowest type in which a sum of `terms` products, each under
    `bound`, is an exact integer.

    A float accumulator holds the whole sum; an int64 product is checked
    on its own, below 2^62, so that the sum of two cannot wrap.
    """
    if terms * bound < 1 << 24:
        return np.float32
    if terms * bound < 1 << 53:
        return np.float64
    check_bound(bound, "exact product")
    return np.int64


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for an integer matrix a and an integer matrix or vector b, exact in int64.

    float32 BLAS when max|a| * max|b| * K < 2^24, float64 BLAS below
    2^53, numpy's int64 loop below 2^62, and OverflowError beyond.
    """
    if a.ndim != 2 or b.ndim not in (1, 2) or b.shape[0] != a.shape[1]:
        raise ValueError(f"cannot multiply shapes {a.shape} @ {b.shape}")
    m, k = a.shape
    out_shape = (m,) + b.shape[1:]
    bound = max_abs(a) * max_abs(b) * k
    if bound == 0:
        return np.zeros(out_shape, dtype=np.int64)
    dtype = _product_dtype(bound)
    if dtype is np.int64:
        return np.matmul(a.astype(np.int64, copy=False), b.astype(np.int64, copy=False))
    # row and K tiles keep every float copy small; only the int64 result is full size
    out = np.empty(out_shape, dtype=np.int64)
    for i0 in range(0, m, _TILE):
        rows = slice(i0, i0 + _TILE)
        acc = tmp = None
        for k0 in range(0, k, _TILE):
            at = a[rows, k0:k0 + _TILE].astype(dtype)
            bt = b[k0:k0 + _TILE].astype(dtype)
            if acc is None:
                acc = np.matmul(at, bt)
            else:
                tmp = np.matmul(at, bt, out=tmp)
                acc += tmp
        out[rows] = acc
    return out


def _add(out: np.ndarray, x: np.ndarray) -> None:
    """out += x for an int64 block out and an exact-integer float block x, in int64."""
    np.add(out, x, out=out, dtype=np.int64, casting="unsafe")


def exact_gram(re: np.ndarray, im: np.ndarray, out: tuple[np.ndarray, np.ndarray]) -> None:
    """Add (re + i im)^H (re + i im) of integer K x N matrices into the int64
    N x N pair out = (out_re, out_im), exactly.

    float32 BLAS when 2 max^2 K < 2^24, float64 BLAS below 2^53, numpy's
    int64 loop while each product term max^2 K is below 2^62, and
    OverflowError beyond, where max is over re and im together.  The
    caller bounds the sum with what `out` already holds.

    Each K tile is cast to float once, stacked as S = [re; im], so the
    real part is the symmetric product S^T S and the imaginary part is
    X - X^T for X = re^T im.  The output is split into _TILE column
    tiles, and only the tile pairs on or above the diagonal are
    multiplied: a diagonal tile's S^T S is one BLAS syrk, and the tile
    below the diagonal is the transpose of the real part and minus the
    transpose of the imaginary part.
    """
    if re.ndim != 2 or re.shape != im.shape:
        raise ValueError(f"need two K x N matrices, got shapes {re.shape} and {im.shape}")
    k, n = re.shape
    out_re, out_im = out
    bound = max_abs(re, im) ** 2 * k
    if bound == 0:
        return
    dtype = _product_dtype(bound, terms=2)
    if dtype is np.int64:
        re, im = re.astype(np.int64, copy=False), im.astype(np.int64, copy=False)
        out_re += re.T @ re
        out_re += im.T @ im
        x = re.T @ im
        out_im += x
        out_im -= x.T
        return
    tiles = [slice(c, c + _TILE) for c in range(0, n, _TILE)]
    for k0 in range(0, k, _TILE):
        kt = min(_TILE, k - k0)
        s = np.empty((2 * kt, n), dtype=dtype)
        s[:kt], s[kt:] = re[k0:k0 + kt], im[k0:k0 + kt]
        r, i = s[:kt], s[kt:]
        for a, ta in enumerate(tiles):
            s_a, r_a, i_a = s[:, ta].T, r[:, ta].T, i[:, ta].T
            for tb in tiles[a:]:
                sym = s_a @ s[:, tb]  # syrk on the diagonal: one operand and its transpose
                x = r_a @ i[:, tb]
                x -= x.T if tb is ta else i_a @ r[:, tb]
                _add(out_re[ta, tb], sym)
                _add(out_im[ta, tb], x)
                if tb is not ta:
                    _add(out_re[tb, ta], sym.T)
                    _add(out_im[tb, ta], -x.T)


# ---------------------------------------------------------------------------
# BLAS thread cap
# ---------------------------------------------------------------------------

# numpy wheels vendor OpenBLAS under a prefixed, 64-bit-suffixed symbol name
_OPENBLAS_PREFIXES = ("scipy_openblas_", "openblas_")
_OPENBLAS_SUFFIXES = ("64_", "")


def _openblas_thread_functions():
    """(get, set) num-threads functions of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    paths = sorted(libs.glob("*openblas*")) if libs.is_dir() else []
    for path in paths:
        lib = ctypes.CDLL(str(path))
        for prefix in _OPENBLAS_PREFIXES:
            for suffix in _OPENBLAS_SUFFIXES:
                try:
                    get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def blas_threads(threads: int):
    """Cap numpy's OpenBLAS at `threads` inside the block, then restore it.

    A no-op where numpy carries no OpenBLAS this can find.  Results do
    not depend on it: every float product `exact_matmul` runs is exact.
    """
    functions = _openblas_thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    before = get()
    set_(threads)
    try:
        yield
    finally:
        set_(before)
