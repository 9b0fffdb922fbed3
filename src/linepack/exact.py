"""Exact int64 matrix products on floating-point BLAS, and the checked bound.

numpy never sends an integer matmul to BLAS, so the certified products
G = Phi^H Phi, Phi Phi^H, G^2 and the character orthogonality sum used
to run in numpy's scalar int64 loop.  One kernel runs them on float BLAS
when a bound proves the float result is the exact integer: with
bound = max|a| * max|b| * K, every product and every partial sum of a
K-term integer dot product has magnitude at most `bound`, so below 2^24
(float32) or 2^53 (float64) each is an integer the float type holds
exactly, whatever the summation order or FMA use of a classical BLAS.
This is the exact-via-floating-point technique of FFLAS-FFPACK (Dumas,
Giorgi, Pernet, ACM TOMS 2008).

The kernel has two entry points.  `exact_matmul` is the general product
a @ b of small operands, each cast whole to the product type.
`gram_tiles` is the Hermitian product A^H A of A = re + i im, yielded one
int64 tile at a time on and above the diagonal, so that a caller can
check each tile and drop it; it is the package's only tiled product
loop.  Its real part re^T re + im^T im is the one symmetric product
S^T S of the stacked S = [re; im] (BLAS syrk on the diagonal tiles) and
its imaginary part is X - X^T for the one product X = re^T im: half the
flops of four general products.  The real part sums 2K terms in one
accumulator, so the tier is decided once per call, from 2 max^2 K over
re and im together, below 2^24 or 2^53 for the float tiers; every tile
is accumulated over all K in that tier.
`exact_gram`, which adds the whole N x N product into an integer pair
whose type the caller picks from its bound, is its add-and-mirror
consumer.  `first_block_mismatch` is the one first-miss walk: every
check that names its failing entry (Parseval, G^2 = G, Hermitian
symmetry, column orthogonality) reads its blocks through it.

Every int64 computation in the package keeps each product term below
2^62 (`INT64_BOUND`), so the sum or difference of two such terms, as in
the real and imaginary parts of a complex product, cannot wrap either.
`check_bound` is that test; it raises `OverflowError` and never wraps.
"""

from __future__ import annotations

import contextlib
import ctypes
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

import numpy as np

__all__ = ["INT64_BOUND", "blas_threads", "check_bound", "exact_gram", "exact_matmul",
           "first_block_mismatch", "gram_tiles", "max_abs"]

INT64_BOUND = 1 << 62

# tile edge of `gram_tiles` over columns and the inner dimension: each float
# copy holds at most 2 _TILE^2 entries, a stacked K chunk of one column band,
# whatever N and K are
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
    2^53, numpy's int64 loop below 2^62, and OverflowError beyond.  Each
    operand is cast whole, once, to that type: the products it serves are
    small, at most the 64 x 64 and 22 x 4096 products of the n = 3 scheme.
    """
    if a.ndim != 2 or b.ndim not in (1, 2) or b.shape[0] != a.shape[1]:
        raise ValueError(f"cannot multiply shapes {a.shape} @ {b.shape}")
    m, k = a.shape
    out_shape = (m,) + b.shape[1:]
    bound = max_abs(a) * max_abs(b) * k
    if bound == 0:
        return np.zeros(out_shape, dtype=np.int64)
    dtype = _product_dtype(bound)
    return np.matmul(a.astype(dtype, copy=False),
                     b.astype(dtype, copy=False)).astype(np.int64, copy=False)


def _stacked(re: np.ndarray, im: np.ndarray, dtype: type) -> np.ndarray:
    """[re; im] as one array of the product dtype, laid out as re is, so
    that the cast of a transposed view reads it in memory order."""
    order = "F" if re.strides[0] < re.strides[1] else "C"
    s = np.empty((2 * len(re), re.shape[1]), dtype=dtype, order=order)
    s[:len(re)], s[len(re):] = re, im
    return s


def gram_tiles(re: np.ndarray,
               im: np.ndarray) -> Iterator[tuple[slice, slice, np.ndarray, np.ndarray]]:
    """Yield the tiles of (re + i im)^H (re + i im) of integer K x N matrices
    on and above the diagonal, exactly, as (rows, cols, tile_re, tile_im):
    rows and cols are slices of range(N), the tiles int64, the tile pairs
    in row-band order.

    The tier is picked once, from the whole-K bound 2 max^2 K, max over re
    and im together: float32 BLAS below 2^24, float64 BLAS below 2^53,
    numpy's int64 loop while each product term max^2 K is below 2^62, and
    OverflowError beyond.  Each tile is accumulated over all K in that
    tier, _TILE rows of K at a time, and converted to int64 once.  A K
    chunk of each of the two column bands is cast and stacked as
    S = [re; im], so the real part is S_a^T S_b (a BLAS syrk on the
    diagonal) and the imaginary part is re_a^T im_b - im_a^T re_b (X - X^T
    for X = re_a^T im_a on the diagonal).  Every float copy holds O(_TILE^2)
    entries, whatever K and N are.  The checks run at the first tile.
    """
    if re.ndim != 2 or re.shape != im.shape:
        raise ValueError(f"need two K x N matrices, got shapes {re.shape} and {im.shape}")
    k, n = re.shape
    dtype = _product_dtype(max_abs(re, im) ** 2 * k, terms=2)
    bands = [slice(c, min(c + _TILE, n)) for c in range(0, n, _TILE)]
    for a, ta in enumerate(bands):
        for tb in bands[a:]:
            sym = np.zeros((ta.stop - ta.start, tb.stop - tb.start), dtype=dtype)
            x = np.zeros_like(sym)
            for k0 in range(0, k, _TILE):
                kc = slice(k0, k0 + _TILE)
                s_a = _stacked(re[kc, ta], im[kc, ta], dtype)
                s_b = s_a if tb == ta else _stacked(re[kc, tb], im[kc, tb], dtype)
                h = len(s_a) // 2
                sym += s_a.T @ s_b  # syrk on the diagonal: one operand and its transpose
                x += s_a[:h].T @ s_b[h:]
                if tb != ta:
                    x -= s_a[h:].T @ s_b[:h]
                s_a = s_b = None  # this chunk's casts are freed before the next are made
            if tb == ta:
                x = x - x.T
            sym = sym.astype(np.int64, copy=False)  # each float tile freed as it is converted
            x = x.astype(np.int64, copy=False)
            yield ta, tb, sym, x


def first_block_mismatch(blocks: Iterable, mismatch: Callable) -> tuple[int, int] | None:
    """The first entry, row-major, where a matrix walked as `blocks` misses, or None.

    `blocks` are (rows, cols, re, im) in row-band order, as from `gram_tiles`;
    mismatch(rows, cols, re, im) gives a block's first miss in its own
    coordinates, or None; each block is dropped before the next is made.  The
    least miss of the first band with one is the first when a band holds each
    entry of its rows that can miss first: whole rows, or those on and above
    the diagonal of a (skew-)Hermitian difference, whose first nonzero (i, j)
    has j >= i, else (j, i) would come first."""
    band, found = None, []
    for rows, cols, re, im in blocks:
        if rows != band and found:
            break
        band = rows
        miss = mismatch(rows, cols, re, im)
        del re, im
        if miss is not None:
            found.append((rows.start + int(miss[0]), cols.start + int(miss[1])))
    return min(found, default=None)


def exact_gram(re: np.ndarray, im: np.ndarray, out: tuple[np.ndarray, np.ndarray]) -> None:
    """Add (re + i im)^H (re + i im) of integer K x N matrices into the
    integer N x N pair out = (out_re, out_im), exactly.

    Each int64 tile of `gram_tiles` is added into `out` in place, and its
    mirror below the diagonal is the transpose of the real part and minus
    the transpose of the imaginary part.  The caller chooses out's integer
    type from a bound on the sum with what `out` already holds: an add
    into a type too narrow for that bound wraps.
    """
    out_re, out_im = out
    for rows, cols, t_re, t_im in gram_tiles(re, im):
        out_re[rows, cols] += t_re
        out_im[rows, cols] += t_im
        if rows != cols:
            out_re[cols, rows] += t_re.T
            out_im[cols, rows] -= t_im.T


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
