"""Frame synthesis, exact Gram matrices, and Welch-bound certification.

The frame attached to the hyperdifference set of a Suzuki 2-group of
order N = 2^(2n) stacks, for each nonzero field element gamma in
ascending order, the degree-2^k monomial representation twisted by
gamma: column g is the row-major flattening of those matrices, and the
whole matrix carries the single irrational scale 2^((k-2n)/2).  That
scale is never evaluated; the integer part is stored and every certified
quantity is squared, hence rational.

The frame is held in factor form (`FrameFactors`): entry ((gamma, r),
(x, y)) is P[gamma^-1 x, r] (-1)^tr(gamma^-3 y), with P the int8 stack of
pi(a, 0) flattened, a table of the images gamma^-1 x and one of the
signs.  `FrameFactors.blocks` synthesizes the frame from it a gamma
block at a time, as `build` writes frame.mat.  Its Gram is fixed by q^3
values: with M = conj(P) P^T, formed by one exact product,
G[(x, y), (x', y')] = F_x[x', y + y'], and each slab F_x is q fast
Walsh-Hadamard transforms (Fino and Algazi, 1976) of M placed at the
sign rows' characters of the centre, exact in the narrowest integer
type that the checked bound (q - 1) max|M| allows, at most int32.  The
rows must be the q - 1 nontrivial characters, each once
(`FrameFactors.sign_defect`, checked before the walk, which reads
nothing else), so the values are the Gram of the frame that is written.
`verify_factors` walks the
slabs once, for the Welch pattern, for the table routes when the caller
compares them, and, at n <= 5, for the rows of gram.mat, which the
caller's row sink receives, holding neither the frame nor its Gram.

The Gram matrix of the frame is computed three independent ways:

* frame route: the factored walk above; its brute-force reference
  `gram_from_frame` is frame^H frame, exact, run by `exact.exact_gram`
  as one symmetric product of the stacked [re; im] and one cross
  product re^T im, on float BLAS only where its checked bound proves
  the result an exact integer, and summed in int16 or int64 as a bound
  proves every sum fits;
* character route: (1/N) sum over the hyperdifference family of
  degree-weighted character values at inv(g) h, read from the exact
  character table;
* closed form: a three-case formula in the field.  With g = (x, y) and
  h = (a, b) the argument inv(g) h has first coordinate w = x + a and
  second coordinate z = y + b + x^3 + x a^2, and the entry is

      (2^n - 1) / 2^(n+1)                   g = h
      -1 / 2^(n+1)                          w = 0, z != 0
      i (-1)^tr(w^-3 z) / 2^(n+1)           w != 0.

The two table routes are rows over the group, one value per element,
gathered at inv(g) h on the walk's blocks: the slab rows (x, 0), which
fix every entry since (0, y) is central, or a random block of columns
(`three_way_sampled`, whose walk reads only the slabs of their x's).
The frame route never reads that index.  All three agree entrywise.

A frame certificate walks its Gram once, on and above the diagonal: the
slabs of a factor form, the tiles of frame^H frame (`exact.gram_tiles`),
or the chunks of `GaussianRationalMatrix.upper_blocks` when the Gram is
held.  The Welch pattern (`_welch_pattern`) and the route comparison
(`_routes_compared`) read each block as it passes, the latter with its
mirror.  The pattern alone proves a frame tight (`verify_frame`), so the
Parseval product runs only to name a failure, and a factor form names it
from d x d blocks (`FrameFactors.parseval_defect`); either, and G^2 = G,
names its first miss by `exact.first_block_mismatch`.  A Gram alone
bounds no rank, so `verify_gram` checks G^2 = G after the Hermitian
test.  A Gram that commutes with the centre {(0, y)}, checked on every
entry, is the direct sum of q blocks, one per Walsh character of the
centre (Vale and Waldron, 2005), read from one transform of its rows
(x, 0); each block is squared as the tiles of its Hermitian product,
and the Welch walk reads those rows only.  Any other Gram is the one
block of itself, squared tile by tile, and walked by `upper_blocks`.
Only `gram` computes an N x N Gram.
Matrix files are written by one writer (`_MatrixWriter`), a block of
rows at a time: a row is cut into segments of one width, isqrt(cols)
entries when cols is a square, as every file the program writes has,
else the whole row (`_segment_width`); each distinct segment is encoded
once, and a row is one join of encoded segments; the bytes pass through
a hasher as they are written, which is how `build` hashes frame.mat and
gram.mat (`gram_writer`).  `read_matrix_file` is its mirror: it cuts a
chunk of rows into the same segments, keys each by its text, converts
each distinct segment once, and fills the chunk's rows of an (re, im) pair
by one gather of segment ids, int8 while every value fits, as in the
Suzuki frames and Grams, else int64.  A computed frame Gram is held
alike (`_reduced`).
"""

from __future__ import annotations

import itertools
import math
import os
import random
import re
import stat
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bgroup import GroupContext
from .chartab import CharacterTable
from .exact import (INT64_BOUND, check_bound, exact_gram, exact_matmul, first_block_mismatch,
                    gram_tiles, max_abs)
from .gf2n import FieldContext
from .heis import RepContext
from .scheme import GaussianRationalMatrix, first_mismatch

__all__ = [
    "EtfCertificate",
    "FrameFactors",
    "FrameMatrix",
    "MatrixParseError",
    "closed_form_entry",
    "frame_dimensions",
    "frame_factors",
    "gram_character",
    "gram_closed_form",
    "gram_from_frame",
    "gram_writer",
    "parseval_defect",
    "read_matrix_file",
    "synthesize_frame",
    "three_way_sampled",
    "verify_etf",
    "verify_factors",
    "verify_frame",
    "verify_gram",
    "welch_bound_sq",
    "write_frame_file",
    "write_gram_file",
]


@dataclass(frozen=True)
class FrameMatrix:
    """Gaussian-integer frame entries with a global scale 2^(log2_scale_sq / 2);
    int8 or int64 parts."""

    re: np.ndarray
    im: np.ndarray
    log2_scale_sq: int

    @property
    def rows(self) -> int:
        return self.re.shape[0]

    @property
    def cols(self) -> int:
        return self.re.shape[1]

    def to_complex(self) -> np.ndarray:
        """Double-precision export; rounds the exact scale, never used to certify."""
        return (self.re + 1j * self.im) * 2.0 ** (self.log2_scale_sq / 2)


def frame_dimensions(n: int) -> tuple[int, int]:
    """(m, N) = (2^(n-1) (2^n - 1), 2^(2n))."""
    return (1 << (n - 1)) * ((1 << n) - 1), 1 << (2 * n)


@dataclass(frozen=True, eq=False)
class FrameFactors:
    """The frame in factor form: entry ((gamma, r), (x, y)) is
    p[images[gamma - 1, x], r] * signs[gamma - 1, y], over the scale
    2^(log2_scale_sq / 2), gamma ascending.

    p = p_re + i p_im is `RepContext.dense_x0` as int8, row a being
    pi(a, 0) flattened; images[gamma - 1, x] = gamma^-1 x and
    signs[gamma - 1, y] = (-1)^tr(gamma^-3 y).  `blocks` and `frame`
    synthesize the frame from it and `gram_values` walks its Gram; of the
    field they read only n, k and the order.
    """

    p_re: np.ndarray
    p_im: np.ndarray
    images: np.ndarray
    signs: np.ndarray
    field: FieldContext

    @property
    def rows(self) -> int:
        return len(self.images) * self.p_re.shape[1]

    @property
    def log2_scale_sq(self) -> int:
        return self.field.k - 2 * self.field.n

    def blocks(self) -> Iterator[FrameMatrix]:
        """The frame's rows, one int8 block per gamma, columns in element order."""
        q = self.field.order
        p = [np.ascontiguousarray(part.T) for part in (self.p_re, self.p_im)]
        for images, signs in zip(self.images, self.signs):
            at, sign = np.repeat(images, q), np.tile(signs, q)
            re, im = (np.take(part, at, axis=1) for part in p)  # C-ordered, as the writer reads
            re *= sign
            im *= sign
            yield FrameMatrix(re, im, self.log2_scale_sq)

    def frame(self) -> FrameMatrix:
        """The m x N int8 frame, columns in canonical element order."""
        num, d = self.field.order ** 2, self.p_re.shape[1]
        re = np.empty((self.rows, num), dtype=np.int8)
        im = np.empty_like(re)
        for i, block in enumerate(self.blocks()):
            re[i * d:(i + 1) * d], im[i * d:(i + 1) * d] = block.re, block.im
        return FrameMatrix(re, im, self.log2_scale_sq)

    def gram_values(self, xs: np.ndarray | None = None) -> Iterator[tuple]:
        """(x, re, im) for each x of the ascending `xs`, default every x: the
        slab F[x', z] over 2^(-log2_scale_sq) on the rows x' of xs, with
        G[(x, y), (x', y')] = F[x', y + y'].

        With M = conj(p) p^T, one exact product, F[x', z] is the sum over
        gamma of M(gamma^-1 x, gamma^-1 x') (-1)^popcount(w_gamma & z), for
        the sign rows' distinct characters w_gamma (`_characters`,
        `sign_defect`), so WHT(C)[z] for C(w_gamma) = M(gamma^-1 x,
        gamma^-1 x') and C(0) = 0.  Every butterfly value is a signed sum of
        at most q - 1 values of C, so |F| <= (q - 1) max|M|; entries of
        modulus at most 1 give max|M| <= 4^k, and the bound
        (q - 1) 4^k is 130,816 at n = 9, so int32 holds every value
        exactly.  The bound is checked, not assumed, and the transform runs
        in the narrowest type it fits: int8 at n <= 5, where the Suzuki M
        has max|M| = 2^k, and int16 at n = 7 and 9.
        """
        q = self.field.order
        both = np.hstack((self.p_re, self.p_im))
        cross = exact_matmul(self.p_re, self.p_im.T)
        m = np.stack((exact_matmul(both, both.T), cross - cross.T))  # conj(p) p^T
        bound = (q - 1) * max_abs(m)
        if bound >= 1 << 31:
            raise OverflowError("factored Gram: (q - 1) max|M| reaches 2**31; refusing to wrap")
        m = m.astype(next(t for t in (np.int8, np.int16, np.int32) if bound <= np.iinfo(t).max))
        w = self._characters()
        xs = np.arange(q) if xs is None else xs
        images = self.images if len(xs) == q else self.images[:, xs]
        for x in xs.tolist():
            c = np.zeros((2, q, len(xs)), m.dtype)  # c[:, w, j] = C(w) for the pair (x, xs[j])
            c[:, w] = m[:, self.images[:, x, None], images]
            _wht(c)
            yield x, c[0].T, c[1].T

    def parseval_defect(self) -> tuple[int, int] | None:
        """`parseval_defect` of the frame, read from the factors: entry
        ((g, r), (h, r')) of frame frame^H is S[g, h] (A_g^T conj(A_h))[r, r'],
        S = signs signs^T and A_g = p[images[g]].  Row band g reads only the
        blocks where S[g, h] != 0: the diagonal alone for distinct sign
        characters.  The diagonal block is (n_g p)^T conj(p), n_g(a) the count
        of x with images[g, x] = a, one d x d product while the images rows
        are permutations.  Terms stay below 2 q^2 max|p|^2 < 2^37 at n <= 9."""
        d = self.p_re.shape[1]
        s = exact_matmul(self.signs, self.signs.T)
        p = np.hstack((self.p_re, self.p_im)).astype(np.int64)  # rows a: (re, im) of p[a]
        diagonal = {}  # A_g^T conj(A_g) by the counts n_g

        def product(a, b):  # a^T conj(b) as (re, im), for rows (re, im) of p
            both = np.vstack((b[:, :d], b[:, d:]))
            return (exact_matmul(np.vstack((a[:, :d], a[:, d:])).T, both),
                    exact_matmul(np.vstack((a[:, d:], -a[:, :d])).T, both))

        def blocks():
            for g, row in enumerate(s):
                for h in np.flatnonzero(row).tolist():
                    if g != h:
                        re, im = product(p[self.images[g]], p[self.images[h]])
                    else:
                        n_g = np.bincount(self.images[g], minlength=len(p))
                        if (key := n_g.tobytes()) not in diagonal:
                            diagonal[key] = product(p * n_g[:, None], p)
                        re, im = diagonal[key]
                    yield slice(g * d, g * d + d), slice(h * d, h * d + d), row[h] * re, row[h] * im

        return first_block_mismatch(blocks(), _identity_mismatch(self.log2_scale_sq))

    def _characters(self) -> np.ndarray:
        """Each sign row's w, read at y = 2^i: bit i is set where the sign is
        negative, so a row that is a character is (-1)^popcount(w & y)."""
        bits = np.arange(self.field.n)
        return ((self.signs[:, 1 << bits] < 0) << bits).sum(axis=1)

    def sign_defect(self) -> tuple[int, int] | None:
        """None when the sign rows are the q - 1 nontrivial characters of the
        centre, each once: each row is the Walsh-Hadamard kernel's row at its
        `_characters` w, and a presence array meets no w twice, nor 0.  Else
        the first (gamma - 1, y) where a row is not its character, or
        (gamma - 1, 0) for a row whose w is 0 or an earlier row's.  Then each
        gamma's term of the walk has its own w, so F is the frame's Gram."""
        q = self.field.order
        kernel = np.eye(q, dtype=np.int8)[None]
        _wht(kernel)  # kernel[0][w, y] = (-1)^popcount(w & y)
        w = self._characters()
        bad = np.argwhere(self.signs != kernel[0][w])
        found = [(int(bad[0, 0]), int(bad[0, 1]))] if len(bad) else []
        seen = [True] + [False] * (q - 1)  # the trivial character is no row's
        for g, at in enumerate(w.tolist()):
            if seen[at]:
                found.append((g, 0))
                break
            seen[at] = True
        return min(found, default=None)


def frame_factors(group: GroupContext, rep: RepContext) -> FrameFactors:
    """The factor form of the frame at the group's degree."""
    f = group.field
    inv_cube = f.inverse_cube_table[1:]
    inv = f.mul_table[inv_cube, f.square_table[1:]]  # gamma^-3 gamma^2
    p_re, p_im = (_int8(stack) for stack in rep.dense_x0)
    signs = 1 - 2 * f.trace_table[f.mul_table[inv_cube]].astype(np.int8)
    return FrameFactors(p_re, p_im, f.mul_table[inv], signs, f)


def _wht(a: np.ndarray) -> None:
    """The Walsh-Hadamard transform along axis 1 of a (2, q, cols) array,
    in place: out[:, u] = sum_w a[:, w] (-1)^popcount(u & w)."""
    q, h = a.shape[1], 1
    while h < q:
        v = a.reshape(a.shape[0], q // (2 * h), 2, h, a.shape[2])
        lo, hi = v[:, :, 0], v[:, :, 1]
        total = lo + hi
        np.subtract(lo, hi, out=hi)
        lo[...] = total
        h *= 2


def _int8(stack: np.ndarray) -> np.ndarray:
    """The representation stack as int8; OverflowError if an entry would wrap."""
    narrow = stack.astype(np.int8)
    if not np.array_equal(narrow, stack):
        raise OverflowError("representation entries do not fit int8; refusing to wrap")
    return narrow


# the frame's synthesis under the name perfbench/traced.py wraps: `build`
# draws frame.mat from it, a gamma block at a time
def _synthesize_columns(factors: FrameFactors) -> Iterator[FrameMatrix]:
    return factors.blocks()


def synthesize_frame(group: GroupContext, rep: RepContext) -> FrameMatrix:
    """The m x N int8 frame, columns in canonical element order."""
    return frame_factors(group, rep).frame()


def parseval_defect(frame: FrameMatrix) -> tuple[int, int] | None:
    """None when frame frame^H equals 2^(-log2_scale_sq) I exactly, else its
    first bad entry, row-major: each tile of conj(frame frame^H), the
    transposed frame's Hermitian product, is compared with the identity's."""
    return first_block_mismatch(gram_tiles(frame.re.T, frame.im.T),
                                _identity_mismatch(frame.log2_scale_sq))


def _identity_mismatch(log2_scale_sq: int) -> Callable:
    """The comparison of a block of frame frame^H over 2^(-log2_scale_sq) with I's."""
    return lambda rows, cols, re, im: first_mismatch(
        GaussianRationalMatrix(re, im, 1 << -log2_scale_sq),
        GaussianRationalMatrix(np.eye(*re.shape, rows.start - cols.start, dtype=np.int64)))


def gram_from_frame(frame: FrameMatrix) -> GaussianRationalMatrix:
    """frame^H frame, exact, reduced by its gcd (`_reduced`): `exact_gram`
    proves each product exact and sums into accumulators that
    2 max|frame|^2 rows bounds, int16 while that is below 2^15, else
    int64, which `check_bound` refuses to let wrap."""
    bound = 2 * max_abs(frame.re, frame.im) ** 2 * frame.rows
    check_bound(bound, "frame Gram")
    acc = np.zeros((2, frame.cols, frame.cols), np.int16 if bound < 1 << 15 else np.int64)
    exact_gram(frame.re, frame.im, (acc[0], acc[1]))
    return _reduced(acc, 1 << -frame.log2_scale_sq)


def _sampled_gram(factors: FrameFactors, sel: np.ndarray) -> GaussianRationalMatrix:
    """The Gram of the factor form's frame on the ascending columns `sel`,
    reduced by its gcd (`_reduced`): entry (i, j) is F_x[x_j, y_i + y_j]
    for x = x_i, read from the walk restricted to the x's of `sel`
    (`FrameFactors.gram_values`)."""
    n, q = factors.field.n, factors.field.order
    xs, ys = sel >> n, sel & (q - 1)
    ux, at = np.unique(xs, return_inverse=True)  # at[j]: the slab row of x_j
    acc = None
    for x, re, im in factors.gram_values(ux):
        rows = slice(*np.searchsorted(xs, [x, x + 1]))  # the run of sel with this x
        if acc is None:
            acc = np.empty((2, len(sel), len(sel)), dtype=re.dtype)
        z = ys[rows, None] ^ ys
        acc[0, rows], acc[1, rows] = re[at, z], im[at, z]
    return _reduced(acc, 1 << -factors.log2_scale_sq)


def _reduced(acc: np.ndarray, scale: int) -> GaussianRationalMatrix:
    """acc[0] + i acc[1] over `scale`, reduced in place by the gcd of
    `np.gcd.reduce`, with no widened copy: int8 when every reduced entry
    fits, as `read_matrix_file` holds a Gram file, else int64."""
    top = max_abs(acc)
    g = math.gcd(scale, int(np.gcd.reduce(acc, axis=None)))
    if top:  # g divides every entry; an all-zero Gram, whose g is the scale, stays
        acc //= g
    acc = acc.astype(np.int8 if top // g <= 127 else np.int64, copy=False)
    return GaussianRationalMatrix(acc[0], acc[1], scale // g)


def _gathered(row: GaussianRationalMatrix, at: np.ndarray) -> GaussianRationalMatrix:
    """Entry (g, h) is row(inv(g) h), read at the index grid `at` of a column
    selection (`GroupContext.inverse_product_index_grid`); int8 if it fits."""
    if row.re.dtype != np.int8 and row.max_abs() <= 127:
        row = GaussianRationalMatrix(row.re.astype(np.int8), row.im.astype(np.int8), row.den)
    return GaussianRationalMatrix(row.re[at], row.im[at], row.den)


def gram_character(group: GroupContext, table: CharacterTable,
                   at: np.ndarray) -> GaussianRationalMatrix:
    """Gram entries (1/N) sum_{chi in D} d_chi chi(inv(g) h) via table lookup."""
    # |sum| <= (q - 1) 4^k < 2^(2n), far inside int64 for every supported n
    re, im = table.value_arrays
    d_set = list(table.d_set)
    deg = np.array(table.degrees, dtype=np.int64)[d_set, None]  # widens the int8 values
    row = GaussianRationalMatrix((deg * re[d_set]).sum(axis=0), (deg * im[d_set]).sum(axis=0),
                                 group.order)  # one value per conjugacy class
    return _gathered(_gathered(row.canonical(), group.class_of_element), at)


def gram_closed_form(group: GroupContext, at: np.ndarray) -> GaussianRationalMatrix:
    """Gram entries from the three-case field formula on the q x q grid (w, z)."""
    f = group.field
    im = 1 - 2 * f.trace_table[f.mul_table][f.inverse_cube_table].astype(np.int8)
    re = np.zeros_like(im, dtype=np.int8 if f.order <= 128 else np.int64)  # int8 if it fits
    re[0], im[0] = -1, 0
    re[0, 0] = f.order - 1
    return _gathered(GaussianRationalMatrix(re.ravel(), im.ravel(), f.order * 2), at)


def closed_form_entry(field: FieldContext, g, h) -> tuple[int, int]:
    """Single Gram entry in O(1) field operations, as the integer (re, im)
    numerators over 2^(n+1), the denominator of `gram_closed_form`."""
    x, y = g
    a, b = h
    w = x ^ a
    if w == 0:
        return (field.order - 1, 0) if y == b else (-1, 0)
    z = y ^ b ^ field.cube(x) ^ field.mul(x, field.square(a))
    t = field.trace(field.mul(field.inv(field.cube(w)), z))
    return 0, 1 - 2 * t


def welch_bound_sq(m: int, num_vectors: int) -> tuple[Fraction, Fraction]:
    """Squared Welch bounds: (unit-norm version, Parseval-scaled version)."""
    if not 1 <= m < num_vectors:
        raise ValueError(f"need 1 <= m < N, got m={m}, N={num_vectors}")
    unit = Fraction(num_vectors - m, m * (num_vectors - 1))
    parseval = Fraction(m * (num_vectors - m), num_vectors ** 2 * (num_vectors - 1))
    return unit, parseval


@dataclass(frozen=True)
class EtfCertificate:
    m: int
    num_vectors: int
    parseval: bool
    verdict: str                      # "OPTIMAL" | "NOT_ETF"
    method: str                       # "frame" | "gram" | "srgIdempotent"
    diagonal_value: Fraction | None = None
    off_diag_modulus_sq: Fraction | None = None
    welch_sq_parseval: Fraction | None = None
    welch_sq_unit: Fraction | None = None
    failure: str | None = None
    cross_checks: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def frac(x):
            return None if x is None else f"{x.numerator}/{x.denominator}"
        return {
            "m": self.m,
            "numVectors": self.num_vectors,
            "parseval": self.parseval,
            "verdict": self.verdict,
            "method": self.method,
            "diagonalValue": frac(self.diagonal_value),
            "offDiagModulusSquared": frac(self.off_diag_modulus_sq),
            "welchSquaredParseval": frac(self.welch_sq_parseval),
            "welchSquaredUnitNorm": frac(self.welch_sq_unit),
            "failure": self.failure,
            "crossChecks": dict(self.cross_checks),
        }


def _welch_pattern(blocks: Iterable[tuple[slice, slice, np.ndarray, np.ndarray]], den: int,
                   m: int, num_vectors: int) -> tuple[str | None, Fraction | None, Fraction]:
    """Check a Parseval Gram matrix, or a principal submatrix of one, for
    the ETF pattern: constant diagonal m/N and constant off-diagonal
    modulus at the Welch value.

    The matrix is Hermitian, over `den`, read as `blocks` (rows, cols, re,
    im) on and above its diagonal (`GaussianRationalMatrix.upper_blocks`
    or `exact.gram_tiles`), each starting on the diagonal or above it.  The
    first gives the diagonal value, and the first holding the matrix's
    (0, 1) the off-diagonal one; no earlier block holds an off-diagonal
    entry.  Every block is read before the failure is chosen, and no
    squared modulus is formed once the greatest |entry| squares to 2^62.

    Returns the first failure (None if the pattern holds), the squared
    off-diagonal modulus (None unless it is constant and there is one) and
    the diagonal value.
    """
    diag = off = None
    diag_ok = off_ok = True
    top = 0  # the greatest |entry| read
    for rows, cols, re, im in blocks:
        on = rows.start == cols.start
        diag = int(re[0, 0]) if diag is None else diag
        j = rows.start + 1 - cols.start  # where the block holds entry (0, 1), if it does
        if off is None and 0 <= j < re.shape[1]:
            off = int(re[0, j]) ** 2 + int(im[0, j]) ** 2
        top = max(top, max_abs(re, im))
        if on:
            diag_ok = diag_ok and not im.diagonal().any() and bool((re.diagonal() == diag).all())
        if off_ok and off is not None and top * top < INT64_BOUND:
            sq, _ = GaussianRationalMatrix(re, im, den).abs_sq_int()
            if on:
                np.fill_diagonal(sq, off)  # so only off-diagonal entries can differ
            off_ok = bool((sq == off).all())
    diagonal = Fraction(diag, den)
    if not diag_ok:
        return "diagonal is not constant", None, diagonal
    if diagonal != Fraction(m, num_vectors):
        return "diagonal disagrees with m/N", None, diagonal
    if m >= num_vectors:
        return "degenerate: m = N leaves no off-diagonal angle", None, diagonal
    if m < 1:
        return "degenerate: m < 1 spans no line", None, diagonal
    check_bound(top * top, "abs_sq_int")
    if off is None:
        return None, None, diagonal
    if not off_ok:
        return "off-diagonal modulus is not constant", None, diagonal
    _, welch_par = welch_bound_sq(m, num_vectors)
    off_sq = Fraction(off, den * den)
    if off_sq != welch_par:
        return "off-diagonal modulus misses the Welch value", off_sq, diagonal
    return None, off_sq, diagonal


def _certify_gram(blocks: Iterable[tuple[slice, slice, np.ndarray, np.ndarray]], den: int,
                  m: int, num_vectors: int, precondition: str | None, method: str,
                  cross_checks: dict) -> EtfCertificate:
    """Certify the Gram matrix read as `blocks` over `den` (`_welch_pattern`).

    precondition is the failed Parseval or projection check, None if they
    pass.  When it is set no block is read, so a lazy walk computes nothing.
    """
    fail, off_sq, diagonal = precondition, None, None
    if precondition is None:
        fail, off_sq, diagonal = _welch_pattern(blocks, den, m, num_vectors)
    welch_unit, welch_par = (None, None) if off_sq is None else welch_bound_sq(m, num_vectors)
    return EtfCertificate(
        m=m, num_vectors=num_vectors, parseval=precondition is None,
        verdict="OPTIMAL" if fail is None else "NOT_ETF",
        method=method,
        diagonal_value=diagonal,
        off_diag_modulus_sq=off_sq,
        welch_sq_parseval=welch_par,
        welch_sq_unit=welch_unit,
        failure=fail,
        cross_checks=cross_checks,
    )


def verify_frame(frame: FrameMatrix) -> EtfCertificate:
    """Certify a frame by the Welch pattern of G = frame^H frame, read one
    tile at a time (`exact.gram_tiles`).

    The pattern proves the frame tight: rank G <= m, the row count, and a
    diagonal m/N with every off-diagonal |G_ij|^2 at the Parseval Welch
    value m(N - m)/(N^2 (N - 1)) gives tr G = ||G||_F^2 = m, so by
    Cauchy-Schwarz on the eigenvalues every nonzero one is 1 and
    frame frame^H = I (Benedetto and Fickus, 2003).  `parseval_defect`
    runs only when the pattern fails; its failure, or else the walk's
    overflow, is reported first.
    """
    return _frame_certificate(gram_tiles(frame.re, frame.im), 1 << -frame.log2_scale_sq,
                              frame.rows, frame.cols, lambda: parseval_defect(frame))


def verify_factors(factors: FrameFactors, gram_rows=None, routes=None,
                   cols: np.ndarray | None = None) -> EtfCertificate:
    """Certify the frame of a factor form from its q^3 Gram values
    (`FrameFactors.gram_values`), each standing for the q entries
    G[(x, y), (x', y')] with y + y' = z, so all N^2 are covered; given the
    ascending columns `cols`, only their Gram (`_sampled_gram`), walked by
    its `upper_blocks` over its own denominator.

    Slab x holds row (x, 0) of the Gram; its columns from (x, 0) on are
    one block of the Welch pattern's walk, starting on the diagonal, and
    the slabs' conjugate symmetry (M is Hermitian) covers the rest.  The
    pattern proves the frame tight as in `verify_frame`, whose rank
    argument needs only the frame's row count.  The walk runs only when
    `FrameFactors.sign_defect` passes, for only then are its values the
    Gram of the frame.  gram_rows(re, im), when given, receives the frame's
    Gram rows over 2^(-log2_scale_sq), a slab's q rows at a time from the
    walk of all columns (`_slab_rows`), or at once from the frame when the
    sign table is refused, the one case that builds the frame.  A failure's
    Parseval defect is read from the factors (`FrameFactors.parseval_defect`).

    routes = (group, table, found) compares each block and its mirror
    with the table routes (`_routes_compared`), filling `found` once the
    walk runs, and so all N^2 entries: (0, y) is central, so a row over
    the group takes at ((x, y), (x', y')) its value at inv((x, 0))
    (x', y + y'), as the walk's values do.
    """
    q = factors.field.order
    num, den = q * q, 1 << -factors.log2_scale_sq
    if (bad := factors.sign_defect()) is not None:
        if gram_rows is not None:
            gram = gram_from_frame(factors.frame())
            s = den // gram.den
            gram_rows(gram.re.astype(np.int64) * s, gram.im.astype(np.int64) * s)
        defect = factors.parseval_defect()
        failure = f"sign rows are not the centre's distinct nontrivial characters at {list(bad)}"
        return _certify_gram((), den, factors.rows, num, failure, "frame",
                             {"parsevalDefect": defect and list(defect)})

    def blocks():
        for x, re, im in factors.gram_values():
            if gram_rows is not None:
                gram_rows(_slab_rows(re), _slab_rows(im))
            yield (slice(x * q, x * q + 1), slice(x * q, num),
                   re[x:].reshape(1, -1), im[x:].reshape(1, -1))

    if cols is None:
        walk, cols = blocks(), np.arange(num)
    else:
        gram = _sampled_gram(factors, cols)
        walk, den = gram.upper_blocks(), gram.den
    if routes is not None:
        walk = _routes_compared(walk, den, cols, *routes)
    return _frame_certificate(walk, den, factors.rows, num, factors.parseval_defect)


def _slab_rows(first: np.ndarray) -> np.ndarray:
    """The q Gram rows (x, y) of slab x, from its row (x, 0) held as the
    q x q array F[x', z]: row y is F[x', y + y'] at column x' q + y'."""
    q = first.shape[1]
    return first[:, np.arange(q)[:, None] ^ np.arange(q)].transpose(1, 0, 2).reshape(q, -1)


def _frame_certificate(blocks, den: int, m: int, num_vectors: int, defect) -> EtfCertificate:
    """The certificate of a frame with m rows whose Gram is walked as
    `blocks` over `den`; defect() gives its Parseval defect, and runs only
    when the pattern fails, which it then names first, or else the walk's
    overflow."""
    overflow = None
    try:
        cert = _certify_gram(blocks, den, m, num_vectors, None, "frame", {"parsevalDefect": None})
        if cert.failure is None:
            return cert
    except OverflowError as exc:
        overflow = exc
    if (where := defect()) is not None:
        return _certify_gram((), den, m, num_vectors, "parseval identity fails",
                             "frame", {"parsevalDefect": list(where)})
    if overflow is not None:
        raise overflow
    return cert


def verify_gram(gram: GaussianRationalMatrix, method: str = "gram") -> EtfCertificate:
    """Exact certification of an N x N Gram matrix claimed to be a projection;
    projectionDefect is the first entry that fails the named check.  G^2 = G
    is checked on the Walsh blocks of the centre G commutes with
    (`_centre_order`); with one of order c > 1, the Welch walk reads the
    rows (x, 0) from the diagonal on, which hold every entry or its
    conjugate."""
    if gram.shape[0] != gram.shape[1]:
        raise ValueError("gram matrix must be square")
    num = gram.shape[0]
    tr_re, tr_im = gram.trace()
    integral = tr_im == 0 and tr_re.denominator == 1
    failure, c = None, 1
    if (defect := gram.hermitian_defect()) is not None:
        failure = "Gram matrix is not Hermitian"
    elif (defect := _projection_defect(gram, c := _centre_order(gram))) is not None:
        failure = "Gram matrix is not a projection"
    cross = {"projectionDefect": None if defect is None else list(defect)}
    walk = gram.upper_blocks() if c == 1 else (
        (slice(x, x + 1), slice(x, num), gram.re[x:x + 1, x:], gram.im[x:x + 1, x:])
        for x in range(0, num, c))
    return _certify_gram(walk, gram.den, int(tr_re) if integral else 0, num, failure, method,
                         cross)


def _centre_order(gram: GaussianRationalMatrix) -> int:
    """q when the N x N Gram, N = q^2 = 4^n indexed x q + y, has
    G[(x, y), (x', y')] = G[(x, 0), (x', y + y')] on every entry, checked
    one x-slab at a time, and its Walsh blocks' products stay below 2^62;
    else 1."""
    num = gram.shape[0]
    q = math.isqrt(num)
    if q < 2 or q * q != num or q & (q - 1) or (q * gram.max_abs()) ** 2 * q >= INT64_BOUND:
        return 1
    for x in range(0, num, q):
        for part in (gram.re, gram.im):
            slab = part[x:x + q]
            if not np.array_equal(slab, _slab_rows(slab[0].reshape(q, q))):
                return 1
    return q


def _projection_defect(gram: GaussianRationalMatrix, c: int) -> tuple[int, int] | None:
    """None when the Hermitian G is a projection, else the first entry,
    row-major, of G^2 != G.  G commutes with a centre of order c
    (`_centre_order`), so it is the direct sum of the Hermitian blocks
    D_w[x, x'] = sum_z G[(x, 0), (x', z)] (-1)^popcount(w & z), one per
    Walsh character w, from one `_wht` of the rows (x, 0), and G^2 = G
    exactly when every D_w^2 = D_w, walked as the tiles of D_w^H D_w.  With
    c = 1 the block is G; a failing block re-runs that walk to name the
    entry."""
    b = gram.shape[0] // c
    d = [part[::c].reshape(b, b, c).transpose(2, 0, 1) for part in (gram.re, gram.im)]
    if c > 1:
        d = np.array(d, dtype=np.int64)  # |D_w| <= c max|G| < 2^62, as _centre_order checks
        _wht(d.reshape(2, c, b * b))
    for re, im in zip(*d):
        def square_and_block(rows, cols, t_re, t_im, re=re, im=im):
            # D^H D, which is D @ D as D is Hermitian
            return first_mismatch(GaussianRationalMatrix(t_re, t_im, gram.den * gram.den),
                                  GaussianRationalMatrix(re[rows, cols], im[rows, cols], gram.den))

        if (defect := first_block_mismatch(gram_tiles(re, im), square_and_block)) is not None:
            return defect if c == 1 else _projection_defect(gram, 1)
    return None


def verify_etf(obj) -> EtfCertificate:
    if isinstance(obj, FrameMatrix):
        return verify_frame(obj)
    if isinstance(obj, GaussianRationalMatrix):
        return verify_gram(obj)
    raise TypeError(f"cannot certify {type(obj).__name__}")


# ---------------------------------------------------------------------------
# route agreement
# ---------------------------------------------------------------------------

def _route_mismatches(routes: dict[str, GaussianRationalMatrix]) -> dict:
    """First mismatching entry of each pair of named Gram routes, None where they agree."""
    return {f"{a}_vs_{b}": first_mismatch(routes[a], routes[b])
            for a, b in itertools.combinations(routes, 2)}


def _routes_compared(blocks: Iterable[tuple[slice, slice, np.ndarray, np.ndarray]], den: int,
                     sel: np.ndarray, group: GroupContext, table: CharacterTable,
                     found: dict) -> Iterator[tuple[slice, slice, np.ndarray, np.ndarray]]:
    """Yield `blocks`, the frame Gram of the columns `sel` over `den`, each
    once it and its mirror (the conjugate transpose) are compared with the
    table routes gathered from rows built once.  `found` gets each pair's
    first mismatch, row-major over the selection, or None."""
    first = np.arange(group.order)  # the Gram row at g = e, as inv(e) h = h
    rows_of = {"character": gram_character(group, table, first),
               "closedForm": gram_closed_form(group, first)}
    found.update(dict.fromkeys(("frame_vs_character", "frame_vs_closedForm",
                                "character_vs_closedForm")))
    for block in blocks:
        rows, cols, re, im = block
        mirror = [(cols, rows, re.T, np.negative(im, dtype=np.int64).T)] if rows != cols else []
        for r, c, part_re, part_im in [block, *mirror]:
            at = group.inverse_product_index_grid(sel[c], sel[r])
            routes = {"frame": GaussianRationalMatrix(part_re, part_im, den),
                      **{name: _gathered(row, at) for name, row in rows_of.items()}}
            for pair, bad in _route_mismatches(routes).items():
                if bad is not None:
                    bad = (r.start + bad[0], c.start + bad[1])
                    found[pair] = min(bad, found[pair] or bad)
        yield block


def three_way_sampled(group: GroupContext, table: CharacterTable, rep: RepContext,
                      min_entries: int, seed: int) -> dict:
    """Sampled comparison: a random block of columns, all pairs among them,
    certified by `verify_factors` on those columns, which compares the
    routes on the walk that checks the Welch pattern.  `failure` is the
    certificate's, None if it is OPTIMAL.  min_entries >= N^2 samples every
    column; min_entries below 1 is a ValueError.
    """
    if min_entries < 1:
        raise ValueError(f"need min_entries >= 1, got {min_entries}")
    rng = random.Random(seed)
    ncols = min(group.order, math.isqrt(min_entries - 1) + 1)  # the ceiling square root
    sel = np.array(sorted(rng.sample(range(group.order), ncols)), dtype=np.int64)
    mismatches: dict = {}
    cert = verify_factors(frame_factors(group, rep), routes=(group, table, mismatches), cols=sel)
    return {
        "entries": int(ncols) ** 2,
        "columns": int(ncols),
        "seed": seed,
        "agree": _routes_agree(mismatches),
        "pattern_ok": cert.failure is None,
        "failure": cert.failure,
        "mismatches": mismatches,
    }


def _routes_agree(mismatches: dict) -> bool:
    """Every pair agreed, and was compared: a walk that never ran leaves `mismatches` empty."""
    return bool(mismatches) and all(v is None for v in mismatches.values())


# ---------------------------------------------------------------------------
# bit-exact file formats
# ---------------------------------------------------------------------------

_HEADER = "LINEPACK-MATRIX v1"
_CHUNK_ENTRIES = 1 << 14  # per chunk of rows: caps the writer's and the reader's temporaries
_INT64_MAX = np.iinfo(np.int64).max


def _chunk_rows(cols: int) -> int:
    """Rows per chunk: 16 at the 1024 columns of n = 5, never fewer than one."""
    return max(1, _CHUNK_ENTRIES // cols)


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of `a`, and the index of each entry among them.

    Sorted as int64: numpy's int8 sort of the frame's few values is several
    times slower than the widening copy and the int64 sort together.
    """
    ordered = np.sort(a.astype(np.int64, copy=False), axis=None)
    values = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return values, np.searchsorted(values, a)


def _segment_width(cols: int) -> int:
    """Entries per segment of a row of `cols` entries: isqrt(cols) when cols
    is a perfect square, as every file this program writes has, else cols,
    a row being then one segment."""
    width = math.isqrt(cols)
    return width if width * width == cols else cols


class _MatrixWriter:
    """Writes a matrix one block of rows at a time, with `header` first:
    one line per row of space-separated entries, entry (i, j) being the
    bytes tokens(re_vals, im_vals) gives for the pair (re, im) at (i, j).

    A row is cut into segments of one width (`_segment_width`); a
    segment's key is the bytes of its real then imaginary part, and each
    distinct segment is encoded once (`_encode`), so a row is one join of
    encoded segments.  The written bytes pass through `hasher.update` too,
    when a hasher is given.  The encoded segments are dropped whenever
    they hold more than _CHUNK_ENTRIES * 64 bytes, so a matrix of distinct
    entries holds one chunk of rows, never its text.
    """

    def __init__(self, fh, header: str, cols: int, tokens, hasher=None):
        self._fh, self._hasher, self._tokens, self._cols = fh, hasher, tokens, cols
        self._width = _segment_width(cols)
        self._per_row = cols // self._width
        self._write(header.encode())
        self._clear()

    def _clear(self) -> None:
        self._ids: dict = {}  # dtype -> {key: index in _segments}
        self._segments: list[bytes] = []
        self._held = 0

    def _write(self, data: bytes) -> None:
        if self._hasher is not None:
            self._hasher.update(data)
        self._fh.write(data)

    def rows(self, re: np.ndarray, im: np.ndarray) -> None:
        step = _chunk_rows(self._cols)
        for start in range(0, len(re), step):
            self._chunk(re[start:start + step], im[start:start + step])

    def _chunk(self, re: np.ndarray, im: np.ndarray) -> None:
        dtype = np.result_type(re, im)
        ids = self._ids.setdefault(dtype, {})
        rows, width = len(re), self._width
        both = np.empty((rows, self._per_row, 2 * width), dtype=dtype)
        both[..., :width] = re.reshape(rows, -1, width)
        both[..., width:] = im.reshape(rows, -1, width)
        keys = both.view(np.dtype((np.void, 2 * width * both.itemsize))).ravel().tolist()
        got = list(map(ids.get, keys))
        if None in got:
            new = list(dict.fromkeys(key for key, i in zip(keys, got) if i is None))
            for key, word in zip(new, self._encode(dtype, new)):
                ids[key] = len(self._segments)
                self._segments.append(word)
                self._held += len(word) + len(key)
            got = list(map(ids.__getitem__, keys))
        per_row, segments = self._per_row, self._segments
        self._write(b"\n".join([b" ".join(map(segments.__getitem__, got[i:i + per_row]))
                                 for i in range(0, len(got), per_row)]) + b"\n")
        if self._held > _CHUNK_ENTRIES * 64:
            self._clear()

    def _encode(self, dtype, keys: list[bytes]) -> list[bytes]:
        """The bytes of the segments with these keys, in order: the
        distinct pairs of the segments are encoded once."""
        parts = np.frombuffer(b"".join(keys), dtype).reshape(len(keys), 2, -1)
        re_vals, re_ids = _distinct(parts[:, 0])
        im_vals, im_ids = _distinct(parts[:, 1])
        codes, ids = _distinct(re_ids * len(im_vals) + im_ids)
        tokens = self._tokens(re_vals[codes // len(im_vals)], im_vals[codes % len(im_vals)])
        return [b" ".join(map(tokens.__getitem__, row)) for row in ids.tolist()]


def _frame_tokens(re_vals: np.ndarray, im_vals: np.ndarray) -> list[bytes]:
    return [b"%d;%d" % pair for pair in zip(re_vals.tolist(), im_vals.tolist())]


def _gram_tokens(den: int):
    """Tokens `p/q;r/s` of values over `den`, each fraction reduced."""
    def reduced(re_vals: np.ndarray, im_vals: np.ndarray) -> list[bytes]:
        gr, gi = np.gcd(re_vals, den), np.gcd(im_vals, den)
        parts = (re_vals // gr, den // gr, im_vals // gi, den // gi)
        return [b"%d/%d;%d/%d" % entry for entry in zip(*(p.tolist() for p in parts))]
    return reduced


def gram_writer(fh, rows: int, cols: int, den: int, hasher=None) -> _MatrixWriter:
    """A writer of an exact rational matrix over `den` to the binary file
    `fh`, in `write_gram_file`'s format; `rows` is the count its header
    states, and `hasher`, if given, is updated with every byte written."""
    return _MatrixWriter(fh, f"{_HEADER} rows={rows} cols={cols} scale_log2_num=0 "
                             "scale_log2_den=1\n", cols, _gram_tokens(den), hasher)


def _check_shape(rows: int, cols: int) -> None:
    """Refuses, before any file is opened, a shape that the reader refuses."""
    if rows < 1 or cols < 1:
        raise ValueError(f"need positive rows and cols, got {rows}x{cols}")


def write_frame_file(path, rows: int, blocks: Iterable[FrameMatrix], hasher=None) -> None:
    """Scaled Gaussian-integer matrix: entries `re;im`, scale 2^(num/den).

    `blocks` are the consecutive row blocks of one matrix with `rows` rows
    in all; each is written as it arrives, so a frame too large to hold in
    memory can be streamed from `FrameFactors.blocks`.  `hasher`, if given, is
    updated with every byte written.
    """
    blocks = iter(blocks)
    block = next(blocks, None)
    _check_shape(rows, 0 if block is None else block.cols)
    with open(path, "wb") as fh:
        writer = _MatrixWriter(fh, f"{_HEADER} rows={rows} cols={block.cols} "
                                   f"scale_log2_num={block.log2_scale_sq} "
                                   "scale_log2_den=2\n", block.cols, _frame_tokens, hasher)
        while block is not None:  # keeps no block past its turn, as a for loop would
            writer.rows(block.re, block.im)
            block = next(blocks, None)


def write_gram_file(path, gram: GaussianRationalMatrix) -> None:
    """Exact rational matrix: entries `p/q;r/s`, each fraction reduced."""
    _check_shape(*gram.shape)
    g = gram.canonical()
    if g.den > _INT64_MAX:
        # refused before the file is opened, since the reader would reject the file
        raise OverflowError(f"Gram denominator {g.den} is beyond int64")
    with open(path, "wb") as fh:
        gram_writer(fh, *g.shape, g.den).rows(g.re, g.im)


class MatrixParseError(ValueError):
    pass


# every integer in a matrix file has at most 19 digits, as 2^63 does, so conversion
# never meets int()'s 4300-digit limit; the magnitude must also stay below 2^63
_INT = r"[+-]?\d{1,19}"
_ENTRY = {False: ("a;b", f"{_INT};{_INT}"), True: ("p/q;r/s", f"{_INT}/{_INT};{_INT}/{_INT}")}
_TOKENS = {rational: re.compile(f"{entry}(?: {entry})*") for rational, (_, entry) in _ENTRY.items()}
_TO_SPACES = str.maketrans("/;", "  ")


def read_matrix_file(path):
    """Parse a v1 matrix file; returns a FrameMatrix or GaussianRationalMatrix.

    The file is read in one pass, a chunk of lines at a time, straight
    into the (re, im) pair of the result (`_read_rows`): the reader holds
    that pair and one chunk, never the text, and makes a Python object
    per line and per distinct token of a chunk, never per entry.  The
    pair is int8 while every value read fits, and is widened once to
    int64 when one does not; arithmetic on either runs in int64.  The
    pair is allocated only when the body has the 4 rows cols - 1 bytes
    that rows x cols entries take at least: 3 bytes each, as in `0;0`,
    and a separator after each but the last.  A shorter body cannot hold
    the matrix and is read to its fault with nothing allocated.  A pipe,
    whose size is unknown up front, is sized by its header alone.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            line = fh.readline()
            header = line.split()
            if header[:2] != _HEADER.split():
                raise MatrixParseError("missing LINEPACK-MATRIX v1 header")
            try:
                fields = dict(tok.split("=", 1) for tok in header[2:])
                rows, cols = int(fields["rows"]), int(fields["cols"])
                scale = int(fields["scale_log2_num"]), int(fields["scale_log2_den"])
            except (KeyError, ValueError) as exc:
                raise MatrixParseError(f"malformed header: {exc}") from exc
            if rows < 1 or cols < 1:
                raise MatrixParseError(f"need positive rows and cols, got {rows}x{cols}")
            if scale[1] not in (1, 2):
                raise MatrixParseError(f"scale_log2_den must be 1 or 2, got {scale[1]}")
            # the body size, or one byte over it when the header ends in \r\n
            st = os.fstat(fh.fileno())
            fits = not stat.S_ISREG(st.st_mode) or st.st_size - len(line) >= 4 * rows * cols - 1
            lines = (ln.rstrip("\n") for ln in fh if ln != "\n")
            return _read_rows(lines, rows, cols, scale, fits)
        except UnicodeDecodeError as exc:
            raise MatrixParseError(f"not an ASCII matrix file: {exc}") from exc


def _read_rows(lines: Iterator[str], rows: int, cols: int, scale: tuple[int, int],
               fits: bool):
    """The matrix whose rows are the non-empty `lines`, read `_chunk_rows(cols)`
    at a time into the result, into nothing unless the body `fits` the matrix.

    Each line must be exactly `cols` entries of the one grammar that the
    first entry names; a chunk ends before a line that is not.  Lines are
    cut as `_MatrixWriter` cuts them, into segments of the one width
    `_segment_width` gives, at separators one `flatnonzero` over the
    chunk's bytes finds, and each segment is keyed by its text.  Only
    segments not yet held are matched and converted, in groups of those
    each row uses first, so the earliest faulty row is reported, into a
    table the chunk is gathered from by segment id; it is dropped past
    _CHUNK_ENTRIES * 64 bytes, as the writer's is.  Gram values are held
    over the running common denominator (`_over_running_denominator`), the
    range of the values read bounding each rescale against int64.  The
    table and the result are int8, widened once to int64 before the first
    value beyond int8 is written.  The row count is reported first.
    """
    found, fault, step, ends = 0, None, _chunk_rows(cols), None
    width = _segment_width(cols)
    per_row = cols // width
    try:
        for r in range(0, rows, step):
            chunk = list(itertools.islice(lines, min(step, rows - r)))
            if not chunk:
                break
            found += len(chunk)
            if r == 0:
                rational = "/" in chunk[0].split(" ", 1)[0]
                if rational and scale[0]:
                    raise MatrixParseError(f"a Gram file's scale_log2_num is 0, not {scale[0]}")
                log2_scale_sq = None if rational else _frame_log2_scale_sq(*scale)
                try:
                    out = np.empty((2, rows, cols), dtype=np.int8) if fits else None
                except (MemoryError, ValueError) as exc:  # a pipe's header alone sized it
                    raise MatrixParseError(f"no memory for {rows}x{cols} entries: {exc}") from exc
                den, lo, hi = 1, 0, 0  # lo and hi: the least and greatest value read, over den
                ids, held = {}, 0
            text = " ".join([*chunk, ""])  # every entry ends in a space
            line_ends = np.cumsum([len(ln) + 1 for ln in chunk]) - 1
            del chunk  # before the chunk's bytes are scanned
            cuts = np.flatnonzero(np.frombuffer(text.encode("ascii"), np.uint8) == ord(" "))
            sizes = np.diff(np.searchsorted(cuts, line_ends, "right"), prepend=0).tolist()
            good = next((i for i, size in enumerate(sizes) if size != cols), len(sizes))
            if good:
                if ends is None:  # only now: a header alone may state any cols
                    # the index in its row of the entry that ends each segment
                    ends = np.arange(width - 1, cols, width)
                    table = np.zeros((2, 0, width), np.int8)
                cuts = cuts[(np.arange(good)[:, None] * cols + ends).ravel()].tolist()
                keys = [text[a + 1:b] for a, b in zip([-1, *cuts], cuts)]
                got, was = list(map(ids.get, keys)), den
                if None in got:
                    new = {}  # each key not held, at its first position
                    for pos, (key, i) in enumerate(zip(keys, got)):
                        if i is None:
                            new.setdefault(key, pos)
                    texts, at = list(new), np.fromiter(new.values(), np.int64, len(new))
                    rows_of = at // per_row
                    bounds = np.flatnonzero(np.diff(rows_of)) + 1  # where a new row starts
                    for a, b in itertools.pairwise([0, *bounds.tolist(), len(texts)]):
                        values, grow = _token_ints(texts[a:b], r + int(rows_of[a]), rational), 1
                        if rational:
                            values, grow = _over_running_denominator(values, den, max(-lo, hi))
                        den, lo = den * grow, min(lo * grow, int(values.min()))
                        hi = max(hi * grow, int(values.max()))
                        if table.dtype == np.int8 and not -128 <= lo <= hi <= 127:
                            table = table.astype(np.int64)  # before a held value leaves int8
                        if grow > 1:
                            table[:, :len(ids)] *= np.int64(grow)
                        if len(ids) + b - a > table.shape[1]:  # at least doubled
                            table = np.concatenate((table, np.zeros(
                                (2, table.shape[1] + b - a, width), table.dtype)), axis=1)
                        table[:, len(ids):len(ids) + b - a] = values.T.reshape(2, b - a, width)
                        ids.update(zip(texts[a:b], range(len(ids), len(ids) + b - a)))
                        held += sum(map(len, texts[a:b])) + 16 * width * (b - a)
                    got = list(map(ids.__getitem__, keys))
                seg = np.array(got).reshape(good, per_row)
                if out is not None:
                    if out.dtype != table.dtype:
                        out = out.astype(np.int64)  # once: the rows filled so far, unscaled
                    if den > was:
                        # an int64 factor: int8 rows in range may meet one beyond int8, as -1 * 128
                        out[:, :r] *= np.int64(den // was)
                    for part, dest in zip(table, out[:, r:r + good]):
                        np.take(part, seg, axis=0, mode="clip",
                                out=dest.reshape(good, per_row, width))
                if held > _CHUNK_ENTRIES * 64:
                    ids, held = {}, 0
            if good < len(sizes):
                raise MatrixParseError(f"row {r + good} has {sizes[good]} entries, expected {cols}")
    except MatrixParseError as exc:
        fault = exc
    found += sum(1 for _ in lines)  # the lines after a fault or beyond `rows`
    if found != rows:
        raise MatrixParseError(f"expected {rows} rows, found {found}")
    if fault is None and out is None:  # only if the file changed while it was read
        fault = MatrixParseError(f"the body is too short for {rows}x{cols} entries")
    if fault is not None:
        raise fault
    if rational:
        return GaussianRationalMatrix(out[0], out[1], den)
    return FrameMatrix(out[0], out[1], log2_scale_sq)


def _frame_log2_scale_sq(snum: int, sden: int) -> int:
    """A frame's squared scale exponent from its header's scale_log2_num and _den."""
    if snum > 0:
        # certification needs the inverse squared scale as an integer power of two
        raise MatrixParseError("frame scale_log2_num must not be positive")
    log2_scale_sq = snum * 2 // sden
    if -log2_scale_sq >= 62:
        # the certificate compares over this denominator, under exact.INT64_BOUND
        raise MatrixParseError(f"frame inverse squared scale 2**{-log2_scale_sq} "
                               "reaches the 2**62 bound of exact int64 arithmetic")
    return log2_scale_sq


def _token_ints(tokens: list[str], r: int, rational: bool) -> np.ndarray:
    """One int64 row per entry of the space-separated `tokens` of row r:
    its integers (a, b) or (p, q, r, s).  A value whose magnitude reaches
    2^63 is a parse error, so negation never wraps."""
    text = " ".join(tokens)
    if not _TOKENS[rational].fullmatch(text):
        raise MatrixParseError(f"bad entry in row {r}: entries are integers "
                               f"{_ENTRY[rational][0]} of at most 19 digits")
    try:
        ints = np.array(text.translate(_TO_SPACES).split(" "), dtype=np.int64)
    except OverflowError as exc:
        raise MatrixParseError(f"entry in row {r} is beyond int64") from exc
    if (ints == -_INT64_MAX - 1).any():
        raise MatrixParseError("entry magnitude 2**63 is beyond int64")
    return ints.reshape(-1, 4 if rational else 2)


def _over_running_denominator(fractions: np.ndarray, den: int,
                              held: int) -> tuple[np.ndarray, int]:
    """Rows p q r s of fractions p/q;r/s as integer (re, im) rows over the lcm
    of `den` and their reduced denominators, and the factor lcm // den.

    The values already read, over `den` and at most `held` in magnitude,
    are the caller's to multiply by that factor.  Every value is checked
    against int64 first.
    """
    p, q = fractions[:, 0::2], fractions[:, 1::2]
    if not q.all():
        raise MatrixParseError("zero denominator")
    g = np.gcd(p, q) * np.sign(q)  # the reduced denominator is positive
    p, q = p // g, q // g
    lcm = math.lcm(den, *set(q.ravel().tolist()))
    if lcm > _INT64_MAX:
        raise MatrixParseError(f"common denominator {lcm} exceeds int64")
    grow, factor = lcm // den, lcm // q
    if (np.abs(p) > _INT64_MAX // factor).any() or (
            grow > 1 and held > _INT64_MAX // grow):
        raise MatrixParseError(f"entries over the common denominator {lcm} exceed int64")
    return p * factor, grow
