"""Frame synthesis, exact Gram matrices, and Welch-bound certification.

The frame attached to the hyperdifference set of a Suzuki 2-group of
order N = 2^(2n) stacks, for each nonzero field element gamma in
ascending order, the degree-2^k monomial representation twisted by
gamma: column g is the row-major flattening of those matrices, and the
whole matrix carries the single irrational scale 2^((k-2n)/2).  That
scale is never evaluated; the integer part is stored and every certified
quantity is squared, hence rational.

The Gram matrix of the frame is computed three independent ways:

* frame route: the Hermitian product frame^H frame, exact, run by
  `exact.exact_gram` as one symmetric product of the stacked [re; im]
  and one cross product re^T im, on float BLAS only where its checked
  bound proves the result an exact integer, and summed in int16 while
  a running bound proves every sum fits, else in int64;
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
gathered at inv(g) h on a selection of columns: every column for full
verification, a random block for the sampled mode.  The frame route
never reads that index.  All three agree entrywise; verification is exact.

A frame certificate walks its Gram once, on and above the diagonal: the
tiles of frame^H frame (`exact.gram_tiles`), or the chunks of
`GaussianRationalMatrix.upper_blocks` when the Gram is held.  The Welch
pattern (`_welch_pattern`) and the route comparison (`_routes_compared`)
read each block as it passes, the latter with its mirror.  The pattern
alone proves a frame tight (`verify_frame`), so the Parseval product
runs only to name a failure.  A Gram alone bounds no rank, so
`verify_gram` walks the Gram it holds three times: the Hermitian test,
the projection check (the tiles of G^H G against G's), and the Welch
walk of `upper_blocks`.  Only `build` and `gram` hold an N x N Gram:
`verify --n 7 --mode full` certifies all 2^28 entries three ways in
101 s at 295 MB peak RSS with `--threads 2` on a 2 vCPU Xeon.
Matrix files are written and read a chunk of rows at a time, through
the ids of the chunk's distinct tokens (`_distinct`): `_write_rows`
writes a chunk as one gather of encoded tokens, and `read_matrix_file`
converts each distinct token of a chunk once and fills the chunk's rows
of an (re, im) pair in one gather, int8 while every value fits, as in
the Suzuki frames and Grams, else int64.  The frame Gram
(`_gram_from_blocks`) is held alike.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import re
import stat
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bgroup import GroupContext
from .chartab import CharacterTable
from .exact import INT64_BOUND, check_bound, exact_gram, gram_tiles, max_abs
from .gf2n import FieldContext
from .heis import RepContext
from .scheme import GaussianRationalMatrix, first_mismatch

__all__ = [
    "EtfCertificate",
    "FrameMatrix",
    "closed_form_entry",
    "frame_blocks",
    "frame_dimensions",
    "gram_character",
    "gram_closed_form",
    "gram_from_frame",
    "read_matrix_file",
    "synthesize_frame",
    "three_way_sampled",
    "verify_etf",
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


def frame_blocks(group: GroupContext, rep: RepContext,
                 cols: np.ndarray) -> Iterator[FrameMatrix]:
    """The frame's rows on the given columns, one 4^k-row int8 block per
    gamma, ascending.

    Block gamma of column (x, y) is pi(gamma^-1 x, 0), flattened, times
    (-1)^tr(gamma^-3 y): the twisted representation at that element.
    """
    f = group.field
    xs, ys = cols >> f.n, cols & (f.order - 1)
    stack_re, stack_im = (_int8(stack) for stack in rep.dense_x0)
    for gamma in f.nonzero_elements():
        ginv = f.inv(gamma)
        ginv3 = f.inv(f.cube(gamma))
        signs = 1 - 2 * f.trace_table[f.mul_table[ginv3, ys]].astype(np.int8)
        images = f.mul_table[ginv, xs]
        yield FrameMatrix(stack_re[images].T * signs, stack_im[images].T * signs,
                          f.k - 2 * f.n)


def _int8(stack: np.ndarray) -> np.ndarray:
    """The representation stack as int8; OverflowError if an entry would wrap."""
    narrow = stack.astype(np.int8)
    if not np.array_equal(narrow, stack):
        raise OverflowError("representation entries do not fit int8; refusing to wrap")
    return narrow


# kept apart from synthesize_frame: perfbench/traced.py wraps it by name
def _synthesize_columns(group: GroupContext, rep: RepContext,
                        cols: np.ndarray) -> FrameMatrix:
    m, _ = frame_dimensions(group.field.n)
    re = np.empty((m, len(cols)), dtype=np.int8)
    im = np.empty_like(re)
    for i, block in enumerate(frame_blocks(group, rep, cols)):
        rows = slice(i * block.rows, (i + 1) * block.rows)
        re[rows], im[rows] = block.re, block.im
    return FrameMatrix(re, im, block.log2_scale_sq)


def synthesize_frame(group: GroupContext, rep: RepContext) -> FrameMatrix:
    """The m x N int8 frame, columns in canonical element order."""
    cols = np.arange(group.order, dtype=np.int64)
    return _synthesize_columns(group, rep, cols)


def parseval_defect(frame: FrameMatrix) -> tuple[int, int] | None:
    """None when frame frame^H equals 2^(-log2_scale_sq) I exactly, else its
    first bad entry, row-major: each tile of conj(frame frame^H), the
    transposed frame's Hermitian product, is compared with the identity's."""
    scale = 1 << -frame.log2_scale_sq

    def pair(rows, cols, t_re, t_im):
        eye = np.eye(*t_re.shape, rows.start - cols.start, dtype=np.int64)
        return GaussianRationalMatrix(t_re, t_im, scale), GaussianRationalMatrix(eye)

    return _first_tile_mismatch(gram_tiles(frame.re.T, frame.im.T), pair)


def _first_tile_mismatch(tiles, pair) -> tuple[int, int] | None:
    """The first entry, row-major, where a Hermitian product differs from a
    Hermitian matrix, or None.

    `tiles` are the product's tiles (rows, cols, t_re, t_im) on and above
    the diagonal in row-band order (`exact.gram_tiles`), and
    pair(rows, cols, t_re, t_im) gives the two matrices compared on a
    tile.  The difference is Hermitian, so its first nonzero (i, j) has
    j >= i, else (j, i) would come first; it lies in an upper tile of the
    row band of i, and is the least mismatch over that band's tiles.
    """
    band, found = None, []
    for rows, cols, t_re, t_im in tiles:
        if rows != band and found:
            break
        band = rows
        defect = first_mismatch(*pair(rows, cols, t_re, t_im))
        del t_re, t_im  # dropped before the next tile is made
        if defect is not None:
            found.append((rows.start + defect[0], cols.start + defect[1]))
    return min(found, default=None)


def gram_from_frame(frame: FrameMatrix) -> GaussianRationalMatrix:
    """frame^H frame as an exact Gaussian rational matrix, reduced by its
    gcd, with int8 parts when every entry fits and int64 parts otherwise."""
    return _gram_from_blocks([frame])


# rows of one group in `_gram_from_blocks`: a multiple of the 4^k-row gamma
# block for n = 3 ... 9; beyond that a group is one gamma block
_GROUP_ROWS = 512


def _gram_from_blocks(blocks: Iterable[FrameMatrix]) -> GaussianRationalMatrix:
    """frame^H frame of the frame whose consecutive row blocks are `blocks`.

    Blocks are joined into groups of at most _GROUP_ROWS rows; a larger
    block, such as a whole frame, is a group of its own and is not copied.
    `exact_gram` adds each group's G^H G to the accumulators, so beyond
    one group only O(cols^2) memory is alive.  It proves each group's
    product exact, not the sums across groups; the running bound
    2 sum max|G|^2 rows does.  It bounds every accumulated entry, so the
    accumulators are int16 while it is below 2^15 and are widened once to
    int64 before a group's add would take it there; `check_bound` refuses
    before an int64 sum wraps.  The accumulators are reduced by their gcd
    in place, read from `np.gcd.reduce` without a widened copy, and the
    result is int8 when every reduced entry fits, as `read_matrix_file`
    holds a Gram file, and int64 otherwise.
    """
    blocks = iter(blocks)
    pending = next(blocks)
    scale, cols = 1 << -pending.log2_scale_sq, pending.cols
    acc, bound = None, 0  # acc[0] and acc[1] sum the real and imaginary parts
    while pending is not None:
        group, pending = [pending], None
        for block in blocks:
            if sum(b.rows for b in group) + block.rows > _GROUP_ROWS:
                pending = block
                break
            group.append(block)
        g_re = np.concatenate([b.re for b in group]) if len(group) > 1 else group[0].re
        g_im = np.concatenate([b.im for b in group]) if len(group) > 1 else group[0].im
        bound += 2 * max_abs(g_re, g_im) ** 2 * len(g_re)
        check_bound(bound, "frame Gram")
        dtype = np.int16 if bound < 1 << 15 else np.int64
        acc = np.zeros((2, cols, cols), dtype) if acc is None else acc.astype(dtype, copy=False)
        exact_gram(g_re, g_im, (acc[0], acc[1]))
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


def verify_frame(frame: FrameMatrix, gram: GaussianRationalMatrix | None = None,
                 routes: tuple[GroupContext, CharacterTable, dict] | None = None) -> EtfCertificate:
    """Certify a frame by the Welch pattern of G = frame^H frame, read one
    tile at a time (`exact.gram_tiles`), or from `gram` when the caller
    holds it; `routes` = (group, table, found) compares G with the table
    routes on the same walk (`_routes_compared`).

    The pattern proves the frame tight: rank G <= m, the row count, and a
    diagonal m/N with every off-diagonal |G_ij|^2 at the Parseval Welch
    value m(N - m)/(N^2 (N - 1)) gives tr G = ||G||_F^2 = m, so by
    Cauchy-Schwarz on the eigenvalues every nonzero one is 1 and
    frame frame^H = I (Benedetto and Fickus, 2003).  `parseval_defect`
    runs only when the pattern fails; its failure, or else the walk's
    overflow, is reported first.
    """
    if gram is None:
        blocks, den = gram_tiles(frame.re, frame.im), 1 << -frame.log2_scale_sq
    else:
        blocks, den = gram.upper_blocks(), gram.den
    if routes is not None:
        blocks = _routes_compared(blocks, den, np.arange(frame.cols), *routes)
    overflow = None
    try:
        cert = _certify_gram(blocks, den, frame.rows, frame.cols, None, "frame",
                             {"parsevalDefect": None})
        if cert.failure is None:
            return cert
    except OverflowError as exc:
        overflow = exc
    if (defect := parseval_defect(frame)) is not None:
        return _certify_gram((), den, frame.rows, frame.cols, "parseval identity fails",
                             "frame", {"parsevalDefect": list(defect)})
    if overflow is not None:
        raise overflow
    return cert


def verify_gram(gram: GaussianRationalMatrix, method: str = "gram") -> EtfCertificate:
    """Exact certification of an N x N Gram matrix claimed to be a projection;
    projectionDefect is the first entry that fails the named check."""
    if gram.shape[0] != gram.shape[1]:
        raise ValueError("gram matrix must be square")
    tr_re, tr_im = gram.trace()
    integral = tr_im == 0 and tr_re.denominator == 1

    def square_and_gram(rows, cols, t_re, t_im):
        # gram^H gram, which is gram @ gram once gram is known to be Hermitian
        return (GaussianRationalMatrix(t_re, t_im, gram.den * gram.den),
                GaussianRationalMatrix(gram.re[rows, cols], gram.im[rows, cols], gram.den))

    failure = None
    if (defect := gram.hermitian_defect()) is not None:
        failure = "Gram matrix is not Hermitian"
    elif (defect := _first_tile_mismatch(gram_tiles(gram.re, gram.im),
                                         square_and_gram)) is not None:
        failure = "Gram matrix is not a projection"
    elif not integral:
        failure = "Gram trace is not an integer"
    cross = {"projectionDefect": None if defect is None else list(defect)}
    return _certify_gram(gram.upper_blocks(), gram.den, int(tr_re) if integral else 0,
                         gram.shape[0], failure, method, cross)


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


def three_way_sampled(group: GroupContext, table: CharacterTable,
                      rep: RepContext, min_entries: int = 100_000,
                      seed: int = 1) -> dict:
    """Sampled comparison: a random block of columns, all pairs among them.

    The frame route streams the sampled columns' gamma blocks (honest
    monomial matrices) through `_gram_from_blocks`, in O(ncols^2) memory,
    and never holds the m x ncols frame; one walk of its `upper_blocks`
    compares the routes (`_routes_compared`) and checks the Welch pattern,
    which covers every modulus of a Hermitian Gram.  min_entries >= N^2
    samples every column; min_entries below 1 is a ValueError.
    """
    if min_entries < 1:
        raise ValueError(f"need min_entries >= 1, got {min_entries}")
    rng = random.Random(seed)
    ncols = min(group.order, math.isqrt(min_entries - 1) + 1)  # the ceiling square root
    sel = np.array(sorted(rng.sample(range(group.order), ncols)), dtype=np.int64)
    gram = _gram_from_blocks(frame_blocks(group, rep, sel))
    m, num = frame_dimensions(group.field.n)
    mismatches: dict = {}
    pattern_fail = _welch_pattern(
        _routes_compared(gram.upper_blocks(), gram.den, sel, group, table, mismatches),
        gram.den, m, num)[0]
    return {
        "entries": int(ncols) ** 2,
        "columns": int(ncols),
        "seed": seed,
        "agree": all(v is None for v in mismatches.values()),
        "pattern_ok": pattern_fail is None,
        "mismatches": mismatches,
    }


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


def _write_rows(fh, real: np.ndarray, imag: np.ndarray, tokens) -> None:
    """One line per row of space-separated entries, entry (i, j) being the
    bytes tokens(re_vals, im_vals) gives for the pair (real, imag) at (i, j).

    Each chunk of rows encodes its distinct pairs once, as int64, and is
    one gather from the fixed-width table of each token and a space, then
    each token and a newline, which the last column reads; NUL pads drop.
    """
    step = _chunk_rows(real.shape[1])
    for start in range(0, len(real), step):
        re_vals, re_ids = _distinct(real[start:start + step])
        im_vals, im_ids = _distinct(imag[start:start + step])
        codes, ids = _distinct(re_ids * len(im_vals) + im_ids)
        words = tokens(re_vals[codes // len(im_vals)], im_vals[codes % len(im_vals)])
        table = np.array([w + b" " for w in words] + [w + b"\n" for w in words])
        ids[:, -1] += len(words)
        fh.write(table[ids].tobytes().replace(b"\0", b""))


def write_frame_file(path, rows: int, blocks: Iterable[FrameMatrix]) -> None:
    """Scaled Gaussian-integer matrix: entries `re;im`, scale 2^(num/den).

    `blocks` are the consecutive row blocks of one matrix with `rows` rows
    in all; each is written as it arrives, so a frame too large to hold in
    memory can be streamed from `frame_blocks`.
    """
    with open(path, "wb") as fh:
        for i, block in enumerate(blocks):
            if i == 0:
                fh.write(f"{_HEADER} rows={rows} cols={block.cols} scale_log2_num="
                         f"{block.log2_scale_sq} scale_log2_den=2\n".encode())
            _write_rows(fh, block.re, block.im, lambda re_vals, im_vals: [
                b"%d;%d" % pair for pair in zip(re_vals.tolist(), im_vals.tolist())])


def write_gram_file(path, gram: GaussianRationalMatrix) -> None:
    """Exact rational matrix: entries `p/q;r/s`, each fraction reduced."""
    g = gram.canonical()
    den = g.den
    if den > _INT64_MAX:
        # refused before the file is opened, since the reader would reject the file
        raise OverflowError(f"Gram denominator {den} is beyond int64")
    rows, cols = g.shape

    def reduced(re_vals: np.ndarray, im_vals: np.ndarray) -> list[bytes]:
        gr, gi = np.gcd(re_vals, den), np.gcd(im_vals, den)
        parts = (re_vals // gr, den // gr, im_vals // gi, den // gi)
        return [b"%d/%d;%d/%d" % entry for entry in zip(*(p.tolist() for p in parts))]

    with open(path, "wb") as fh:
        fh.write(f"{_HEADER} rows={rows} cols={cols} scale_log2_num=0 scale_log2_den=1\n".encode())
        _write_rows(fh, g.re, g.im, reduced)


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
    first entry names; a chunk ends before a line that is not.  Only its
    distinct tokens (`_distinct_tokens`) are matched and converted, in
    groups of the tokens each row uses first, so the earliest faulty row
    is reported, into a table of (re, im) rows that the chunk is gathered
    from.  Gram values are held over the running common denominator
    (`_over_running_denominator`).  The range of the values read bounds
    each rescale against int64.  The result is allocated as int8 and
    widened once to int64, before the first value beyond int8 is written.
    The row count is reported before any other fault.
    """
    found, fault, step = 0, None, _chunk_rows(cols)
    try:
        for r in range(0, rows, step):
            chunk = list(itertools.islice(lines, min(step, rows - r)))
            if not chunk:
                break
            found += len(chunk)
            if r == 0:
                rational = "/" in chunk[0].split(" ", 1)[0]
                log2_scale_sq = None if rational else _frame_log2_scale_sq(*scale)
                try:
                    out = np.empty((2, rows, cols), dtype=np.int8) if fits else None
                except (MemoryError, ValueError) as exc:  # a pipe's header alone sized it
                    raise MatrixParseError(f"no memory for {rows}x{cols} entries: {exc}") from exc
                den, lo, hi = 1, 0, 0  # lo and hi: the least and greatest value read, over den
            sizes = [ln.count(" ") + 1 for ln in chunk]  # entries per line
            good = next((i for i, size in enumerate(sizes) if size != cols), len(chunk))
            if good:
                tokens, ids, first = _distinct_tokens(chunk[:good])
                table, was = np.zeros((2, len(tokens)), np.int64), den
                bounds = np.flatnonzero(np.diff(first // cols)) + 1  # where a new row starts
                for a, b in itertools.pairwise([0, *bounds.tolist(), len(tokens)]):
                    values = _token_ints(tokens[a:b], r + int(first[a]) // cols, rational)
                    if rational:
                        values, grow = _over_running_denominator(values, den, max(-lo, hi))
                        den, lo, hi, table = den * grow, lo * grow, hi * grow, table * grow
                    lo, hi = min(lo, int(values.min())), max(hi, int(values.max()))
                    table[:, a:b] = values.T
                if out is not None:
                    if out.dtype == np.int8 and not -128 <= lo <= hi <= 127:
                        out = out.astype(np.int64)  # once: the rows filled so far, unscaled
                    if den > was:
                        # an int64 factor: int8 rows in range may meet one beyond int8, as -1 * 128
                        out[:, :r] *= np.int64(den // was)
                    out[:, r:r + good] = np.take(table.astype(out.dtype), ids.reshape(good, -1), 1)
            if good < len(chunk):
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


# words of a token's key: more than the 83 bytes of the grammar's longest entry and
# its space, so two tokens with one key are equal or both fail the grammar
_KEY_WORDS = 11
_LOW_BYTES = np.array([(1 << 8 * i) - 1 for i in range(8)] + [-1], dtype=np.int64)  # 0 ... 8 bytes


def _distinct_tokens(lines: list[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The distinct space-separated tokens of `lines` in order of first use,
    the index of each entry among them, row-major, and each one's first
    entry.  A token's key is the 8-byte words from its start, masked to it
    and the space that ends it, and `_distinct` numbers it a word at a time."""
    data = " ".join(["", *lines, "\0" * 8 * _KEY_WORDS]).encode("ascii")
    cuts = np.flatnonzero(np.frombuffer(data, np.uint8) == ord(" ")).astype(np.int32)
    starts, spans = cuts[:-1] + 1, np.diff(cuts)  # each token's first byte, and its length + 1
    del cuts  # before the keys are made
    words = np.ndarray((len(data) - 7,), "<i8", data, 0, (1,))  # one at each byte
    ids = None
    for at in range(0, min(int(spans.max()), 8 * _KEY_WORDS), 8):
        values, piece = _distinct(words[starts + at] & _LOW_BYTES[np.clip(spans - at, 0, 8)])
        if ids is not None:  # the pair (ids, piece) as one code, numbered again
            values, piece = _distinct(ids * len(values) + piece)
        ids = piece
        if len(values) == ids.size:  # every entry is a token of its own: no word splits more
            break
    first = np.full(len(values), ids.size, dtype=np.int32)  # each token's first entry
    np.minimum.at(first, ids, np.arange(ids.size, dtype=np.int32))
    by_use = np.argsort(first)
    ids, first = np.argsort(by_use)[ids], first[by_use]  # tokens numbered by first use
    text = data.decode("ascii")  # a str is sliced faster than bytes are sliced and decoded
    return [text[s:s + n - 1]
            for s, n in zip(starts[first].tolist(), spans[first].tolist())], ids, first


def _frame_log2_scale_sq(snum: int, sden: int) -> int:
    """A frame's squared scale exponent from its header's scale_log2_num and _den."""
    if sden not in (1, 2):
        raise MatrixParseError("unsupported scale denominator")
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
    """One int64 row per distinct token of row r: its integers (a, b) or
    (p, q, r, s).  A value whose magnitude reaches 2^63 is a parse error,
    so negation never wraps."""
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
    return ints.reshape(len(tokens), -1)


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
