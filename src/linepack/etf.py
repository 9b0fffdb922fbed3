"""Frame synthesis, exact Gram matrices, and Welch-bound certification.

The frame attached to the hyperdifference set of a Suzuki 2-group of
order N = 2^(2n) stacks, for each nonzero field element gamma in
ascending order, the degree-2^k monomial representation twisted by
gamma: column g is the row-major flattening of those matrices, and the
whole matrix carries the single irrational scale 2^((k-2n)/2).  That
scale is never evaluated; the integer part is stored and every certified
quantity is squared, hence rational.

The Gram matrix of the frame is computed three independent ways:

* frame route: conjugate-transpose product of the synthesized matrix,
  exact in int64, with each product run on float BLAS only where the
  checked bound of `exact.exact_matmul` proves the result an exact
  integer;
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
and each Gram block is its row gathered at inv(g) h on one selection of
columns; full verification selects every column.  The frame route never
reads that index.  All three agree entrywise; verification is exact.
Full verification holds the whole frame and Gram; the sampled mode
compares a random block of columns, and its frame route streams the
gamma blocks of those columns in O(ncols^2) memory.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bgroup import GroupContext
from .chartab import CharacterTable
from .exact import check_bound, exact_matmul, max_abs
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
    """Gaussian-integer frame entries with a global scale 2^(log2_scale_sq / 2)."""

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
    """The frame's rows on the given columns, one 4^k-row block per gamma, ascending.

    Block gamma of column (x, y) is pi(gamma^-1 x, 0), flattened, times
    (-1)^tr(gamma^-3 y): the twisted representation at that element.
    """
    f = group.field
    xs, ys = cols >> f.n, cols & (f.order - 1)
    stack_re, stack_im = rep.dense_x0
    for gamma in f.nonzero_elements():
        ginv = f.inv(gamma)
        ginv3 = f.inv(f.cube(gamma))
        signs = 1 - 2 * f.trace_table[f.mul_table[ginv3, ys]].astype(np.int64)
        images = f.mul_table[ginv, xs]
        yield FrameMatrix(stack_re[images].T * signs, stack_im[images].T * signs,
                          f.k - 2 * f.n)


# kept apart from synthesize_frame: perfbench/traced.py wraps it by name
def _synthesize_columns(group: GroupContext, rep: RepContext,
                        cols: np.ndarray) -> FrameMatrix:
    m, _ = frame_dimensions(group.field.n)
    re = np.empty((m, len(cols)), dtype=np.int64)
    im = np.empty_like(re)
    for i, block in enumerate(frame_blocks(group, rep, cols)):
        rows = slice(i * block.rows, (i + 1) * block.rows)
        re[rows], im[rows] = block.re, block.im
    return FrameMatrix(re, im, block.log2_scale_sq)


def synthesize_frame(group: GroupContext, rep: RepContext) -> FrameMatrix:
    """The m x N frame, columns in canonical element order."""
    cols = np.arange(group.order, dtype=np.int64)
    return _synthesize_columns(group, rep, cols)


def parseval_defect(frame: FrameMatrix) -> tuple[int, int] | None:
    """None when frame frame^H equals 2^(-log2_scale_sq) I exactly, else a bad index."""
    re = exact_matmul(frame.re, frame.re.T)
    re += exact_matmul(frame.im, frame.im.T)
    im = exact_matmul(frame.im, frame.re.T)
    im -= exact_matmul(frame.re, frame.im.T)
    return first_mismatch(GaussianRationalMatrix(re, im, 1 << -frame.log2_scale_sq),
                          GaussianRationalMatrix.identity(frame.rows))


def gram_from_frame(frame: FrameMatrix) -> GaussianRationalMatrix:
    """frame^H frame as an exact Gaussian rational matrix."""
    return _gram_from_blocks([frame])


# rows of one group in `_gram_from_blocks`: a multiple of the 4^k-row gamma
# block for n = 3 ... 9; beyond that a group is one gamma block
_GROUP_ROWS = 512


def _gram_from_blocks(blocks: Iterable[FrameMatrix]) -> GaussianRationalMatrix:
    """frame^H frame of the frame whose consecutive row blocks are `blocks`.

    Blocks are joined into groups of at most _GROUP_ROWS rows; a larger
    block, such as a whole frame, is a group of its own and is not copied.
    Each group G adds its four exact products to the accumulators,
    re += G_re^T G_re + G_im^T G_im and im += G_re^T G_im - G_im^T G_re,
    so beyond one group only O(cols^2) memory is alive.  `exact_matmul`
    proves each product exact, not the int64 sums across groups; the
    running bound 2 sum max|G|^2 rows does, and `check_bound` refuses
    before a sum wraps.
    """
    blocks = iter(blocks)
    pending = next(blocks)
    scale = 1 << -pending.log2_scale_sq
    re = np.zeros((pending.cols, pending.cols), dtype=np.int64)
    im = np.zeros_like(re)
    bound = 0
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
        re += exact_matmul(g_re.T, g_re)
        re += exact_matmul(g_im.T, g_im)
        im += exact_matmul(g_re.T, g_im)
        im -= exact_matmul(g_im.T, g_re)
    return GaussianRationalMatrix(re, im, scale).canonical()


def _gathered(row: GaussianRationalMatrix, at: np.ndarray) -> GaussianRationalMatrix:
    """Entry (g, h) is row(inv(g) h), read at the index grid `at` of a column
    selection (`GroupContext.inverse_product_index_grid`)."""
    return GaussianRationalMatrix(row.re[at], row.im[at], row.den)


def gram_character(group: GroupContext, table: CharacterTable,
                   at: np.ndarray) -> GaussianRationalMatrix:
    """Gram entries (1/N) sum_{chi in D} d_chi chi(inv(g) h) via table lookup."""
    # |sum| <= (q - 1) 4^k < 2^(2n), far inside int64 for every supported n
    re, im = table.value_arrays
    d_set = list(table.d_set)
    deg = np.array(table.degrees)[d_set, None]
    cls = group.class_of_element
    row = GaussianRationalMatrix((deg * re[d_set]).sum(axis=0)[cls],
                                 (deg * im[d_set]).sum(axis=0)[cls], group.order)
    return _gathered(row.canonical(), at)


def gram_closed_form(group: GroupContext, at: np.ndarray) -> GaussianRationalMatrix:
    """Gram entries straight from the three-case field formula, vectorized."""
    f = group.field
    w, z = np.divmod(np.arange(group.order), f.order)
    t = f.trace_table[f.mul_table[f.inverse_cube_table[w], z]].astype(np.int64)
    re = np.where(w != 0, 0, np.where(z == 0, f.order - 1, -1))
    im = np.where(w != 0, 1 - 2 * t, 0)
    return _gathered(GaussianRationalMatrix(re, im, f.order * 2), at)


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


def _welch_pattern(gram: GaussianRationalMatrix, m: int,
                   num_vectors: int) -> tuple[str | None, Fraction | None]:
    """Check a Parseval Gram matrix, or a principal submatrix of one, for
    the ETF pattern: constant diagonal m/N and constant off-diagonal
    modulus at the Welch value.

    Returns the first failure (None if the pattern holds) and the squared
    off-diagonal modulus (None unless it is constant and there is one).
    """
    if gram.im.diagonal().any() or (gram.re.diagonal() != gram.re[0, 0]).any():
        return "diagonal is not constant", None
    if gram.entry(0, 0)[0] != Fraction(m, num_vectors):
        return "diagonal disagrees with m/N", None
    if m >= num_vectors:
        return "degenerate: m = N leaves no off-diagonal angle", None
    if m < 1:
        return "degenerate: m < 1 spans no line", None
    sq, den = gram.abs_sq_int()
    off = sq[~np.eye(gram.shape[0], dtype=bool)]
    if off.size and off.min() != off.max():
        return "off-diagonal modulus is not constant", None
    if off.size == 0:
        return None, None
    _, welch_par = welch_bound_sq(m, num_vectors)
    off_sq = Fraction(int(off[0]), den)
    if off_sq != welch_par:
        return "off-diagonal modulus misses the Welch value", off_sq
    return None, off_sq


def _certify_gram(gram: GaussianRationalMatrix, m: int, precondition: str | None,
                  method: str, cross_checks: dict) -> EtfCertificate:
    """precondition is the failed Parseval or projection check, None if they pass."""
    n = gram.shape[0]
    fail, off_sq = _welch_pattern(gram, m, n) if precondition is None else (precondition, None)
    welch_unit, welch_par = (None, None) if off_sq is None else welch_bound_sq(m, n)
    return EtfCertificate(
        m=m, num_vectors=n, parseval=precondition is None,
        verdict="OPTIMAL" if fail is None else "NOT_ETF",
        method=method,
        diagonal_value=gram.entry(0, 0)[0] if precondition is None else None,
        off_diag_modulus_sq=off_sq,
        welch_sq_parseval=welch_par,
        welch_sq_unit=welch_unit,
        failure=fail,
        cross_checks=cross_checks,
    )


def verify_frame(frame: FrameMatrix,
                 gram: GaussianRationalMatrix | None = None) -> EtfCertificate:
    """Exact certification of a synthesized frame.

    A precomputed frame^H frame may be passed to avoid repeating the
    large product when the caller also exports it.
    """
    defect = parseval_defect(frame)
    cross = {"parsevalDefect": None if defect is None else list(defect)}
    if gram is None:
        gram = gram_from_frame(frame)
    return _certify_gram(gram, frame.rows, None if defect is None else "parseval identity fails",
                         "frame", cross)


def verify_gram(gram: GaussianRationalMatrix, method: str = "gram") -> EtfCertificate:
    """Exact certification of an N x N Gram matrix claimed to be a projection;
    projectionDefect is the first entry that fails the named check."""
    if gram.shape[0] != gram.shape[1]:
        raise ValueError("gram matrix must be square")
    tr_re, tr_im = gram.trace()
    integral = tr_im == 0 and tr_re.denominator == 1
    failure = None
    defect = first_mismatch(gram, GaussianRationalMatrix(gram.re.T, -gram.im.T, gram.den))
    if defect is not None:
        failure = "Gram matrix is not Hermitian"
    elif (defect := first_mismatch(gram @ gram, gram)) is not None:
        failure = "Gram matrix is not a projection"
    elif not integral:
        failure = "Gram trace is not an integer"
    cross = {"projectionDefect": None if defect is None else list(defect)}
    return _certify_gram(gram, int(tr_re) if integral else 0, failure, method, cross)


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


def _isqrt_ceil(x: int) -> int:
    r = math.isqrt(x)
    return r if r * r >= x else r + 1


def three_way_sampled(group: GroupContext, table: CharacterTable,
                      rep: RepContext, min_entries: int = 100_000,
                      seed: int = 1) -> dict:
    """Sampled comparison: a random block of columns, all pairs among them.

    The frame route streams the sampled columns' gamma blocks (honest
    monomial matrices) through `_gram_from_blocks`, in O(ncols^2) memory,
    and never holds the m x ncols frame; the character and closed-form
    routes are evaluated on the same index grid.  Also checks the
    diagonal / off-diagonal modulus pattern on every sampled entry.  With
    min_entries >= N^2 every column is sampled, whatever the seed, and the
    comparison covers the full Gram.
    """
    rng = random.Random(seed)
    ncols = min(group.order, _isqrt_ceil(min_entries))
    sel = np.array(sorted(rng.sample(range(group.order), ncols)), dtype=np.int64)
    routes = {"frame": _gram_from_blocks(frame_blocks(group, rep, sel))}
    # one index grid for both table routes, built after the frame route's peak
    at = group.inverse_product_index_grid(sel)
    routes |= {"character": gram_character(group, table, at),
               "closedForm": gram_closed_form(group, at)}
    mismatches = _route_mismatches(routes)

    m, num = frame_dimensions(group.field.n)
    pattern_fail, _ = _welch_pattern(routes["closedForm"], m, num)
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
_CHUNK_ENTRIES = 1 << 16  # per chunk of rows: caps the writer's temporaries and the reader's index
_INT64_MAX = np.iinfo(np.int64).max


def _chunk_rows(cols: int) -> int:
    """Rows per chunk: 64 at the 1024 columns of n = 5, never fewer than one."""
    return max(1, _CHUNK_ENTRIES // cols)


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of `a`, and the index of each entry among them."""
    ordered = np.sort(a, axis=None)
    values = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return values, np.searchsorted(values, a)


def _write_rows(fh, entry: str, real: np.ndarray, imag: np.ndarray,
                columns=lambda re_part, im_part: (re_part, im_part)) -> None:
    """One line per row of space-separated entries, entry (i, j) being `entry`
    formatted with the int64 columns(real, imag) at (i, j).

    Each chunk of rows finds its distinct (real, imag) pairs, formats each
    of them once, and builds every line from that table of tokens.
    """
    step = _chunk_rows(real.shape[1])
    for start in range(0, len(real), step):
        rows = slice(start, start + step)
        re_vals, re_ids = _distinct(real[rows])
        im_vals, im_ids = _distinct(imag[rows])
        codes, ids = _distinct(re_ids * len(im_vals) + im_ids)
        parts = columns(re_vals[codes // len(im_vals)], im_vals[codes % len(im_vals)])
        text = " ".join([entry] * len(codes)) % tuple(np.stack(parts, axis=1).ravel().tolist())
        tokens = np.array(text.split(" "), dtype=object)
        fh.write("".join([" ".join(tokens[row]) + "\n" for row in ids]))


def write_frame_file(path, rows: int, blocks: Iterable[FrameMatrix]) -> None:
    """Scaled Gaussian-integer matrix: entries `re;im`, scale 2^(num/den).

    `blocks` are the consecutive row blocks of one matrix with `rows` rows
    in all; each is written as it arrives, so a frame too large to hold in
    memory can be streamed from `frame_blocks`.
    """
    with open(path, "w", encoding="ascii") as fh:
        for i, block in enumerate(blocks):
            if i == 0:
                fh.write(f"{_HEADER} rows={rows} cols={block.cols} "
                         f"scale_log2_num={block.log2_scale_sq} scale_log2_den=2\n")
            _write_rows(fh, "%d;%d", block.re, block.im)


def write_gram_file(path, gram: GaussianRationalMatrix) -> None:
    """Exact rational matrix: entries `p/q;r/s`, each fraction reduced."""
    g = gram.canonical()
    den = g.den
    if den > _INT64_MAX:
        # refused before the file is opened, since the reader would reject the file
        raise OverflowError(f"Gram denominator {den} is beyond int64")
    rows, cols = g.shape

    def reduced(re_part: np.ndarray, im_part: np.ndarray) -> tuple[np.ndarray, ...]:
        gr, gi = np.gcd(re_part, den), np.gcd(im_part, den)
        return re_part // gr, den // gr, im_part // gi, den // gi

    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_HEADER} rows={rows} cols={cols} scale_log2_num=0 scale_log2_den=1\n")
        _write_rows(fh, "%d/%d;%d/%d", g.re, g.im, reduced)


class MatrixParseError(ValueError):
    pass


# every integer in a matrix file has at most 19 digits, as 2^63 does, so conversion
# never meets int()'s 4300-digit limit; the magnitude must also stay below 2^63
_INT = r"[+-]?\d{1,19}"
_ENTRY = {False: ("a;b", f"{_INT};{_INT}"), True: ("p/q;r/s", f"{_INT}/{_INT};{_INT}/{_INT}")}
_TO_SPACES = str.maketrans("/;", "  ")


def _parse_rows(lines: list[str], cols: int, rational: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's index into a table of the distinct entries, and that table:
    one int64 row per distinct token, its integers (a, b) or (p, q, r, s).

    Each line must be exactly `cols` entries of the one grammar (every count
    is checked before `cols` sizes anything).  Only the tokens a row adds to
    the table are matched and converted; a value whose magnitude reaches
    2^63 is a parse error, so negation never wraps.
    """
    for r, ln in enumerate(lines):
        found = ln.count(" ") + 1
        if found != cols:
            raise MatrixParseError(f"row {r} has {found} entries, expected {cols}")
    # cols is now bounded by the file's line length, so it may size the index array
    form, entry = _ENTRY[rational]
    entries = re.compile(f"{entry}(?: {entry})*")
    index: dict[str, int] = {}
    table: list[np.ndarray] = []
    size, step = 0, _chunk_rows(cols)
    ids = np.empty((len(lines), cols), dtype=np.intp)
    for r, ln in enumerate(lines):
        if r % step == 0:
            index.clear()  # bounds the index when entries do not repeat
        toks = ln.split(" ")
        new = list(set(toks).difference(index))
        if new:
            text = " ".join(new)
            if not entries.fullmatch(text):
                raise MatrixParseError(f"bad entry in row {r}: entries are integers {form}"
                                       " of at most 19 digits")
            try:
                ints = np.array(text.translate(_TO_SPACES).split(" "), dtype=np.int64)
            except OverflowError as exc:
                raise MatrixParseError(f"entry in row {r} is beyond int64") from exc
            if (ints == -_INT64_MAX - 1).any():
                raise MatrixParseError("entry magnitude 2**63 is beyond int64")
            index.update(zip(new, range(size, size + len(new))))
            size += len(new)
            table.append(ints)
        ids[r] = np.fromiter(map(index.__getitem__, toks), dtype=np.intp, count=cols)
    return ids, np.concatenate(table).reshape(size, -1)


def _over_common_denominator(fractions: np.ndarray) -> tuple[np.ndarray, int]:
    """Rows p q r s of fractions p/q;r/s as integer (re, im) rows over the lcm
    of the reduced denominators, each fraction reduced once."""
    p, q = fractions[:, 0::2], fractions[:, 1::2]
    if not q.all():
        raise MatrixParseError("zero denominator")
    g = np.gcd(p, q) * np.sign(q)  # the reduced denominator is positive
    p, q = p // g, q // g
    den = math.lcm(*np.unique(q).tolist())
    if den > _INT64_MAX:
        raise MatrixParseError(f"common denominator {den} exceeds int64")
    factor = den // q
    if (np.abs(p) > _INT64_MAX // factor).any():
        raise MatrixParseError(f"entries over the common denominator {den} exceed int64")
    return p * factor, den


def read_matrix_file(path):
    """Parse a v1 matrix file; returns a FrameMatrix or GaussianRationalMatrix."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            header = fh.readline().split()
            body = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise MatrixParseError(f"not an ASCII matrix file: {exc}") from exc
    if header[:2] != _HEADER.split():
        raise MatrixParseError("missing LINEPACK-MATRIX v1 header")
    try:
        fields = dict(tok.split("=", 1) for tok in header[2:])
        rows, cols = int(fields["rows"]), int(fields["cols"])
        snum, sden = int(fields["scale_log2_num"]), int(fields["scale_log2_den"])
    except (KeyError, ValueError) as exc:
        raise MatrixParseError(f"malformed header: {exc}") from exc
    if rows < 1 or cols < 1:
        raise MatrixParseError(f"need positive rows and cols, got {rows}x{cols}")
    lines = [ln for ln in body if ln]
    if len(lines) != rows:
        raise MatrixParseError(f"expected {rows} rows, found {len(lines)}")
    rational = "/" in lines[0].split(" ", 1)[0]
    if not rational:
        if sden not in (1, 2):
            raise MatrixParseError("unsupported scale denominator")
        if snum > 0:
            # certification needs the inverse squared scale as an integer power of two
            raise MatrixParseError("frame scale_log2_num must not be positive")
        log2_scale_sq = snum * 2 // sden
        if -log2_scale_sq >= 63:
            raise MatrixParseError("frame inverse squared scale 2**-log2_scale_sq is beyond int64")
    ids, table = _parse_rows(lines, cols, rational)
    del lines, body  # free the text before the full-size gathers
    if not rational:
        return FrameMatrix(table[ids, 0], table[ids, 1], log2_scale_sq)
    values, den = _over_common_denominator(table)
    return GaussianRationalMatrix(values[ids, 0], values[ids, 1], den)
