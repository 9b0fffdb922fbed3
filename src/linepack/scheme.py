"""Association-scheme layer: adjacency algebra, idempotents, Krein data.

A commutative scheme on N points is held as its c x c second
eigenmatrix Q, with primitive idempotents E_j = (1/N) sum_l Q[l, j] A_l
(Bannai and Ito, *Algebraic Combinatorics I*, 1984, section II.3), its
valencies k_l, and a builder of the relation index R (R[g, h] names the
relation l of the pair, A_l is where R equals l), run on R's first read.
The ranks are m_j = Q[0, j], E_j is column j of Q gathered at R, and
the Krein parameters q_ijk = sum_l k_l Q_li Q_lj conj(Q_lk) / (N m_k)
are one exact product of the c^2 x c table k_l Q_li Q_lj by conj(Q).

Matrices are dense Gaussian rationals stored as a pair of int8 or int64
numpy arrays over a single positive denominator, which keeps every
product, Hadamard product, and comparison in exact integer arithmetic;
per-entry reduced fractions are derived on demand.  int8 parts, as a
matrix file whose entries all fit is read or a frame Gram reduced by its
gcd is held, are widened to int64 (`_int64`) wherever arithmetic could
leave int8, or squared straight into int64 (`abs_sq_int`), so all
arithmetic runs in int64.  Every matrix product goes through
`exact.exact_matmul`, and every elementwise int64 product is bounded by
`exact.check_bound` first, so nothing wraps silently.
`GaussianRationalMatrix.hermitian_defect` is the package's one Hermitian
test, read by the idempotent check here and by `etf.verify_gram`.
`GaussianRationalMatrix.upper_blocks` is the package's one walk of a
held matrix on and above its diagonal: chunks of rows from the diagonal
rightward, as views, at most `_BLOCK_ENTRIES` entries each.  The
Hermitian test reads it, and so does `etf._welch_pattern` for every Gram
that is held whole.

Two constructions are provided:

* the group scheme of a Suzuki 2-group, whose relations collect the
  pairs (g, h) with h g^-1 in a fixed conjugacy class, with
  Q[l, j] = d_j chi_j(class l) from the character table;
* the 2-class scheme {I, A, J - I - A} of a strongly regular graph with
  integer eigenvalues r > s, with Q[l, j] = m_j P[j, l] / k_l from
  P = [[1, k, v-k-1], [1, r, -1-r], [1, s, -1-s]] and
  m_j = v / sum_l P[j, l]^2 / k_l (conference graphs are rejected).

A subset D of idempotent indices is a hyperdifference set when the sum
G_D of its idempotents has off-diagonal entries of constant modulus;
G_D is then the Gram matrix of an equiangular tight frame.  G_D and both
criteria are read from one column sum s_l = sum_{j in D} Q[l, j]: G_D is
s gathered at R over N Q.den, the definition asks |s_l| flat over l >= 1,
and the equivalent Krein sums b_k = sum_{i,j in D} q_{i, dual(j)}^k, flat
for k >= 1, are one product of the vector k o |s|^2 by Q.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .bgroup import GroupContext
from .chartab import CharacterTable
from .exact import check_bound, exact_matmul, first_block_mismatch, max_abs

__all__ = [
    "GaussianRationalMatrix",
    "HyperdiffReport",
    "SchemeDescriptor",
    "first_mismatch",
    "gram_projector",
    "group_scheme",
    "hyperdiff_check",
    "lattice_graph_adjacency",
    "srg_scheme",
]

# entries of one chunk of `GaussianRationalMatrix.upper_blocks`: its parts
# as int64, or its squared moduli and their temporary, take 512 KiB
_BLOCK_ENTRIES = 1 << 15
# entries of one `first_mismatch` chunk of a matrix too narrow to fill it with 64 rows
_COMPARE_ENTRIES = 1 << 14


def _int64(a: np.ndarray) -> np.ndarray:
    """`a` as int64: itself if it is int64, else a widened copy.

    numpy keeps int8 times a Python int in int8, where it wraps or raises
    OverflowError, so every arithmetic site reads int8 parts through this.
    """
    return a.astype(np.int64, copy=False)


def _part(a) -> np.ndarray:
    """An int8 or int64 array as given; anything else as int64."""
    a = np.asarray(a)
    return a if a.dtype in (np.int8, np.int64) else a.astype(np.int64)


class GaussianRationalMatrix:
    """Dense exact matrix (re + i im) / den with int8 or int64 numpy parts;
    arithmetic in int64."""

    __slots__ = ("re", "im", "den")

    def __init__(self, re: np.ndarray, im: np.ndarray | None = None, den: int = 1):
        if den <= 0:
            raise ValueError("denominator must be positive")
        self.re = _part(re)
        self.im = np.zeros_like(self.re) if im is None else _part(im)
        if self.re.shape != self.im.shape:
            raise ValueError("mismatched real/imaginary shapes")
        self.den = den

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(n: int) -> "GaussianRationalMatrix":
        return GaussianRationalMatrix(np.eye(n, dtype=np.int64))

    # -- bookkeeping ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.re.shape

    def max_abs(self) -> int:
        return max_abs(self.re, self.im)

    def content(self) -> int:
        """The gcd of the denominator and every entry.

        Read from np.gcd.reduce of the signed entries, so no |entry| copy
        is made; math.gcd drops the sign of the result, which is INT64_MIN
        when the gcd is 2^63, or -128 when an int8 part's is 128, so nothing
        wraps.
        """
        g = self.den
        for a in (self.re, self.im):
            g = math.gcd(g, int(np.gcd.reduce(a, axis=None)))
        return g

    def canonical(self) -> "GaussianRationalMatrix":
        """Divide out the gcd of all entries and the denominator."""
        g = self.content()
        if g <= 1:
            return self
        return GaussianRationalMatrix(_int64(self.re) // g, _int64(self.im) // g, self.den // g)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRationalMatrix):
            return NotImplemented
        return self.shape == other.shape and first_mismatch(self, other) is None

    def trace(self) -> tuple[Fraction, Fraction]:
        return (Fraction(int(self.re.trace()), self.den),
                Fraction(int(self.im.trace()), self.den))

    # -- exact algebra ----------------------------------------------------

    def __matmul__(self, other: "GaussianRationalMatrix") -> "GaussianRationalMatrix":
        re = exact_matmul(self.re, other.re)
        re -= exact_matmul(self.im, other.im)
        im = exact_matmul(self.re, other.im)
        im += exact_matmul(self.im, other.re)
        return GaussianRationalMatrix(re, im, self.den * other.den)

    def _rescaled(self, den: int) -> tuple[np.ndarray, np.ndarray]:
        """(re, im) over `den`, a multiple of self.den: the parts themselves
        at den, else as int64."""
        s = den // self.den
        if s == 1:
            return self.re, self.im
        check_bound(self.max_abs() * s, "rescale to a common denominator")
        return _int64(self.re) * s, _int64(self.im) * s

    # -- predicates -------------------------------------------------------

    def upper_blocks(self) -> Iterator[tuple[slice, slice, np.ndarray, np.ndarray]]:
        """A square matrix on and above its diagonal as (rows, cols, re, im):
        consecutive chunks of rows, each on the columns from its first
        row's diagonal rightward, the parts views of self's.

        A chunk holds at most _BLOCK_ENTRIES entries, or one row when a row
        holds more; rows.start == cols.start, so the diagonal of each chunk
        is the matrix's.  A matrix that is not square is a ValueError.
        """
        size, cols = self.shape
        if size != cols:
            raise ValueError(f"a {size}x{cols} matrix is not square")
        start = 0
        while start < size:
            rows = slice(start, min(size, start + max(1, _BLOCK_ENTRIES // (size - start))))
            right = slice(start, size)
            yield rows, right, self.re[rows, right], self.im[rows, right]
            start = rows.stop

    def hermitian_defect(self) -> tuple[int, int] | None:
        """The first entry, row-major, where a square matrix differs from its
        conjugate transpose, or None; ValueError if it is not square.  The
        difference is skew-Hermitian, so the chunks of `upper_blocks` hold its
        first miss, each compared with its columns, and no transpose is made."""
        def mismatch(rows, right, re, im):
            return first_mismatch(GaussianRationalMatrix(re, im, self.den), GaussianRationalMatrix(
                self.re[right, rows].T, -_int64(self.im[right, rows]).T, self.den))

        return first_block_mismatch(self.upper_blocks(), mismatch)

    def abs_sq_int(self) -> tuple[np.ndarray, int]:
        """Entrywise squared moduli as (int64 matrix, denominator den^2).

        Each part is squared into int64 as it is read, so an int8 part is
        never copied whole to int64 first.
        """
        check_bound(self.max_abs() ** 2, "abs_sq_int")
        sq = np.square(self.re, dtype=np.int64)
        sq += np.square(self.im, dtype=np.int64)
        return sq, self.den * self.den


def first_mismatch(a: GaussianRationalMatrix,
                   b: GaussianRationalMatrix) -> tuple[int, int] | None:
    """The first entry, row-major, where two matrices of one shape differ, or None.

    They are compared over the lcm of their denominators, 64 rows at a
    time, or _COMPARE_ENTRIES entries of a narrower matrix: neither is
    reduced first, and one already at the lcm is read in place, int8 parts
    too, since a comparison does no arithmetic that could wrap.
    """
    step = max(64, _COMPARE_ENTRIES // max(1, a.re[:1].size))
    den = math.lcm(a.den, b.den)
    for start in range(0, a.shape[0], step):
        rows = slice(start, start + step)
        ar, ai = GaussianRationalMatrix(a.re[rows], a.im[rows], a.den)._rescaled(den)
        br, bi = GaussianRationalMatrix(b.re[rows], b.im[rows], b.den)._rescaled(den)
        bad = (ar != br) | (ai != bi)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            return start + int(row), int(col)
    return None


@dataclass
class SchemeDescriptor:
    """A commutative association scheme: Q, with E_j = (1/size) sum_l Q[l, j] A_l,
    the valencies k_l, and `build_relation_index`, run on the first read of
    `relation_index`, whose (g, h) entry names the relation l of the pair."""

    size: int
    valencies: tuple[int, ...]
    eigenmatrix: GaussianRationalMatrix
    kind: str
    build_relation_index: Callable[[], np.ndarray] = field(repr=False)
    meta: dict = field(default_factory=dict)

    @property
    def class_count(self) -> int:
        return self.eigenmatrix.shape[0]

    @cached_property
    def relation_index(self) -> np.ndarray:
        """The size x size relation index, built on first read."""
        return self.build_relation_index()

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """m_j = tr E_j = Q[0, j]; raises unless each is an integer."""
        q = self.eigenmatrix
        re = _int64(q.re[0])
        if q.im[0].any() or (re % q.den).any():
            raise AssertionError("idempotent ranks are not integers")
        return tuple((re // q.den).tolist())

    def adjacency(self, i: int) -> np.ndarray:
        return (self.relation_index == i).astype(np.int64)

    def idempotent(self, j: int) -> GaussianRationalMatrix:
        """E_j: column j of Q gathered at the relation index, over Q.den * size."""
        q = self.eigenmatrix
        return GaussianRationalMatrix(q.re[:, j][self.relation_index],
                                      q.im[:, j][self.relation_index], q.den * self.size)

    # -- axioms -----------------------------------------------------------

    def verify_axioms(self) -> dict:
        """Exact verification of the scheme axioms; returns the intersection
        numbers.  Intended for small schemes (all matrices materialize)."""
        n, d1 = self.size, self.class_count
        rel = self.relation_index
        adj = [self.adjacency(i) for i in range(d1)]
        if not np.array_equal(sum(adj), np.ones((n, n), dtype=np.int64)):
            raise AssertionError("(A1) adjacency matrices do not sum to the all-ones matrix")
        if not np.array_equal(adj[0], np.eye(n, dtype=np.int64)):
            raise AssertionError("(A2) relation 0 is not the identity")
        transpose_of = []
        for i in range(d1):
            match = [j for j in range(d1) if np.array_equal(adj[i].T, adj[j])]
            if len(match) != 1:
                raise AssertionError("(A3) transpose closure fails")
            transpose_of.append(match[0])
        p = np.zeros((d1, d1, d1), dtype=np.int64)
        first_pair = [np.argwhere(rel == k)[0] for k in range(d1)]
        for i in range(d1):
            for j in range(i, d1):
                prod = exact_matmul(adj[i], adj[j])
                if not np.array_equal(prod, exact_matmul(adj[j], adj[i])):
                    raise AssertionError("(A5) adjacency algebra is not commutative")
                for k in range(d1):
                    g, h = first_pair[k]
                    p[i, j, k] = p[j, i, k] = prod[g, h]
                expanded = sum(int(p[i, j, k]) * adj[k] for k in range(d1))
                if not np.array_equal(prod, expanded):
                    raise AssertionError("(A4) product is not constant on relations")
        # the valencies are the row sums of the adjacency matrices
        if any((a.sum(axis=1) != k).any() for a, k in zip(adj, self.valencies)):
            raise AssertionError("valency is not constant across rows")
        return {"intersection_numbers": p, "transpose_of": transpose_of}

    def verify_idempotents(self) -> None:
        """Sum to I; each Hermitian, with trace equal to its rank Q[0, j];
        then all pairwise products: E_j E_l = delta E_j."""
        n = self.size
        idems = [self.idempotent(j) for j in range(self.class_count)]
        if gram_projector(self, range(self.class_count)) != GaussianRationalMatrix.identity(n):
            raise AssertionError("idempotents do not sum to the identity")
        for j, ej in enumerate(idems):
            if ej.hermitian_defect() is not None:
                raise AssertionError(f"idempotent {j} is not Hermitian")
            tr_re, tr_im = ej.trace()
            if tr_im != 0 or tr_re != self.ranks[j]:
                raise AssertionError(f"idempotent {j} has trace {tr_re}, expected rank {self.ranks[j]}")
        for j, ej in enumerate(idems):
            for l, el in enumerate(idems):
                prod = ej @ el
                want = ej if j == l else GaussianRationalMatrix(np.zeros((n, n), dtype=np.int64))
                if prod != want:
                    raise AssertionError(f"idempotent product E_{j} E_{l} is wrong")

    # -- Krein parameters ---------------------------------------------------

    @cached_property
    def krein(self) -> list[list[list[Fraction]]]:
        """Krein tensor q[i][j][k] with E_i o E_j = (1/n) sum_k q_ijk E_k; raises on any q < 0.

        E_i o E_j = (1/n^2) sum_l Q_li Q_lj A_l and tr(A_l E_k) = k_l conj(Q_lk), so
        q_ijk = n tr((E_i o E_j) E_k) / m_k = sum_l k_l Q_li Q_lj conj(Q_lk) / (n m_k):
        one exact product of the c^2 x c pair table by conj(Q), symmetric in i, j.
        """
        q, c = self.eigenmatrix, self.class_count
        k = np.array(self.valencies, dtype=np.int64)
        check_bound(2 * max(self.valencies) * q.max_abs() ** 2, "Krein pair table")
        re, im = _int64(q.re).T, _int64(q.im).T     # row j is column j of Q
        pairs = GaussianRationalMatrix(
            ((re[:, None] * re - im[:, None] * im) * k).reshape(c * c, c),
            ((re[:, None] * im + im[:, None] * re) * k).reshape(c * c, c), q.den ** 2)
        sums = pairs @ GaussianRationalMatrix(q.re, -_int64(q.im), q.den)
        if sums.im.any():
            raise AssertionError("Krein parameter came out non-real")
        scale = [sums.den * self.size * m for m in self.ranks]
        vals = sums.re.reshape(c, c, c)
        if (vals < 0).any():
            i, j, l = np.argwhere(vals < 0)[0]
            raise AssertionError(f"Krein condition violated: q[{i}][{j}][{l}] = "
                                 f"{Fraction(int(vals[i, j, l]), scale[l])} < 0")
        return [[[Fraction(v, d) for v, d in zip(row, scale)] for row in plane]
                for plane in vals.tolist()]

    def summary_json(self) -> dict:
        return {
            "kind": self.kind,
            "size": self.size,
            "classes": self.class_count,
            "valencies": list(self.valencies),
            "ranks": list(self.ranks),
            **{k: v for k, v in self.meta.items() if isinstance(v, (int, str, list))},
        }


# ---------------------------------------------------------------------------
# group scheme
# ---------------------------------------------------------------------------

def group_scheme(group: GroupContext, table: CharacterTable) -> SchemeDescriptor:
    """Scheme on the group whose relations sort pairs by the class of h g^-1,
    with Q[l, j] = d_j chi_j(class l) read from the character table."""
    re, im = table.value_arrays
    degrees = np.array(table.degrees, dtype=np.int64)[:, None]  # widens the int8 table
    return SchemeDescriptor(
        size=group.order,
        valencies=tuple(group.class_sizes()),
        eigenmatrix=GaussianRationalMatrix((degrees * re).T, (degrees * im).T),
        kind="group",
        build_relation_index=lambda: group.class_of_element[group.inverse_product_index_matrix],
        meta={"order": group.order, "modulus": group.field.modulus},
    )


def _column_sum(scheme: SchemeDescriptor, d_subset) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(D, re, im) of s_l = sum_{j in D} Q[l, j] over Q.den, in int64, for a nonempty D."""
    d_subset = tuple(d_subset)
    if not d_subset:
        raise ValueError("empty index set")
    q = scheme.eigenmatrix
    check_bound(q.max_abs() * len(d_subset), "projector values")
    return d_subset, *(a[:, list(d_subset)].sum(axis=1, dtype=np.int64) for a in (q.re, q.im))


def gram_projector(scheme: SchemeDescriptor, d_subset) -> GaussianRationalMatrix:
    """G_D, the sum of the idempotents indexed by a nonempty subset D: the
    column sum s of Q over D gathered at the relation index, over Q.den * size."""
    _, s_re, s_im = _column_sum(scheme, d_subset)
    rel = scheme.relation_index
    return GaussianRationalMatrix(s_re[rel], s_im[rel], scheme.eigenmatrix.den * scheme.size)


@dataclass(frozen=True)
class HyperdiffReport:
    d_subset: tuple[int, ...]
    is_hyperdifference: bool
    m: int
    b: tuple[Fraction, ...]
    c1: Fraction | None
    c2: Fraction | None
    off_diag_modulus_sq: Fraction | None


def hyperdiff_check(scheme: SchemeDescriptor, d_subset) -> HyperdiffReport:
    """Evaluate both hyperdifference criteria on s_l = sum_{j in D} Q[l, j]
    and insist they agree; neither builds an N x N matrix.

    (a) the off-diagonal squared moduli |s_l|^2 / (n Q.den)^2 of the Gram
        projector on relations l >= 1 are all equal;
    (b) the Krein sums b_1, ..., b_d are all equal.  Q[l, dual(j)] = conj(Q[l, j]), so
        b_k = sum_{i,j in D} q_{i, dual(j)}^k = sum_l k_l |s_l|^2 conj(Q_lk) / (n m_k Q.den^3),
        one product of the vector k o |s|^2 by Q, whose imaginary part must vanish.
    The two agree by construction whenever Q is invertible, so the check
    tests Q, not the family; the independent evidence is the Krein condition
    (`SchemeDescriptor.krein`) and the orthogonality of the character table.
    """
    d_subset, s_re, s_im = _column_sum(scheme, d_subset)
    q, n = scheme.eigenmatrix, scheme.size
    m = sum(scheme.ranks[j] for j in d_subset)

    check_bound(2 * max(scheme.valencies) * max_abs(s_re, s_im) ** 2, "Krein sums")
    sq = s_re * s_re + s_im * s_im
    flat = len(set(sq[1:].tolist())) <= 1

    weighted = np.array(scheme.valencies, dtype=np.int64) * sq
    re, im = (exact_matmul(weighted[None], part)[0] for part in (q.re, q.im))
    if im.any():
        raise AssertionError("Krein sum came out non-real")
    b = tuple(Fraction(v, n * mk * q.den ** 3) for v, mk in zip(re.tolist(), scheme.ranks))
    flat_krein = len(set(b[1:])) <= 1
    if flat != flat_krein:
        raise AssertionError(
            "hyperdifference criteria disagree: "
            f"constant off-diagonal modulus = {flat}, flat Krein sums = {flat_krein}")

    if not flat:
        return HyperdiffReport(d_subset, False, m, b, None, None, None)
    c1 = Fraction(m * (n - m), n * (n - 1))
    c2 = Fraction(m * (m - 1), n * (n - 1))
    off_sq = Fraction(int(sq[1]), (n * q.den) ** 2)
    if off_sq != c1 / n:
        raise AssertionError("off-diagonal modulus disagrees with the derived constant")
    if b[1:] and b[1] != n * c2:
        raise AssertionError("Krein sums disagree with the derived constant")
    return HyperdiffReport(d_subset, True, m, b, c1, c2, off_sq)


# ---------------------------------------------------------------------------
# strongly regular graph scheme
# ---------------------------------------------------------------------------

def lattice_graph_adjacency(m: int) -> np.ndarray:
    """Rook's graph on an m x m grid: SRG(m^2, 2(m-1), m-2, 2)."""
    v = m * m
    a = np.zeros((v, v), dtype=np.int64)
    for p in range(v):
        for q in range(v):
            if p != q and (p // m == q // m or p % m == q % m):
                a[p, q] = 1
    return a


_BUILTIN_SRG = {
    (16, 6, 2, 2): lambda: lattice_graph_adjacency(4),
    (9, 4, 1, 2): lambda: lattice_graph_adjacency(3),
}


def srg_scheme(v: int, k: int, lam: int, mu: int,
               adjacency: np.ndarray | None = None
               ) -> tuple[SchemeDescriptor, HyperdiffReport]:
    """2-class scheme of a strongly regular graph, plus its ETF verdict.

    The parameters must pass the feasibility conditions 0 < k < v - 1,
    0 <= lam < k, 0 <= mu <= k and k(k - lam - 1) = mu(v - k - 1), and the
    nontrivial eigenvalues must be integers: s = sqrt((lam-mu)^2 +
    4(k-mu)) integral with lam - mu + s even.  The designated singleton
    subset ({1} when 2k - v equals twice the negative eigenvalue, {2}
    when twice the positive one) is run through hyperdiff_check.
    """
    for holds, condition in ((0 < k < v - 1, "0 < k < v - 1"),
                             (0 <= lam < k, "0 <= lambda < k"),
                             (0 <= mu <= k, "0 <= mu <= k"),
                             (k * (k - lam - 1) == mu * (v - k - 1),
                              "k(k - lambda - 1) = mu(v - k - 1)")):
        if not holds:
            raise ValueError(f"parameters {(v, k, lam, mu)} are not those of a strongly "
                             f"regular graph: {condition} fails")
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    s = math.isqrt(disc)
    if s * s != disc or (lam - mu + s) % 2 != 0:
        raise ValueError(f"parameters {(v, k, lam, mu)} have irrational eigenvalues "
                         "(conference-graph case); unsupported")
    if adjacency is None:
        try:
            adjacency = _BUILTIN_SRG[(v, k, lam, mu)]()
        except KeyError:
            builtin = " and ".join(map(str, sorted(_BUILTIN_SRG)))
            raise ValueError(f"no built-in graph for parameters {(v, k, lam, mu)}; "
                             f"the built-in sets are {builtin}") from None
    a = np.asarray(adjacency, dtype=np.int64)
    if a.shape != (v, v) or not np.array_equal(a, a.T) or a.diagonal().any() \
            or not np.isin(a, (0, 1)).all():
        raise ValueError("adjacency matrix is not a simple graph on v vertices")
    imat = np.eye(v, dtype=np.int64)
    if not np.array_equal(exact_matmul(a, a), k * imat + lam * a + mu * (1 - imat - a)):
        raise ValueError("adjacency matrix does not satisfy the SRG identity "
                         f"for parameters {(v, k, lam, mu)}")

    eig_plus = (lam - mu + s) // 2
    eig_minus = (lam - mu - s) // 2
    # first eigenmatrix P[j][l], the eigenvalue of A_l on E_j, and from it
    # m_j = v / sum_l P_jl^2 / k_l and Q[l][j] = m_j P_jl / k_l
    valencies = (1, k, v - k - 1)
    p = (valencies, (1, eig_plus, -1 - eig_plus), (1, eig_minus, -1 - eig_minus))
    ranks = [v / sum(Fraction(x * x, kl) for x, kl in zip(row, valencies)) for row in p]
    q = [[ranks[j] * p[j][l] / valencies[l] for j in range(3)] for l in range(3)]
    den = math.lcm(*(x.denominator for row in q for x in row))

    criterion = None
    if 2 * k - v == 2 * eig_minus:
        criterion, d_pick = "2k-v = 2*eig_minus", (1,)
    elif 2 * k - v == 2 * eig_plus:
        criterion, d_pick = "2k-v = 2*eig_plus", (2,)
    else:
        d_pick = (1,)

    rel = 2 - a - 2 * imat  # 0 on the diagonal, 1 on edges, 2 elsewhere
    desc = SchemeDescriptor(
        size=v,
        valencies=tuple(np.bincount(rel[0], minlength=3).tolist()),
        eigenmatrix=GaussianRationalMatrix(
            np.array([[int(x * den) for x in row] for row in q], dtype=np.int64), None, den),
        kind="srg",
        build_relation_index=lambda: rel,
        meta={"parameters": [v, k, lam, mu], "eig_plus": eig_plus,
              "eig_minus": eig_minus, "criterion": criterion},
    )
    report = hyperdiff_check(desc, d_pick)
    return desc, report
