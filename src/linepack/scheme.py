"""Association-scheme layer: adjacency algebra, idempotents, Krein data.

A scheme on N points is held as a relation-index matrix R (the (g, h)
entry names the relation containing the pair) together with exact
primitive idempotents.  Matrices are dense Gaussian rationals stored as
a pair of int8 or int64 numpy arrays over a single positive denominator,
which keeps every product, Hadamard product, and comparison in exact
integer arithmetic; per-entry reduced fractions are derived on demand.
int8 parts, as a matrix file whose entries all fit is read, are widened
to int64 (`_int64`) wherever arithmetic could leave int8, so all
arithmetic runs in int64.  Every
matrix product, of idempotents and of adjacency matrices alike, goes
through `exact.exact_matmul`, and every elementwise int64 product is
bounded by `exact.check_bound` first, so nothing wraps silently.
`GaussianRationalMatrix.hermitian_defect` is the package's one Hermitian
test, read by the idempotent check here and by `etf.verify_gram`.

Two constructions are provided:

* the group scheme of a Suzuki 2-group, whose relations collect the
  pairs (g, h) with h g^-1 in a fixed conjugacy class and whose
  idempotents come in closed form from the character table
  ((d_chi / |G|) chi(g^-1 h), never from numeric eigendecomposition);
* the 2-class scheme {I, A, J - I - A} of a strongly regular graph with
  integer eigenvalues, with idempotents in closed form from the
  parameters (conference-graph parameter sets are rejected).

Idempotents are built on demand from `idempotent_builder`, never held
as a list: the group scheme at n = 5 has 94 of them, 1024 x 1024 each,
about 1.5 GB together.  The Krein tensor q_ijk is computed over i <= j
only and mirrored, since E_i o E_j and E_j o E_i are the same integer
arrays; q_ijk = q_jik therefore holds by construction, not by a check.

A subset D of idempotent indices is a hyperdifference set when the sum
G_D of its idempotents has off-diagonal entries of constant modulus;
G_D is then the Gram matrix of an equiangular tight frame.  The check
evaluates both that definition and the equivalent flatness of the Krein
sums b_k = sum_{i,j in D} q_{i, dual(j)}^k for k >= 1, and insists the
two answers agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable

import numpy as np

from .bgroup import GroupContext
from .chartab import CharacterTable
from .exact import check_bound, exact_matmul, max_abs

__all__ = [
    "GaussianRationalMatrix",
    "HyperdiffReport",
    "SchemeDescriptor",
    "gram_projector",
    "group_scheme",
    "hyperdiff_check",
    "lattice_graph_adjacency",
    "srg_scheme",
]

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

    def entry(self, i: int, j: int) -> tuple[Fraction, Fraction]:
        return (Fraction(int(self.re[i, j]), self.den),
                Fraction(int(self.im[i, j]), self.den))

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
        """(re, im) over `den`, a multiple of self.den, as int64; int64 parts
        themselves at den."""
        re, im = _int64(self.re), _int64(self.im)
        s = den // self.den
        if s == 1:
            return re, im
        check_bound(self.max_abs() * s, "rescale to a common denominator")
        return re * s, im * s

    def _aligned(self, other: "GaussianRationalMatrix") -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        den = math.lcm(self.den, other.den)
        return (*self._rescaled(den), *other._rescaled(den), den)

    def __add__(self, other: "GaussianRationalMatrix") -> "GaussianRationalMatrix":
        ar, ai, br, bi, den = self._aligned(other)
        return GaussianRationalMatrix(ar + br, ai + bi, den)

    def __sub__(self, other: "GaussianRationalMatrix") -> "GaussianRationalMatrix":
        ar, ai, br, bi, den = self._aligned(other)
        return GaussianRationalMatrix(ar - br, ai - bi, den)

    # -- predicates -------------------------------------------------------

    def hermitian_defect(self) -> tuple[int, int] | None:
        """The first entry, row-major, where a square matrix differs from its
        conjugate transpose, or None.

        The difference is skew-Hermitian, so its first nonzero (i, j) has
        j >= i; each chunk of 64 rows is compared on and right of the
        diagonal with the matching columns, and no transposed copy is made.
        A matrix that is not square is a ValueError.
        """
        if self.shape[0] != self.shape[1]:
            raise ValueError(f"a {self.shape[0]}x{self.shape[1]} matrix is not square")
        for start in range(0, self.shape[0], 64):
            rows, right = slice(start, start + 64), slice(start, None)
            defect = first_mismatch(
                GaussianRationalMatrix(self.re[rows, right], self.im[rows, right], self.den),
                GaussianRationalMatrix(self.re[right, rows].T, -_int64(self.im[right, rows]).T,
                                       self.den))
            if defect is not None:
                return start + defect[0], start + defect[1]
        return None

    def abs_sq_int(self) -> tuple[np.ndarray, int]:
        """Entrywise squared moduli as (integer matrix, denominator den^2)."""
        check_bound(self.max_abs() ** 2, "abs_sq_int")
        re, im = _int64(self.re), _int64(self.im)
        sq = re * re
        sq += im * im
        return sq, self.den * self.den


def first_mismatch(a: GaussianRationalMatrix,
                   b: GaussianRationalMatrix) -> tuple[int, int] | None:
    """The first entry, row-major, where two matrices of one shape differ, or None.

    They are compared over the lcm of their denominators, 64 rows at a
    time: neither is reduced first, an int64 one already at the lcm is
    read in place, and a rescaled or widened copy never exceeds 64 rows.
    """
    for start in range(0, a.shape[0], 64):
        rows = slice(start, start + 64)
        ar, ai, br, bi, _ = GaussianRationalMatrix(a.re[rows], a.im[rows], a.den)._aligned(
            GaussianRationalMatrix(b.re[rows], b.im[rows], b.den))
        bad = np.argwhere((ar != br) | (ai != bi))
        if len(bad):
            return start + int(bad[0][0]), int(bad[0][1])
    return None


@dataclass
class SchemeDescriptor:
    """A commutative association scheme with exact idempotents.

    `relation_index[g, h]` names the relation of the pair; adjacency and
    idempotent matrices are built on demand so that large group schemes
    never hold their full matrix lists in memory at once.
    """

    size: int
    valencies: tuple[int, ...]
    ranks: tuple[int, ...]
    duality: tuple[int, ...]
    relation_index: np.ndarray
    idempotent_builder: Callable[[int], GaussianRationalMatrix]
    kind: str
    meta: dict = field(default_factory=dict)

    @property
    def class_count(self) -> int:
        return len(self.valencies)

    def adjacency(self, i: int) -> np.ndarray:
        return (self.relation_index == i).astype(np.int64)

    def idempotent(self, j: int) -> GaussianRationalMatrix:
        return self.idempotent_builder(j)

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
        # valencies are the row sums of the adjacency matrices
        for i in range(d1):
            rows = adj[i].sum(axis=1)
            if not (rows == self.valencies[i]).all():
                raise AssertionError("valency is not constant across rows")
        return {"intersection_numbers": p, "transpose_of": transpose_of}

    def verify_idempotents(self) -> None:
        """Sum to I; each Hermitian, with trace equal to its recorded rank;
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
        """Krein tensor q[i][j][k] by exact trace pairings; raises on any q < 0.

        E_i o E_j = (1/n) sum_k q_ijk E_k, so q_ijk = n tr((E_i o E_j) E_k) / m_k.
        Each unordered pair {i, j} is paired once and written to both
        q[i][j] and q[j][i] (see the module docstring).
        Materializes all idempotents; meant for small schemes.
        """
        n, d1 = self.size, self.class_count
        idems = [self.idempotent(j) for j in range(d1)]
        den = math.lcm(*(e.den for e in idems))
        parts = [e._rescaled(den) for e in idems]
        flat_re = np.stack([re.ravel() for re, _ in parts])
        flat_im = np.stack([im.ravel() for _, im in parts])
        flat_re_t = np.stack([re.T.ravel() for re, _ in parts])
        flat_im_t = np.stack([im.T.ravel() for _, im in parts])
        check_bound(max_abs(flat_re, flat_im) ** 2, "Krein Hadamard products")
        q: list[list[list[Fraction]]] = [[[Fraction(0)] * d1 for _ in range(d1)] for _ in range(d1)]
        for i in range(d1):
            for j in range(i, d1):
                had_re = flat_re[i] * flat_re[j] - flat_im[i] * flat_im[j]
                had_im = flat_re[i] * flat_im[j] + flat_im[i] * flat_re[j]
                tr_re = exact_matmul(flat_re_t, had_re) - exact_matmul(flat_im_t, had_im)
                tr_im = exact_matmul(flat_re_t, had_im) + exact_matmul(flat_im_t, had_re)
                if tr_im.any():
                    raise AssertionError("Krein parameter came out non-real")
                for k in range(d1):
                    # q = n tr((E_i o E_j) E_k) / m_k with the trace over den^3
                    val = Fraction(n * int(tr_re[k]), den ** 3 * self.ranks[k])
                    if val < 0:
                        raise AssertionError(
                            f"Krein condition violated: q[{i}][{j}][{k}] = {val} < 0")
                    q[i][j][k] = q[j][i][k] = val
        return q

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
    """Scheme on the group whose relations sort pairs by the class of h g^-1."""
    classes = group.conjugacy_classes
    w = group.inverse_product_index_matrix
    relation_index = group.class_of_element[w]
    re, im = table.value_arrays

    def idempotent(j: int) -> GaussianRationalMatrix:
        d = table.characters[j].degree
        vals_re = d * re[j][relation_index]
        vals_im = d * im[j][relation_index]
        return GaussianRationalMatrix(vals_re, vals_im, group.order)

    return SchemeDescriptor(
        size=group.order,
        valencies=tuple(c.size for c in classes),
        ranks=tuple(ch.degree ** 2 for ch in table.characters),
        duality=table.conjugate_index,
        relation_index=relation_index,
        idempotent_builder=idempotent,
        kind="group",
        meta={"order": group.order, "modulus": group.field.modulus},
    )


def gram_projector(scheme: SchemeDescriptor, d_subset) -> GaussianRationalMatrix:
    """Sum of the idempotents indexed by a nonempty subset."""
    d_subset = tuple(d_subset)
    if not d_subset:
        raise ValueError("empty index set")
    total = scheme.idempotent(d_subset[0])
    for j in d_subset[1:]:
        total = total + scheme.idempotent(j)
    return total


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
    """Evaluate both hyperdifference criteria and insist they agree.

    (a) all off-diagonal squared moduli of the Gram projector are equal;
    (b) the Krein sums b_1, ..., b_d are all equal.
    """
    d_subset = tuple(d_subset)
    gram = gram_projector(scheme, d_subset)
    n = scheme.size
    m = sum(scheme.ranks[j] for j in d_subset)

    sq, sq_den = gram.abs_sq_int()
    off = sq[~np.eye(n, dtype=bool)]
    flat = bool(off.min() == off.max())

    # b_k = sum over i, j in D of q_{i, dual(j)}^k
    q = scheme.krein
    b = tuple(sum((q[i][scheme.duality[j]][k] for i in d_subset for j in d_subset),
                  start=Fraction(0))
              for k in range(scheme.class_count))
    tail = b[1:]
    flat_krein = all(v == tail[0] for v in tail) if tail else True
    if flat != flat_krein:
        raise AssertionError(
            "hyperdifference criteria disagree: "
            f"constant off-diagonal modulus = {flat}, flat Krein sums = {flat_krein}")

    if not flat:
        return HyperdiffReport(d_subset, False, m, b, None, None, None)
    c1 = Fraction(m * (n - m), n * (n - 1))
    c2 = Fraction(m * (m - 1), n * (n - 1))
    off_sq = Fraction(int(off[0]), sq_den)
    if off_sq != c1 / n:
        raise AssertionError("off-diagonal modulus disagrees with the derived constant")
    if tail and tail[0] != n * c2:
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
    jmat = np.ones((v, v), dtype=np.int64)
    imat = np.eye(v, dtype=np.int64)
    if not np.array_equal(exact_matmul(a, a), k * imat + lam * a + mu * (jmat - imat - a)):
        raise ValueError("adjacency matrix does not satisfy the SRG identity "
                         f"for parameters {(v, k, lam, mu)}")

    eig_plus = (lam - mu + s) // 2
    eig_minus = (lam - mu - s) // 2

    den = v * (eig_plus - eig_minus)
    a2 = jmat - imat - a
    e1 = GaussianRationalMatrix(
        (eig_minus - k - eig_minus * v) * imat + (v - k + eig_minus) * a + (eig_minus - k) * a2,
        None, den)
    e0 = GaussianRationalMatrix(jmat, None, v)
    e2 = GaussianRationalMatrix.identity(v) - e0 - e1

    rank1 = e1.trace()[0]
    rank2 = e2.trace()[0]
    if rank1.denominator != 1 or rank2.denominator != 1:
        raise AssertionError("idempotent ranks are not integers")
    ranks = (1, int(rank1), int(rank2))

    relation = np.zeros((v, v), dtype=np.int64)
    relation[a == 1] = 1
    relation[a2 == 1] = 2
    idems = [e0, e1, e2]

    criterion = None
    if 2 * k - v == 2 * eig_minus:
        criterion, d_pick = "2k-v = 2*eig_minus", (1,)
    elif 2 * k - v == 2 * eig_plus:
        criterion, d_pick = "2k-v = 2*eig_plus", (2,)
    else:
        d_pick = (1,)

    desc = SchemeDescriptor(
        size=v,
        valencies=(1, k, v - 1 - k),
        ranks=ranks,
        duality=(0, 1, 2),
        relation_index=relation,
        idempotent_builder=lambda j: idems[j],
        kind="srg",
        meta={"parameters": [v, k, lam, mu], "eig_plus": eig_plus,
              "eig_minus": eig_minus, "criterion": criterion},
    )
    report = hyperdiff_check(desc, d_pick)
    return desc, report
