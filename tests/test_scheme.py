import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linepack import scheme
from linepack.exact import gram_tiles
from linepack.scheme import (
    GaussianRationalMatrix,
    first_mismatch,
    gram_projector,
    hyperdiff_check,
    lattice_graph_adjacency,
    srg_scheme,
)


# ---------------------------------------------------------------------------
# exact matrix type
# ---------------------------------------------------------------------------

def _entry(a: GaussianRationalMatrix, i: int, j: int) -> tuple[Fraction, Fraction]:
    return Fraction(int(a.re[i, j]), a.den), Fraction(int(a.im[i, j]), a.den)


def fraction_matmul(a: GaussianRationalMatrix, b: GaussianRationalMatrix):
    """Entrywise Fraction oracle for the complex matrix product."""
    n, k = a.shape
    _, m = b.shape
    out = [[None] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            sre, sim = Fraction(0), Fraction(0)
            for t in range(k):
                ar, ai = _entry(a, i, t)
                br, bi = _entry(b, t, j)
                sre += ar * br - ai * bi
                sim += ar * bi + ai * br
            out[i][j] = (sre, sim)
    return out


def random_grm(rng, n, den):
    re = np.array([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
    im = np.array([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
    return GaussianRationalMatrix(re, im, den)


def test_matmul_matches_fraction_oracle():
    rng = random.Random(50)
    for _ in range(20):
        a = random_grm(rng, 4, rng.choice([1, 2, 3, 8]))
        b = random_grm(rng, 4, rng.choice([1, 5, 6]))
        prod = a @ b
        oracle = fraction_matmul(a, b)
        for i in range(4):
            for j in range(4):
                assert _entry(prod, i, j) == oracle[i][j]


def test_equality_across_denominators():
    a = GaussianRationalMatrix(np.array([[2, 4], [6, 8]]), None, 4)
    b = GaussianRationalMatrix(np.array([[1, 2], [3, 4]]), None, 2)
    assert a == b and first_mismatch(a, b) is None
    assert first_mismatch(a, GaussianRationalMatrix(np.array([[1, 2], [3, 5]]), None, 2)) == (1, 1)
    assert a.canonical().den == 2


def test_canonical_reads_the_gcd_of_signed_entries():
    # the gcd is read from the signed entries, with no |entry| copy; at
    # INT64_MIN numpy returns the gcd 2^63 as INT64_MIN, which must not wrap
    low = np.iinfo(np.int64).min
    a = GaussianRationalMatrix(np.array([[-4, 6]]), np.array([[0, -2]]), 6)
    assert a.content() == 2
    c = a.canonical()
    assert (c.re.tolist(), c.im.tolist(), c.den) == ([[-2, 3]], [[0, -1]], 3)
    assert GaussianRationalMatrix(np.array([[low, 0]]), None, 1 << 64).content() == 1 << 63
    b = GaussianRationalMatrix(np.array([[low, 1 << 62]]), None, 1 << 62).canonical()
    assert (b.re.tolist(), b.den) == ([[-2, 1]], 1)


_BIG = GaussianRationalMatrix(np.array([[1 << 32]]))


@pytest.mark.parametrize("site", [
    lambda: _BIG.abs_sq_int(),
    lambda: _BIG == GaussianRationalMatrix(np.array([[1]]), None, 1 << 31),
    lambda: _BIG @ GaussianRationalMatrix(np.array([[1 << 61]])),
], ids=["abs_sq_int", "aligned", "matmul"])
def test_int64_products_refuse_to_wrap(site):
    # each of these used to wrap silently; (2^32)^2 became 0, and so did
    # 2^32 over the common denominator 2^31
    with pytest.raises(OverflowError):
        site()


@pytest.mark.parametrize("size, entries", [(1, 4), (5, 1), (37, 64), (300, 1 << 15)])
def test_upper_blocks_cover_the_upper_triangle_once(monkeypatch, size, entries):
    # chunks of rows from the diagonal rightward, each within the entry cap
    # or one row, as views; every entry on or above the diagonal in one chunk
    monkeypatch.setattr(scheme, "_BLOCK_ENTRIES", entries)
    mat = GaussianRationalMatrix(np.arange(size * size).reshape(size, size), None, 3)
    seen = np.zeros((size, size), dtype=int)
    next_row = 0
    for rows, cols, re, im in mat.upper_blocks():
        assert rows.start == cols.start == next_row and cols.stop == size
        assert re.size <= entries or rows.stop - rows.start == 1
        assert np.shares_memory(re, mat.re) and np.shares_memory(im, mat.im)
        assert np.array_equal(re, mat.re[rows, cols])
        seen[rows, cols] += 1
        next_row = rows.stop
    assert next_row == size
    assert np.array_equal(seen[np.triu_indices(size)], np.ones(size * (size + 1) // 2))
    with pytest.raises(ValueError, match="not square"):
        next(GaussianRationalMatrix(np.zeros((2, 3), dtype=np.int64)).upper_blocks())


def test_hermitian_and_idempotent_predicates():
    herm = GaussianRationalMatrix(np.array([[2, 1], [1, 0]]),
                                  np.array([[0, 3], [-3, 0]]), 2)
    assert herm.hermitian_defect() is None
    assert GaussianRationalMatrix(np.array([[0, 1], [0, 0]])).hermitian_defect() == (0, 1)
    proj = GaussianRationalMatrix(np.array([[1, 1], [1, 1]]), None, 2)
    assert proj @ proj == proj
    not_proj = GaussianRationalMatrix(np.array([[2, 0], [0, 0]]))
    assert not_proj @ not_proj != not_proj


def test_overflow_guard_fires():
    big = GaussianRationalMatrix(np.full((2, 2), 1 << 33, dtype=np.int64))
    with pytest.raises(OverflowError):
        _ = big @ big


def test_denominator_must_be_positive():
    with pytest.raises(ValueError):
        GaussianRationalMatrix(np.eye(2, dtype=np.int64), None, 0)


def test_parts_keep_int8_and_int64_and_widen_the_rest():
    for dtype in (np.int8, np.int64):
        a = np.array([[1, -2]], dtype=dtype)
        m = GaussianRationalMatrix(a, a)
        assert m.re is a and m.im is a
        assert GaussianRationalMatrix(a).im.dtype == dtype
    for other in (np.array([[1]], dtype=np.int32), np.array([[200]], dtype=np.uint8),
                  np.eye(2), [[1, 2]]):
        m = GaussianRationalMatrix(other, other)
        assert m.re.dtype == m.im.dtype == np.int64
        assert m.re.tolist() == np.asarray(other).astype(np.int64).tolist()


def _plain(x):
    """A result as nested Python values, so int8 and int64 results compare by value."""
    if isinstance(x, GaussianRationalMatrix):
        return x.re.tolist(), x.im.tolist(), x.den
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    return x


# every method of the matrix type, and the functions that read its parts
_METHODS = {
    "max_abs": lambda a, b: a.max_abs(),
    "content": lambda a, b: a.content(),
    "canonical": lambda a, b: a.canonical(),
    "eq": lambda a, b: (a == b, a == a),
    "first_mismatch": lambda a, b: first_mismatch(a, b),
    "trace": lambda a, b: a.trace(),
    "matmul": lambda a, b: a @ b,
    "rescaled": lambda a, b: [a._rescaled(a.den), a._rescaled(3 * a.den)],
    "hermitian_defect": lambda a, b: a.hermitian_defect(),
    "abs_sq_int": lambda a, b: a.abs_sq_int(),
    "gram_tiles": lambda a, b: list(gram_tiles(a.re, a.im)),
}

_INT8 = st.one_of(st.sampled_from([-128, 127, -1, 0, 1]), st.integers(-128, 127))


def _int8_matrix(re, im, den) -> GaussianRationalMatrix:
    return GaussianRationalMatrix(np.array(re, dtype=np.int8), np.array(im, dtype=np.int8), den)


@st.composite
def _int8_pairs(draw):
    """Two n x n int8 matrices; the first holds -128 and the second 127, and
    the first is made Hermitian but for int8's missing 128 when asked."""
    n = draw(st.integers(1, 4))
    dens = st.sampled_from([1, 2, 3, 128, 256, 1000])
    parts = [np.array(draw(st.lists(_INT8, min_size=n * n, max_size=n * n)),
                      dtype=np.int8).reshape(n, n) for _ in range(4)]
    if draw(st.booleans()):
        re, im = parts[0], np.triu(parts[1], 1).astype(np.int64)
        parts[0] = np.triu(re) + np.triu(re, 1).T
        parts[1] = (im - im.T).astype(np.int8)  # 128 wraps to -128: not Hermitian there
    parts[0][0, 0], parts[2][0, 0] = -128, 127
    return (GaussianRationalMatrix(parts[0], parts[1], draw(dens)),
            GaussianRationalMatrix(parts[2], parts[3], draw(dens)))


@settings(max_examples=60, deadline=None)
@given(pair=_int8_pairs())
# each site where int8 would wrap or raise: a rescale and an add, a gcd of 128
# and an all-zero matrix over 1000, the negation of -128, and -128 squared
@example(pair=(_int8_matrix([[127, -128]] * 2, [[0, 1]] * 2, 1),
               _int8_matrix([[127, 1]] * 2, [[-128, 0]] * 2, 2)))
@example(pair=(_int8_matrix([[-128, 0], [0, -128]], [[0, 0]] * 2, 256),
               _int8_matrix([[0, 0]] * 2, [[0, 0]] * 2, 1000)))
@example(pair=(_int8_matrix([[-128, 0], [0, 0]], [[0, -128], [-128, 0]], 1),
               _int8_matrix([[127, 0], [0, 127]], [[0, 0]] * 2, 1)))
def test_int8_parts_match_their_int64_copy(pair):
    a, b = pair
    wide = [GaussianRationalMatrix(m.re.astype(np.int64), m.im.astype(np.int64), m.den)
            for m in pair]
    assert a.re.dtype == b.im.dtype == np.int8
    for name, method in _METHODS.items():
        assert _plain(method(a, b)) == _plain(method(*wide)), name
        assert _plain(method(b, a)) == _plain(method(*wide[::-1])), name


# ---------------------------------------------------------------------------
# group scheme
# ---------------------------------------------------------------------------

def test_group_scheme_axioms_n3(scheme3, group3):
    result = scheme3.verify_axioms()
    p = result["intersection_numbers"]
    assert (p >= 0).all()
    assert scheme3.valencies == tuple(c.size for c in group3.conjugacy_classes)
    assert sum(scheme3.valencies) == scheme3.size
    assert scheme3.class_count == 22


def test_group_scheme_idempotents_n3(scheme3):
    scheme3.verify_idempotents()
    # trivial idempotent is J / order
    e0 = scheme3.idempotent(0)
    n = scheme3.size
    assert e0 == GaussianRationalMatrix(np.ones((n, n), dtype=np.int64), None, n)
    # ranks are the squared degrees
    assert scheme3.ranks[:8] == (1,) * 8
    assert set(scheme3.ranks[8:]) == {4}


def _leading_block(x):
    """An integer 64 x 64 matrix that is x on its leading block and 0 elsewhere."""
    out = np.zeros((64, 64), dtype=np.int64)
    out[:len(x), :len(x)] = x
    return out


_V, _W = np.array([1, -1, 0, 0]), np.array([0, 0, 1, -1])


@pytest.mark.parametrize("x, message", [
    # not Hermitian
    (_leading_block([[0, 1], [0, 0]]), "idempotent 1 is not Hermitian"),
    # Hermitian and traceless, with zero row and column sums, so that E_0 = J / N
    # still annihilates it: only the products of E_1 and E_2 fail
    (_leading_block(np.outer(_V, _W) + np.outer(_W, _V)), "product E_1 E_1 is wrong"),
    # Hermitian, trace 1
    (_leading_block([[1]]), "idempotent 1 has trace 2, expected rank 1"),
], ids=["not-hermitian", "not-idempotent", "trace"])
def test_verify_idempotents_rejects_a_shifted_pair(scheme3, x, message):
    # E_1 + X and E_2 - X still sum, with the rest, to the identity
    def shifted(j):
        e = scheme3.idempotent(j)
        step = {1: 1, 2: -1}.get(j, 0) * e.den * x
        return GaussianRationalMatrix(e.re + step, e.im, e.den)

    shifted_scheme = dataclasses.replace(scheme3)
    shifted_scheme.idempotent = shifted
    with pytest.raises(AssertionError, match=message):
        shifted_scheme.verify_idempotents()


def test_idempotents_constant_on_relations(scheme3):
    rel = scheme3.relation_index
    for j in (0, 5, 9, 20):
        e = scheme3.idempotent(j)
        for i in range(scheme3.class_count):
            mask = rel == i
            assert len(np.unique(e.re[mask])) == 1
            assert len(np.unique(e.im[mask])) == 1


def test_gram_projector_basics(scheme3, table3):
    full = gram_projector(scheme3, range(scheme3.class_count))
    assert full == GaussianRationalMatrix.identity(scheme3.size)
    with pytest.raises(ValueError):
        gram_projector(scheme3, ())
    gd = gram_projector(scheme3, table3.d_set)
    assert gd @ gd == gd and gd.hermitian_defect() is None
    assert gd.trace() == (Fraction(28), Fraction(0))
    assert _entry(gd, 0, 0) == (Fraction(28, 64), Fraction(0))


def test_krein_parameters_n3(scheme3):
    q = scheme3.krein  # raises on negativity
    d1 = scheme3.class_count
    assert all(q[i][j] == q[j][i] for i in range(d1) for j in range(d1))
    # mass identity from tracing the defining expansion:
    # sum_k q_ijk m_k = m_i m_j
    for i in range(d1):
        for j in range(d1):
            total = sum(q[i][j][k] * scheme3.ranks[k] for k in range(d1))
            assert total == scheme3.ranks[i] * scheme3.ranks[j]


def test_krein_matches_character_sum_formula(scheme3, table3, group3):
    # q_(eta,tau)^chi = (d_eta d_tau / d_chi) (1/|G|) sum_g eta tau conj(chi),
    # and the inner sum is the (integer) multiplicity of chi in eta x tau;
    # every triple, so the mirrored half q[j][i] (i < j) is checked too
    q = scheme3.krein
    re, im = table3.value_arrays
    w = np.array([c.size for c in group3.conjugacy_classes], dtype=np.int64)
    prod_re = re[:, None] * re[None, :] - im[:, None] * im[None, :]
    prod_im = re[:, None] * im[None, :] + im[:, None] * re[None, :]
    s_re = (np.einsum("etx,cx,x->etc", prod_re, re, w)
            + np.einsum("etx,cx,x->etc", prod_im, im, w))
    s_im = (np.einsum("etx,cx,x->etc", prod_im, re, w)
            - np.einsum("etx,cx,x->etc", prod_re, im, w))
    assert not s_im.any()
    assert not (s_re % group3.order).any() and (s_re >= 0).all()
    mult = s_re // group3.order
    deg = table3.degrees
    for e, t, c in itertools.product(range(len(deg)), repeat=3):
        assert q[e][t][c] == Fraction(deg[e] * deg[t], deg[c]) * int(mult[e, t, c])


def _krein_by_traces(desc):
    """q_ijk = n tr((E_i o E_j) E_k) / m_k straight from the N x N idempotents,
    with m_k = tr E_k.

    The traces are int64 sums of products of the idempotents' integer
    parts, the bound of every partial sum asserted below 2^62, so each is
    exact; they are read out as Python ints into Fractions.
    """
    n, c = desc.size, desc.class_count
    idems = [desc.idempotent(j) for j in range(c)]
    den = math.lcm(*(e.den for e in idems))
    scaled = [(e.re * (den // e.den), e.im * (den // e.den)) for e in idems]
    flat_re, flat_im = (np.stack([part[t].ravel() for part in scaled]) for t in (0, 1))
    # E_k^T, so that tr(X E_k) is the sum of X o E_k^T
    tr_re, tr_im = (np.stack([part[t].T.ravel() for part in scaled]) for t in (0, 1))
    top = max(int(np.abs(flat_re).max()), int(np.abs(flat_im).max()))
    assert 4 * top ** 3 * n * n < 1 << 62
    ranks = [e.trace() for e in idems]
    assert all(im == 0 for _, im in ranks)
    q = []
    for i in range(c):
        had_re = flat_re[i] * flat_re - flat_im[i] * flat_im
        had_im = flat_re[i] * flat_im + flat_im[i] * flat_re
        sum_re = (had_re @ tr_re.T - had_im @ tr_im.T).tolist()
        assert not (had_re @ tr_im.T + had_im @ tr_re.T).any()
        q.append([[Fraction(n * int(sum_re[j][k]), den ** 3) / ranks[k][0] for k in range(c)]
                  for j in range(c)])
    return q


def _petersen_adjacency():
    """The Petersen graph, SRG(10, 3, 0, 1): 2-subsets of 5 points, adjacent when disjoint."""
    pairs = [set(p) for p in itertools.combinations(range(5), 2)]
    return np.array([[int(not a & b) for b in pairs] for a in pairs])


def _scheme_named(request, name):
    """The n = 3 group scheme, or srg-v-k-lambda-mu: a built-in graph, or
    the Petersen graph, whose eigenmatrix has denominator 3."""
    if name == "group-n3":
        return request.getfixturevalue("scheme3")
    params = tuple(map(int, name.split("-")[1:]))
    graph = _petersen_adjacency() if params == (10, 3, 0, 1) else None
    return srg_scheme(*params, adjacency=graph)[0]


@pytest.mark.parametrize("name", ["group-n3", "srg-16-6-2-2", "srg-9-4-1-2", "srg-10-3-0-1"])
def test_krein_matches_the_trace_oracle(request, name):
    # the eigenmatrix formula against the definition, on the idempotent matrices
    desc = _scheme_named(request, name)
    assert desc.krein == _krein_by_traces(desc)
    if desc.kind == "srg":
        m = desc.ranks
        for i, j in itertools.product(range(3), repeat=2):
            assert sum(desc.krein[i][j][k] * m[k] for k in range(3)) == m[i] * m[j]


@pytest.mark.parametrize("name", ["group-n3", "srg-16-6-2-2", "srg-10-3-0-1"])
@pytest.mark.parametrize("change, message", [
    # one entry: the columns of Q no longer sum to N e_0, nor the idempotents to I
    ({(1, 1): 1}, "idempotents do not sum to the identity"),
    ({(0, 2): -1}, "idempotents do not sum to the identity"),
    # two entries of one row, so the sum still holds: the products fail
    ({(1, 1): 1, (1, 2): -1}, "idempotent"),
], ids=["one-entry", "rank-entry", "row-preserving-pair"])
def test_verify_idempotents_rejects_a_changed_eigenmatrix(request, name, change, message):
    desc = _scheme_named(request, name)
    q = desc.eigenmatrix
    re = q.re.copy()
    for at, step in change.items():
        re[at] += step
    mutant = dataclasses.replace(desc, eigenmatrix=GaussianRationalMatrix(re, q.im, q.den))
    with pytest.raises(AssertionError, match=message):
        mutant.verify_idempotents()


def test_petersen_scheme_passes_its_checks():
    desc, _ = srg_scheme(10, 3, 0, 1, adjacency=_petersen_adjacency())
    assert desc.eigenmatrix.den == 3 and desc.ranks == (1, 5, 4)
    desc.verify_axioms()
    desc.verify_idempotents()


def test_krein_condition_rejects_srg_28_9_0_4():
    # feasible parameters with no graph: eigenvalues 1 and -5 of multiplicities
    # 21 and 6, so Q = [[1, 21, 6], [1, 7/3, -10/3], [1, -7/3, 4/3]], and q_22^2 < 0;
    # krein reads only the valencies and Q, never the relation index
    q = GaussianRationalMatrix(np.array([[3, 63, 18], [3, 7, -10], [3, -7, 4]]), None, 3)

    def no_index():
        raise AssertionError("the relation index was read")

    desc = scheme.SchemeDescriptor(28, (1, 9, 18), q, "srg", no_index)
    assert desc.valencies == (1, 9, 18) and desc.ranks == (1, 21, 6)
    with pytest.raises(AssertionError, match=r"q\[2\]\[2\]\[2\] = -4/9 < 0"):
        desc.krein


def test_krein_stays_within_its_memory_budget_n3(group3, table3):
    # the c^2 x c pair table and its one product, with no N x N idempotent
    desc = scheme.group_scheme(group3, table3)
    tracemalloc.start()
    try:
        desc.krein
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_hyperdiff_suzuki_family(scheme3, table3):
    report = hyperdiff_check(scheme3, table3.d_set)
    assert report.is_hyperdifference
    assert report.m == 28
    assert all(b == 12 for b in report.b[1:])
    assert report.b[0] == report.m
    assert report.c1 == Fraction(1, 4)
    assert report.c2 == Fraction(3, 16)
    assert report.off_diag_modulus_sq == Fraction(1, 256)


def test_hyperdiff_matrix_identity(scheme3, table3):
    # entrywise squared Gram equals C1 E_0 + C2 I
    report = hyperdiff_check(scheme3, table3.d_set)
    gd = gram_projector(scheme3, table3.d_set)
    sq, sq_den = gd.abs_sq_int()
    n = scheme3.size
    for g in range(n):
        for h in range(n):
            want = report.c1 / n + (report.c2 if g == h else 0)
            assert Fraction(int(sq[g, h]), sq_den) == want


def test_hyperdiff_trivial_and_negative_cases(scheme3, table3):
    trivial = hyperdiff_check(scheme3, (0,))
    assert trivial.is_hyperdifference
    assert trivial.off_diag_modulus_sq == Fraction(1, scheme3.size ** 2)
    single = hyperdiff_check(scheme3, (table3.d_set[0],))
    assert not single.is_hyperdifference
    assert single.c1 is None
    everything = hyperdiff_check(scheme3, range(scheme3.class_count))
    assert everything.is_hyperdifference  # flat zeros; degenerate for ETF use


def _krein_triple_sum(desc, d_subset, table=None):
    """b_k = sum_{i,j in D} q_{i, dual(j)}^k from the Krein tensor: dual(j) is
    the row of the character table conjugate to row j, or j itself for a
    scheme whose Q is real."""
    if table is None:
        assert not desc.eigenmatrix.im.any()
        dual = list(range(desc.class_count))
    else:
        re, im = (a.astype(np.int64) for a in table.value_arrays)
        dual = [int(np.flatnonzero((re == re[j]).all(axis=1) & (im == -im[j]).all(axis=1))[0])
                for j in range(len(re))]
    krein = desc.krein
    return tuple(sum((krein[i][dual[j]][k] for i in d_subset for j in d_subset),
                     start=Fraction(0))
                 for k in range(desc.class_count))


_GROUP_SUBSETS = {
    "D": lambda t: t.d_set,
    "trivial": lambda t: (0,),
    "one-character": lambda t: t.d_set[:1],
    "every-class": lambda t: tuple(range(len(t.characters))),
    "D-less-one": lambda t: t.d_set[1:],
    "D-plus-trivial": lambda t: (0,) + t.d_set,
}


@pytest.mark.parametrize("n, subset", [(3, name) for name in _GROUP_SUBSETS] + [(5, "D")])
def test_hyperdiff_b_is_the_krein_triple_sum_group(request, n, subset):
    table = request.getfixturevalue(f"table{n}")
    desc = scheme.group_scheme(table.group, table)
    d = _GROUP_SUBSETS[subset](table)
    b = hyperdiff_check(desc, d).b
    assert all(type(x) is Fraction for x in b)
    assert b == _krein_triple_sum(desc, d, table)


@pytest.mark.parametrize("name", ["srg-16-6-2-2", "srg-9-4-1-2", "srg-10-3-0-1"])
@pytest.mark.parametrize("d", [(1,), (2,), (0, 2)])
def test_hyperdiff_b_is_the_krein_triple_sum_srg(request, name, d):
    desc = _scheme_named(request, name)
    assert hyperdiff_check(desc, d).b == _krein_triple_sum(desc, d)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_hyperdiff_rejects_d_less_one_and_d_plus_trivial(request, n):
    table = request.getfixturevalue(f"table{n}")
    desc = scheme.group_scheme(table.group, table)
    assert hyperdiff_check(desc, table.d_set).is_hyperdifference
    for d in (table.d_set[1:], (0,) + table.d_set):
        report = hyperdiff_check(desc, d)
        assert not report.is_hyperdifference and report.c1 is None


@pytest.mark.parametrize("part, at, message", [
    ("im", (1, 0), "Krein sum came out non-real"),
    ("re", (2, 1), "hyperdifference criteria disagree"),
], ids=["non-real", "disagree"])
def test_hyperdiff_refuses_a_changed_eigenmatrix(scheme3, table3, part, at, message):
    # one entry of a column of Q outside D: s and criterion (a) are unchanged, b is not
    q = scheme3.eigenmatrix
    parts = {"re": q.re.copy(), "im": q.im.copy()}
    parts[part][at] += 1
    mutant = dataclasses.replace(scheme3, eigenmatrix=GaussianRationalMatrix(
        parts["re"], parts["im"], q.den))
    with pytest.raises(AssertionError, match=message):
        hyperdiff_check(mutant, table3.d_set)


def test_hyperdiff_n7_stays_within_its_memory_budget(table7):
    # Q and the class sizes only: the 2^14 x 2^14 relation index, 2^28
    # entries, is built on its first read, which neither makes
    tracemalloc.start()
    try:
        desc = scheme.group_scheme(table7.group, table7)
        report = hyperdiff_check(desc, table7.d_set)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert "relation_index" not in vars(desc)
    assert report.is_hyperdifference and set(report.b[1:]) == {4032}


# ---------------------------------------------------------------------------
# strongly regular graphs
# ---------------------------------------------------------------------------

def test_lattice_graph_is_srg():
    a = lattice_graph_adjacency(4)
    j = np.ones((16, 16), dtype=np.int64)
    i = np.eye(16, dtype=np.int64)
    assert np.array_equal(a @ a, 6 * i + 2 * a + 2 * (j - i - a))
    assert (a.sum(axis=1) == 6).all()


def test_srg_16_6_2_2():
    desc, report = srg_scheme(16, 6, 2, 2)
    assert desc.meta["eig_plus"] == 2 and desc.meta["eig_minus"] == -2
    assert desc.meta["criterion"] == "2k-v = 2*eig_minus"
    assert report.d_subset == (1,)
    assert report.is_hyperdifference
    assert report.off_diag_modulus_sq == Fraction(1, 64)
    assert desc.ranks == (1, 6, 9)
    desc.verify_axioms()
    desc.verify_idempotents()


def test_srg_idempotent_matches_eigenprojector_oracle():
    # E_1 must equal the Lagrange projector (A - 6I)(A + 2I) / ((2-6)(2+2))
    desc, _ = srg_scheme(16, 6, 2, 2)
    a = lattice_graph_adjacency(4)
    i = np.eye(16, dtype=np.int64)
    assert desc.idempotent(1) == GaussianRationalMatrix(-(a - 6 * i) @ (a + 2 * i), None, 16)


def test_srg_complement_subset_is_also_flat():
    desc, _ = srg_scheme(16, 6, 2, 2)
    other = hyperdiff_check(desc, (0, 2))
    assert other.is_hyperdifference
    assert other.m == 10


def test_srg_9_4_1_2_builtin():
    desc, report = srg_scheme(9, 4, 1, 2)
    assert desc.meta["eig_plus"] == 1 and desc.meta["eig_minus"] == -2
    desc.verify_axioms()
    desc.verify_idempotents()


def test_srg_rejections():
    with pytest.raises(ValueError, match="conference"):
        srg_scheme(5, 2, 0, 1)
    with pytest.raises(ValueError, match="SRG identity"):
        # Clebsch parameters have integer eigenvalues but a different graph
        srg_scheme(16, 5, 0, 2, adjacency=lattice_graph_adjacency(4))
    with pytest.raises(ValueError, match="no built-in"):
        srg_scheme(25, 8, 3, 2)
    bad = lattice_graph_adjacency(4)
    bad[0, 0] = 1
    with pytest.raises(ValueError, match="simple graph"):
        srg_scheme(16, 6, 2, 2, adjacency=bad)
