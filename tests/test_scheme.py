import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

def fraction_matmul(a: GaussianRationalMatrix, b: GaussianRationalMatrix):
    """Entrywise Fraction oracle for the complex matrix product."""
    n, k = a.shape
    _, m = b.shape
    out = [[None] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            sre, sim = Fraction(0), Fraction(0)
            for t in range(k):
                ar, ai = a.entry(i, t)
                br, bi = b.entry(t, j)
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
                assert prod.entry(i, j) == oracle[i][j]


def test_add_sub_and_equality_across_denominators():
    a = GaussianRationalMatrix(np.array([[2, 4], [6, 8]]), None, 4)
    b = GaussianRationalMatrix(np.array([[1, 2], [3, 4]]), None, 2)
    assert a == b
    assert (a - b).max_abs() == 0
    c = a + b
    assert c.entry(0, 0) == (Fraction(1), Fraction(0))
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
    lambda: _BIG + GaussianRationalMatrix(np.array([[1]]), None, 1 << 31),
    lambda: _BIG @ GaussianRationalMatrix(np.array([[1 << 61]])),
], ids=["abs_sq_int", "aligned", "matmul"])
def test_int64_products_refuse_to_wrap(site):
    # each of these used to wrap silently; (2^32)^2 became 0
    with pytest.raises(OverflowError):
        site()


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
    "entry": lambda a, b: [a.entry(i, j) for i, j in np.ndindex(a.shape)],
    "trace": lambda a, b: a.trace(),
    "matmul": lambda a, b: a @ b,
    "rescaled": lambda a, b: [a._rescaled(a.den), a._rescaled(3 * a.den)],
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
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
    return GaussianRationalMatrix(out)


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
        return {1: e + x, 2: e - x}.get(j, e)

    with pytest.raises(AssertionError, match=message):
        dataclasses.replace(scheme3, idempotent_builder=shifted).verify_idempotents()


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
    assert gd.entry(0, 0) == (Fraction(28, 64), Fraction(0))


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
    a = GaussianRationalMatrix(lattice_graph_adjacency(4))
    six_i = GaussianRationalMatrix(6 * np.eye(16, dtype=np.int64))
    two_i = GaussianRationalMatrix(2 * np.eye(16, dtype=np.int64))
    numer = (a - six_i) @ (a + two_i)
    oracle = GaussianRationalMatrix(-numer.re, -numer.im, 16 * numer.den)
    assert desc.idempotent(1) == oracle


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
