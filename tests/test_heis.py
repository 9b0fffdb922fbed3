import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from linepack.bgroup import GroupContext
from linepack.gf2n import FieldContext
from linepack.heis import (
    MonomialMatrix,
    RepContext,
    heisenberg_generators,
    modulation_matrices,
    translation_matrices,
)


def dense_complex(mono: MonomialMatrix) -> np.ndarray:
    re, im = mono.dense()
    return re + 1j * im


# ---------------------------------------------------------------------------
# monomial algebra
# ---------------------------------------------------------------------------

def random_monomial(rng, size):
    perm = list(range(size))
    rng.shuffle(perm)
    return MonomialMatrix(tuple(perm), tuple(rng.randrange(4) for _ in range(size)))


def test_monomial_product_matches_dense_matmul():
    rng = random.Random(40)
    for _ in range(200):
        size = rng.choice([2, 4, 8])
        a, b = random_monomial(rng, size), random_monomial(rng, size)
        assert np.array_equal(dense_complex(a @ b), dense_complex(a) @ dense_complex(b))


def test_monomial_trace():
    rng = random.Random(41)
    for _ in range(100):
        size = rng.choice([2, 4])
        a = random_monomial(rng, size)
        re, im = a.trace()
        assert complex(re, im) == pytest.approx(np.trace(dense_complex(a)))


# ---------------------------------------------------------------------------
# Heisenberg generators
# ---------------------------------------------------------------------------

def test_k1_generator_matrices():
    (t0,), (m0,) = heisenberg_generators(1)
    assert np.array_equal(dense_complex(t0), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(dense_complex(m0), np.array([[1, 0], [0, -1]]))
    anti = t0 @ m0
    assert anti == (m0 @ t0).times_i_power(2)  # T M = -M T


@pytest.mark.parametrize("k", [1, 2, 3])
def test_power_and_commuting_relations(k):
    ts, ms = heisenberg_generators(k)
    ident = MonomialMatrix.identity(1 << k)
    for s in range(k):
        assert ts[s] @ ts[s] == ident
        assert ms[s] @ ms[s] == ident
        for t in range(k):
            assert ts[s] @ ts[t] == ts[t] @ ts[s]
            assert ms[s] @ ms[t] == ms[t] @ ms[s]
            lhs = ts[s] @ ms[t]
            rhs = ms[t] @ ts[s]
            if s == t:
                rhs = rhs.times_i_power(2)
            assert lhs == rhs


def closure(generators, size):
    group = {MonomialMatrix.identity(size)}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for h in generators:
            nxt = g @ h
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return group


@pytest.mark.parametrize("k", [1, 2])
def test_group_orders_by_closure(k):
    ts, ms = heisenberg_generators(k)
    size = 1 << k
    assert len(closure(ts + ms, size)) == 1 << (2 * k + 1)
    extended = closure(ts + ms + [MonomialMatrix.scalar(size, 1)], size)
    assert len(extended) == 1 << (2 * k + 2)


# ---------------------------------------------------------------------------
# the representation
# ---------------------------------------------------------------------------

def test_rep_identity_and_center(group3, rep3):
    assert rep3.rep((0, 0)) == MonomialMatrix.identity(2)
    field = group3.field
    for y in field.elements():
        want = MonomialMatrix.scalar(2, 2 * field.trace(y))
        assert rep3.rep((0, y)) == want


def test_rep_on_first_alpha_squares_to_minus_identity(group3, rep3):
    field = group3.field
    a0 = rep3.alphas[0]
    assert a0 == field.artin_schreier_section(field.symplectic_basis()[0][0])
    assert field.trace(field.cube(a0)) == 1
    sq = rep3.rep((a0, 0)) @ rep3.rep((a0, 0))
    assert sq == MonomialMatrix.scalar(2, 2)
    # consistent through the group: (a0, 0)^2 = (0, a0^3)
    assert group3.mul((a0, 0), (a0, 0)) == (0, field.cube(a0))


@pytest.mark.parametrize("fixture_name", ["rep3", "rep5"])
def test_rep_is_homomorphism(fixture_name, request):
    rep = request.getfixturevalue(fixture_name)
    group = rep.group
    q = group.field.order
    rng = random.Random(42)
    for _ in range(1000):
        a = (rng.randrange(q), rng.randrange(q))
        b = (rng.randrange(q), rng.randrange(q))
        assert rep.rep(group.mul(a, b)) == rep.rep(a) @ rep.rep(b)
        assert rep.rep(a) @ rep.rep(group.inv(a)) == MonomialMatrix.identity(rep.dim)


def test_dependent_basis_is_rejected(monkeypatch):
    # the subset pass reaches every x once only for an independent basis;
    # a section that repeats a generator makes two subsets collide
    field = FieldContext(5)
    xs, ys = field.symplectic_basis()
    section = field.artin_schreier_section
    monkeypatch.setattr(field, "artin_schreier_section",
                        lambda u: section(xs[0]) if u == ys[-1] else section(u))
    rep = RepContext(GroupContext(field))
    assert rep.betas[-1] == rep.alphas[0]
    with pytest.raises(AssertionError, match="linearly dependent"):
        rep._rep_x0


@pytest.mark.parametrize("n, digest", [
    (7, "e59fad39fa9266f589e86828a6e13952b8a3475295fb8932eec472bdf3d7267c"),
    (9, "16edd68e75946767b20fb224c9a54ce8a35a71d1460021253ce468b38e09fe67"),
])
def test_dense_x0_pinned(n, digest):
    # sha256 of the little-endian int64 re bytes, then the im bytes
    re, im = RepContext(GroupContext(FieldContext(n))).dense_x0
    raw = re.astype("<i8").tobytes() + im.astype("<i8").tobytes()
    assert hashlib.sha256(raw).hexdigest() == digest


@pytest.mark.parametrize("fixture_name", ["rep3", "rep5", "rep7"])
def test_presentation_relations_on_generators(fixture_name, request):
    # images of the basis elements satisfy the quotient-group presentation:
    # squares hit the central sign by the cube trace, and swapping two
    # generators costs the central sign to the power of their pairing
    rep = request.getfixturevalue(fixture_name)
    field = rep.field
    central = MonomialMatrix.scalar(rep.dim, 2)
    images = [rep.rep((b, 0)) for b in rep.basis]
    for b, img in zip(rep.basis, images):
        want = img @ img
        expect = MonomialMatrix.scalar(rep.dim, 2 * field.trace(field.cube(b)))
        assert want == expect
    for (bi, fi), (bj, fj) in itertools.product(zip(rep.basis, images), repeat=2):
        rhs = fj @ fi
        if field.symplectic_pairing(bi, bj):
            rhs = rhs @ central
        assert fi @ fj == rhs


def test_rep_image_is_monomial_with_unit_entries(rep3):
    rng = random.Random(44)
    q = rep3.field.order
    for _ in range(50):
        g = (rng.randrange(q), rng.randrange(q))
        mono = rep3.rep(g)
        dense = dense_complex(mono)
        nonzero = dense[dense != 0]
        assert len(nonzero) == rep3.dim
        assert set(np.abs(nonzero)) == {1.0}
        assert (np.abs(dense) != 0).sum(axis=0).max() == 1


def test_twisted_family(group3, rep3, table3, row_of):
    # gamma = 1 is the untwisted representation
    for g in group3.elements():
        assert rep3.rep_twisted(1, g) == rep3.rep(g)
    # traces reproduce the "+" family on every class
    re, im = table3.value_arrays
    for gamma in group3.field.nonzero_elements():
        idx = row_of(table3, f"nl+[{gamma}]")
        for ci, cls in enumerate(group3.conjugacy_classes):
            assert rep3.rep_twisted(gamma, cls.representative).trace() == (re[idx, ci], im[idx, ci])


def test_twisted_family_is_irreducible_by_trace_norm(group3, rep3):
    # sum over the group of |trace|^2 equals the order exactly
    for gamma in group3.field.nonzero_elements():
        total = 0
        for cls in group3.conjugacy_classes:
            re, im = rep3.rep_twisted(gamma, cls.representative).trace()
            total += cls.size * (re * re + im * im)
        assert Fraction(total, group3.order) == 1


def test_generator_lists_shapes():
    assert len(translation_matrices(3)) == 3
    assert len(modulation_matrices(3)) == 3
    with pytest.raises(ValueError):
        heisenberg_generators(0)
