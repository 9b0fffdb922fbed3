import random

import pytest

from linepack.gf2n import FieldContext, is_irreducible, least_irreducible


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def clmul(a: int, b: int) -> int:
    """Carry-less schoolbook product of two GF(2) polynomials."""
    r = 0
    shift = 0
    while b:
        if b & 1:
            r ^= a << shift
        b >>= 1
        shift += 1
    return r


def polymod(a: int, m: int) -> int:
    """Long division remainder of a by m over GF(2)."""
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def mul_oracle(ctx: FieldContext, a: int, b: int) -> int:
    return polymod(clmul(a, b), ctx.modulus)


def trace_oracle(ctx: FieldContext, a: int) -> int:
    """Sum of Frobenius powers computed through the multiply oracle."""
    total = 0
    p = a
    for _ in range(ctx.n):
        total ^= p
        p = mul_oracle(ctx, p, p)
    assert total in (0, 1)
    return total


# ---------------------------------------------------------------------------
# modulus selection
# ---------------------------------------------------------------------------

def test_default_modulus_n3_is_lex_least():
    assert FieldContext(3).modulus == 0b1011


def test_least_irreducible_matches_exhaustive_factor_scan():
    # a degree-n polynomial is irreducible iff no product of two smaller
    # polynomials reproduces it
    for n in (3, 5):
        products = set()
        for da in range(1, n):
            for a in range(1 << da, 1 << (da + 1)):
                for b in range(1 << (n - da), 1 << (n - da + 1)):
                    products.add(clmul(a, b))
        irreducible = [m for m in range(1 << n, 1 << (n + 1)) if m not in products]
        assert least_irreducible(n) == min(irreducible)
        for m in range(1 << n, 1 << (n + 1)):
            assert is_irreducible(m, n) == (m not in products)


def test_reducible_modulus_rejected():
    # x^3 + x^2 + x + 1 = (x + 1)^3
    with pytest.raises(ValueError):
        FieldContext(3, modulus=0b1111)


def test_even_or_small_degree_rejected():
    with pytest.raises(ValueError):
        FieldContext(4)
    with pytest.raises(ValueError):
        FieldContext(1)


# ---------------------------------------------------------------------------
# multiplication and inversion
# ---------------------------------------------------------------------------

def test_mul_examples_n3(field3):
    assert field3.mul(0b010, 0b010) == 0b100
    assert field3.mul(0b010, 0b100) == 0b011  # x * x^2 = x^3 = x + 1
    for a in field3.elements():
        assert field3.mul(a, 0b001) == a


def test_mul_matches_oracle_exhaustive_n3(field3):
    for a in field3.elements():
        for b in field3.elements():
            assert field3.mul(a, b) == mul_oracle(field3, a, b)


@pytest.mark.parametrize("n", [5, 7])
def test_mul_matches_oracle_sampled(n):
    ctx = FieldContext(n)
    rng = random.Random(90 + n)
    for _ in range(2000):
        a = rng.randrange(ctx.order)
        b = rng.randrange(ctx.order)
        assert ctx.mul(a, b) == mul_oracle(ctx, a, b)


def test_ring_axioms_sampled(field5):
    rng = random.Random(17)
    for _ in range(500):
        a, b, c = (rng.randrange(field5.order) for _ in range(3))
        assert field5.mul(a, b) == field5.mul(b, a)
        assert field5.mul(field5.mul(a, b), c) == field5.mul(a, field5.mul(b, c))
        assert field5.mul(a, b ^ c) == field5.mul(a, b) ^ field5.mul(a, c)


def test_inverse(field3, field5):
    assert field3.inv(0b010) == 0b101
    assert field3.inv(0b001) == 0b001
    for ctx in (field3, field5):
        for a in ctx.nonzero_elements():
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.inv(ctx.inv(a)) == a
    with pytest.raises(ZeroDivisionError):
        field3.inv(0)


def test_cube_map_bijective_on_nonzero():
    for n in (3, 5, 7):
        ctx = FieldContext(n)
        cubes = {ctx.cube(a) for a in ctx.nonzero_elements()}
        assert len(cubes) == ctx.order - 1


@pytest.mark.parametrize("n", [3, 5, 7])
def test_lookup_tables_match_oracle_exhaustive(n):
    # the frame, character and closed-form Gram routes all read these tables
    ctx = FieldContext(n)
    elements = range(ctx.order)
    assert ctx.mul_table.tolist() == [[mul_oracle(ctx, a, b) for b in elements]
                                      for a in elements]
    assert ctx.square_table.tolist() == [mul_oracle(ctx, a, a) for a in elements]
    cubes = [mul_oracle(ctx, mul_oracle(ctx, a, a), a) for a in elements]
    assert ctx.cube_table.tolist() == cubes
    inverse_cubes = ctx.inverse_cube_table.tolist()
    assert inverse_cubes[0] == 0
    for a in ctx.nonzero_elements():
        assert mul_oracle(ctx, inverse_cubes[a], cubes[a]) == 1
    assert ctx.trace_table.tolist() == [trace_oracle(ctx, a) for a in elements]


def test_inverse_and_mul_match_oracle_n9():
    # x does not generate the multiplicative group under the default modulus
    # x^9 + x + 1, so tables built on powers of x would miss elements here
    ctx = FieldContext(9)
    assert ctx.modulus == 0b1000000011
    for a in ctx.nonzero_elements():
        assert mul_oracle(ctx, ctx.inv(a), a) == 1
    rng = random.Random(99)
    for _ in range(2000):
        a = rng.randrange(ctx.order)
        b = rng.randrange(ctx.order)
        assert ctx.mul(a, b) == mul_oracle(ctx, a, b)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_examples(field3):
    assert field3.trace(0) == 0
    assert field3.trace(1) == 1
    assert field3.trace(0b010) == 0


def test_trace_matches_oracle():
    for n in (3, 5):
        ctx = FieldContext(n)
        for a in ctx.elements():
            assert ctx.trace(a) == trace_oracle(ctx, a)


def test_trace_linear_and_frobenius_invariant(field5):
    rng = random.Random(23)
    for _ in range(500):
        a, b = rng.randrange(field5.order), rng.randrange(field5.order)
        assert field5.trace(a ^ b) == field5.trace(a) ^ field5.trace(b)
        assert field5.trace(field5.square(a)) == field5.trace(a)


def test_trace_kernel_size_and_surjectivity():
    for n in (3, 5, 7):
        ctx = FieldContext(n)
        zeros = sum(1 for a in ctx.elements() if ctx.trace(a) == 0)
        assert zeros == ctx.order // 2
        assert any(ctx.trace(a) == 1 for a in ctx.elements())


# ---------------------------------------------------------------------------
# Artin-Schreier pair
# ---------------------------------------------------------------------------

def test_section_example_n3(field3):
    assert field3.artin_schreier_section(0b010) == 0b100  # x + x^4 = x^2
    assert field3.artin_schreier_section(0b001) == 0  # 1 + 1


def test_pair_composes_to_identity_plus_trace():
    for n in (3, 5):
        ctx = FieldContext(n)
        for a in ctx.elements():
            want = a ^ ctx.trace(a)
            assert ctx.artin_schreier(ctx.artin_schreier_section(a)) == want
            assert ctx.artin_schreier_section(ctx.artin_schreier(a)) == want


def test_pair_mutually_inverse_on_trace_zero():
    for n in (3, 5):
        ctx = FieldContext(n)
        zero_set = set(ctx.trace_zero())
        for a in zero_set:
            th = ctx.artin_schreier_section(a)
            et = ctx.artin_schreier(a)
            assert th in zero_set and et in zero_set
            assert ctx.artin_schreier(th) == a
            assert ctx.artin_schreier_section(et) == a


def test_pairing_bridge_exhaustive_n3(field3):
    # the symmetric form of deformed elements equals the trace form
    for x in field3.trace_zero():
        for y in field3.trace_zero():
            lhs = field3.symplectic_pairing(
                field3.artin_schreier_section(x), field3.artin_schreier_section(y))
            assert lhs == field3.trace(field3.mul(x, y))


@pytest.mark.parametrize("n", [5, 7])
def test_pairing_bridge_sampled(n):
    ctx = FieldContext(n)
    zeros = ctx.trace_zero()
    rng = random.Random(31 + n)
    for _ in range(10_000):
        x, y = rng.choice(zeros), rng.choice(zeros)
        lhs = ctx.symplectic_pairing(
            ctx.artin_schreier_section(x), ctx.artin_schreier_section(y))
        assert lhs == ctx.trace(ctx.mul(x, y))


# ---------------------------------------------------------------------------
# hyperplanes
# ---------------------------------------------------------------------------

def test_hyperplane_quotient_basics(field3):
    for u in field3.nonzero_elements():
        assert field3.hyperplane_quotient(u, 0) == 0
    kernel = [v for v in field3.elements() if field3.hyperplane_quotient(1, v) == 0]
    assert kernel == [0b000, 0b010, 0b100, 0b110]
    with pytest.raises(ZeroDivisionError):
        field3.hyperplane_quotient(0, 1)


def test_hyperplanes_distinct():
    for n in (3, 5):
        ctx = FieldContext(n)
        planes = {u: frozenset(ctx.hyperplane(u)) for u in ctx.nonzero_elements()}
        assert len(set(planes.values())) == ctx.order - 1
        for h in planes.values():
            assert len(h) == ctx.order // 2


# ---------------------------------------------------------------------------
# symplectic bases
# ---------------------------------------------------------------------------

def test_symplectic_basis_n3(field3):
    xs, ys = field3.symplectic_basis()
    assert (xs, ys) == ([0b010], [0b100])
    assert field3.trace(field3.mul(xs[0], ys[0])) == 1


@pytest.mark.parametrize("n", [3, 5, 7])
def test_symplectic_basis_validates(n):
    ctx = FieldContext(n)
    xs, ys = ctx.symplectic_basis()
    assert len(xs) == ctx.k
    ctx.validate_symplectic_basis(xs, ys)  # raises on any bad pairing


def test_validator_rejects_bad_basis(field5):
    xs, ys = field5.symplectic_basis()
    with pytest.raises(ValueError):
        field5.validate_symplectic_basis(xs, list(reversed(ys)) if ys[0] != ys[-1] else xs)
    with pytest.raises(ValueError):
        field5.validate_symplectic_basis(xs, xs)


@pytest.mark.parametrize("n", [3, 5])
def test_self_dual_normal_basis(n):
    ctx = FieldContext(n)
    z = ctx.self_dual_normal_basis()
    assert 1 <= z < ctx.order
    powers = [z]
    for _ in range(n - 1):
        powers.append(ctx.square(powers[-1]))
    for i in range(n):
        for j in range(n):
            want = 1 if i == j else 0
            assert ctx.trace(ctx.mul(powers[i], powers[j])) == want
    # derived symplectic basis passes the full validator
    ctx.symplectic_from_normal_basis(z)
