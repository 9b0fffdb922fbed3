import random

import numpy as np
import pytest


def brute_force_classes(group):
    """Conjugacy classes by direct orbit computation (oracle)."""
    everyone = list(group.elements())
    seen = set()
    classes = []
    for g in everyone:
        if g in seen:
            continue
        orbit = sorted({group.conjugate(g, h) for h in everyone})  # x << n | y order
        seen.update(orbit)
        classes.append(tuple(orbit))
    return classes


def test_group_axioms_n3(group3):
    e = group3.identity
    rng = random.Random(5)
    everyone = list(group3.elements())
    for g in everyone:
        assert group3.mul(e, g) == g == group3.mul(g, e)
        assert group3.mul(g, group3.inv(g)) == e
        assert group3.inv(group3.inv(g)) == g
    for _ in range(10_000):
        a, b, c = (rng.choice(everyone) for _ in range(3))
        assert group3.mul(group3.mul(a, b), c) == group3.mul(a, group3.mul(b, c))


def test_mul_inv_examples(group3):
    assert group3.mul((0b010, 0), (0b001, 0)) == (0b011, 0b010)
    assert group3.inv((0b010, 0)) == (0b010, 0b011)  # x^3 = x + 1
    for y in group3.field.elements():
        assert group3.inv((0, y)) == (0, y)


def test_inverse_law_random(group5):
    rng = random.Random(6)
    for _ in range(1000):
        g = (rng.randrange(group5.field.order), rng.randrange(group5.field.order))
        assert group5.mul(g, group5.inv(g)) == group5.identity


def test_classes_match_brute_force_n3(group3):
    structural = [c.members for c in group3.conjugacy_classes]
    assert sorted(structural) == sorted(brute_force_classes(group3))


@pytest.mark.parametrize("group_name", ["group3", "group5", "group7"])
def test_commutator_range_is_the_hyperplane(request, group_name):
    # the coset formula of class_of_element rests on this, for every u != 0
    group = request.getfixturevalue(group_name)
    field = group.field
    for u in field.nonzero_elements():
        rng = sorted({group.cocycle_hat(u, w) for w in field.elements()})
        assert rng == field.hyperplane(u), u


def test_class_census(group3, group5):
    for group in (group3, group5):
        q = group.field.order
        classes = group.conjugacy_classes
        assert len(classes) == q + 2 * (q - 1)
        assert sum(c.size for c in classes) == group.order
        sizes = sorted({c.size for c in classes})
        assert sizes == [1, q // 2]
        assert sum(1 for c in classes if c.size == 1) == q


def test_class_of_identity_and_hyperplane_structure(group3):
    assert group3.conjugacy_classes[0].members == ((0, 0),)
    field = group3.field
    cls = group3.conjugacy_classes[int(group3.class_of_element[0b010 << 3])]
    assert cls.size == 4
    seconds = sorted(g[1] for g in cls.members)
    assert seconds == [v for v in field.elements()
                       if field.hyperplane_quotient(0b010, v) == 0]


def test_center_and_commutator_brute_force_n3(group3):
    everyone = list(group3.elements())
    center = [g for g in everyone
              if all(group3.mul(g, h) == group3.mul(h, g) for h in everyone)]
    assert sorted(center) == sorted(group3.center)
    assert len(group3.center) == 8

    # subgroup generated by all commutators
    gens = {group3.commutator(g, h) for g in everyone for h in everyone}
    subgroup = {group3.identity}
    frontier = [group3.identity]
    while frontier:
        g = frontier.pop()
        for x in gens:
            nxt = group3.mul(g, x)
            if nxt not in subgroup:
                subgroup.add(nxt)
                frontier.append(nxt)
    assert sorted(subgroup) == sorted(group3.commutator_subgroup)
    assert len(group3.commutator_subgroup) == 8
    assert group3.order // len(group3.commutator_subgroup) == group3.field.order


def test_center_classes_are_singletons(group3):
    singles = {c.members[0] for c in group3.conjugacy_classes if c.size == 1}
    assert singles == set(group3.center)


def test_squares_are_central_cubes(group3):
    field = group3.field
    for g in group3.elements():
        sq = group3.mul(g, g)
        assert sq == (0, field.cube(g[0]))
        assert group3.mul(sq, sq) == group3.identity  # exponent divides 4


def test_quotient_epimorphism(group3, group5):
    assert group3.quotient_epimorphism(1, (0, 0)) == (0, 0)
    for g in group3.elements():
        assert group3.quotient_epimorphism(1, g) == (g[0], group3.field.trace(g[1]))
    for group, seed in ((group3, 7), (group5, 8)):
        q = group.field.order
        rng = random.Random(seed)
        for _ in range(1000):
            gamma = rng.randrange(1, q)
            a = (rng.randrange(q), rng.randrange(q))
            b = (rng.randrange(q), rng.randrange(q))
            lhs = group.quotient_epimorphism(gamma, group.mul(a, b))
            rhs = group.quotient_law(gamma,
                                     group.quotient_epimorphism(gamma, a),
                                     group.quotient_epimorphism(gamma, b))
            assert lhs == rhs
    with pytest.raises(ZeroDivisionError):
        group3.quotient_epimorphism(0, (1, 1))


def test_scaling_automorphism(group3, group5):
    for g in group3.elements():
        assert group3.scaling_automorphism(1, g) == g
    for group, seed in ((group3, 9), (group5, 10)):
        q = group.field.order
        rng = random.Random(seed)
        for _ in range(1000):
            gamma = rng.randrange(1, q)
            delta = rng.randrange(1, q)
            a = (rng.randrange(q), rng.randrange(q))
            b = (rng.randrange(q), rng.randrange(q))
            psi = lambda h: group.scaling_automorphism(gamma, h)
            assert psi(group.mul(a, b)) == group.mul(psi(a), psi(b))
            assert group.scaling_automorphism(
                gamma, group.scaling_automorphism(delta, a)) == \
                group.scaling_automorphism(group.field.mul(gamma, delta), a)
    with pytest.raises(ZeroDivisionError):
        group3.scaling_automorphism(0, (1, 1))


def test_scaling_automorphisms_injective_n3(group3):
    images = {gamma: tuple(group3.scaling_automorphism(gamma, g)
                           for g in group3.elements())
              for gamma in group3.field.nonzero_elements()}
    assert len(set(images.values())) == group3.field.order - 1


def test_scaling_automorphism_permutes_classes_n3(group3):
    class_sets = [frozenset(c.members) for c in group3.conjugacy_classes]
    central = frozenset(group3.center)
    for gamma in group3.field.nonzero_elements():
        for cs in class_sets:
            image = frozenset(group3.scaling_automorphism(gamma, g) for g in cs)
            assert image in class_sets
        assert frozenset(group3.scaling_automorphism(gamma, g) for g in central) == central



def _inverse_products(group, cols):
    """inv(g) * h on the selection, one scalar group operation per pair (oracle)."""
    n = group.field.n
    elems = [(int(c) >> n, int(c) & (group.field.order - 1)) for c in cols]
    return np.array([[x << n | y for x, y in (group.mul(group.inv(g), h) for h in elems)]
                     for g in elems])


def test_inverse_product_index_grid_n3(group3):
    cols = np.arange(group3.order)
    assert np.array_equal(group3.inverse_product_index_grid(cols),
                          _inverse_products(group3, cols))
    assert np.array_equal(group3.inverse_product_index_matrix,
                          _inverse_products(group3, cols))


def test_inverse_product_index_grid_sampled_n5(group5):
    cols = np.array(sorted(random.Random(9).sample(range(group5.order), 40)))
    assert np.array_equal(group5.inverse_product_index_grid(cols),
                          _inverse_products(group5, cols))


def test_inverse_product_index_grid_on_rows_and_cols(group5):
    # rows g and columns h chosen apart: the rows x cols block of the full grid
    rng = random.Random(4)
    rows = np.array(rng.sample(range(group5.order), 7))
    cols = np.array(rng.sample(range(group5.order), 30))
    full = group5.inverse_product_index_matrix
    assert np.array_equal(group5.inverse_product_index_grid(cols, rows), full[np.ix_(rows, cols)])


@pytest.mark.parametrize("n, sampled", [(3, None), (5, None), (7, (64, 256)), (9, (32, 512))],
                         ids=["n3", "n5", "n7-block", "n9-block"])
def test_inverse_product_index_grid_moves_y_into_the_column(request, n, sampled):
    # (0, y) is central, so inv((x, y)) (x', y') = inv((x, 0)) (x', y + y'):
    # a row over the group, gathered on this grid, is fixed by its rows
    # (x, 0).  All N^2 pairs at n = 3 and 5, a sampled block at n = 7 and 9
    from linepack import FieldContext, GroupContext

    group = request.getfixturevalue(f"group{n}") if n < 9 else GroupContext(FieldContext(9))
    shift, mask = group.field.n, group.field.order - 1
    if sampled is None:
        rows = cols = np.arange(group.order)
    else:
        rng = np.random.default_rng(n)
        rows, cols = (np.sort(rng.choice(group.order, size, replace=False)) for size in sampled)
    got = group.inverse_product_index_grid(cols, rows)
    x_rows = np.unique(rows >> shift)
    at_x0 = group.inverse_product_index_grid(np.arange(group.order), x_rows << shift)
    y_moved = ((cols >> shift) << shift)[None, :] | ((rows & mask)[:, None] ^ (cols & mask))
    want = at_x0[np.searchsorted(x_rows, rows >> shift)[:, None], y_moved]
    assert np.array_equal(got, want)
