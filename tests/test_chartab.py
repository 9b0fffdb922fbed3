import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from linepack import chartab, exact
from linepack.bgroup import GroupContext
from linepack.chartab import (
    _strip_pow2,
    build_character_table,
    linear_characters,
    nonlinear_characters,
)
from linepack.gf2n import FieldContext
from linepack.heis import RepContext


# ---------------------------------------------------------------------------
# power-of-two normal form of the JSON export
# ---------------------------------------------------------------------------

def _halving_loop(re, im):
    if re == 0 and im == 0:
        return 0, 0, 0
    log2 = 0
    while re % 2 == 0 and im % 2 == 0:
        re, im, log2 = re // 2, im // 2, log2 + 1
    return re, im, log2


def test_strip_pow2_matches_halving_loop():
    rng = random.Random(7)
    pairs = [(0, 0), (4, 0), (6, 2), (-8, 8), (0, -2), (1, 0), (0, -1), (-3, 5),
             (-(1 << 62), 0), (1 << 40, -(1 << 41))]
    for _ in range(500):
        shift = rng.randrange(40)
        pairs.append((rng.randrange(-99, 100) << shift, rng.randrange(-99, 100) << shift))
    re = np.array([p[0] for p in pairs], dtype=np.int64)
    im = np.array([p[1] for p in pairs], dtype=np.int64)
    got = zip(*(a.tolist() for a in _strip_pow2(re, im)))
    assert list(got) == [_halving_loop(r, i) for r, i in pairs]


# ---------------------------------------------------------------------------
# linear characters
# ---------------------------------------------------------------------------

def value_at(group, table, char_idx, g):
    """chi(g) as a Gaussian-integer pair (re, im)."""
    ci = int(group.class_of_element[g[0] << group.field.n | g[1]])
    re, im = table.value_arrays
    return int(re[char_idx, ci]), int(im[char_idx, ci])


def test_trivial_character(table3, group3):
    re, im = table3.value_arrays
    assert re[0].tolist() == [1] * len(table3.class_sizes) and not im[0].any()
    assert table3.characters[0].label == "lin[0]"


def test_linear_characters_multiplicative(table3, group3, row_of):
    rng = random.Random(11)
    q = group3.field.order
    for c in range(q):
        idx = row_of(table3, f"lin[{c}]")
        for _ in range(125):
            a = (rng.randrange(q), rng.randrange(q))
            b = (rng.randrange(q), rng.randrange(q))
            ar, ai = value_at(group3, table3, idx, a)
            br, bi = value_at(group3, table3, idx, b)
            lhs = value_at(group3, table3, idx, group3.mul(a, b))
            assert lhs == (ar * br - ai * bi, ar * bi + ai * br)


def test_linear_characters_trivial_on_commutator(group3):
    lin = linear_characters(group3)
    assert lin.shape == (group3.field.order, len(group3.conjugacy_classes))
    comm = set(group3.commutator_subgroup)
    for row in lin:
        for g in comm:
            ci = int(group3.class_of_element[g[0] << 3 | g[1]])
            assert row[ci] == 1


def test_linear_characters_pairwise_orthogonal(group3):
    # the linear values are the real signs (-1)^tr(cx)
    lin = linear_characters(group3).tolist()
    sizes = [c.size for c in group3.conjugacy_classes]
    # sum over classes of |class| a conj(b), in Python ints
    for i, a in enumerate(lin):
        for j, b in enumerate(lin):
            total = sum(w * ar * br for w, ar, br in zip(sizes, a, b))
            assert total == (group3.order if i == j else 0)


# ---------------------------------------------------------------------------
# nonlinear characters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("table_name", ["table3", "table5"])
def test_nonlinear_values_n3(table_name, request, row_of):
    # the stored "+" arrays at every member of every class, against the
    # per-element three-case formula
    table = request.getfixturevalue(table_name)
    group = table.group
    field = group.field
    k = field.k
    re, im = table.value_arrays
    for gamma in field.nonzero_elements():
        idx = row_of(table, f"nl+[{gamma}]")
        for g in group.elements():
            x, y = g
            ci = int(group.class_of_element[x << field.n | y])
            sign = (1 - 2 * field.hyperplane_quotient(gamma, y)) << k
            want = (sign if x == 0 else 0, sign if x == gamma else 0)
            assert (re[idx, ci], im[idx, ci]) == want
    idx1 = row_of(table, "nl+[1]")
    assert value_at(group, table, idx1, (1, 0)) == (0, 1 << k)


def test_minus_family_is_conjugate(table3, row_of):
    re, im = table3.value_arrays
    for gamma in table3.group.field.nonzero_elements():
        plus = row_of(table3, f"nl+[{gamma}]")
        minus = row_of(table3, f"nl-[{gamma}]")
        assert re[minus].tolist() == re[plus].tolist()
        assert im[minus].tolist() == [-v for v in im[plus].tolist()]


def test_values_constant_on_classes_member_level(table3, group3, row_of):
    # recompute every nonlinear value directly at every member of every class
    field = group3.field
    k = field.k
    re, im = table3.value_arrays
    for gamma in field.nonzero_elements():
        idx = row_of(table3, f"nl+[{gamma}]")
        for ci, cls in enumerate(group3.conjugacy_classes):
            for (x, y) in cls.members:
                if x not in (0, gamma):
                    want = (0, 0)
                else:
                    sign = (1 - 2 * field.hyperplane_quotient(gamma, y)) << k
                    want = (sign, 0) if x == 0 else (0, sign)
                assert (re[idx, ci], im[idx, ci]) == want


def test_rep_trace_cross_check_has_teeth(group3, rep3):
    # the "-" values are NOT the twisted traces, so the construction-time
    # cross-check would reject a sign mix-up
    re, im = nonlinear_characters(group3, rep3)
    mismatches = 0
    for row, gamma in enumerate(group3.field.nonzero_elements()):
        for ci, cls in enumerate(group3.conjugacy_classes):
            tr = rep3.rep_twisted(gamma, cls.representative).trace()
            assert tr == (re[row, ci], im[row, ci])
            if tr != (re[row, ci], -im[row, ci]):
                mismatches += 1
    assert mismatches > 0


def test_rep_trace_cross_check_rejects_a_corrupted_image(group3):
    # pi(1, 0) = i I has a nonzero trace, gathered on every class (gamma, y);
    # flipping its sign must make the whole-table comparison raise
    rep = RepContext(group3)
    rep._rep_x0[1] = rep._rep_x0[1].times_i_power(2)
    with pytest.raises(AssertionError, match="representation trace"):
        build_character_table(group3, rep)


# ---------------------------------------------------------------------------
# assembled table
# ---------------------------------------------------------------------------

def test_table_census_n3(table3):
    assert len(table3.characters) == 22
    degs = sorted(table3.degrees)
    assert degs == [1] * 8 + [2] * 14
    assert sum(d * d for d in table3.degrees) == 64
    assert len(table3.d_set) == 7


def test_table_census_n5(table5):
    assert len(table5.characters) == 94
    assert sorted(set(table5.degrees)) == [1, 4]
    assert sum(d * d for d in table5.degrees) == 1024
    assert len(table5.d_set) == 31


def test_table_census_n9():
    # the whole build at n = 9, rep-trace cross-check and verify() included
    group = GroupContext(FieldContext(9))
    table = build_character_table(group, RepContext(group))
    assert len(table.characters) == 1534
    assert len(table.d_set) == 511
    assert table.value_arrays[0].shape == (1534, 1534)


def test_table_build_n9_traced_peak_budget():
    # the representation traces are gathered as int8 and the table is proved
    # by one product: about 12 MiB traced at n = 9, from fresh contexts
    group = GroupContext(FieldContext(9))
    rep = RepContext(group)
    tracemalloc.start()
    try:
        build_character_table(group, rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 << 20


def test_product_path_builds_no_class_partition(monkeypatch):
    # the tuple partition is the brute-force oracle only: building, exporting
    # and sizing the classes read `class_of_element` alone
    def refuse(self):
        raise AssertionError("the tuple class partition was built")

    monkeypatch.setattr(GroupContext, "conjugacy_classes", property(refuse))
    group = GroupContext(FieldContext(5))
    table = build_character_table(group, RepContext(group))
    js = table.to_json_dict()
    assert len(js["classes"]) == len(js["characters"]) == 94
    assert js["classes"][0] == {"representative": [0, 0], "size": 1}
    assert sum(group.class_sizes()) == group.order


def test_orthogonality_is_verified(table3, table5):
    table3.verify()
    table5.verify()


def test_verify_detects_broken_value(table3):
    re, im = (a.copy() for a in table3.value_arrays)
    re[3, 1] = -re[3, 1]
    broken = replace(table3, value_arrays=(re, im))
    with pytest.raises(AssertionError):
        broken.verify()


@pytest.mark.parametrize("corrupt", ["re", "im", "row"])
def test_verify_checks_the_last_row_block(table7, corrupt):
    # n = 7 has 382 characters, so the column check sums them in two chunks
    # of rows; a corrupted last row is read only in the last chunk
    re, im = (a.copy() for a in table7.value_arrays)
    assert len(re) == 382
    if corrupt == "row":
        re[-1] *= 2
        im[-1] *= 2
    else:
        (re if corrupt == "re" else im)[-1, 1] += 1
    broken = replace(table7, value_arrays=(re, im))
    with pytest.raises(AssertionError, match="column orthogonality fails"):
        broken.verify()


def test_orthogonality_check_reads_the_imaginary_part(monkeypatch):
    # A = [1, i] has A^H A = [[1, i], [-i, 1]]: its real part is the identity
    # and only its imaginary part is off the diagonal.  One-column tiles put
    # that entry in an off-diagonal tile, and the diagonal is read per tile
    monkeypatch.setattr(exact, "_TILE", 1)
    re, im = np.array([[1, 0]]), np.array([[0, 1]])
    assert not chartab._is_diagonal(re, im, np.array([1, 1]))
    scaled = np.diag([1, 2])  # rows scaled by the square roots of the weights 1 and 4
    assert chartab._is_diagonal(scaled, np.zeros((2, 2), dtype=np.int64), np.array([1, 4]))
    assert not chartab._is_diagonal(scaled, np.zeros((2, 2), dtype=np.int64), np.array([1, 1]))


def _with_class_sizes(table, sizes):
    broken = replace(table)
    broken.__dict__["class_sizes"] = sizes  # where the cached property keeps its value
    return broken


def test_verify_refuses_a_class_size_that_does_not_divide_the_order(table3, monkeypatch):
    # |G| / |class| is read as order // size, so every size must divide the
    # order; sizes 3 and 5 are refused before any product runs
    def no_product(*args):
        raise AssertionError("an orthogonality product ran")

    monkeypatch.setattr(chartab, "gram_tiles", no_product)
    sizes = table3.class_sizes.copy()
    assert sizes[8] == sizes[9] == 4
    sizes[8:10] = 3, 5  # still summing to the order
    with pytest.raises(AssertionError, match="positive divisors of the group order"):
        _with_class_sizes(table3, sizes).verify()


def _old_checks_pass(table):
    """Whether the table passes both orthogonality relations and the identity
    column, as the two-product check did: rows X W X^H = |G| I and columns
    W X^H X = |G| I, for X = re + i im and W the class sizes.  Every entry
    and partial sum is an integer below 2^53, so float64 is exact."""
    re, im = (a.astype(np.float64) for a in table.value_arrays)
    w = table.class_sizes.astype(np.float64)
    order = table.group.order * np.eye(len(w))
    rows_re = (re * w) @ re.T + (im * w) @ im.T
    rows_im = (im * w) @ re.T - (re * w) @ im.T
    cols_re = w[:, None] * (re.T @ re + im.T @ im)
    cols_im = re.T @ im - im.T @ re
    return bool((rows_re == order).all() and not rows_im.any()
                and (cols_re == order).all() and not cols_im.any()
                and (re[:, 0] == table.degrees).all() and not im[:, 0].any())


def _corrupted(table, corrupt):
    re, im = (a.copy() for a in table.value_arrays)
    sizes = table.class_sizes.copy()
    q = table.group.field.order
    s = sizes[-1]  # a noncentral class; classes 0 .. q - 1 are the centre's
    if corrupt in ("re+1", "im+1"):
        (re if corrupt == "re+1" else im)[-1, 1] += 1
    elif corrupt == "doubled row":
        re[-1] *= 2
        im[-1] *= 2
    elif corrupt == "flipped sign":
        re[3, 1] = -re[3, 1]
    elif corrupt.startswith("columns swapped"):
        a, b = (1, 2) if corrupt.endswith("same size") else (1, -1)
        re[:, [a, b]], im[:, [a, b]] = re[:, [b, a]], im[:, [b, a]]
    elif corrupt == "row conjugated":
        im[q] = -im[q]  # nl+[1] becomes a second nl-[1]
    elif corrupt == "sizes dividing":
        sizes[-3:] = 2 * s, s // 2, s // 2
    elif corrupt == "sizes not dividing":
        sizes[-2:] = s - 1, s + 1
    assert sizes.sum() == table.group.order
    return _with_class_sizes(replace(table, value_arrays=(re, im)), sizes)


CORRUPTIONS = ["intact", "re+1", "im+1", "doubled row", "flipped sign",
               "columns swapped, same size", "columns swapped", "row conjugated",
               "sizes dividing", "sizes not dividing"]


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("table_name", ["table3", "table5", "table7"])
def test_column_check_refuses_exactly_what_both_relations_refuse(table_name, corrupt, request):
    # for a square table whose class sizes divide |G|, column orthogonality
    # implies row orthogonality, so the one product refuses a corrupted table
    # exactly when the two relations together do.  Swapping two columns of
    # the same class size relabels the classes and leaves a true table
    table = _corrupted(request.getfixturevalue(table_name), corrupt)
    passes = _old_checks_pass(table)
    assert passes is (corrupt in ("intact", "columns swapped, same size"))
    if passes:
        table.verify()
    else:
        with pytest.raises(AssertionError):
            table.verify()


def test_identity_column_sums_to_order(table3):
    total = sum(d * d for d in table3.degrees)
    assert total == table3.group.order


def test_central_column_sum_over_d_set(table3, table5):
    # summing the hyperdifference family over a nontrivial central element
    # gives -2^k
    for table in (table3, table5):
        group = table.group
        k = group.field.k
        for y in group.field.nonzero_elements():
            ci = int(group.class_of_element[y])
            assert table.d_set_sum(ci) == (-(1 << k), 0)


def test_flat_d_set_sums(table3, table5):
    # unweighted: squared modulus 2^(2k) on every nonidentity class;
    # degree-weighted: m (N - m) / (N - 1)
    for table in (table3, table5):
        group = table.group
        k = group.field.k
        m = sum(table.characters[j].degree ** 2 for j in table.d_set)
        n = group.order
        weighted_expect = Fraction(m * (n - m), n - 1)
        for ci in range(1, len(table.class_sizes)):
            re, im = table.d_set_sum(ci)
            assert re * re + im * im == 1 << (2 * k)
            re, im = table.d_set_sum(ci, weighted=True)
            assert re * re + im * im == weighted_expect


def test_row_norms(table3):
    sizes = table3.class_sizes.tolist()
    for row_re, row_im in zip(*(a.tolist() for a in table3.value_arrays)):
        total = sum(w * (re * re + im * im) for w, re, im in zip(sizes, row_re, row_im))
        assert total == table3.group.order


def test_conjugate_duality(table3, row_of):
    # the conjugate of each character is one row of the table: a linear
    # character is real, and nl+[gamma] and nl-[gamma] are each other's
    re, im = (a.astype(np.int64) for a in table3.value_arrays)
    swap = {"+": "-", "-": "+"}
    for i, ch in enumerate(table3.characters):
        match = np.flatnonzero((re == re[i]).all(axis=1) & (im == -im[i]).all(axis=1))
        want = ch.label if ch.kind == "linear" else f"nl{swap[ch.label[2]]}{ch.label[3:]}"
        assert match.tolist() == [row_of(table3, want)]


def test_json_export_shape(table3):
    js = table3.to_json_dict()
    assert js["order"] == 64
    assert len(js["classes"]) == 22
    assert len(js["characters"]) == 22
    assert len(js["d_set"]) == 7
    assert all(set(v) == {"re", "im", "log2"}
               for v in js["characters"][0]["values"])
