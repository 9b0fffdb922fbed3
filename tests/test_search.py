from fractions import Fraction

import numpy as np
import pytest

from linepack.search import (
    SearchTuple,
    character_sum_filter,
    conjugacy_size_filter,
    enumerate_tuples,
    is_nonabelian_order,
    sum_sqrt_compare,
    tuples_to_csv,
    CSV_HEADER,
)

TABLE_ROWS = [
    (64, 7, 2, 28), (256, 30, 2, 120), (256, 34, 2, 136),
    (320, 22, 2, 88), (320, 58, 2, 232), (576, 69, 2, 276),
    (576, 75, 2, 300), (640, 18, 2, 72), (896, 45, 2, 180),
    (896, 179, 2, 716),
]


def test_known_rows_present():
    rows = {(t.n, t.k, t.l, t.m) for t in enumerate_tuples(1023)}
    for row in TABLE_ROWS:
        assert row in rows
    assert (64, 9, 2, 36) in rows


def test_calibration_counts():
    assert len(enumerate_tuples(1023)) == 238
    assert len(enumerate_tuples(1023, nonabelian_orders_only=True)) == 224


def test_every_tuple_satisfies_divisibility():
    for t in enumerate_tuples(1023):
        assert t.m == t.k * t.l * t.l
        assert t.l >= 2 and t.n % t.l == 0
        assert t.m < t.n
        assert (t.m * (t.m - 1)) % (t.n - 1) == 0
        assert t.lam == t.m * (t.m - 1) // (t.n - 1)


def test_enumeration_sorted_and_deterministic():
    a = enumerate_tuples(700)
    b = enumerate_tuples(700)
    assert [(t.n, t.k, t.l, t.m) for t in a] == [(t.n, t.k, t.l, t.m) for t in b]
    keys = [(t.n, t.l, t.k) for t in a]
    assert keys == sorted(keys)


def test_small_and_invalid_orders():
    assert enumerate_tuples(2) == []
    with pytest.raises(ValueError):
        enumerate_tuples(1)


def test_nonabelian_order_predicate():
    # 6 = S3, 8 = D4, 2^3 cubed; all groups of 4, 9, 15, 33 are abelian
    for n in (6, 8, 12, 16, 24, 27, 64):
        assert is_nonabelian_order(n)
    for n in (1, 2, 3, 4, 5, 7, 9, 15, 33, 35):
        assert not is_nonabelian_order(n)


def test_nonabelian_restriction_is_monotone():
    full = {(t.n, t.k, t.l, t.m) for t in enumerate_tuples(1023)}
    restricted = {(t.n, t.k, t.l, t.m) for t in enumerate_tuples(1023, nonabelian_orders_only=True)}
    assert restricted <= full


# ---------------------------------------------------------------------------
# class-size filter
# ---------------------------------------------------------------------------

def suzuki_tuple():
    return SearchTuple(64, 7, 2, 28)


def test_class_filter_accepts_suzuki_group(group3):
    sizes = group3.class_sizes()
    index = group3.order // len(group3.commutator_subgroup)
    assert conjugacy_size_filter(suzuki_tuple(), sizes, index)


def test_class_filter_bound_is_tight(group3):
    # the bound at (64,7,2,28) with commutator index 8 is 64/|C| >= 60/7,
    # i.e. |C| <= 7.46; a size-8 class must fail
    sizes = [1] * 8 + [8] * 7
    assert not conjugacy_size_filter(suzuki_tuple(), sizes, 8)


def test_class_filter_identity_class_exempt(group3):
    # sizes include the identity singleton, which is never tested
    sizes = group3.class_sizes()
    assert 1 in sizes
    assert conjugacy_size_filter(suzuki_tuple(), sizes, 8)


def test_class_filter_requires_enough_classes():
    # half-nonlinear consequence: fewer than 2 * index classes fails
    sizes = [1] * 8 + [4] * 6 + [32]
    assert sum(sizes) == 64
    assert not conjugacy_size_filter(suzuki_tuple(), sizes, 8)


def test_class_filter_input_validation():
    with pytest.raises(ValueError):
        conjugacy_size_filter(suzuki_tuple(), [1, 4, 4], 8)
    with pytest.raises(ValueError):
        conjugacy_size_filter(suzuki_tuple(), [1] * 8 + [4] * 14, 7)


# ---------------------------------------------------------------------------
# character-sum filter
# ---------------------------------------------------------------------------

def test_character_filter_accepts_suzuki_table(table3):
    assert character_sum_filter(suzuki_tuple(), table3)
    assert character_sum_filter(SearchTuple(64, 9, 2, 36), table3)


def test_character_filter_needs_k_characters(table3):
    assert not character_sum_filter(SearchTuple(64, 15, 2, 60), table3)
    assert not character_sum_filter(SearchTuple(64, 1, 4, 16), table3)


def test_character_filter_order_mismatch(table3):
    with pytest.raises(ValueError):
        character_sum_filter(SearchTuple(256, 30, 2, 120), table3)


class _StubTable:
    """Minimal duck-typed table: all degree-l characters vanish at class 1."""

    def __init__(self, order, degree, rows):
        import types
        self.group = types.SimpleNamespace(order=order)
        re = np.array(rows, dtype=np.int64)
        self.value_arrays = (re, np.zeros_like(re))
        self.degrees = (degree,) * len(rows)


def test_character_filter_rejects_vanishing_column():
    table = _StubTable(64, 2, [[2, 0, 2]] * 7)
    assert not character_sum_filter(suzuki_tuple(), table)


# ---------------------------------------------------------------------------
# exact sum-of-square-roots comparison
# ---------------------------------------------------------------------------

def test_sqrt_compare_rational_cases():
    assert sum_sqrt_compare([Fraction(4), Fraction(9)], Fraction(25))
    assert not sum_sqrt_compare([Fraction(4)], Fraction(9))
    assert sum_sqrt_compare([Fraction(1, 4)], Fraction(1, 16))
    assert sum_sqrt_compare([], Fraction(0))
    assert not sum_sqrt_compare([], Fraction(1))


def test_sqrt_compare_common_radical_and_equality():
    # 3 sqrt(2) vs sqrt(17) and exact equality 2 sqrt(2) = sqrt(8)
    assert sum_sqrt_compare([Fraction(2), Fraction(8)], Fraction(17))
    assert sum_sqrt_compare([Fraction(2), Fraction(2)], Fraction(8))
    assert not sum_sqrt_compare([Fraction(2), Fraction(2)], Fraction(9))


def test_sqrt_compare_irrational_separation():
    # sqrt(2) + sqrt(3) = 3.146... against sqrt(10) = 3.162...
    assert not sum_sqrt_compare([Fraction(2), Fraction(3)], Fraction(10))
    assert sum_sqrt_compare([Fraction(2), Fraction(3)], Fraction(9))
    with pytest.raises(ValueError):
        sum_sqrt_compare([Fraction(-1)], Fraction(1))


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------

def test_csv_shape_and_verdicts():
    t = suzuki_tuple()
    t.verdicts = {"integrality": True, "classes": True}
    text = tuples_to_csv([t])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "64,7,2,28,12,pass,pass,"
    t.verdicts["chars"] = False
    assert tuples_to_csv([t]).strip().split("\n")[1].endswith(",fail")
