import numpy as np
import pytest

from linepack import (
    FieldContext,
    GroupContext,
    RepContext,
    build_character_table,
    etf,
    group_scheme,
)
from linepack.scheme import GaussianRationalMatrix


@pytest.fixture(scope="session")
def field3():
    return FieldContext(3)


@pytest.fixture(scope="session")
def field5():
    return FieldContext(5)


@pytest.fixture(scope="session")
def field7():
    return FieldContext(7)


@pytest.fixture(scope="session")
def group3(field3):
    return GroupContext(field3)


@pytest.fixture(scope="session")
def group5(field5):
    return GroupContext(field5)


@pytest.fixture(scope="session")
def group7(field7):
    return GroupContext(field7)


@pytest.fixture(scope="session")
def rep3(group3):
    return RepContext(group3)


@pytest.fixture(scope="session")
def rep5(group5):
    return RepContext(group5)


@pytest.fixture(scope="session")
def rep7(group7):
    return RepContext(group7)


@pytest.fixture(scope="session")
def row_of():
    """The table row of the character labelled `label`, e.g. "nl+[3]"."""
    def find(table, label):
        return [ch.label for ch in table.characters].index(label)
    return find


@pytest.fixture(scope="session")
def table3(group3, rep3):
    return build_character_table(group3, rep3)


@pytest.fixture(scope="session")
def table5(group5, rep5):
    return build_character_table(group5, rep5)


@pytest.fixture(scope="session")
def table7(group7, rep7):
    return build_character_table(group7, rep7)


@pytest.fixture(scope="session")
def scheme3(group3, table3):
    return group_scheme(group3, table3)


@pytest.fixture
def flip_rows(monkeypatch):
    """flip(rows): for each (route, u) in `rows`, make that table route's Gram
    row, as `etf._routes_compared` builds it, one more in its real part at
    the element u only, not at inv(u), so the row is no longer Hermitian and
    its whole matrix differs wherever inv(g) h = u."""
    def flipped(route, u):
        def call(group, *args):
            row = route(group, *args)
            re = row.re.astype(np.int64)
            re[u] += 1
            return GaussianRationalMatrix(re, row.im, row.den)
        return call

    def flip(rows):
        for name, u in rows:
            attr = {"character": "gram_character", "closedForm": "gram_closed_form"}[name]
            monkeypatch.setattr(etf, attr, flipped(getattr(etf, attr), u))
    return flip
