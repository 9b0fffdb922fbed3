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
def flip_route(monkeypatch):
    """flip(flips): make the route walk (`etf._routes_compared`) see each table
    route named in `flips` one more, in its real part, at the Gram entries
    (g, h) of element indices listed for it, on every group.

    The walk gathers a route on the index grid of one block or mirror and
    then compares the routes there; the grid's rows and columns locate the
    entries."""
    grid, compare, where = GroupContext.inverse_product_index_grid, etf._route_mismatches, {}

    def recording(self, cols, rows=None):
        where.update(cols=cols, rows=cols if rows is None else rows)
        return grid(self, cols, rows)

    def flipped(routes, flips):
        routes = dict(routes)
        for name, entries in flips.items():
            route = routes[name]
            re = route.re.astype(np.int64)
            for g, h in entries:
                re[np.ix_(where["rows"] == g, where["cols"] == h)] += 1
            routes[name] = GaussianRationalMatrix(re, route.im, route.den)
        return compare(routes)

    def flip(flips):
        monkeypatch.setattr(GroupContext, "inverse_product_index_grid", recording)
        monkeypatch.setattr(etf, "_route_mismatches", lambda routes: flipped(routes, flips))
    return flip
