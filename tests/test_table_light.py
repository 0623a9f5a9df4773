"""Light's associativity test and the inverse table of TableMonoid against
the cubic scan and the per-call inverse scans they replace
(table_cubic_oracle), under Hypothesis: the same tables are accepted and
refused, each refusal names a triple that really fails, and is_group and
invert agree with the scans."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import table_cubic_oracle as oracle
from test_acceptance import brute_transformation_monoid, transformation_monoid
from waug.structures import InvalidInput, TableMonoid

_TRIPLE = re.compile(r"table is not associative at \((\d+),(\d+),(\d+)\)")


@st.composite
def monoid_tables(draw):
    """An associative table: a monoid of maps on at most 3 points, its
    non-identity elements numbered in a drawn order."""
    base = draw(st.integers(1, 3))
    point = st.integers(0, base - 1)
    gens = draw(st.lists(st.tuples(*[point] * base), max_size=3))
    table = transformation_monoid(base, gens)
    perm = [0] + draw(st.permutations(range(1, len(table))))
    back = {v: i for i, v in enumerate(perm)}
    return [[back[table[perm[i]][perm[j]]] for j in range(len(table))]
            for i in range(len(table))]


@st.composite
def identity_tables(draw):
    """Any table of order at most 6 with 0 as its identity; most are not
    associative."""
    n = draw(st.integers(1, 6))
    table = [list(range(n))]
    for i in range(1, n):
        table.append([i] + [draw(st.integers(0, n - 1)) for _ in range(1, n)])
    return table


@st.composite
def corrupted(draw, tables):
    """A table from `tables` with one entry off row and column 0 changed."""
    table = [list(row) for row in draw(tables)]
    n = len(table)
    if n > 1:
        i, j = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        table[i][j] = draw(st.integers(0, n - 1).filter(lambda v: v != table[i][j]))
    return table


TABLES = st.one_of(monoid_tables(), corrupted(monoid_tables()), identity_tables())


def _check_against_oracle(table):
    """TableMonoid and the cubic scan give one verdict; a refusal names a
    failing triple; an accepted table's inverses agree with the scans."""
    try:
        oracle.validate(table)
        expected = None
    except InvalidInput as exc:
        expected = str(exc)
    try:
        s = TableMonoid(table)
    except InvalidInput as exc:
        assert expected is not None, f"refused an associative table: {exc}"
        x, a, y = map(int, _TRIPLE.fullmatch(str(exc)).groups())
        assert table[table[x][a]][y] != table[x][table[a][y]]
        assert _TRIPLE.fullmatch(expected)
        return False
    assert expected is None, f"accepted a table the scan refuses: {expected}"
    assert s.is_group == oracle.is_group(table)
    for u in range(len(table)):
        try:
            v = oracle.invert(table, u)
        except InvalidInput as exc:
            with pytest.raises(InvalidInput, match=f"^{exc}$"):
                s.invert(u)
        else:
            assert s.invert(u) == v
    return True


@settings(max_examples=400)
@given(TABLES)
def test_light_test_agrees_with_the_cubic_scan(table):
    _check_against_oracle(table)


def test_transformation_monoids_agree_with_the_cubic_scan():
    """The 300 random monoids of the acceptance tests are accepted, and each
    with one corrupted entry gets the scan's verdict."""
    rng = random.Random(5)
    for _ in range(300):
        table = brute_transformation_monoid(rng)
        assert _check_against_oracle(table)
        n = len(table)
        if n > 1:
            i, j = rng.randrange(1, n), rng.randrange(1, n)
            table[i][j] = rng.choice([v for v in range(n) if v != table[i][j]])
            _check_against_oracle(table)


def test_a_monoid_that_is_not_a_group_has_no_inverse():
    s = TableMonoid([[0, 1], [1, 1]])  # 1 is idempotent
    assert not s.is_group
    with pytest.raises(InvalidInput, match="element 1 has no inverse"):
        s.invert(1)
    assert s.invert(0) == 0


def test_a_cyclic_group_of_order_1500_loads():
    n = 1500
    s = TableMonoid([[(i + j) % n for j in range(n)] for i in range(n)])
    assert s.is_group
    assert s.invert(1) == n - 1
