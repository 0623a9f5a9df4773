"""A frozen copy of the cubic associativity scan and the per-call inverse
scans, the oracle for Light's test and the inverse table in
waug.structures.TableMonoid.

The scan checked (i j) k = i (j k) for every triple in lexicographic order
and named the first one that failed; is_group asked every element for a
two-sided inverse, and invert scanned the element's row for one on every
call.  This was TableMonoid before it checked only a generating set and
read inverses from a table built at load; it is kept as it was, not
maintained alongside.
"""

from waug.structures import InvalidInput


def validate(table):
    """Raise InvalidInput as TableMonoid did for a bad table; the
    associativity message names the least failing (i, j, k)."""
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise InvalidInput(f"table row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not 0 <= v < n:
                raise InvalidInput(f"table entry {v!r} out of range")
    for j in range(n):
        if table[0][j] != j or table[j][0] != j:
            raise InvalidInput("element 0 is not a two-sided identity")
    t = table
    for i in range(n):
        ti = t[i]
        for j in range(n):
            tij = ti[j]
            tj = t[j]
            for k in range(n):
                if t[tij][k] != ti[tj[k]]:
                    raise InvalidInput(
                        f"table is not associative at ({i},{j},{k})")


def is_group(table):
    n = len(table)
    return all(
        any(table[i][j] == 0 and table[j][i] == 0 for j in range(n))
        for i in range(n))


def invert(table, u):
    for j in range(len(table)):
        if table[u][j] == 0 and table[j][u] == 0:
            return j
    raise InvalidInput(f"element {u} has no inverse")
