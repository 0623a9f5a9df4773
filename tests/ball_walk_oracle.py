"""A frozen copy of the per-element ball walk, the oracle for the batched one
in waug.structures (right_images and right_quotients).

The walk called multiply once per (element, step) pair and, on a monoid,
the family's right_divide_point once per pair too, entering each element's
products and then its quotients before it moved on to the next element.
divide_point freezes the division each family computed for it.  This was
_spheres, division_balls and bfs_words before a level mapped a whole sphere
through one step at once; it is kept as it was, not maintained alongside.
"""

from itertools import islice

from waug.structures import (BALL_CAP_ENV, THETA, UNIVERSE, BallTable,
                             FreeStructure, ResourceLimit, TableMonoid,
                             ZeroAdjoinedMonoid, ball_cap)


def divide_point(s, u, x):
    """{v : v x = u} as a frozenset (or UNIVERSE), as each family gave it."""
    if isinstance(s, ZeroAdjoinedMonoid):
        if x == THETA:
            # v theta = theta for every v
            return UNIVERSE if u == THETA else frozenset()
        if u == THETA:
            return frozenset([THETA])
        return divide_point(s.free, u, x)
    if isinstance(s, TableMonoid):
        return frozenset(v for v in range(s.size) if s.table[v][x] == u)
    if isinstance(s, FreeStructure) and not s.inverses:
        # monoid: v x = u iff x is a suffix of u, i.e. u's last |x| digits
        p = s.base ** s.word_length(x)
        return frozenset([u // p]) if u % p == x else frozenset()
    return frozenset([s.multiply(u, s.invert(x))])


def _spheres(s, steps, seen, label, cap, too_big, divide=False):
    frontier = [s.identity()]
    n = 0
    while True:
        n += 1
        nxt = []
        for u in frontier:
            for i, x in enumerate(steps):
                v = s.multiply(u, x)
                if v not in seen:
                    seen[v] = label(n, u, i)
                    nxt.append(v)
            if not divide:
                continue
            for i, x in enumerate(steps):
                quotients = divide_point(s, u, x)
                if quotients is UNIVERSE:
                    for v in nxt:
                        del seen[v]
                    yield UNIVERSE
                    return
                for v in quotients:
                    if v not in seen:
                        seen[v] = label(n, u, i)
                        nxt.append(v)
        if not nxt:
            return
        if len(seen) > cap:
            raise ResourceLimit(too_big(n, len(seen)))
        yield nxt
        frontier = nxt


def division_balls(s, gens, depth):
    cap = ball_cap()

    def too_big(n, size):
        return (f"ball B_{n} has {size} elements, over the cap "
                f"{cap} (set {BALL_CAP_ENV} to raise it)")

    e = s.identity()
    levels = [[e]]
    level_of = {e: 0}
    inverses = map(s.invert, gens) if s.is_group else ()
    steps = list(dict.fromkeys([*gens, *inverses]))
    spheres = _spheres(s, steps, level_of, lambda n, u, i: n, cap, too_big,
                       divide=not s.is_group)
    for _, sphere in zip(range(depth), spheres):
        levels.append(sphere if sphere is UNIVERSE else sorted(sphere, key=s.sort_key))
    levels += [[]] * (depth + 1 - len(levels))
    return BallTable(s, levels, level_of)


def bfs_words(s, gens, depth, targets=None):
    cap = ball_cap()
    e = s.identity()
    words = {e: ()}
    remaining = None if targets is None else set(targets) - {e}
    if remaining is not None and not remaining:
        return words
    spheres = _spheres(
        s, gens, words, lambda n, u, i: words[u] + (i,), cap,
        lambda n, size: f"word BFS exceeded cap {cap} (set {BALL_CAP_ENV} to raise it)")
    for nxt in islice(spheres, depth):
        if remaining is not None:
            remaining.difference_update(nxt)
            if not remaining:
                break
    return words
