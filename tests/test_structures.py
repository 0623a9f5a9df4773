"""Structures, division balls, ancestries, geodesic words."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import brute_transformation_monoid
from waug.structures import (InvalidInput, ResourceLimit, UNIVERSE,
                             FreeStructure, IntegerGroup, IntegerLattice,
                             TableMonoid, ZeroAdjoinedMonoid, bfs_words,
                             division_balls, geodesic_words, is_graded,
                             pseudo_finite_within, structure_from_spec)


def brute_division_balls(s, gens, depth):
    """Independent oracle: the level-closure recursion done naively, over
    the whole previous ball, with division found by scanning candidates.
    Stops before a universal ball (the zero-adjoined theta quotient)."""
    e = s.identity()
    balls = [frozenset([e])]
    for _ in range(depth):
        prev = balls[-1]
        if any(x == u == "theta" for x in gens for u in prev):
            break  # prev . theta^-1 is the whole monoid
        acc = set(prev)
        for x in gens:
            for u in prev:
                acc.add(s.multiply(u, x))
            for v in _candidates(s, gens, prev):
                if s.multiply(v, x) in prev:
                    acc.add(v)
        balls.append(frozenset(acc))
    return balls


def _candidates(s, gens, prev):
    """A finite set holding every v with v x in prev for a generator x."""
    if s.size is not None:
        return range(s.size)
    out = set(prev)
    for u in prev:
        if isinstance(u, tuple) and not s.is_group:
            out.update(u[:i] for i in range(len(u)))  # monoid word prefixes
        for x in gens:
            out.add(s.multiply(u, x))
            if s.is_group:
                out.add(s.multiply(u, s.invert(x)))
    return out


def _old_stable_at(balls):
    """First n >= 1 with B_n == B_(n-1), comparing the balls themselves."""
    for n in range(1, len(balls)):
        a, b = balls[n], balls[n - 1]
        if (a is UNIVERSE and b is UNIVERSE) or (
                a is not UNIVERSE and b is not UNIVERSE and a == b):
            return n
    return None


def _transformation_monoid():
    """T_3: all maps {0,1,2} -> {0,1,2}, u.v = first u then v; not a group,
    and right division by a map of rank < 3 has several solutions."""
    from itertools import product
    maps = sorted(product(range(3), repeat=3),
                  key=lambda f: (f != (0, 1, 2), f))  # identity first
    index = {f: i for i, f in enumerate(maps)}
    table = [[index[tuple(g[f[i]] for i in range(3))] for g in maps]
             for f in maps]
    return table, index[(1, 2, 0)], index[(0, 0, 2)]


# ---------------------------------------------------------------------------
# families and their standard balls
# ---------------------------------------------------------------------------

def test_integer_group_balls():
    s, gens = structure_from_spec({"family": "Z"})
    bt = division_balls(s, gens, 6)
    assert bt.sizes() == [2 * n + 1 for n in range(7)]
    assert sorted(bt.ball(2)) == [-2, -1, 0, 1, 2]
    assert s.ball_size(5) == 11


def test_integer_lattice_balls():
    s, gens = structure_from_spec({"family": "Zd", "params": {"d": 2}})
    bt = division_balls(s, gens, 4)
    # l1 balls in Z^2: 1, 5, 13, 25, 41
    assert bt.sizes() == [1, 5, 13, 25, 41]
    assert s.ball_size(4) == 41


def test_free_group_balls():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    bt = division_balls(s, gens, 5)
    assert bt.sizes() == [2 * 3**n - 1 for n in range(6)]
    assert s.ball_size(6) == 2 * 3**6 - 1


def test_free_monoid_balls_include_divisions():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": False}})
    bt = division_balls(s, gens, 4)
    # suffix-division keeps the ball equal to all words of length <= n
    assert bt.sizes() == [2 ** (n + 1) - 1 for n in range(5)]
    assert s.elem_from_json([1, 2]) in bt.ball(2)


_T3, _T3_CYCLE, _T3_FOLD = _transformation_monoid()
_Z51 = [[(i + j) % 51 for j in range(51)] for i in range(51)]


# the first four ids are the names these cases have always been run under
@pytest.mark.parametrize("spec,depth", [
    pytest.param({"family": "Z"}, 3, id="Z-params0-3"),
    pytest.param({"family": "Zd", "params": {"d": 2}}, 2, id="Zd-params1-2"),
    pytest.param({"family": "free", "params": {"rank": 2, "inverses": True}},
                 3, id="free-params2-3"),
    pytest.param({"family": "free", "params": {"rank": 2, "inverses": False}},
                 3, id="free-params3-3"),
    pytest.param({"family": "Zd", "params": {"d": 3}}, 4, id="Z3"),
    pytest.param({"family": "free", "params": {"rank": 2, "inverses": True},
                  "generators": [[1], [-1], [2], [-2], [1, 2]]}, 3, id="F2-ab"),
    pytest.param({"family": "table", "params": {"table": _T3},
                  "generators": [_T3_CYCLE, _T3_FOLD]}, 5, id="T3"),
    pytest.param({"family": "table", "params": {"table": _T3},
                  "generators": [_T3_FOLD]}, 4, id="T3-fold"),
    pytest.param({"family": "zero_adjoined", "params": {"rank": 2},
                  "generators": [[1], "theta"]}, 4, id="a-theta"),
    pytest.param({"family": "zero_adjoined", "params": {"rank": 2},
                  "generators": ["theta", [2]]}, 4, id="theta-b"),
    # groups over generators not closed under inverses: a group ball still
    # divides, so it holds the inverse steps too
    pytest.param({"family": "Z", "generators": [1]}, 5, id="Z-one"),
    pytest.param({"family": "free", "params": {"rank": 2, "inverses": True},
                  "generators": [[1], [2]]}, 4, id="F2-a-b"),
    pytest.param({"family": "Zd", "params": {"d": 3},
                  "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, 4, id="Z3-plus"),
    pytest.param({"family": "table", "params": {"table": _Z51},
                  "generators": [7]}, 27, id="Z51-unit"),
])
def test_balls_match_brute_force(spec, depth):
    s, gens = structure_from_spec(spec)
    bt = division_balls(s, gens, depth)
    brute = brute_division_balls(s, gens, depth)
    finite = len(brute)  # levels below any universal ball
    for n in range(finite):
        assert bt.ball(n) == brute[n]
        expect = brute[0] if n == 0 else brute[n] - brute[n - 1]
        assert bt.levels[n] == sorted(expect, key=s.elem_key)
        assert all(bt.level(u) == n for u in expect)
    more = brute_division_balls(s, gens, depth + 1)
    if len(more) > depth + 1:  # the next sphere lies outside B_depth
        assert all(bt.level(u) is None for u in more[depth + 1] - more[depth])
    if finite <= depth:
        # theta entered at level finite - 1; dividing by it gives everything
        assert "theta" in bt.levels[finite - 1]
        assert bt.universal_at() == finite
        assert all(bt.ball(n) is UNIVERSE for n in range(finite, depth + 1))
    else:
        assert bt.universal_at() is None
    assert bt.stable_at() == _old_stable_at([bt.ball(n) for n in range(depth + 1)])
    assert bt.stable_at() == _old_stable_at(brute + [UNIVERSE] * (depth + 1 - finite))


def test_monoid_balls_match_brute_force_on_random_tables():
    """100 random transformation monoids (size <= 12), random X: at every
    depth up to m + 2 the balls equal the naive recursion's, and level_of
    holds exactly the levels' elements."""
    rng = random.Random(1212)
    divided = 0
    for _ in range(100):
        table = brute_transformation_monoid(rng)
        m = len(table)
        s = TableMonoid(table)
        X = rng.sample(range(m), rng.randrange(1, m + 1))
        brute = brute_division_balls(s, X, m + 2)
        for depth in range(m + 3):
            bt = division_balls(s, X, depth)
            assert [bt.ball(n) for n in range(depth + 1)] == brute[:depth + 1]
            assert bt.level_of == {u: n for n, lev in enumerate(bt.levels) for u in lev}
        products = {0}
        for _ in range(m):
            products |= {s.multiply(u, x) for u in products for x in X}
        divided += bt.ball(m + 2) != products
    assert divided  # some samples need division to fill their balls


@pytest.mark.parametrize("inverses", [True, False], ids=["F2", "FM2"])
def test_balls_with_identity_and_repeated_generators(inverses):
    # the necessity probe passes support sets, which may hold e and repeats
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": inverses},
         "generators": [[1], [2]]})
    messy = [s.elem_from_json(w) for w in ([], [1], [2], [1], [])]
    bt = division_balls(s, messy, 4)
    ref = division_balls(s, gens, 4)
    assert bt.levels == ref.levels
    assert all(bt.level(u) == n for n, lev in enumerate(ref.levels) for u in lev)
    assert all(bt.level(u) is None for u in division_balls(s, gens, 5).levels[5])
    assert [bt.ball(n) for n in range(5)] == brute_division_balls(s, messy, 4)


def test_zero_adjoined_universal_ball():
    s, _ = structure_from_spec({"family": "zero_adjoined", "params": {"rank": 2}})
    theta = "theta"
    bt = division_balls(s, [theta], 3)
    assert bt.sizes() == [1, 2, "all", "all"]
    assert bt.universal_at() == 2
    assert bt.ball(2) is UNIVERSE
    with pytest.raises(ResourceLimit):
        bt.sphere(2)


def test_zero_adjoined_absorbs():
    s = ZeroAdjoinedMonoid(2)
    th = "theta"
    a, b, ab = (s.elem_from_json(w) for w in ([1], [2], [1, 2]))
    assert s.multiply(th, a) == th
    assert s.multiply(a, th) == th
    assert s.multiply(a, b) == ab


def test_table_monoid_validation():
    # 0 must be a two-sided identity
    with pytest.raises(InvalidInput):
        TableMonoid([[1, 0], [0, 1]])
    # non-associative at (1,1,2): 1*(1*2) = 2 but (1*1)*2 = 1
    with pytest.raises(InvalidInput):
        TableMonoid([[0, 1, 2], [1, 2, 2], [2, 2, 1]])
    # valid: C3
    t = TableMonoid([[(i + j) % 3 for j in range(3)] for i in range(3)])
    assert t.is_group
    assert t.multiply(1, 2) == 0
    assert t.invert(1) == 2


def test_cyclic_group_pseudofinite():
    T5 = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    s, gens = structure_from_spec(
        {"family": "table", "params": {"table": T5}, "generators": [1, 4]})
    rep = pseudo_finite_within(s, gens, 5)
    assert rep["found"] and rep["n"] == 2
    assert rep["ball_sizes"] == [1, 3, 5]


def test_free_monoid_not_pseudofinite_within_50():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": False}})
    rep = pseudo_finite_within(s, gens, 50)
    assert not rep["found"]
    assert rep["reason"]  # explains why without enumerating 2^51 words


def test_zero_adjoined_pseudofinite_at_2():
    s, _ = structure_from_spec({"family": "zero_adjoined", "params": {"rank": 2}})
    rep = pseudo_finite_within(s, ["theta"], 4)
    assert rep["found"] and rep["n"] == 2


def test_ball_walks_stop_at_their_fixpoint(monkeypatch):
    # C5 as a table (tests/golden/inputs/c5.json) is B_2: past that fixpoint
    # a deeper walk calls right_images and right_quotients no more and
    # yields no more spheres
    import waug.structures as structures
    T5 = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    s, gens = structure_from_spec(
        {"family": "table", "params": {"table": T5}, "generators": [1, 4]})
    calls, spheres = [], []
    for name in ("right_images", "right_quotients"):
        real = getattr(type(s), name)
        monkeypatch.setattr(type(s), name, lambda self, *a, real=real:
                            calls.append(name) or real(self, *a))
    walk = structures._spheres

    def counted(*args, **kw):
        for sphere in walk(*args, **kw):
            spheres.append(sphere)
            yield sphere

    monkeypatch.setattr(structures, "_spheres", counted)
    work = []
    for depth in (10, 10 ** 5):
        calls.clear()
        spheres.clear()
        bt = division_balls(s, gens, depth)
        assert bt.stable_at() == 3 and bt.sizes()[:4] == [1, 3, 5, 5]
        work.append((len(calls), len(spheres)))
    assert work[0] == work[1] and work[0][0] > 0
    assert bfs_words(s, gens, 10 ** 5) == bfs_words(s, gens, 10)


@pytest.mark.parametrize("spec", [
    {"family": "Zd", "params": {"d": 6}},
    {"family": "free", "params": {"rank": 3, "inverses": True}},
    {"family": "free", "params": {"rank": 3, "inverses": False}}])
def test_closed_form_sizes_check_the_generators_once(spec, monkeypatch):
    # Zd and free build their standard set for each generator check; one
    # check per ball size took 1.3 s at d = 300 and 7.6 s at d = 700
    from waug.weights import RadialPolyWeight, tau_and_C
    s, gens = structure_from_spec(spec)
    calls = []
    real = type(s).default_generators
    monkeypatch.setattr(type(s), "default_generators",
                        lambda self: calls.append(1) or real(self))
    rep = pseudo_finite_within(s, gens, 64)
    assert len(calls) <= 1
    assert len(rep["ball_sizes"]) == 65
    assert rep["ball_sizes"][:5] == division_balls(s, gens, 4).sizes()
    calls.clear()
    tc = tau_and_C(s, gens, RadialPolyWeight(F(1)), 30)
    assert len(calls) <= 1 and len(tc["taus"]) == 30


def test_stall_is_permanent():
    # C2 x C2 with the single generator a: B_1 = {e,a} and it never grows
    T = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    s, gens = structure_from_spec(
        {"family": "table", "params": {"table": T}, "generators": [1]})
    bt = division_balls(s, gens, 6)
    assert bt.stable_at() == 2
    assert all(bt.ball(n) == bt.ball(1) for n in range(1, 7))


# ---------------------------------------------------------------------------
# ancestry chains
# ---------------------------------------------------------------------------

def _replay(s, chain):
    """Check the chain invariant: each step recovers the previous element."""
    for prev, step in zip(chain, chain[1:]):
        if step.op == "mul":
            assert s.multiply(step.elem, step.x) == prev.elem
        else:
            assert step.op == "div"
            assert s.multiply(prev.elem, step.x) == step.elem
    assert chain[-1].elem == s.identity()


@pytest.mark.parametrize("family,params", [
    ("Z", {}),
    ("free", {"rank": 2, "inverses": True}),
    ("free", {"rank": 2, "inverses": False}),
])
def test_ancestry_chains_replay(family, params):
    s, gens = structure_from_spec({"family": family, "params": params})
    bt = division_balls(s, gens, 4)
    rng = random.Random(901)
    pool = [u for n in range(5) for u in bt.sphere(n)]
    for u in rng.sample(pool, min(20, len(pool))):
        chain = bt.ancestry(u, gens)
        assert chain is not None
        assert chain[0].elem == u
        _replay(s, chain)


def test_ancestry_not_found_outside_ball():
    s, gens = structure_from_spec({"family": "Z"})
    chain = division_balls(s, gens, 3).ancestry(10, gens)
    assert chain is None


def test_ancestry_through_universal_ball():
    s, _ = structure_from_spec({"family": "zero_adjoined", "params": {"rank": 2}})
    chain = division_balls(s, ["theta"], 3).ancestry(s.elem_from_json([1, 2, 1]), ["theta"])
    assert chain is not None
    _replay(s, chain)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def test_bfs_words_shortest_and_least():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    words = bfs_words(s, gens, 3)
    # gens order [a, a^-1, b, b^-1]; ab has the unique word (0, 2)
    assert words[s.elem_from_json([1, 2])] == (0, 2)
    assert words[s.identity()] == ()
    assert len(words[s.elem_from_json([1, 1, 2])]) == 3


def test_geodesic_word_closed_forms_match_bfs():
    rng = random.Random(902)
    for spec in ({"family": "Z"}, {"family": "Zd", "params": {"d": 2}},
                 {"family": "free", "params": {"rank": 2, "inverses": True}}):
        s, gens = structure_from_spec(spec)
        words = bfs_words(s, gens, 4)
        pool = sorted(words, key=s.elem_key)
        for u in rng.sample(pool, min(25, len(pool))):
            w = geodesic_words(s, gens, [u], 6)[u]
            assert len(w) == len(words[u])
            # replaying the word reaches u
            v = s.identity()
            for i in w:
                v = s.multiply(v, gens[i])
            assert v == u


@pytest.mark.parametrize("spec", [
    {"family": "free", "params": {"rank": 2, "inverses": True},
     "generators": [[1], [-1], [2], [-2], [1, 2]]},
    {"family": "Zd", "params": {"d": 2}, "generators": [[1, 0], [0, 1], [-1, -1]]},
    {"family": "free", "params": {"rank": 2, "inverses": False}},
    {"family": "Zd", "params": {"d": 2}},
    {"family": "zero_adjoined", "params": {"rank": 2},
     "generators": [[1], [2], "theta"]},
], ids=["f2-ab", "z2-triangle", "fm2-standard", "z2-standard", "theta2"])
def test_geodesic_words_equal_per_point_words(spec):
    # one BFS for all points gives each point the word of its own BFS
    rng = random.Random(903)
    s, gens = structure_from_spec(spec)
    words = bfs_words(s, gens, 4)
    pool = sorted(words, key=s.elem_key)
    for size in (1, 2, 5, 12):
        points = rng.sample(pool, min(size, len(pool)))
        got = geodesic_words(s, gens, points, 6)
        assert list(got) == points
        for u in points:
            if is_graded(s, gens):
                assert got[u] == geodesic_words(s, gens, [u], 6)[u]
            else:
                assert got[u] == bfs_words(s, gens, 6, targets=[u])[u]


@pytest.mark.parametrize("spec", [
    {"family": "Z"},
    {"family": "Zd", "params": {"d": 2}},
    {"family": "Zd", "params": {"d": 3}},
    {"family": "free", "params": {"rank": 2, "inverses": True}},
    {"family": "free", "params": {"rank": 2, "inverses": False}},
], ids=["z", "z2", "z3", "f2", "fm2"])
def test_closed_form_words_are_least_on_reordered_standard_lists(spec):
    # the closed form serves any order of the standard generators, with
    # repeats, and must give the BFS's least word over generator indices
    rng = random.Random(904)
    s, std = structure_from_spec(spec)
    for _ in range(20):
        gens = std + [rng.choice(std) for _ in range(rng.randint(0, 2))]
        rng.shuffle(gens)
        assert is_graded(s, gens)
        words = bfs_words(s, gens, 3)
        assert geodesic_words(s, gens, list(words), 3) == words


def test_geodesic_words_unreachable_and_cap_messages(monkeypatch):
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True},
         "generators": [[1], [-1], [2], [-2], [1, 2]]})
    near, far, ab = (s.elem_from_json(w) for w in ([1], [2, 2, 1, 1], [1, 2]))
    # far = b b a a: no a b to shorten it
    with pytest.raises(ResourceLimit, match="^element not reached within depth 3$"):
        geodesic_words(s, gens, [near, far], 3)
    assert geodesic_words(s, gens, [near, far], 4)[far] == (2, 2, 0, 0)
    # the cap is checked level by level up to the farthest point, so it
    # fails exactly when the farthest point's own search fails
    monkeypatch.setenv("WAUG_BALL_CAP", str(len(bfs_words(s, gens, 3))))
    with pytest.raises(ResourceLimit, match="word BFS exceeded cap"):
        geodesic_words(s, gens, [far], 6)
    with pytest.raises(ResourceLimit, match="word BFS exceeded cap"):
        geodesic_words(s, gens, [near, far], 6)
    assert geodesic_words(s, gens, [near, ab], 6)[ab] == (4,)


def test_word_length_closed_forms():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    assert s.word_length(s.elem_from_json([1, 2, -1])) == 3
    z, _ = structure_from_spec({"family": "Z"})
    assert z.word_length(-7) == 7
    zd, _ = structure_from_spec({"family": "Zd", "params": {"d": 3}})
    assert zd.word_length((1, -2, 3)) == 6


def test_free_reduction_on_multiply():
    s = FreeStructure(2, True)
    w = s.elem_from_json
    assert s.multiply(w([1, 2]), w([-2])) == w([1])
    assert s.multiply(w([1]), w([-1])) == w([])
    assert s.invert(w([1, 2])) == w([-2, -1])


def test_elem_json_round_trip():
    cases = [
        ({"family": "Z"}, [0, 5, -3]),
        ({"family": "Zd", "params": {"d": 2}}, [(0, 0), (1, -2)]),
        ({"family": "free", "params": {"rank": 2, "inverses": True}},
         [[], [1, 2, -1]]),
        ({"family": "zero_adjoined", "params": {"rank": 2}},
         [[], [1, 2], "theta"]),
    ]
    for spec, elems in cases:
        s, _ = structure_from_spec(spec)
        for u in map(s.elem_from_json, elems):
            assert s.elem_from_json(s.elem_to_json(u)) == u


def test_structure_spec_errors():
    with pytest.raises(InvalidInput):
        structure_from_spec({"family": "nope"})
    with pytest.raises(InvalidInput):
        structure_from_spec({"family": "free", "params": {}})
    with pytest.raises(InvalidInput):
        # identity among the generators
        structure_from_spec({"family": "Z", "generators": [0, 1]})
    s, _ = structure_from_spec({"family": "free",
                                "params": {"rank": 2, "inverses": True}})
    with pytest.raises(InvalidInput):
        s.elem_from_json([1, -1])     # unreduced word
    with pytest.raises(InvalidInput):
        s.elem_from_json("theta")     # theta outside zero-adjoined


def test_ball_cap_respected(monkeypatch):
    monkeypatch.setenv("WAUG_BALL_CAP", "100")
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    with pytest.raises(ResourceLimit):
        division_balls(s, gens, 6)
    # each search fires at the first level past the cap, with its own message:
    # F2 balls (group path) 1, 5, 17, 53, 161; rank-3 free monoid balls
    # (monoid path: multiply and divide) 1, 4, 13, 40, 121; F2 words as the F2 balls
    fm3, fm3_gens = structure_from_spec(
        {"family": "free", "params": {"rank": 3, "inverses": False}})
    for st, g, size in ((s, gens, 161), (fm3, fm3_gens, 121)):
        assert division_balls(st, g, 3).sizes()[-1] <= 100
        with pytest.raises(ResourceLimit, match="^" + re.escape(
                f"ball B_4 has {size} elements, over the cap 100 "
                "(set WAUG_BALL_CAP to raise it)") + "$"):
            division_balls(st, g, 6)
    assert len(bfs_words(s, gens, 3)) == 53
    with pytest.raises(ResourceLimit, match="^" + re.escape(
            "word BFS exceeded cap 100 (set WAUG_BALL_CAP to raise it)") + "$"):
        bfs_words(s, gens, 6)


@pytest.mark.parametrize("spec,bad", [
    ({"family": "Z"}, ["+1", "01", "-0", " 1", "1.0", "x", ""]),
    ({"family": "Zd", "params": {"d": 2}},
     ["(1,2,3)", "(1, 2)", "1,2", "(01,2)", "()", "(1,2"]),
    ({"family": "free", "params": {"rank": 2, "inverses": True}},
     ["a.a^-1", "c", "a..b", "", "a^-2", "zz.q", "e.a", "A"]),
    ({"family": "free", "params": {"rank": 3, "inverses": False}},
     ["a^-1", "d", "a.e", "()"]),
    ({"family": "table", "params": {"table": _T3},
      "generators": [_T3_CYCLE, _T3_FOLD]}, ["m27", "M1", "1", "m01"]),
    ({"family": "zero_adjoined", "params": {"rank": 2}, "generators": [[1], "theta"]},
     ["Theta", "theta.a", "a^-1", "c"]),
    # e names the identity alone: the fifth letter is f, and rank 26 uses g1..g26
    ({"family": "free", "params": {"rank": 5, "inverses": True}},
     ["e.f", "f.e", "g", "f^-2", "E"]),
    ({"family": "free", "params": {"rank": 26, "inverses": False},
      "generators": [[1], [5], [26]]}, ["a", "e.g1", "g27", "g0", "g05", "z"]),
], ids=["Z", "Z2", "F2", "FM3", "T3", "theta2", "F5", "FM26"])
def test_parse_str_inverts_elem_str(spec, bad):
    s, gens = structure_from_spec(spec)
    bt = division_balls(s, gens, 3)
    points = [u for lev in bt.levels if lev is not UNIVERSE for u in lev]
    for u in points:
        assert s.parse_str(s.elem_str(u)) == u
    for text in bad:
        with pytest.raises(InvalidInput, match=re.escape(repr(text))):
            s.parse_str(text)


def _letter_key(u):
    """IntegerLattice.elem_key as it was, kept as the oracle: the length,
    then the tuple of geodesic letters (+e_i is 2i+1, -e_i is 2i+2)."""
    letters = []
    for i, c in enumerate(u):
        rank = 2 * i + 1 if c >= 0 else 2 * i + 2
        letters.extend([rank] * abs(c))
    return (sum(abs(c) for c in u), tuple(letters))


@st.composite
def _lattice_points(draw):
    """(d, points of Z^d) for d = 1..5; each point comes with a shuffle and
    a sign flip of its coordinates, which have its length."""
    d = draw(st.integers(1, 5))
    points = []
    for u in draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=12)):
        v = list(u)
        draw(st.randoms(use_true_random=False)).shuffle(v)
        flip = draw(st.integers(0, d - 1))
        v[flip] = -v[flip]
        points += [u, tuple(v)]
    return d, points


@settings(max_examples=60)
@given(_lattice_points())
def test_lattice_key_orders_as_the_letter_key(case):
    d, points = case
    s = IntegerLattice(d)
    assert sorted(points, key=s.elem_key) == sorted(points, key=_letter_key)
    for u in points:
        for v in points:
            assert (s.elem_key(u) < s.elem_key(v)) == (_letter_key(u) < _letter_key(v))
            assert (s.elem_key(u) == s.elem_key(v)) == (u == v)


@settings(max_examples=60)
@given(_lattice_points())
def test_lattice_key_equals_its_genexpr_form(case):
    # the key as a list comprehension returns the tuples of its former
    # genexpr/min form, value for value
    d, points = case
    s = IntegerLattice(d)
    for u in points:
        assert s.elem_key(u) == (sum(abs(a) for a in u),
                                 tuple((min(-c, 0), min(c, 0)) for c in u))
