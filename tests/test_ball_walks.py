"""The batched ball walk against the per-element one it replaces
(ball_walk_oracle), under Hypothesis, on all five families: the same
spheres, levels, universal ball and geodesic words, the same cap errors,
and right_images and right_quotients agree with multiply and division
element by element.  Balls over a standard generating set, which the
family writes in closed form, against the same walk."""

import os
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ball_walk_oracle as oracle
from test_acceptance import transformation_monoid
from waug.algebra import Element, sigma_sequence
from waug.structures import (BALL_CAP_ENV, THETA, UNIVERSE, FreeStructure,
                             IntegerGroup, IntegerLattice, ResourceLimit,
                             TableMonoid, ZeroAdjoinedMonoid, bfs_words,
                             division_balls, geodesic_words)


def _free_word(s, digits):
    """The word with these letters (digits), reduced in a group."""
    w = 0
    for d in digits:
        w = s.multiply(w, d)
    return w


@st.composite
def _zd(draw):
    d = draw(st.integers(1, 3))
    return IntegerLattice(d), st.tuples(*[st.integers(-2, 2)] * d)


@st.composite
def _free(draw):
    s = FreeStructure(draw(st.integers(1, 3)), draw(st.booleans()))
    letters = st.lists(st.integers(1, s.base - 1), max_size=3)
    return s, letters.map(lambda ds: _free_word(s, ds))


@st.composite
def _table(draw):
    """A monoid of maps on 2 or 3 points, as test_acceptance builds them."""
    base = draw(st.integers(2, 3))
    maps = st.tuples(*[st.integers(0, base - 1)] * base)
    table = transformation_monoid(base, draw(st.lists(maps, min_size=1, max_size=3)))
    assume(len(table) > 1)
    return TableMonoid(table), st.integers(0, len(table) - 1)


@st.composite
def _zero_adjoined(draw):
    s = ZeroAdjoinedMonoid(draw(st.integers(1, 3)))
    word = st.lists(st.integers(1, s.free.base - 1), max_size=3).map(
        lambda ds: _free_word(s.free, ds))
    return s, st.one_of(st.just(THETA), word)


FAMILIES = st.one_of(st.just((IntegerGroup(), st.integers(-4, 4))), _zd(), _free(),
                     _table(), _zero_adjoined())


@st.composite
def walks(draw):
    """(structure, generators, depth): a shuffled list of non-identity
    elements, some repeated, multi-letter free words and theta among them."""
    s, elems = draw(FAMILIES)
    gen = elems.filter(lambda u: u != s.identity())
    gens = draw(st.lists(gen, min_size=1, max_size=4))
    gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    return s, draw(st.permutations(gens)), draw(st.integers(0, 6))


@contextmanager
def _cap(cap):
    old = os.environ.get(BALL_CAP_ENV)
    os.environ[BALL_CAP_ENV] = str(cap)
    try:
        yield
    finally:
        if old is None:
            del os.environ[BALL_CAP_ENV]
        else:
            os.environ[BALL_CAP_ENV] = old


def _outcome(f, *args, **kw):
    try:
        return f(*args, **kw)
    except ResourceLimit as exc:
        return "ResourceLimit: " + str(exc)


def _assert_same_levels(bt, ref, s, gens, depth):
    """bt.level gives each point of the reference table its reference
    level, and None to each point of the next sphere, outside B_depth."""
    assert all(bt.level(u) == n for u, n in ref.level_of.items())
    more = _outcome(oracle.division_balls, s, gens, depth + 1)
    if not isinstance(more, str) and more.levels[-1] is not UNIVERSE:
        assert all(bt.level(u) is None for u in more.levels[-1])


@settings(max_examples=300)
@given(walks(), st.sampled_from([2000, 40]), st.randoms(use_true_random=False))
def test_batched_walks_match_the_per_element_walk(walk, cap, rng):
    s, gens, depth = walk
    with _cap(cap):
        bt, ref = _outcome(division_balls, s, gens, depth), _outcome(
            oracle.division_balls, s, gens, depth)
        if isinstance(ref, str):
            assert bt == ref
        else:
            assert bt.levels == ref.levels
            _assert_same_levels(bt, ref, s, gens, depth)
            assert bt.universal_at() == ref.universal_at()
        words = _outcome(bfs_words, s, gens, depth)
        assert words == _outcome(oracle.bfs_words, s, gens, depth)
        if not isinstance(words, str):
            # the same dict order: BFS visits the images u-major, as before
            assert list(words.items()) == list(oracle.bfs_words(s, gens, depth).items())
            targets = rng.sample(sorted(words, key=s.elem_key), min(3, len(words)))
            assert (list(bfs_words(s, gens, depth, targets).items())
                    == list(oracle.bfs_words(s, gens, depth, targets).items()))


@settings(max_examples=300)
@given(FAMILIES.flatmap(lambda f: st.tuples(
    st.just(f[0]), st.lists(f[1], max_size=8), f[1])))
def test_kernels_match_the_element_wise_operations(case):
    s, us, x = case
    assert s.right_images(us, x) == [s.multiply(u, x) for u in us]
    distinct = list(dict.fromkeys(us))
    quotients = s.right_quotients(distinct, x)
    points = [oracle.divide_point(s, u, x) for u in distinct]
    assert [s.right_divide_point(u, x) for u in distinct] == points
    if UNIVERSE in points:
        assert quotients is UNIVERSE
    else:
        assert len(quotients) == len(set(quotients))  # each v once
        assert set(quotients) == set().union(*points)


STANDARD = st.one_of(st.just(IntegerGroup()), st.integers(1, 4).map(IntegerLattice),
                     st.integers(1, 4).map(FreeStructure),
                     st.integers(1, 4).map(lambda r: FreeStructure(r, inverses=False)))


@st.composite
def standard_walks(draw):
    """(structure, generators, depth): the standard set of Z, Z^1..Z^4, F1..F4
    or a free monoid of rank 1..4, shuffled, some generators repeated."""
    s = draw(STANDARD)
    std = s.default_generators()
    gens = std + draw(st.lists(st.sampled_from(std), max_size=2))
    return s, draw(st.permutations(gens)), draw(st.integers(0, 6))


@settings(max_examples=200)
@given(standard_walks(), st.sampled_from([2000, 40]), st.randoms(use_true_random=False))
def test_graded_balls_match_the_walk(walk, cap, rng):
    s, gens, depth = walk
    with _cap(cap):
        bt, ref = _outcome(division_balls, s, gens, depth), _outcome(
            oracle.division_balls, s, gens, depth)
        if isinstance(ref, str):
            assert bt == ref  # the cap refuses the same ball, with the same message
            return
        assert bt.level_of is None  # graded, not walked
        assert bt.levels == ref.levels
        assert bt.sizes() == ref.sizes() == list(map(s.ball_size, range(depth + 1)))
        _assert_same_levels(bt, ref, s, gens, depth)
        words = _outcome(oracle.bfs_words, s, gens, depth)
    inside = sorted(ref.level_of, key=s.elem_key)
    outside = sorted({s.multiply(u, x) for u in ref.levels[depth] for x in gens}
                     - set(inside), key=s.elem_key)
    points = rng.sample(inside, min(4, len(inside))) + outside[:2]
    assert [bt.level(u) for u in outside] == [None] * len(outside)
    for u in points:
        assert bt.ancestry(u, gens) == ref.ancestry(u, gens)
    f = Element(s, {u: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for u in points})
    vals, stable = sigma_sequence(f, bt)
    ref_vals, ref_stable = sigma_sequence(f, ref)
    assert [(v.re, v.im) for v in vals] == [(v.re, v.im) for v in ref_vals]
    assert stable == ref_stable
    if not isinstance(words, str):
        assert geodesic_words(s, gens, inside, depth) == {u: words[u] for u in inside}
