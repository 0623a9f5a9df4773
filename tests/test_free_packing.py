"""Free words packed into ints against the tuple representation they replace
(free_tuple_oracle), under Hypothesis: packing is a bijection that keeps
the order, and every word operation commutes with it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from free_tuple_oracle import TupleFreeStructure
from test_golden import assert_same_lines
from waug.serialize import canonical_json
from waug.structures import FreeStructure, InvalidInput, division_balls

RANKS = st.integers(1, 30)


def _pair(rank, inverses):
    return FreeStructure(rank, inverses), TupleFreeStructure(rank, inverses)


@st.composite
def _word(draw, oracle, max_size=10):
    """A word of the oracle's structure, reduced in a group."""
    r = oracle.rank
    letters = st.integers(-r, r).filter(bool) if oracle.inverses else st.integers(1, r)
    w = ()
    for g in draw(st.lists(letters, max_size=max_size)):
        w = oracle.multiply(w, (g,))
    return w


@st.composite
def _case(draw):
    """(packed structure, oracle, three words u, v, x); x is, one time in
    two, a suffix of u, so that monoid divisions succeed."""
    s, o = _pair(draw(RANKS), draw(st.booleans()))
    u, v = draw(_word(o)), draw(_word(o))
    x = u[draw(st.integers(0, len(u))):] if draw(st.booleans()) else draw(_word(o, 3))
    return s, o, u, v, x


_oracle = settings(max_examples=150)


@_oracle
@given(_case())
def test_packing_is_an_order_preserving_bijection(case):
    s, o, u, v, _ = case
    pu, pv = s.elem_from_json(u), s.elem_from_json(v)
    assert s.elem_to_json(pu) == list(u)
    assert s.elem_from_json(s.elem_to_json(pu)) == pu
    assert (pu == pv) == (u == v)
    assert (pu < pv) == (o.elem_key(u) < o.elem_key(v))
    assert s.elem_key(pu) == pu


@_oracle
@given(_case())
def test_word_operations_commute_with_packing(case):
    s, o, u, v, x = case
    pack = s.elem_from_json
    pu, pv, px = pack(u), pack(v), pack(x)
    assert s.multiply(pu, pv) == pack(o.multiply(u, v))
    assert s.multiply(pu, px) == pack(o.multiply(u, x))
    assert (set(s.right_quotients([pu], px))
            == set(map(pack, o.right_divide_point(u, x))))
    if o.inverses:
        assert s.invert(pu) == pack(o.invert(u))
    else:
        with pytest.raises(InvalidInput):
            s.invert(pu)
    assert s.word_length(pu) == o.word_length(u)
    assert s.elem_str(pu) == o.elem_str(u)
    assert s.parse_str(o.elem_str(u)) == pu
    assert s.elem_to_json(pu) == o.elem_to_json(u)


@pytest.mark.parametrize("rank,inverses,gens,depth", [
    (1, True, None, 6), (1, False, None, 6), (2, True, [[1], [2], [1, 2]], 4),
    (2, False, [[1, 2], [2], [2, 1, 1]], 5), (3, False, None, 4),
    (26, True, [[1], [26], [-13], [5, -7]], 3),
    # parents far outside the last sphere, spelt out, past the recursion limit
    (2, True, [[1] * 1200, [2, 1]], 2),
])
def test_balls_and_their_report_text_match_the_oracle(rank, inverses, gens, depth):
    # spheres hold the same words in the same order, and the text written
    # from each word's parent is that of the words themselves
    s, o = _pair(rank, inverses)
    if gens is None:
        sg, og = s.default_generators(), o.default_generators()
    else:
        sg, og = [s.elem_from_json(g) for g in gens], [tuple(g) for g in gens]
    bt, ref = division_balls(s, sg, depth), division_balls(o, og, depth)
    assert bt.levels == [[s.elem_from_json(w) for w in lev] for lev in ref.levels]
    text = canonical_json({"levels": s.spheres_to_json(bt.levels)})
    assert_same_lines(text, canonical_json({"levels": o.spheres_to_json(ref.levels)}))
