"""Finitely supported elements: convolution, norms, ball sums."""

import json
import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import norm_enclosure_oracle as norm_oracle
from waug.algebra import (QC, Element, convolve, convolve_sum,
                          sigma_sequence, weighted_norm)
from waug.certify import Enclosure, format_rational
from waug.serialize import canonical_json
from waug.structures import UNIVERSE, division_balls, structure_from_spec
from waug.weights import (RadialExpWeight, RadialPolyWeight, TrivialWeight,
                          weight_from_spec)


def random_element(rng, s, pool, size, denom=12):
    return Element(s, [(rng.choice(pool), F(rng.randrange(-6, 7), rng.randrange(1, denom)))
                       for _ in range(size)])


def _pair(q):
    """A QC scalar as its (re, im) pair of Fractions."""
    return q.re, q.im


def _times(a, b):
    """The Gaussian product of two QC scalars, as an (re, im) pair."""
    return a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re


def _plus(a, b, sign=1):
    """a + sign * b for two QC scalars, as an (re, im) pair."""
    return a.re + sign * b.re, a.im + sign * b.im


def _coeff_pairs(h):
    """{w: (re, im)} over the support of h."""
    return {w: _pair(h[w]) for w in h.support()}


def test_qc_abs_value():
    # |3 + 4i| = 5 exactly, by the oracle's frozen QC.abs_value
    v = norm_oracle.abs_value(QC(F(3), F(4)))
    if hasattr(v, "lo"):
        assert v.lo <= 5 <= v.hi
    else:
        assert v == 5
    assert norm_oracle.abs_value(QC(F(-7, 2))) == F(7, 2)


def test_element_zero_coefficients_dropped():
    s, _ = structure_from_spec({"family": "Z"})
    f = Element(s, [(1, 1), (1, -1)])
    assert not f
    assert len(f) == 0
    g = Element(s, {0: 1, 1: F(0)})
    assert len(g) == 1


def test_support_sorted_canonically():
    s, _ = structure_from_spec({"family": "Z"})
    f = Element(s, {3: 1, -1: 1, 0: 1})
    assert f.support() == [0, -1, 3]  # by (abs, sign)


def test_convolution_on_integers_is_polynomial_product():
    # elements of l1(Z) multiply like Laurent polynomials
    rng = random.Random(77)
    s, _ = structure_from_spec({"family": "Z"})
    for _ in range(50):
        f = random_element(rng, s, range(-5, 6), 4)
        g = random_element(rng, s, range(-5, 6), 4)
        # oracle: direct double loop
        assert _coeff_pairs(convolve(f, g)) == _oracle_convolve(f, g)


def test_convolution_identity_and_associativity():
    rng = random.Random(78)
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    bt = division_balls(s, gens, 2)
    pool = sorted(bt.ball(2), key=s.elem_key)
    e = Element.delta(s, s.identity())
    for _ in range(25):
        f = random_element(rng, s, pool, 3)
        g = random_element(rng, s, pool, 3)
        h = random_element(rng, s, pool, 3)
        assert convolve(e, f) == f == convolve(f, e)
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


def test_convolution_is_noncommutative_on_free():
    s, _ = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": False}})
    a, b, ab = (s.elem_from_json(w) for w in ([1], [2], [1, 2]))
    da, db = Element.delta(s, a), Element.delta(s, b)
    assert convolve(da, db) != convolve(db, da)
    assert convolve(da, db).support() == [ab]


def test_augmentation_is_a_character():
    rng = random.Random(79)
    s, gens = structure_from_spec({"family": "Zd", "params": {"d": 2}})
    bt = division_balls(s, gens, 2)
    pool = sorted(bt.ball(2), key=s.elem_key)
    d_e = Element.delta(s, s.identity())
    for _ in range(30):
        f = random_element(rng, s, pool, 4)
        g = random_element(rng, s, pool, 4)
        fa, ga = f.augmentation(), g.augmentation()
        assert _pair(convolve(f, g).augmentation()) == _times(fa, ga)
        assert _pair(convolve_sum(s, [(f, d_e), (g, d_e)]).augmentation()) == _plus(fa, ga)


def test_weighted_norm_unweighted_and_weighted():
    s, _ = structure_from_spec({"family": "Z"})
    f = Element(s, {2: F(3, 4), -1: F(-1, 4)})
    assert weighted_norm(f, TrivialWeight()) == 1
    w = RadialExpWeight(F(2), F(1))  # 2^|n|
    assert weighted_norm(f, w) == F(3, 4) * 4 + F(1, 4) * 2


def test_weighted_norm_submultiplicative():
    rng = random.Random(80)
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    bt = division_balls(s, gens, 2)
    pool = sorted(bt.ball(2), key=s.elem_key)
    w = RadialExpWeight(F(2), F(1))
    for _ in range(25):
        f = random_element(rng, s, pool, 3)
        g = random_element(rng, s, pool, 3)
        assert weighted_norm(convolve(f, g), w) <= weighted_norm(f, w) * weighted_norm(g, w)


def test_sigma_sequence_counts_ball_mass():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": False}})
    bt = division_balls(s, gens, 4)
    e = s.identity()
    f = Element(s, {s.elem_from_json([1, 2]): 1, e: -1})
    vals, stable = sigma_sequence(f, bt)
    assert [v.re for v in vals] == [F(-1), F(-1), F(0), F(0), F(0)]
    assert stable == 2
    # sigma of the whole support equals the augmentation from there on
    assert _pair(vals[-1]) == _pair(f.augmentation())


def test_sigma_sequence_on_universal_ball():
    s, _ = structure_from_spec({"family": "zero_adjoined", "params": {"rank": 2}})
    bt = division_balls(s, ["theta"], 3)
    f = Element(s, {s.elem_from_json([1, 2, 1]): F(5), s.elem_from_json("theta"): F(-2)})
    vals, stable = sigma_sequence(f, bt)
    # B_2 = everything, so sigma_2 = augmentation
    assert _pair(vals[2]) == _pair(f.augmentation())
    assert stable <= 2


TRUNCATED_ADD_8 = [[min(u + v, 7) for v in range(8)] for u in range(8)]


@pytest.mark.parametrize("spec,depth,pool", [
    ({"family": "free", "params": {"rank": 2, "inverses": True}}, 3,
     [[], [1], [-2], [1, 2], [2, -1, 2], [1, 1, 1, 1], [-1, 2, 2, 1, -2]]),
    ({"family": "Zd", "params": {"d": 3}}, 3,
     [(0, 0, 0), (1, 0, 0), (0, -1, 1), (2, 1, 0), (3, 0, -1), (0, 4, 0)]),
    # truncated addition on 0..7 (7 absorbing): B_n = {0..n}, 5..7 outside
    ({"family": "table", "params": {"table": TRUNCATED_ADD_8},
      "generators": [1]}, 4, list(range(8))),
    # B_2 is universal: every point is in it, however long
    ({"family": "zero_adjoined", "params": {"rank": 2}, "generators": ["theta"]},
     4, [[], "theta", [1], [2, 1], [1, 2, 1], [2, 2, 2, 2, 1, 1]]),
], ids=["F2", "Z3", "table", "theta"])
def test_sigma_sequence_matches_the_per_ball_sums(spec, depth, pool):
    s, gens = structure_from_spec(spec)
    pool = [s.elem_from_json(p) for p in pool]
    bt = division_balls(s, gens, depth)
    balls = [bt.ball(n) for n in range(depth + 1)]
    rng = random.Random(133)
    for _ in range(40):
        terms = []
        for _ in range(rng.randrange(0, 6)):
            c = QC(F(rng.randrange(-6, 7), rng.randrange(1, 9)),
                   F(rng.randrange(-6, 7), rng.randrange(1, 9)))
            terms.append((rng.choice(pool), c))
        f = Element(s, terms)
        supp = f.support()
        expect = []
        for ball in balls:
            total = (F(0), F(0))
            for u in supp:
                if ball is UNIVERSE or u in ball:
                    total = (total[0] + f[u].re, total[1] + f[u].im)
            expect.append(total)
        stable = next((n for n, ball in enumerate(balls)
                       if all(ball is UNIVERSE or u in ball for u in supp)), None)
        vals, got_stable = sigma_sequence(f, bt)
        assert ([_pair(v) for v in vals], got_stable) == (expect, stable)


def test_element_json_round_trip():
    s, _ = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    f = Element(s, {s.elem_from_json([1, 2]): QC(F(1, 3), F(-2, 5)),
                    s.elem_from_json([]): F(-7)})
    g = Element.from_json(s, f.to_json())
    assert g == f


def test_element_rebuilds_from_its_coeffs_view():
    s, _ = structure_from_spec({"family": "Zd", "params": {"d": 2}})
    f = Element(s, {(1, 0): QC(F(1, 3), F(-2, 5)), (0, 2): F(-7, 4)})
    assert Element(s, {u: f[u] for u in f.support()}) == f


def test_gaussian_convolution_multiplies_once_per_support_pair(monkeypatch):
    s, _ = structure_from_spec({"family": "Zd", "params": {"d": 2}})
    calls = []
    mul = s.multiply
    monkeypatch.setattr(s, "multiply", lambda u, v: calls.append(1) or mul(u, v))
    f = Element(s, {(0, 0): QC(1, 2), (1, 0): F(1, 3), (0, 1): QC(0, 1)})
    g = Element(s, {(1, 1): QC(F(1, 2), -1), (2, 0): 5})
    convolve(f, g)
    assert len(calls) == 6


# ---------------------------------------------------------------------------
# ring laws of the convolution algebra, under Hypothesis
# ---------------------------------------------------------------------------

LAW_STRUCTURES = {
    "Z": ({"family": "Z"}, [0, 1, -1, 2, -3, 5]),
    "Z2": ({"family": "Zd", "params": {"d": 2}},
           [(0, 0), (1, 0), (0, -1), (2, 1), (-1, 3)]),
    "F2": ({"family": "free", "params": {"rank": 2, "inverses": True}},
           [[], [1], [-2], [1, 2], [2, -1], [-1, -1, 2]]),
    "FM2": ({"family": "free", "params": {"rank": 2, "inverses": False}},
            [[], [1], [2], [1, 2], [2, 2, 1]]),
    # truncated addition on 0..7: a commutative monoid that is not a group
    "table": ({"family": "table", "params": {"table": TRUNCATED_ADD_8},
               "generators": [1]}, list(range(8))),
    # theta absorbs: theta * u = u * theta = theta
    "theta": ({"family": "zero_adjoined", "params": {"rank": 2}},
              [[], "theta", [1], [2, 1], [1, 2, 1]]),
}


def _law_structure(spec, pool):
    """The structure of spec and the elements its JSON pool names."""
    s = structure_from_spec(spec)[0]
    return s, [s.elem_from_json(p) for p in pool]


LAW_STRUCTURES = {name: _law_structure(spec, pool)
                  for name, (spec, pool) in LAW_STRUCTURES.items()}

_rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 12))
_scalars = st.one_of(
    _rationals.map(QC),                               # real
    st.builds(QC, _rationals, _rationals),            # Gaussian
    st.builds(F, st.integers(-9, 9), st.just(1)),     # plain rational
    st.integers(-3, 3),                               # plain int
)


def _elements(name):
    s, pool = LAW_STRUCTURES[name]
    return st.lists(st.tuples(st.sampled_from(pool), _scalars),
                    max_size=5).map(lambda terms: Element(s, terms))


def _oracle_convolve(f, g):
    """{w: (re, im)} by the double loop over the supports, in Fractions."""
    mul = f.structure.multiply
    out = {}
    for u in f.support():
        for v in g.support():
            w = mul(u, v)
            re, im = out.get(w, (F(0), F(0)))
            p_re, p_im = _times(f[u], g[v])
            out[w] = (re + p_re, im + p_im)
    return {w: c for w, c in out.items() if c != (0, 0)}


LAW_NAMES = sorted(LAW_STRUCTURES)
_laws = settings(max_examples=40)


@pytest.mark.parametrize("name", LAW_NAMES)
@_laws
@given(data=st.data())
def test_convolution_ring_laws(name, data):
    s, _ = LAW_STRUCTURES[name]
    f, g, h = (data.draw(_elements(name)) for _ in range(3))
    delta_e = Element.delta(s, s.identity())
    assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
    g_plus_h = convolve_sum(s, [(g, delta_e), (h, delta_e)])
    assert convolve(f, g_plus_h) == convolve_sum(s, [(f, g), (f, h)])
    f_plus_g = convolve_sum(s, [(f, delta_e), (g, delta_e)])
    assert convolve(f_plus_g, h) == convolve_sum(s, [(f, h), (g, h)])
    assert convolve(delta_e, f) == f == convolve(f, delta_e)


@pytest.mark.parametrize("name", LAW_NAMES)
@_laws
@given(data=st.data())
def test_self_difference_is_the_empty_zero(name, data):
    s, _ = LAW_STRUCTURES[name]
    f = data.draw(_elements(name))
    e = s.identity()
    d = convolve_sum(s, [(f, Element.delta(s, e)), (f, Element.delta(s, e, -1))])
    assert d == Element.zero(s)
    assert d.support() == [] and len(d) == 0 and not d
    assert convolve_sum(s, [(f, Element.delta(s, e)), (Element.zero(s), f)]) == f


@pytest.mark.parametrize("name", LAW_NAMES)
@_laws
@given(data=st.data())
def test_augmentation_additive_and_multiplicative(name, data):
    f, g = data.draw(_elements(name)), data.draw(_elements(name))
    s = f.structure
    fa, ga = f.augmentation(), g.augmentation()
    d_e, minus_e = Element.delta(s, s.identity()), Element.delta(s, s.identity(), -1)
    assert _pair(convolve_sum(s, [(f, d_e), (g, d_e)]).augmentation()) == _plus(fa, ga)
    assert _pair(convolve_sum(s, [(f, d_e), (g, minus_e)]).augmentation()) == _plus(fa, ga, -1)
    assert _pair(convolve(f, g).augmentation()) == _times(fa, ga)


@pytest.mark.parametrize("name", LAW_NAMES)
@_laws
@given(data=st.data())
def test_convolution_matches_the_fraction_double_loop(name, data):
    f, g = data.draw(_elements(name)), data.draw(_elements(name))
    want = _oracle_convolve(f, g)
    h = convolve(f, g)
    assert set(h.support()) == set(want)
    assert _coeff_pairs(h) == want
    s = f.structure
    k = Element.delta(s, s.identity(), data.draw(_scalars))
    assert _coeff_pairs(convolve(k, f)) == _oracle_convolve(k, f)


def _assert_norm_is_the_oracles(f, weight, bits):
    """weighted_norm equals the frozen enclosure sum, and is a Fraction
    exactly when its two ends meet."""
    got = weighted_norm(f, weight, bits)
    assert got == norm_oracle.weighted_norm(f, weight, bits)
    if isinstance(got, Enclosure):
        assert got.lo < got.hi
    else:
        assert type(got) is F


# the table monoid has no standard word length for a radial weight
@pytest.mark.parametrize("name", [n for n in LAW_NAMES if n != "table"])
@_laws
@given(data=st.data())
def test_weighted_norm_matches_the_per_point_enclosure_sum(name, data):
    f = data.draw(_elements(name))
    bits = data.draw(st.sampled_from([8, 64, 128]))
    for weight in (TrivialWeight(), RadialExpWeight(F(2), F(1)), RadialExpWeight(F(2), F(1, 2)),
                   RadialPolyWeight(F(3, 2))):
        _assert_norm_is_the_oracles(f, weight, bits)


_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


def _input(name):
    with open(os.path.join(_INPUTS, name)) as fh:
        return json.load(fh)


# every kind of point |den f(u)| meets, as (point, re, im) terms: a 3+4i
# point over a denominator (a square modulus), an imaginary-only and a
# real-only point, the zero element, and points whose modulus is irrational
_NORM_EDGES = {
    "3+4i/7": [(0, "3/7", "4/7")],
    "imaginary": [(1, 0, "-4/7")],
    "real": [(2, "-5/2", 0)],
    "zero": [],
    "irrational": [(1, "1/3", "2/3"), (3, 5, -2)],
    "mixed": [(0, "3/7", "4/7"), (1, 0, "-4/7"), (2, "-3/7", 0), (3, "1/6", "-5/4")],
}
_F2, _C5 = (structure_from_spec(_input(n))[0] for n in ("f2.json", "c5.json"))
_F2_POINTS = [_F2.elem_from_json(w) for w in ([1, 2], [-1], [], [2, -1, -1])]
_C5_POINTS = [1, 2, 0, 4]
_NORM_WEIGHTS = [
    (_F2, _F2_POINTS, TrivialWeight()),
    (_F2, _F2_POINTS, weight_from_spec(_input("w_exp2.json"))),       # whole numbers
    (_F2, _F2_POINTS, weight_from_spec(_input("w_exp_half.json"))),   # enclosures
    (_F2, _F2_POINTS, weight_from_spec(_input("w_poly_half.json"))),  # enclosures
    (_C5, _C5_POINTS, weight_from_spec(_input("w_explicit_c5.json"))),
    (_C5, _C5_POINTS, weight_from_spec(                               # fractions
        {"family": "explicit",
         "params": {"values": {"m0": "1", "m1": "5/2", "m2": "7/3", "m4": "9/8"}}})),
]


@pytest.mark.parametrize("bits", [8, 64, 128, 256])
@pytest.mark.parametrize("edge", sorted(_NORM_EDGES))
def test_weighted_norm_matches_the_per_point_enclosure_sum_at_the_edges(edge, bits):
    for s, points, weight in _NORM_WEIGHTS:
        f = Element(s, [(points[i], QC(F(re), F(im))) for i, re, im in _NORM_EDGES[edge]])
        _assert_norm_is_the_oracles(f, weight, bits)


def test_basel_element_json_matches_the_fraction_path():
    """A 2,000-term element with coefficients 1/k^2 (shared denominator
    lcm(1..2000)^2) prints every coefficient as its reduced fraction, as a
    map of Fractions does."""
    s, _ = structure_from_spec({"family": "Z"})
    K = 2000
    coeffs = {0: sum((F(1, k * k) for k in range(1, K + 1)), F(0))}
    for k in range(1, K + 1):
        coeffs[k] = -F(1, k * k)
    f = Element(s, coeffs)
    want = {"terms": [{"elem": u, "re": format_rational(coeffs[u]), "im": "0"}
                      for u in sorted(coeffs, key=s.elem_key)]}
    assert canonical_json(f.to_json()) == canonical_json(want)
    assert _pair(f.augmentation()) == (0, 0)
