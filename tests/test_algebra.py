"""Finitely supported elements: convolution, norms, ball sums."""

import random
from fractions import Fraction as F

import pytest

from waug.algebra import (QC, Element, convolve, convolve_many,
                          sigma_sequence, weighted_norm)
from waug.structures import UNIVERSE, division_balls, structure_from_spec
from waug.weights import RadialExpWeight, TrivialWeight


def random_element(rng, s, pool, size, denom=12):
    f = Element.zero(s)
    for _ in range(size):
        u = rng.choice(pool)
        c = F(rng.randrange(-6, 7), rng.randrange(1, denom))
        f = f + Element.delta(s, u, c)
    return f


def test_qc_arithmetic():
    a = QC(F(1, 2), F(1, 3))
    b = QC(F(1, 4), F(-1, 3))
    assert (a + b).re == F(3, 4) and (a + b).im == 0
    # (1/2 + i/3)(1/4 - i/3) = 1/8 + 1/9 + i(1/12 - 1/6)
    p = a * b
    assert p.re == F(1, 8) + F(1, 9)
    assert p.im == F(1, 12) - F(1, 6)


def test_qc_abs_value():
    # |3 + 4i| = 5 exactly
    v = QC(F(3), F(4)).abs_value()
    if hasattr(v, "lo"):
        assert v.lo <= 5 <= v.hi
    else:
        assert v == 5
    assert QC(F(-7, 2)).abs_value() == F(7, 2)


def test_element_zero_coefficients_dropped():
    s, _ = structure_from_spec({"family": "Z"})
    f = Element.delta(s, 1) - Element.delta(s, 1)
    assert not f
    assert len(f) == 0
    g = Element.delta(s, 0) + Element.delta(s, 1, F(0))
    assert len(g) == 1


def test_support_sorted_canonically():
    s, _ = structure_from_spec({"family": "Z"})
    f = Element.delta(s, 3) + Element.delta(s, -1) + Element.delta(s, 0)
    assert f.support() == [0, -1, 3]  # by (abs, sign)


def test_convolution_on_integers_is_polynomial_product():
    # elements of l1(Z) multiply like Laurent polynomials
    rng = random.Random(77)
    s, _ = structure_from_spec({"family": "Z"})
    for _ in range(50):
        f = random_element(rng, s, range(-5, 6), 4)
        g = random_element(rng, s, range(-5, 6), 4)
        h = convolve(f, g)
        # oracle: direct double loop
        acc = {}
        for u in f.support():
            for v in g.support():
                acc[u + v] = acc.get(u + v, QC()) + f[u] * g[v]
        for w, c in acc.items():
            assert h[w] == c
        assert all(h[w] == acc.get(w, QC()) for w in h.support())


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
    assert convolve_many(f, g, h) == convolve(f, convolve(g, h))


def test_convolution_is_noncommutative_on_free():
    s, _ = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": False}})
    da, db = Element.delta(s, (1,)), Element.delta(s, (2,))
    assert convolve(da, db) != convolve(db, da)
    assert convolve(da, db).support() == [(1, 2)]


def test_augmentation_is_a_character():
    rng = random.Random(79)
    s, gens = structure_from_spec({"family": "Zd", "params": {"d": 2}})
    bt = division_balls(s, gens, 2)
    pool = sorted(bt.ball(2), key=s.elem_key)
    for _ in range(30):
        f = random_element(rng, s, pool, 4)
        g = random_element(rng, s, pool, 4)
        assert convolve(f, g).augmentation() == f.augmentation() * g.augmentation()
        assert (f + g).augmentation() == f.augmentation() + g.augmentation()


def test_weighted_norm_unweighted_and_weighted():
    s, _ = structure_from_spec({"family": "Z"})
    f = Element.delta(s, 2, F(3, 4)) + Element.delta(s, -1, F(-1, 4))
    assert weighted_norm(f) == 1
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
    f = Element.delta(s, (1, 2)) - Element.delta(s, e)
    vals, stable = sigma_sequence(f, bt)
    assert [v.re for v in vals] == [F(-1), F(-1), F(0), F(0), F(0)]
    assert stable == 2
    # sigma of the whole support equals the augmentation from there on
    assert vals[-1] == f.augmentation()


def test_sigma_sequence_on_universal_ball():
    s, _ = structure_from_spec({"family": "zero_adjoined", "params": {"rank": 2}})
    bt = division_balls(s, ["theta"], 3)
    f = Element.delta(s, (1, 2, 1), F(5)) + Element.delta(s, "theta", F(-2))
    vals, stable = sigma_sequence(f, bt)
    # B_2 = everything, so sigma_2 = augmentation
    assert vals[2] == f.augmentation()
    assert stable <= 2


TRUNCATED_ADD_8 = [[min(u + v, 7) for v in range(8)] for u in range(8)]


@pytest.mark.parametrize("spec,depth,pool", [
    ({"family": "free", "params": {"rank": 2, "inverses": True}}, 3,
     [(), (1,), (-2,), (1, 2), (2, -1, 2), (1, 1, 1, 1), (-1, 2, 2, 1, -2)]),
    ({"family": "Zd", "params": {"d": 3}}, 3,
     [(0, 0, 0), (1, 0, 0), (0, -1, 1), (2, 1, 0), (3, 0, -1), (0, 4, 0)]),
    # truncated addition on 0..7 (7 absorbing): B_n = {0..n}, 5..7 outside
    ({"family": "table", "params": {"table": TRUNCATED_ADD_8},
      "generators": [1]}, 4, list(range(8))),
    # B_2 is universal: every point is in it, however long
    ({"family": "zero_adjoined", "params": {"rank": 2}, "generators": ["theta"]},
     4, [(), "theta", (1,), (2, 1), (1, 2, 1), (2, 2, 2, 2, 1, 1)]),
], ids=["F2", "Z3", "table", "theta"])
def test_sigma_sequence_matches_the_per_ball_sums(spec, depth, pool):
    s, gens = structure_from_spec(spec)
    bt = division_balls(s, gens, depth)
    balls = [bt.ball(n) for n in range(depth + 1)]
    rng = random.Random(133)
    for _ in range(40):
        f = Element.zero(s)
        for _ in range(rng.randrange(0, 6)):
            c = QC(F(rng.randrange(-6, 7), rng.randrange(1, 9)),
                   F(rng.randrange(-6, 7), rng.randrange(1, 9)))
            f = f + Element.delta(s, rng.choice(pool), c)
        supp = f.support()
        expect = []
        for ball in balls:
            total = QC(0)
            for u in supp:
                if ball is UNIVERSE or u in ball:
                    total = total + f[u]
            expect.append(total)
        stable = next((n for n, ball in enumerate(balls)
                       if all(ball is UNIVERSE or u in ball for u in supp)), None)
        assert sigma_sequence(f, bt) == (expect, stable)


def test_element_json_round_trip():
    s, _ = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    f = (Element.delta(s, (1, 2), QC(F(1, 3), F(-2, 5)))
         + Element.delta(s, (), F(-7)))
    g = Element.from_json(s, f.to_json())
    assert g == f


def test_translate_right_shift():
    s, _ = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": False}})
    f = Element.delta(s, (1,)) + Element.delta(s, (), F(2))
    g = f.translate((2,))
    assert g.support() == [(2,), (1, 2)]
    assert g[(1, 2)] == QC(F(1))
    assert g[(2,)] == QC(F(2))
