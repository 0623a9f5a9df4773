"""Certified enclosures against independent oracles.

`rat_pow`, `nth_root` and `pow_mantissas` must enclose the true value: checked
exactly where the power is a small rational, and against mpmath at four
times the working precision otherwise.  `rat_pow` must also give exactly the
bounds of the Enclosure-loop algorithm it replaced, frozen below as a copy.
"""

import functools
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waug.certify import Enclosure, as_enclosure, nth_root, pow_mantissas, rat_pow

BITS = st.sampled_from([32, 64, 128, 200])


@st.composite
def rationals(draw, lo, hi, max_den):
    """A rational in [lo, hi] with denominator at most max_den."""
    q = draw(st.integers(1, max_den))
    return F(draw(st.integers(lo * q, hi * q)), q)


def _exact(x) -> F:
    """The mpf x as an exact rational."""
    man, exp = mpmath.mpf(x).man_exp
    return F(man) * F(2) ** exp


def _mp(q: F):
    return mpmath.mpf(q.numerator) / q.denominator


def _assert_encloses(enc, truth, prec):
    """lo <= truth <= hi, up to the relative error of an mpmath value
    computed at prec bits."""
    v = _exact(truth)
    slack = v / 2 ** (prec - 8)
    assert enc.lo <= v + slack
    assert v - slack <= enc.hi


@settings(max_examples=150)
@given(c=rationals(1, 12, 60), t=rationals(0, 8, 50), bits=BITS)
def test_rat_pow_encloses_rational_exponent(c, t, bits):
    enc = rat_pow(c, t, bits, [])
    assert enc.lo <= enc.hi
    prec = 4 * bits
    with mpmath.workprec(prec):
        _assert_encloses(enc, mpmath.power(_mp(c), _mp(t)), prec)


@settings(max_examples=150)
@given(c=rationals(1, 12, 60), n=st.integers(0, 400), q=st.integers(2, 5),
       bits=BITS)
def test_rat_pow_encloses_root_exponent(c, n, q, bits):
    # the radial_exp use: c ** (n ** (1/q)) with the exponent an enclosure
    enc = rat_pow(c, nth_root(n, q, bits), bits, [])
    prec = 4 * bits
    with mpmath.workprec(prec):
        t = mpmath.root(mpmath.mpf(n), q)
        _assert_encloses(enc, mpmath.power(_mp(c), t), prec)


@settings(max_examples=200)
@given(x=rationals(0, 10 ** 6, 10 ** 6), n=st.integers(1, 9), bits=BITS)
def test_nth_root_encloses(x, n, bits):
    enc = nth_root(x, n, bits)
    assert enc.lo ** n <= x <= enc.hi ** n
    assert enc.hi - enc.lo <= F(1, 2 ** bits)
    prec = 4 * bits
    with mpmath.workprec(prec):
        _assert_encloses(enc, mpmath.root(_mp(x), n), prec)


@settings(max_examples=200)
@given(base=rationals(0, 20, 1000), n=st.integers(0, 200), bits=BITS)
def test_pow_mantissas_encloses(base, n, bits):
    pair = (base.numerator, base.denominator)
    enc = Enclosure(*(F(x, 1 << bits) for x in pow_mantissas(pair, n, bits)))
    assert enc.lo <= base ** n <= enc.hi
    prec = 4 * bits
    with mpmath.workprec(prec):
        _assert_encloses(enc, mpmath.power(_mp(base), n), prec)


# ---------------------------------------------------------------------------
# the Enclosure-loop rat_pow, frozen: one Fraction Enclosure per square root
# and per product, the root chain rebuilt for each end
# ---------------------------------------------------------------------------

def _frozen_pow_bounds(base, n, bits):
    if n == 0:
        return Enclosure.exact(1)
    p, q = base.numerator, base.denominator
    scale = 1 << bits
    mask = scale - 1
    b_lo = (p << bits) // q
    b_hi = -((-p << bits) // q)
    lo, hi = b_lo, b_hi
    for bit in bin(n)[3:]:
        lo = (lo * lo) >> bits
        hi = (hi * hi + mask) >> bits
        if bit == "1":
            lo = (lo * b_lo) >> bits
            hi = (hi * b_hi + mask) >> bits
    return Enclosure(F(lo, scale), F(hi, scale))


@functools.lru_cache(maxsize=None)
def _frozen_roots(c, work):
    """The chain c**(2**-i), i = 1..work, as the frozen loop rebuilds it for
    every end; it depends only on c and work, so the test builds it once."""
    roots, root = [], Enclosure.exact(c)
    for _ in range(work):
        root = nth_root(root, 2, work).rounded(work)
        roots.append(root)
    return roots


def _frozen_one_sided(c, t, bits, lower):
    if t.denominator == 1:
        enc = _frozen_pow_bounds(c, t.numerator, bits)
        return enc.lo if lower else enc.hi
    k = t.numerator // t.denominator
    frac = t - k
    work = bits + 16
    total = _frozen_pow_bounds(c, k, work)
    s = work
    m_lo = (frac.numerator << s) // frac.denominator
    m_hi = -((-frac.numerator << s) // frac.denominator)
    m = m_lo if lower else m_hi
    if m >= (1 << s):
        total = _frozen_pow_bounds(c, k + 1, work)
        m = 0
    roots = _frozen_roots(c, work)
    for i in range(1, s + 1):
        if not m:
            break
        root = roots[i - 1]
        if (m >> (s - i)) & 1:
            total = (total * root).rounded(work)
            m &= (1 << (s - i)) - 1
    return total.lo if lower else total.hi


def _frozen_rat_pow(c, t, bits):
    return Enclosure(_frozen_one_sided(c, t.lo, bits, lower=True),
                     _frozen_one_sided(c, t.hi, bits, lower=False))


GRID_C = [F(3, 2), F(2), F(9, 4), F(5, 2), F(25, 9), F(7, 2), F(4)]


@pytest.mark.parametrize("bits", [64, 128, 200])
@pytest.mark.parametrize("c", GRID_C, ids=str)
def test_rat_pow_equals_frozen_enclosure_loop(c, bits):
    # t = sqrt(n) enclosures as radial_exp uses them, and a t whose upper
    # bracket of the fractional part rounds up to exactly 1
    ts = [nth_root(n, 2, bits) for n in range(41)]
    ts.append(Enclosure.exact(1 - F(1, 2 ** 200)))
    for t in ts:
        assert rat_pow(c, t, bits, []) == _frozen_rat_pow(c, t, bits), (c, t, bits)


def _chain_exponents(bits):
    """sqrt(n) enclosures, n = 1..40, as radial_exp reads them, then
    rational exponents, an integer one and a wide enclosure."""
    return ([nth_root(n, 2, bits) for n in range(1, 41)]
            + [F(1, 3), F(5, 7), F(22, 7), F(3), Enclosure(F(1, 2), F(2, 3))])


@pytest.mark.parametrize("c,bits", [(c, b) for b in (8, 128) for c in (F(3, 2), F(5, 2), F(25, 9))]
                         + [(F(5, 2), 1024)], ids=str)
def test_rat_pow_through_one_chain_equals_fresh_calls(c, bits):
    # one list of roots serves every exponent, in any order: each result is
    # the one a fresh chain gives, and the frozen loop's (on every sixth
    # exponent at 1024 bits, where the loop takes 0.2 s an exponent)
    ts = _chain_exponents(bits)
    fresh = [rat_pow(c, t, bits, []) for t in ts]
    step = 6 if bits > 128 else 1
    assert fresh[::step] == [_frozen_rat_pow(c, as_enclosure(t), bits) for t in ts[::step]]
    for order in (range(len(ts)), random.Random(bits).sample(range(len(ts)), len(ts))):
        chain = []
        got = {i: rat_pow(c, ts[i], bits, chain) for i in order}
        assert [got[i] for i in range(len(ts))] == fresh, list(order)
        assert 0 < len(chain) <= bits + 16
