"""Certified rational/dyadic arithmetic: enclosures, roots, powers."""

import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import waug.certify as certify_mod
from waug.certify import (Enclosure, ResourceLimit, basel_partial,
                          check_digits, format_rational, harmonic_number,
                          int_nth_root, nth_root, parse_rational,
                          pow_less, pow_mantissas, printable, rat_pow,
                          ratio_pow_less, round_down, round_up, sqrt_sum_sign)
from waug.idealkit import _le_status


def test_parse_and_format_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational("2.5") == F(5, 2)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(5)) == "5"
    with pytest.raises(Exception):
        parse_rational("x/y")


def test_directed_rounding_brackets():
    rng = random.Random(411)
    for _ in range(300):
        x = F(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**9))
        lo, hi = round_down(x, 32), round_up(x, 32)
        assert lo <= x <= hi
        # dyadic with bounded mantissa
        assert (lo.denominator & (lo.denominator - 1)) == 0
        assert (hi.denominator & (hi.denominator - 1)) == 0


def test_int_nth_root_floor():
    rng = random.Random(412)
    for _ in range(200):
        a = rng.randrange(0, 10**12)
        n = rng.randrange(1, 9)
        r = int_nth_root(a, n)
        assert r**n <= a < (r + 1) ** n


@st.composite
def _roots_cases(draw):
    """(a, n): a up to 2**40000, n = 2..800, a any integer or a perfect
    power k**n, or one off it."""
    n = draw(st.integers(2, 800))
    if draw(st.booleans()):
        return draw(st.integers(0, 2 ** 40000)), n
    k = draw(st.integers(1, 2 ** (40000 // n)))
    return max(k ** n + draw(st.sampled_from([-1, 0, 1])), 0), n


@settings(max_examples=300)
@given(_roots_cases())
@example((2 ** (1100 * 3) + 12345, 3))  # roots past the float range
@example(((2 ** 1100 + 1) ** 36, 36))
@example(((2 ** 1100 + 1) ** 36 - 1, 36))
@example((3 ** (1100 * 7), 7))
def test_int_nth_root_floor_at_large_sizes(case):
    a, n = case
    r = int_nth_root(a, n)
    assert r ** n <= a < (r + 1) ** n


def test_int_nth_root_needs_no_float_guess(monkeypatch):
    # the float guess only saves steps: from log2(a) = 1, a guess of 2, the
    # doubling alone passes the root, and Newton gives the same floors
    rng = random.Random(415)
    cases = [(rng.randrange(2 ** rng.randrange(2, 6000)), rng.randrange(3, 200))
             for _ in range(60)]
    cases += [(k ** n + d, n) for k, n in [(2 ** 1100 + 3, 5), (7, 800), (2, 3)]
              for d in (-1, 0, 1)]
    want = [int_nth_root(a, n) for a, n in cases]
    monkeypatch.setattr(certify_mod, "log2", lambda a: 1.0)
    assert [int_nth_root(a, n) for a, n in cases] == want
    assert all(r ** n <= a < (r + 1) ** n for r, (a, n) in zip(want, cases))


def test_enclosure_arithmetic_contains_truth():
    rng = random.Random(413)
    for _ in range(200):
        x = F(rng.randrange(1, 10**6), rng.randrange(1, 10**6))
        y = F(rng.randrange(1, 10**6), rng.randrange(1, 10**6))
        ex, ey = Enclosure.exact(x), Enclosure.exact(y)
        assert (ex + ey).lo <= x + y <= (ex + ey).hi
        assert (ex * ey).lo <= x * y <= (ex * ey).hi


def test_nth_root_encloses():
    # sqrt(2) to 128 bits straddles the truth: lo^2 <= 2 <= hi^2
    e = nth_root(F(2), 2)
    assert e.lo**2 <= 2 <= e.hi**2
    assert e.hi - e.lo < F(1, 2**100)
    # exact cube root
    e = nth_root(F(27, 8), 3)
    assert e.lo <= F(3, 2) <= e.hi
    s = nth_root(F(9, 4), 2)
    assert s.lo <= F(3, 2) <= s.hi


def test_pow_mantissas_brackets_exact_power():
    rng = random.Random(414)
    for _ in range(100):
        base = F(rng.randrange(1, 50), rng.randrange(1, 50))
        if base == 0:
            continue
        n = rng.randrange(0, 40)
        lo, hi = pow_mantissas((base.numerator, base.denominator), n, 64)
        assert lo <= base**n * 2**64 <= hi


def test_pow_mantissas_huge_exponent_is_cheap():
    # (1001/1000)^(10^9) has ~1.4e9 bits exactly; the enclosure is instant
    lo, hi = pow_mantissas((1001, 1000), 10**9, 64)
    assert lo > 0
    assert lo <= hi


def test_ratio_pow_less_decides_correctly():
    # (1/2)^10 = 1/1024 < 1/1000, and not < 1/2048
    assert ratio_pow_less((1, 2), 10, (1, 1000), strict=True)
    assert not ratio_pow_less((1, 2), 10, (1, 2048), strict=True)
    # equality case, non-strict vs strict
    assert ratio_pow_less((1, 2), 10, (1, 1024), strict=False)
    assert not ratio_pow_less((1, 2), 10, (1, 1024), strict=True)
    # any scaling of either pair gives the same verdicts
    assert ratio_pow_less((3, 6), 10, (7, 7000), strict=True)
    assert not ratio_pow_less((5, 10), 10, (3, 3072), strict=True)
    assert ratio_pow_less((5, 10), 10, (3, 3072), strict=False)


@pytest.mark.parametrize("r, n, c", [((1, 2), 10, (1, 1024)),
                                     ((1, 3), 2, (1, 9)),
                                     ((2, 3), 3, (8, 27)),
                                     ((4, 6), 3, (16, 54))])
@pytest.mark.parametrize("bits", [8, 64])
def test_ratio_pow_less_at_equality(r, n, c, bits):
    # r^n == c: a probe decides it only once the mantissas are exact, as for
    # (1/2)^10 from 10 bits on; (1/3)^2 and (2/3)^3 never are, so the exact
    # comparison past MAX_BITS decides them, with or without kept mantissas
    kept = pow_mantissas(r, n, bits)
    for m in (None, kept):
        assert ratio_pow_less(r, n, c, strict=False, bits=bits, kept=m)
        assert not ratio_pow_less(r, n, c, strict=True, bits=bits, kept=m)


def test_pow_less_decides_on_integers_at_the_boundaries():
    # mantissas (lo, hi) at scale 2**-3 enclose x in [lo/8, hi/8]
    c = (1, 2)
    assert pow_less((4, 4), c, 3, strict=False) is True    # x = c
    assert pow_less((4, 4), c, 3, strict=True) is False
    assert pow_less((3, 4), c, 3, strict=False) is True    # x <= c
    assert pow_less((3, 4), c, 3, strict=True) is None     # x < c or x = c
    assert pow_less((4, 5), c, 3, strict=True) is False    # x >= c
    assert pow_less((4, 5), c, 3, strict=False) is None
    # a c that is no dyadic: 1/4 <= x <= 3/8 against 2/5 and 3/10
    assert pow_less((2, 3), (2, 5), 3) is True
    assert pow_less((2, 3), (3, 10), 3) is None
    assert pow_less((4, 4), (2, 5), 3, strict=False) is False
    assert pow_less((4, 4), (6, 15), 3, strict=False) is False


def test_pow_mantissas_ignore_the_scaling_of_the_pair():
    for (p, q), n in (((5, 6), 7), ((1001, 1000), 300), ((2, 3), 0), ((0, 9), 4)):
        want = pow_mantissas((p, q), n, 32)
        for t in (2, 3, 1024):
            assert pow_mantissas((t * p, t * q), n, 32) == want


def test_ratio_pow_less_too_large_to_decide_exactly(monkeypatch):
    # (1/3)^3 == 1/27 straddles at every precision; past MAX_BITS the exact
    # comparison would need more bits than the cap allows: a resource error
    monkeypatch.setattr(certify_mod, "MAX_BITS", 32)
    monkeypatch.setattr(certify_mod, "EXACT_RATIO_BITS", 5)
    with pytest.raises(ResourceLimit, match="exponent 3 is undecided at 32 bits"):
        ratio_pow_less((1, 3), 3, (1, 27), strict=True, bits=8)
    with pytest.raises(ResourceLimit):  # the cap reads the reduced pair
        ratio_pow_less((2, 6), 3, (1, 27), strict=False, bits=8)
    monkeypatch.setattr(certify_mod, "EXACT_RATIO_BITS", 6)
    assert not ratio_pow_less((2, 6), 3, (1, 27), strict=True, bits=8)
    assert ratio_pow_less((2, 6), 3, (1, 27), strict=False, bits=8)


def test_rat_pow_integer_and_fractional():
    e = rat_pow(F(4), F(3, 2), 128, [])  # 4^(3/2) = 8
    assert e.lo <= 8 <= e.hi
    e = rat_pow(F(9), F(1, 2), 128, [])
    assert e.lo <= 3 <= e.hi


def test_harmonic_and_basel_partials():
    assert harmonic_number(1) == 1
    assert harmonic_number(4) == F(25, 12)
    assert basel_partial(1) == 1
    assert basel_partial(3) == 1 + F(1, 4) + F(1, 9)
    # recurrences against a direct loop
    acc = F(0)
    for j in range(1, 200):
        acc += F(1, j)
    assert harmonic_number(199) == acc


def test_enclosure_comparisons_are_conservative():
    # a <= b is decided on the enclosures only when it holds at every point
    # of both; otherwise the exact sum a - b = sum r sqrt(q) decides it, and
    # the terms are never built while the enclosures decide
    def unused():
        raise AssertionError("terms built although the enclosures decide")

    a = Enclosure(F(1), F(2))
    b = Enclosure(F(3), F(4))
    assert _le_status(a, b, unused) == "proved"
    assert _le_status(b, a, unused) == "violated"
    c = Enclosure(F(2), F(3))
    # touching: a <= c everywhere, c <= a only at the shared point, so the
    # values decide: c = sqrt 4 and a = sqrt 16 / 2 tie there
    assert _le_status(a, c, unused) == "proved"
    assert _le_status(c, a, lambda: [(1, 4), (F(-1, 2), 16)]) == "proved"
    # 2 <= a, for a = sqrt 3 inside [1, 2]: the exact sum 2 - sqrt 3 > 0
    assert _le_status(F(2), a, lambda: [(2, 1), (-1, 3)]) == "violated"
    # overlapping enclosures of sqrt 8 and 2 sqrt 2: a tie, proved
    assert _le_status(c, Enclosure(F(5, 2), F(3)), lambda: [(1, 8), (-2, 2)]) == "proved"


def test_square_class_sums_are_exact():
    assert sqrt_sum_sign([(1, 8), (-2, 2)]) == 0  # sqrt 8 - 2 sqrt 2
    assert sqrt_sum_sign([(1, 2), (1, 3), (-1, 5)]) == 1  # sqrt 2 + sqrt 3 - sqrt 5
    assert sqrt_sum_sign([(-1, 2), (-1, 3), (1, 5)]) == -1
    assert sqrt_sum_sign([(F(1, 2), F(1, 2)), (-1, F(1, 8)), (3, 7), (-1, 63)]) == 0
    assert sqrt_sum_sign([(F(2, 3), F(9, 4)), (-1, 1)]) == 0  # rational roots
    assert sqrt_sum_sign([]) == 0
    # sqrt 2 < sqrt(2 + 2^-200) by about 2^-202: decided by escalating past
    # the 8-bit first probe, and a resource error once MAX_BITS stops it first
    close = [(1, 2), (-1, 2 + F(1, 1 << 200))]
    assert sqrt_sum_sign(close, 8) == -1


def test_undecided_square_class_sum_is_a_resource_error(monkeypatch):
    monkeypatch.setattr(certify_mod, "MAX_BITS", 128)
    with pytest.raises(ResourceLimit, match="a sum of square roots is undecided at 128 bits"):
        sqrt_sum_sign([(1, 2), (-1, 2 + F(1, 1 << 200))], 8)
    assert sqrt_sum_sign([(1, 8), (-2, 2)], 8) == 0  # a tie needs no probe


def test_escalate_doubles_up_to_max_bits(monkeypatch):
    monkeypatch.setattr(certify_mod, "MAX_BITS", 64)
    seen = []
    assert certify_mod.escalate(lambda b: seen.append(b), 8) is None
    assert seen == [8, 16, 32, 64]
    assert certify_mod.escalate(lambda b: b >= 32 or None, 8) is True
    with pytest.raises(ResourceLimit, match="^x is undecided at 64 bits$"):
        certify_mod.escalate(lambda b: None, 8, "x")


def test_printable_rounds_outward_only_at_the_digit_limit(monkeypatch):
    # the limit is read as check_digits reads it
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 50)
    with pytest.raises(ResourceLimit):
        check_digits(50, "x")
    small = F(10 ** 48 - 1, 7)  # at most 49 digits by the bit-length bound
    assert printable(small, 64) is small
    big = F(10 ** 60 + 1, 3 * 10 ** 59)
    enc = printable(big, 64)
    assert isinstance(enc, Enclosure) and enc.lo <= big <= enc.hi
    assert enc.hi - enc.lo <= F(1, 2 ** 63)
