"""Certified numeric bounds: exact rationals plus directed-rounding dyadics.

Every inexact quantity in this package (n-th roots, fractional powers, complex
moduli, huge-exponent power comparisons) is handled through *enclosures*:
pairs ``lo <= value <= hi`` of rationals whose validity rests on integer
comparisons only.  No floating point is ever trusted for a verdict; floats may
appear as search accelerators but the final inequality is always re-certified
exactly or through directed rounding.  The typed reader of the JSON input
files (read_as, read_family) sits here too, beside parse_rational.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, log2, log10

DEFAULT_BITS = 128
MAX_BITS = 1 << 16  # where escalate stops doubling, and --precision's ceiling
EXACT_RATIO_BITS = 1 << 21  # past MAX_BITS, the largest r**n ratio_pow_less compares exactly
EXACT_POW_CAP = 1 << 18  # max exponent for exact big-Fraction powers
L74_EXACT_BITS = 1 << 13  # lemma 7.4's powers stay exact while n * bit lengths fit this
INT_DIGIT_CAP = 4300  # CPython's default int->str limit, used when none is set


class InvalidInput(ValueError):
    """Malformed structure/weight/element data (CLI exit code 2)."""


class ResourceLimit(RuntimeError):
    """Computation would exceed the configured size limits (CLI exit code 2)."""


def parse_rational(text) -> Fraction:
    """A string 'p/q', 'p' or a decimal, spaces around it allowed, as an
    exact Fraction (an int or a Fraction passes as its value); a decimal
    exponent at the int->str digit limit or past it is a ResourceLimit."""
    if type(text) is str and ("e" in text or "E" in text):
        exp = text.lower().partition("e")[2].strip(" +-").replace("_", "").lstrip("0")
        if exp.isdigit() and int(exp[:10]) >= _digit_limit():  # 10 digits pass any limit
            raise ResourceLimit(f"{text[:40]!r}: its decimal exponent reaches the digit limit")
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"not a rational: {text!r}") from exc


REQUIRED = object()  # the default of a record field that must be present
_KIND_NAMES = {int: "an integer", bool: "true or false", str: "a string", list: "a list",
               dict: "an object", Fraction: "a rational: an integer, or a 'p/q' or decimal string"}


def _at(what: str, path: tuple) -> str:
    """'spec: params.table[2]' for what 'spec' and path ('params', 'table', 2)."""
    text = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)
    return f"{what}: {text[1:]}" if text else what


def read_as(value, kind, what: str, path: tuple = ()):
    """value, at `path` (keys and list indices) in a `what` input file, read
    as kind on exact JSON types: int (never a bool), bool, str, list, dict;
    Fraction, a JSON integer or a string in parse_rational's grammar (never
    a float); object, any value; [k], a list of k; {key: (k, default), ...},
    a record: an object with these keys only, as the list of their values,
    default for an absent one unless that is REQUIRED.  Anything else raises
    InvalidInput: 'spec: params.rank must be an integer, got 1.5'."""
    t = type(value)
    if t is kind or kind is object:
        return value
    if kind is Fraction and (t is int or t is str):
        try:
            return parse_rational(value)
        except InvalidInput:
            pass
    elif t is list and type(kind) is list:
        if all(type(v) is kind[0] for v in value):
            return value
        return [read_as(v, kind[0], what, path + (i,)) for i, v in enumerate(value)]
    elif t is dict and type(kind) is dict:
        for key in [*value, *kind]:  # unknown keys first, then missing ones
            if key not in kind:
                raise InvalidInput(f"{_at(what, path + (key,))} is an unknown key")
            if key not in value and kind[key][1] is REQUIRED:
                raise InvalidInput(f"{_at(what, path + (key,))} is missing")
        return [read_as(value[key], k, what, path + (key,)) if key in value else default
                for key, (k, default) in kind.items()]
    name = _KIND_NAMES[kind if isinstance(kind, type) else type(kind)]
    raise InvalidInput(f"{_at(what, path)} must be {name}, got {value!r}")


def read_family(obj, families: dict, what: str, more: dict = None) -> list:
    """[the object a `what` file describes, *the values of the record more]:
    the file is {"family": name, "params": {...}, **more}, and families maps
    each name to (constructor, the record of its params, in argument order)."""
    family, params, *rest = read_as(
        obj, {"family": (str, REQUIRED), "params": (dict, {}), **(more or {})}, what)
    if family not in families:
        raise InvalidInput(f"{what}: unknown family {family!r}")
    make, fields = families[family]
    return [make(*read_as(params, fields, what, ("params",))), *rest]


def format_rational(q: Fraction) -> str:
    """Canonical 'p/q' (or 'p' when the denominator is 1)."""
    q = q if type(q) is Fraction else Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _digit_limit() -> int:
    """The interpreter's int->str digit limit, or INT_DIGIT_CAP where there
    is none (it is never raised here)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or INT_DIGIT_CAP


def check_digits(digits: float, what: str) -> None:
    """Refuse up front, with ResourceLimit, a report whose numbers would have
    up to `digits` decimal digits, at or above the interpreter's int->str
    limit; `what` names the input and the number that grows."""
    limit = _digit_limit()
    if digits >= limit:
        raise ResourceLimit(
            f"{what}, and its numbers would have up to {int(digits) + 1} "
            f"digits, above the {limit}-digit limit")


def round_down(x: Fraction, bits: int) -> Fraction:
    """Largest dyadic multiple of 2**-bits that is <= x."""
    scaled = (x.numerator << bits) // x.denominator
    return Fraction(scaled, 1 << bits)


def round_up(x: Fraction, bits: int) -> Fraction:
    """Smallest dyadic multiple of 2**-bits that is >= x."""
    scaled = -((-x.numerator << bits) // x.denominator)
    return Fraction(scaled, 1 << bits)


def int_nth_root(a: int, n: int) -> int:
    """floor(a ** (1/n)) for integers a >= 0, n >= 1 (exact).  Newton decreases
    on integers from a start above the root: the float guess 2**(log2(a)/n),
    raised by 2**(2**-20), then doubled until x**n > a; the float saves steps."""
    if a < 0 or n < 1:
        raise ValueError("int_nth_root needs a >= 0 and n >= 1")
    if a in (0, 1) or n == 1:
        return a
    if n == 2:
        return isqrt(a)
    e = log2(a) / n  # math.log2 takes an int of any size
    s = max(int(e) - 52, 0)  # the guess is a 53-bit float times 2**s
    x = (int(2.0 ** (e - s + 2.0 ** -20)) + 1) << s
    while x ** n <= a:
        x *= 2
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    while x ** n > a:
        x -= 1
    return x


class Enclosure(namedtuple("Enclosure", "lo hi")):
    """Certified bracket lo <= value <= hi (both rationals)."""

    __slots__ = ()

    @classmethod
    def exact(cls, x) -> "Enclosure":
        return cls(q := Fraction(x), q)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __add__(self, other):
        other = as_enclosure(other)
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __mul__(self, other):
        products = [x * y for y in as_enclosure(other) for x in self]
        return Enclosure(min(products), max(products))

    __rmul__ = __mul__

    def rounded(self, bits: int) -> "Enclosure":
        return Enclosure(round_down(self.lo, bits), round_up(self.hi, bits))

    def to_json(self) -> dict:
        if self.is_exact:
            return {"exact": format_rational(self.lo)}
        return {"lo": format_rational(self.lo), "hi": format_rational(self.hi)}


def printable(q: Fraction, bits: int):
    """q itself while its numerator and denominator stay below the int->str
    digit limit (by the bit-length bound on their digits), else q rounded
    outward to an Enclosure of dyadics at scale 2**-bits, which prints for
    any q of moderate size."""
    big = max(abs(q.numerator), q.denominator)
    if int(big.bit_length() * log10(2)) + 1 < _digit_limit():
        return q
    return Enclosure.exact(q).rounded(bits)


def as_enclosure(x) -> Enclosure:
    """x itself if it is an Enclosure, else the exact enclosure of x."""
    if isinstance(x, Enclosure):
        return x
    return Enclosure.exact(x)


def nth_root(x, n: int, bits: int = DEFAULT_BITS) -> Enclosure:
    """Certified enclosure of x**(1/n) for a rational x >= 0, width <= 2**-bits,
    or for an Enclosure x, rounded outward from its two ends.

    Returns an exact (zero-width) enclosure when x is a perfect n-th power
    of a rational.
    """
    if isinstance(x, Enclosure):
        return Enclosure(nth_root(x.lo, n, bits).lo, nth_root(x.hi, n, bits).hi)
    x = Fraction(x)
    if x < 0:
        raise ValueError("nth_root needs x >= 0")
    if n < 1:
        raise ValueError("nth_root needs n >= 1")
    if n == 1 or x == 0 or x == 1:
        return Enclosure.exact(x)
    p, q = x.numerator, x.denominator
    rp, rq = int_nth_root(p, n), int_nth_root(q, n)
    if rp ** n == p and rq ** n == q:
        return Enclosure.exact(Fraction(rp, rq))
    # a = floor( (x * 2**(n*bits)) ** (1/n) ):  (a/2**bits)^n <= x < ((a+1)/2**bits)^n
    a = int_nth_root((p << (n * bits)) // q, n)
    return Enclosure(Fraction(a, 1 << bits), Fraction(a + 1, 1 << bits))


def pow_mantissas(r: tuple, n: int, bits: int) -> tuple:
    """Integer mantissas (lo, hi), lo * 2**-bits <= x**n <= hi * 2**-bits,
    for x = r[0]/r[1] >= 0, an integer pair in any scaling, and n >= 0, by
    square-and-multiply, lo rounded down and hi up after every step.
    Mantissa size tracks the magnitude of the value, so huge-power
    inequalities should be phrased with a ratio x < 1."""
    if n == 0:
        return 1 << bits, 1 << bits
    p, q = r
    mask = (1 << bits) - 1
    b_lo = (p << bits) // q
    b_hi = -((-p << bits) // q)
    lo, hi = b_lo, b_hi
    for bit in bin(n)[3:]:
        lo = (lo * lo) >> bits
        hi = (hi * hi + mask) >> bits
        if bit == "1":
            lo = (lo * b_lo) >> bits
            hi = (hi * b_hi + mask) >> bits
    return lo, hi


def pow_less(m: tuple, c: tuple, bits: int, strict: bool = True) -> bool | None:
    """x < c (<= with strict=False) for the x that mantissas m = (lo, hi) at
    scale 2**-bits enclose and c = c[0]/c[1], an integer pair in any scaling,
    on integers: True, False, or None if m straddles c."""
    num, den = c[0] << bits, c[1]
    if m[1] * den < num + (not strict):  # on integers, hi <= c iff hi < c + 1
        return True
    return False if m[0] * den > num - strict else None  # lo >= c iff lo > c - 1


def escalate(probe, bits: int, what: str = "") -> bool | None:
    """The package's one precision loop: the first True or False of probe(b) for
    b = bits, 2 bits, ... <= MAX_BITS (read per call), else None, or ResourceLimit if `what`."""
    while bits <= MAX_BITS:
        if (verdict := probe(bits)) is not None:
            return verdict
        bits *= 2
    if what:
        raise ResourceLimit(f"{what} is undecided at {MAX_BITS} bits")
    return None


def sqrt_sum_sign(terms, bits: int = DEFAULT_BITS) -> int:
    """The sign, -1, 0 or 1, of sum r sqrt(q) over rational pairs (r, q > 0).
    A term joins the first square class q1 with q q1 a rational square, as
    (r sqrt(q q1) / q1) sqrt(q1).  Roots of distinct classes are independent
    over Q (Besicovitch 1940): the sum is 0 iff every class's coefficient is."""
    merged = {}  # a square class's first q -> its coefficient
    for r, q in terms:
        q1 = next((q1 for q1 in merged if nth_root(q * q1, 2).is_exact), q)
        merged[q1] = merged.get(q1, 0) + r * nth_root(q * q1, 2).lo / q1
    merged = [(r, q) for q, r in merged.items() if r]
    if not merged:
        return 0

    def probe(b):
        total = sum(r * nth_root(q, 2, b) for r, q in merged)
        return None if total.lo <= 0 <= total.hi else total.lo > 0
    return 1 if escalate(probe, bits, "a sum of square roots") else -1


def ratio_pow_less(r: tuple, n: int, c: tuple, strict: bool = True,
                   bits: int = DEFAULT_BITS, kept: tuple | None = None) -> bool:
    """Certified decision of  x**n < c  (or <= with strict=False) for
    x = r[0]/r[1] >= 0 and c = c[0]/c[1], integer pairs in any scaling
    (second entries > 0): the package's one certified power comparison.

    The first probe is `kept`, mantissas enclosing x**n at scale 2**-bits
    that the caller holds (fresh, or derived and rounded outward), else
    fresh ones.  If `pow_less` leaves it undecided, escalate probes fresh
    mantissas at 2*bits, 4*bits, ... up to MAX_BITS; past it the integers
    r0**n c1 and c0 r1**n decide while n times the bit length of x reduced
    is at most EXACT_RATIO_BITS, and ResourceLimit refuses it beyond.
    Meant for ratios 0 < x <= 1, whose mantissas stay small at any exponent.
    """
    verdict = pow_less(kept or pow_mantissas(r, n, bits), c, bits, strict)
    if verdict is None:
        verdict = escalate(lambda b: pow_less(pow_mantissas(r, n, b), c, b, strict), 2 * bits)
    if verdict is not None:
        return verdict
    g = gcd(*r)
    if n * max((r[0] // g).bit_length(), (r[1] // g).bit_length()) > EXACT_RATIO_BITS:
        raise ResourceLimit(f"a power comparison at exponent {n} is undecided at "
                            f"{MAX_BITS} bits and too large to decide exactly")
    lhs, rhs = r[0] ** n * c[1], c[0] * r[1] ** n
    return lhs < rhs if strict else lhs <= rhs


def rat_pow(c: Fraction, t, bits: int = DEFAULT_BITS, chain: list | None = None) -> Enclosure:
    """Certified enclosure of c**t for rational c >= 1 and t >= 0 rational
    or enclosure.  Monotonicity in t does the interval bookkeeping.

    A fractional end k + f is c**k times c**(m * 2**-w), w = bits + 16, for
    a dyadic m * 2**-w <= f at the lower end and >= f at the upper one: the
    product of the square roots c**(2**-i) over the set bits i of m.  It runs
    on integer mantissas at scale 2**-w, every step rounded toward its end,
    and both ends read one chain of square roots: `chain`, a list that a
    caller with many powers of one c at one `bits` keeps, extended in place
    when t needs more roots; a root is the same integer in any chain.
    """
    c = Fraction(c)
    if c < 1:
        raise ValueError("rat_pow implemented for c >= 1")
    t = as_enclosure(t)
    if t.lo < 0:
        raise ValueError("rat_pow needs t >= 0")
    w = bits + 16
    mask = (1 << w) - 1
    ends = []  # side 0 is the lower end, side 1 the upper one
    for side, x in enumerate(t):
        k, r = divmod(x.numerator, x.denominator)
        m = -((-r << w) // x.denominator) if side else (r << w) // x.denominator
        ends.append((side, x.denominator == 1, k + (m >> w), m & mask))  # m = 2**w carries
    p, q = c.numerator, c.denominator
    chain = [] if chain is None else chain  # c**(2**-i) for i = 1, 2, ...
    need = max((w + 1 - (m & -m).bit_length() for *_, m in ends if m), default=0)
    lo, hi = ((chain[-1][0] << w, chain[-1][1] << w) if chain  # the next root's square
              else ((p << 2 * w) // q, -((-p << 2 * w) // q)))  # c at scale 2**-2w
    for _ in range(need - len(chain)):  # up to the lowest set bit of either m
        lo, a = isqrt(lo), isqrt(hi)
        hi = a if a * a == hi else a + 1  # the root itself only when it is exact
        chain.append((lo, hi))
        lo, hi = lo << w, hi << w
    bounds = []
    for side, integral, k, m in ends:  # an integral end has m = 0: no roots
        scale = bits if integral else w
        total = pow_mantissas((p, q), k, scale)[side]
        for i, root in enumerate(chain[:need], start=1):
            if m >> (w - i) & 1:
                total = (total * root[side] + side * mask) >> w
        bounds.append(Fraction(total, 1 << scale))
    return Enclosure(*bounds)


def _tree_sum(terms) -> Fraction:
    """Balanced pairwise Fraction sum (keeps gcd work small for long sums)."""
    items = list(terms) or [Fraction(0)]
    while len(items) > 1:
        items = [items[i] + items[i + 1] if i + 1 < len(items) else items[i]
                 for i in range(0, len(items), 2)]
    return items[0]


def harmonic_number(n: int) -> Fraction:
    """H_n = sum_{k<=n} 1/k, exact."""
    return _tree_sum(Fraction(1, k) for k in range(1, n + 1))


def basel_partial(n: int) -> Fraction:
    """sum_{k<=n} 1/k**2, exact."""
    return _tree_sum(Fraction(1, k * k) for k in range(1, n + 1))
