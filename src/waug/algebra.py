"""Finitely supported elements of weighted l1 algebras, exactly.

An element over a structure from `waug.structures` is integer numerators
over one shared denominator, f = sum_u (re[u] + i im[u]) / den delta_u (`im`
empty while every coefficient is real), kept canonical: no zero numerators
and gcd(den, numerators) = 1, so equal elements have equal maps.  Scalars
cross the boundary as `QC` Gaussian rationals (f[u], augmentations, ball
sums).  Convolution, augmentation and the ball partial-sum functionals
sigma_n are exact.  Weighted norms are summed on the numerators, as integers
at scale 2**bits (a square root bracketed as nth_root brackets it), and are
exact whenever the weight and the scalar moduli are rational, certified
enclosures otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from collections.abc import Mapping
from math import gcd, isqrt, lcm

from .certify import REQUIRED, Enclosure, format_rational, read_as
from .structures import InvalidInput, Structure


class QC:
    """Gaussian rational a + bi with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def coerce(cls, x) -> "QC":
        if isinstance(x, QC):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise InvalidInput(f"cannot use {x!r} as a scalar")

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}


ONE = QC(1)
TERM = {"elem": (object, REQUIRED), "re": (Fraction, 0), "im": (Fraction, 0)}
ELEMENT_FILE = {"terms": ([TERM], REQUIRED)}


class Element:
    """Finitely supported function on a structure (a member of l1(S, omega)
    for every weight omega, since the support is finite), as integer
    numerator maps `re`, `im` over one denominator `den`.  The maps are
    never mutated once the element is built."""

    __slots__ = ("structure", "re", "im", "den")

    def __init__(self, structure: Structure, coeffs=None):
        terms = [(u, QC.coerce(c)) for u, c in
                 (coeffs.items() if isinstance(coeffs, Mapping) else coeffs or ())]
        den = lcm(*(x.denominator for _, q in terms for x in (q.re, q.im)))
        re, im = {}, {}
        for u, q in terms:
            for out, x in ((re, q.re), (im, q.im)):
                out[u] = out.get(u, 0) + x.numerator * (den // x.denominator)
        self._set(structure, re, im, den)

    def _set(self, structure, re, im, den):
        """Store sum_u (re[u] + i im[u]) / den delta_u in canonical form."""
        re = {u: c for u, c in re.items() if c}
        im = {u: c for u, c in im.items() if c} if im else {}
        g = gcd(den, *re.values(), *im.values())
        if g > 1:
            re = {u: c // g for u, c in re.items()}
            im = {u: c // g for u, c in im.items()}
            den //= g
        self.structure, self.re, self.im, self.den = structure, re, im, den

    @classmethod
    def from_numerators(cls, structure, re, im, den) -> "Element":
        """sum_u (re[u] + i im[u]) / den delta_u for int maps and int den > 0."""
        f = cls.__new__(cls)
        f._set(structure, re, im, den)
        return f

    @classmethod
    def delta(cls, structure, u, scale=1) -> "Element":
        return cls(structure, {u: scale})

    @classmethod
    def zero(cls, structure) -> "Element":
        return cls.from_numerators(structure, {}, {}, 1)

    def _points(self):
        """The support, unordered."""
        return self.re.keys() | self.im.keys() if self.im else self.re.keys()

    def support(self):
        return sorted(self._points(), key=self.structure.elem_key)

    def __len__(self):
        return len(self._points())

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __getitem__(self, u) -> QC:
        return QC(Fraction(self.re.get(u, 0), self.den),
                  Fraction(self.im.get(u, 0), self.den))

    def __eq__(self, other):
        return (isinstance(other, Element)
                and self.structure is other.structure and self.den == other.den
                and self.re == other.re and self.im == other.im)

    def augmentation(self) -> QC:
        """phi_0(f) = sum of all coefficients."""
        return QC(Fraction(sum(self.re.values()), self.den),
                  Fraction(sum(self.im.values()), self.den))

    def to_json(self) -> dict:
        s, re, im, den = self.structure, self.re, self.im, self.den

        def text(a):  # format_rational(Fraction(a, den)), from one gcd
            g = gcd(a, den)
            return str(a // g) if g == den else f"{a // g}/{den // g}"

        return {"terms": [{"elem": s.elem_to_json(u), "re": text(re.get(u, 0)),
                           "im": text(im.get(u, 0))}
                          for u in self.support()]}

    @classmethod
    def from_json(cls, structure, obj) -> "Element":
        """The element an element file holds: terms at points, re and im
        rationals that default to 0, a repeated point's terms summed."""
        terms, = read_as(obj, ELEMENT_FILE, "element")
        return cls(structure, ((structure.elem_from_json(u), QC(re, im)) for u, re, im in terms))


def _convolve_into(re, im, mul, f, g, m):
    """re + i im += m f * g on numerators, one mul(u, v) per support pair."""
    gs = [(v, g.re.get(v, 0), g.im.get(v, 0)) for v in g._points()]
    for u in f._points():
        a, b = m * f.re.get(u, 0), m * f.im.get(u, 0)
        for v, c, d in gs:
            w = mul(u, v)
            re[w] = re.get(w, 0) + a * c - b * d
            im[w] = im.get(w, 0) + a * d + b * c


def convolve_sum(structure, pairs) -> Element:
    """sum_i f_i * g_i over the (f_i, g_i) of `pairs`, exact, any monoid:
    every product goes into one numerator map over the lcm of the
    denominators f_i.den * g_i.den."""
    pairs = list(pairs)
    den = lcm(*(f.den * g.den for f, g in pairs))
    re, im = {}, {}
    for f, g in pairs:
        _convolve_into(re, im, structure.multiply, f, g, den // (f.den * g.den))
    return Element.from_numerators(structure, re, im, den)


def convolve(f: Element, g: Element) -> Element:
    """(f*g)(w) = sum_{uv=w} f(u) g(v); exact, any monoid."""
    return convolve_sum(f.structure, [(f, g)])


def weighted_norm(f: Element, weight, bits: int = 128):
    """||f||_omega = sum |f(u)| omega(u), summed on integers: lo <= den 2**bits
    ||f||_omega <= hi.  |den f(u)| is |re[u]| at a real point; at a Gaussian
    one, with N = re[u]^2 + im[u]^2, it is isqrt(N) if N is a square, else
    between a den and (a + 1) den at scale 2**-bits, a = isqrt((N << 2 bits) //
    den^2): nth_root's bracket of the rational |f(u)|^2 = N / den^2, which is
    a square exactly when N is, and has the same scaled floor a.  `weight` has
    eval(structure, u) -> Fraction | Enclosure; a whole-number value enters as
    its numerator.  Returns a Fraction when lo == hi, otherwise a certified
    Enclosure."""
    s, re, im, den = f.structure, f.re, f.im, f.den
    lo = hi = 0
    for u in f._points():
        if u not in im:
            c_lo = c_hi = abs(re[u]) << bits
        elif (c := isqrt(n := re.get(u, 0) ** 2 + im[u] ** 2)) ** 2 == n:
            c_lo = c_hi = c << bits
        else:
            c_lo = isqrt((n << 2 * bits) // (den * den)) * den
            c_hi = c_lo + den
        w = weight.eval(s, u, bits=bits)
        w_lo, w_hi = w if isinstance(w, Enclosure) else (w, w)
        lo += c_lo * (w_lo.numerator if w_lo.denominator == 1 else w_lo)
        hi += c_hi * (w_hi.numerator if w_hi.denominator == 1 else w_hi)
    den <<= bits
    if lo == hi:
        return Fraction(lo, den)
    return Enclosure(Fraction(lo, den), Fraction(hi, den))


def norm_terms(f: Element, weight, scale=1) -> list:
    """The pairs (scale omega(u) / den, |den f(u)|^2), u in the support, whose
    sum r sqrt(q) is scale ||f||_omega, for a weight exact there."""
    terms = [(weight.eval(f.structure, u), f.re.get(u, 0) ** 2 + f.im.get(u, 0) ** 2)
             for u in f._points()]
    if any(isinstance(w, Enclosure) for w, _ in terms):
        raise InvalidInput("an exact norm needs exact weight values")
    return [(scale * w / f.den, q) for w, q in terms]


def sigma_sequence(f: Element, ball_table):
    """sigma_n(f) = sum_{u in B_n} f(u) for n = 0..depth.

    Returns (values, stable_from) where stable_from is the first n with
    supp(f) inside B_n (sigma is constant = phi_0(f) from there on), or None
    if the support is not exhausted by depth.  One pass: each numerator
    goes to the bucket of its level, and sigma_n is the n-th prefix sum of
    the reduced buckets (a bucket that divides den reduces by one division,
    where a prefix numerator would cost a full gcd).
    """
    size = len(ball_table.levels)
    re, im = [0] * size, [0] * size
    levels = []
    for u in f._points():
        lvl = ball_table.level(u)
        levels.append(lvl)
        if lvl is not None:
            re[lvl] += f.re.get(u, 0)
            im[lvl] += f.im.get(u, 0)
    stable_from = None if None in levels else max(levels, default=0)
    sums = [accumulate(Fraction(a, f.den) for a in b) for b in (re, im)]
    return list(map(QC, *sums)), stable_from
