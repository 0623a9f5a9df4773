"""Finitely supported elements of weighted l1 algebras, exactly.

Scalars are Gaussian rationals (re, im pairs of Fractions).  Elements are
sparse maps  support-element -> scalar  over a structure from
`waug.structures`.  Convolution, augmentation and the ball partial-sum
functionals sigma_n are exact; weighted norms are exact whenever the weight
and the scalar moduli are rational, and certified enclosures otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .certify import Enclosure, as_enclosure, format_rational, nth_root, parse_rational
from .structures import InvalidInput, Structure


class QC:
    """Gaussian rational a + bi with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def coerce(cls, x) -> "QC":
        if isinstance(x, QC):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise InvalidInput(f"cannot use {x!r} as a scalar")

    def __add__(self, other):
        other = QC.coerce(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = QC.coerce(other)
        return QC(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __mul__(self, other):
        other = QC.coerce(other)
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QC(other)
        if not isinstance(other, QC):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        if not self.im:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"

    def abs_value(self, bits: int = 128):
        """|z|: a Fraction when exact (real/imaginary axis or a perfect
        square modulus), otherwise a certified Enclosure."""
        if self.im == 0:
            return abs(self.re)
        if self.re == 0:
            return abs(self.im)
        return nth_root(self.re * self.re + self.im * self.im, 2, bits)

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}

    @classmethod
    def from_json(cls, obj) -> "QC":
        if isinstance(obj, dict):
            return cls(parse_rational(obj.get("re", 0)), parse_rational(obj.get("im", 0)))
        return cls(parse_rational(obj))


ZERO = QC(0)
ONE = QC(1)


class Element:
    """Finitely supported function on a structure (a member of l1(S, omega)
    for every weight omega, since the support is finite)."""

    __slots__ = ("structure", "coeffs")

    def __init__(self, structure: Structure, coeffs=None):
        self.structure = structure
        clean = {}
        if coeffs:
            for u, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                c = QC.coerce(c)
                if c:
                    clean[u] = clean.get(u, ZERO) + c
                    if not clean[u]:
                        del clean[u]
        self.coeffs = clean

    @classmethod
    def delta(cls, structure, u, scale=1) -> "Element":
        return cls(structure, {u: QC.coerce(scale)})

    @classmethod
    def zero(cls, structure) -> "Element":
        return cls(structure, {})

    def support(self):
        return sorted(self.coeffs, key=self.structure.elem_key)

    def __len__(self):
        return len(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, u) -> QC:
        return self.coeffs.get(u, ZERO)

    def __eq__(self, other):
        return (isinstance(other, Element)
                and self.structure is other.structure
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for u, c in other.coeffs.items():
            s = out.get(u, ZERO) + c
            if s:
                out[u] = s
            else:
                out.pop(u, None)
        return Element(self.structure, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Element(self.structure, {u: -c for u, c in self.coeffs.items()})

    def scale(self, a) -> "Element":
        a = QC.coerce(a)
        if not a:
            return Element.zero(self.structure)
        return Element(self.structure, {u: a * c for u, c in self.coeffs.items()})

    def translate(self, x) -> "Element":
        """Right translation f * delta_x."""
        s = self.structure
        out = {}
        for u, c in self.coeffs.items():
            w = s.multiply(u, x)
            acc = out.get(w, ZERO) + c
            if acc:
                out[w] = acc
            else:
                out.pop(w, None)
        return Element(s, out)

    def augmentation(self) -> QC:
        """phi_0(f) = sum of all coefficients."""
        total = ZERO
        for c in self.coeffs.values():
            total = total + c
        return total

    def __repr__(self):
        s = self.structure
        parts = [f"{c!r}*d[{s.elem_str(u)}]" for u, c in
                 sorted(self.coeffs.items(), key=lambda t: s.elem_key(t[0]))]
        return "Element(" + " + ".join(parts) + ")" if parts else "Element(0)"

    def to_json(self) -> dict:
        s = self.structure
        terms = []
        for u in self.support():
            t = {"elem": s.elem_to_json(u)}
            t.update(self.coeffs[u].to_json())
            terms.append(t)
        return {"terms": terms}

    @classmethod
    def from_json(cls, structure, obj) -> "Element":
        if not isinstance(obj, dict) or "terms" not in obj:
            raise InvalidInput("element JSON must be an object with a 'terms' list")
        coeffs = []
        for t in obj["terms"]:
            u = structure.elem_from_json(t["elem"])
            coeffs.append((u, QC.from_json(t)))
        return cls(structure, coeffs)


def convolve(f: Element, g: Element) -> Element:
    """(f*g)(w) = sum_{uv=w} f(u) g(v); exact, any monoid."""
    s = f.structure
    out = {}
    for u, cu in f.coeffs.items():
        for v, cv in g.coeffs.items():
            w = s.multiply(u, v)
            acc = out.get(w, ZERO) + cu * cv
            if acc:
                out[w] = acc
            else:
                out.pop(w, None)
    return Element(s, out)


def convolve_many(*elems) -> Element:
    if not elems:
        raise InvalidInput("convolve_many needs at least one element")
    acc = elems[0]
    for f in elems[1:]:
        acc = convolve(acc, f)
    return acc


def weighted_norm(f: Element, weight=None, bits: int = 128):
    """||f||_omega = sum |f(u)| omega(u).

    `weight` is any object with eval(structure, u) -> Fraction | Enclosure
    (None = trivial weight).  Returns a Fraction when every factor is exact,
    otherwise a certified Enclosure.
    """
    total_lo = Fraction(0)
    total_hi = Fraction(0)
    exact = True
    for u, c in f.coeffs.items():
        w = Fraction(1) if weight is None else weight.eval(f.structure, u, bits=bits)
        term = as_enclosure(c.abs_value(bits)) * as_enclosure(w)
        exact = exact and term.is_exact
        total_lo += term.lo
        total_hi += term.hi
    if exact:
        return total_lo
    return Enclosure(total_lo, total_hi)


def sigma_sequence(f: Element, ball_table):
    """sigma_n(f) = sum_{u in B_n} f(u) for n = 0..depth.

    Returns (values, stable_from) where stable_from is the first n with
    supp(f) inside B_n (sigma is constant = phi_0(f) from there on), or None
    if the support is not exhausted by depth.  One pass: each coefficient
    goes to the bucket of its level, and sigma_n is the n-th prefix sum.
    """
    buckets = [ZERO] * (ball_table.depth + 1)
    levels = [ball_table.level(u) for u in f.coeffs]
    for lvl, c in zip(levels, f.coeffs.values()):
        if lvl is not None:
            buckets[lvl] = buckets[lvl] + c
    stable_from = None if None in levels else max(levels, default=0)
    return list(accumulate(buckets)), stable_from
