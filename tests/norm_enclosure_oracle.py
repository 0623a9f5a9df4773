"""A frozen copy of the per-point enclosure sum that `weighted_norm` was
before it summed on integers, the oracle for the integer sum in
waug.algebra.

|f(u)| was QC.abs_value: the coefficient's absolute value on the real or
imaginary axis, else nth_root's enclosure of the modulus, zero-width when
that is rational.  Each |den f(u)| and each weight value went through
as_enclosure, and the ends were multiplied and summed as Fractions.  It is
kept as it was, not maintained alongside.
"""

from fractions import Fraction

from waug.certify import Enclosure, as_enclosure, nth_root


def abs_value(q, bits: int = 128):
    """|q| for a QC q: a Fraction on the real or imaginary axis, else
    nth_root's Enclosure of the modulus, zero-width when that is rational."""
    if q.im == 0:
        return abs(q.re)
    if q.re == 0:
        return abs(q.im)
    return nth_root(q.re * q.re + q.im * q.im, 2, bits)


def weighted_norm(f, weight=None, bits: int = 128):
    """||f||_omega = sum |f(u)| omega(u): a Fraction when every factor is
    exact, otherwise a certified Enclosure."""
    lo = hi = 0                  # bounds on den * ||f||_omega
    for u in f._points():
        w = as_enclosure(1 if weight is None else weight.eval(f.structure, u, bits=bits))
        # |den f(u)|: the numerator itself at a real point
        c = as_enclosure(abs_value(f[u], bits) * f.den if u in f.im else abs(f.re[u]))
        lo += c.lo * w.lo
        hi += c.hi * w.hi
    if lo == hi:
        return Fraction(lo, f.den)
    return Enclosure(Fraction(lo, f.den), Fraction(hi, f.den))
