"""A frozen copy of the Fraction form of lemma 7.4 and theorem 7.5, the
oracle for the integer-pair one in waug.weights and waug.idealkit.

The block bases A = rho + eps_(k-1) and B = rho + eps_k were reduced
Fractions; the marker search probed (B/A)^n with fresh mantissas at every
probe, the step certificate compared against (rho+1)/(kB) as a Fraction,
`step_ratio` built its enclosure from B's numerator and denominator, and the
theorem-7.5 norm was an Enclosure of Fractions, rounded outward to 2**-bits
once either end's denominator passed `bits` bits.  The certified power
comparison took Fractions too.  This was the code before it ran on integer
pairs; it is kept as it was, not maintained alongside.
"""

from __future__ import annotations

import math
from fractions import Fraction

from waug.certify import (DEFAULT_BITS, MAX_BITS, Enclosure, as_enclosure,
                          basel_partial, harmonic_number, parse_rational)
from waug.structures import InvalidInput, ResourceLimit


def pow_mantissas(base: Fraction, n: int, bits: int) -> tuple:
    if n == 0:
        return 1 << bits, 1 << bits
    p, q = base.numerator, base.denominator
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


def pow_less(m, c: Fraction, bits: int, strict: bool = True):
    num, den = c.numerator << bits, c.denominator
    if m[1] * den < num + (not strict):
        return True
    return False if m[0] * den > num - strict else None


def ratio_pow_less(r: Fraction, n: int, c: Fraction, strict: bool = True,
                   bits: int = DEFAULT_BITS, kept=None) -> bool:
    m = kept or pow_mantissas(r, n, bits)
    while (verdict := pow_less(m, c, bits, strict)) is None:
        bits *= 2
        if bits > MAX_BITS:
            if n * max(r.numerator.bit_length(), r.denominator.bit_length()) > 1 << 21:
                raise ValueError(f"comparison r^{n} vs {c} indeterminate at {MAX_BITS} bits")
            return r ** n < c if strict else r ** n <= c
        m = pow_mantissas(r, n, bits)
    return verdict


def _l74_exact(A: Fraction, B: Fraction, n: int) -> bool:
    return n * (A.numerator.bit_length() + B.numerator.bit_length()) <= (1 << 13)


def _lemma74_predicate(r: Fraction, n: int, bits: int, seen: dict) -> bool:
    seen[n] = m = pow_mantissas(r, n, bits)
    return ratio_pow_less(r, n, Fraction(1, n), True, bits, m)


def _lemma74_marker(A: Fraction, B: Fraction, lo: int, bits: int):
    seen, r = {}, B / A
    lr = math.log1p(float((A - B) / B))
    if lr < 1e-300:
        raise ResourceLimit("lemma74 block search diverged")
    x = 2 / lr * math.log(2 / lr)
    for _ in range(8):
        x -= (x * lr - math.log(x)) / (lr - 1 / x)
    n = max(lo + 1, math.floor(x) + 1)
    false_at, true_at, stride = lo, None, 1
    while true_at is None or true_at - false_at > 1:
        if _lemma74_predicate(r, n, bits, seen):
            true_at = n
        else:
            false_at = n
        if true_at is None:
            if stride > (1 << 40):
                raise ResourceLimit("lemma74 block search diverged")
            n = false_at + stride
        elif false_at == lo and true_at - stride > lo:
            n = true_at - stride
        else:
            n = (false_at + true_at) // 2
        stride *= 2
    return true_at, seen[true_at]


class FractionLemma74:
    """The weight's block data and its step ratios."""

    def __init__(self, rho, markers, eps, pows, bits):
        self.rho, self.markers, self.eps = rho, markers, eps
        self.pows, self.bits = pows, bits

    def step_ratio(self, k: int):
        nk = self.markers[k - 1]
        A = self.rho + self.eps[k - 1]
        B = self.rho + self.eps[k]
        if _l74_exact(A, B, nk + 1):
            return B ** (nk + 1) / A ** nk
        q = B.denominator << self.bits
        return Enclosure(*(Fraction(x * B.numerator, q) for x in self.pows[k - 1]))


def build_lemma74(rho, K: int, bits: int = DEFAULT_BITS):
    rho = Fraction(rho)
    if rho <= 1:
        raise InvalidInput("build_lemma74 needs rho > 1")
    if K < 1:
        raise InvalidInput("build_lemma74 needs K >= 1")
    eps = [Fraction(1)] + [Fraction(1, k + 1) for k in range(1, K + 1)]
    assert rho + eps[0] > 1 * (rho + eps[1])
    markers, pows, step_bounds = [], [], []
    r1, B = rho + 1, rho + eps[0]
    for k in range(1, K + 1):
        A, B = B, rho + eps[k]
        nk, m = (_lemma74_marker(A, B, markers[-1], bits) if k > 1
                 else (1, pow_mantissas(B / A, 1, bits)))
        if _l74_exact(A, B, nk):
            ok = k * B ** (nk + 1) <= r1 * A ** nk
            method = "exact"
        else:
            ok = ratio_pow_less(B / A, nk, r1 / (k * B), False, bits, m)
            method = "certified-dyadic"
        markers.append(nk)
        pows.append(m)
        step_bounds.append({"k": k, "n_k": nk, "ok": ok, "method": method})
    weight = FractionLemma74(rho, markers, eps, pows, bits)
    report = {
        "rho": rho,
        "blocks": K,
        "markers": markers,
        "eps": eps,
        "eps_monotone": all(eps[i + 1] <= eps[i] for i in range(K)),
        "eps_below_1_over_k": all(eps[k] < Fraction(1, k) for k in range(1, K + 1)),
        "step_bounds": step_bounds,
        "step_bounds_all_ok": all(c["ok"] for c in step_bounds),
        "top_index": markers[-1] + 1,
    }
    return weight, report


def witness_thm75(rho, K: int, bits: int = DEFAULT_BITS, built=None) -> dict:
    """`built`, when given, is this module's build_lemma74(rho, K, bits)."""
    rho = parse_rational(rho)
    if K < 1:
        raise InvalidInput("witness needs K >= 1")
    weight, brep = built or build_lemma74(rho, K, bits)
    markers = brep["markers"]
    norm_enc = Enclosure.exact(0)
    sites = []
    alpha_symbolic = []
    for k in range(1, K + 1):
        ratio = as_enclosure(weight.step_ratio(k))
        norm_enc = Enclosure(norm_enc.lo + ratio.lo / k, norm_enc.hi + ratio.hi / k)
        if max(norm_enc.lo.denominator, norm_enc.hi.denominator).bit_length() > bits:
            norm_enc = norm_enc.rounded(bits)
        nk = markers[k - 1]
        sites.append(nk + 1)
        alpha_symbolic.append({
            "k": k, "site": nk + 1, "inv_scale": k,
            "omega_base": weight.rho + weight.eps[k - 1], "omega_exponent": nk})
    steps_ok = brep["step_bounds_all_ok"]
    basel = basel_partial(K)
    norm_bound = (rho + 1) * basel if steps_ok else None
    hk = harmonic_number(K)
    return {
        "op": "witness_thm75",
        "rho": rho,
        "K": K,
        "markers": markers,
        "eps": brep["eps"],
        "support_sites": sites,
        "alpha_symbolic": alpha_symbolic,
        "norm_enclosure": norm_enc,
        "norm_upper_bound_exact": norm_bound,
        "step_bounds_all_ok": steps_ok,
        "step_bound_failures": [c for c in brep["step_bounds"] if not c["ok"]],
        "element_norm_bounded": steps_ok,
        "divisor_partial_terms": "1/k for each block (the omega factors cancel)",
        "divisor_partial_norm": hk,
        "divisor_partials_divergent": True,
        "divergence_note": (
            "the divisor's lower-bound partial sums equal the harmonic "
            "numbers H_K, unbounded in K; divergence is the analytic "
            "statement, the computed facts are the exact truncations above"),
        "ok": steps_ok,
    }
