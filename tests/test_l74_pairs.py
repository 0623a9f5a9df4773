"""Lemma 7.4 and theorem 7.5 on integer pairs against the Fraction form they
replace (l74_fraction_oracle): the same report bytes, kept powers and step
ratios on a grid of rho, K and precision; and the marker probes derived
from a fresh one, checked against the exact powers and against fresh probes.
"""

from fractions import Fraction as F

import pytest

import l74_fraction_oracle as oracle
import waug.certify as certify_mod
import waug.weights as weights_mod
from waug.certify import as_enclosure, pow_less, pow_mantissas, ratio_pow_less
from waug.idealkit import witness_thm75
from waug.serialize import canonical_json
from waug.weights import build_lemma74

RHOS = [F(2), F(3), F(3, 2), F(5, 2), F(5), F(11, 10), F(7, 3)]
BLOCKS = [1, 2, 7, 60, 400]
BITS = [8, 32, 128]


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("rho", RHOS, ids=str)
def test_reports_match_the_fraction_form(rho, bits):
    # at 8 bits the probes and step certificates escalate, and the norm's
    # two ends are rounded together when only one of them needs it
    for K in BLOCKS:
        w, rep = build_lemma74(rho, K, bits)
        built = oracle.build_lemma74(rho, K, bits)
        assert canonical_json(rep) == canonical_json(built[1])
        assert w.pows == built[0].pows
        for k in range(1, K + 1):
            exact, lo, hi, d = w.step_ratio_ints(k)
            ref = built[0].step_ratio(k)
            assert exact == isinstance(ref, F)
            assert (F(lo, d << w.bits), F(hi, d << w.bits)) == as_enclosure(ref)
        assert (canonical_json(witness_thm75(rho, K, bits))
                == canonical_json(oracle.witness_thm75(rho, K, bits, built)))


def _derived_probes(monkeypatch):
    """Record (r, n, bits, kept, verdict) for every marker probe that
    `_lemma74_predicate` derives from the fresh power one above it."""
    probes, derived = [], []
    real_pred, real_less = weights_mod._lemma74_predicate, weights_mod.ratio_pow_less

    def pred(r, n, bits, seen):
        derived[:] = [n + 1 in seen]
        return real_pred(r, n, bits, seen)

    def less(r, n, c, strict, bits, kept):
        verdict = real_less(r, n, c, strict, bits, kept)
        if strict and derived.pop():
            probes.append((r, n, bits, kept, verdict))
        return verdict

    monkeypatch.setattr(weights_mod, "_lemma74_predicate", pred)
    monkeypatch.setattr(weights_mod, "ratio_pow_less", less)
    return probes


def _encloses_exactly(kept, r, n, bits) -> bool:
    """lo <= 2**bits (r0/r1)**n <= hi, on integers."""
    lo, hi = kept
    num, den = r[0] ** n << bits, r[1] ** n
    return lo * den <= num <= hi * den


@pytest.mark.parametrize("bits", BITS)
def test_derived_probes_enclose_and_decide_like_fresh_ones(bits, monkeypatch):
    probes = _derived_probes(monkeypatch)
    for rho in RHOS:
        for K in BLOCKS:
            build_lemma74(rho, K, bits)
    assert len(probes) >= len(RHOS) * sum(K - 1 for K in BLOCKS)
    exact = 0
    for r, n, b, kept, verdict in probes:
        if n * r[1].bit_length() <= 1 << 14:
            assert _encloses_exactly(kept, r, n, b)
            exact += 1
        else:  # the exact power is too big: a far narrower fresh one, inside
            wide = 4 * b + 64
            lo, hi = pow_mantissas(r, n, wide)
            assert kept[0] << (wide - b) <= lo and hi <= kept[1] << (wide - b)
        assert verdict == ratio_pow_less(r, n, (1, n), True, b)
    assert exact > 100


def test_straddling_derived_probes_escalate_to_the_fresh_verdict(monkeypatch):
    # at 16 bits most derived probes straddle their bound and escalate, and
    # a few straddle where a fresh probe at 16 bits would have decided
    bits = 16
    probes = _derived_probes(monkeypatch)
    fresh = []
    real_pow = certify_mod.pow_mantissas

    def pow_spy(r, n, b):
        fresh.append((r, n, b))
        return real_pow(r, n, b)

    monkeypatch.setattr(certify_mod, "pow_mantissas", pow_spy)
    for rho in RHOS:
        build_lemma74(rho, 400, bits)
    escalated = sharper = 0
    for r, n, b, kept, verdict in probes:
        if pow_less(kept, (1, n), b) is not None:
            continue
        escalated += 1
        assert (r, n, 2 * b) in fresh
        decided = pow_less(real_pow(r, n, b), (1, n), b)
        if decided is not None:
            sharper += 1
            assert verdict == decided
        assert verdict == ratio_pow_less(r, n, (1, n), True, 4 * b)
    assert escalated > 2000 and sharper > 0


def test_a_derived_probe_wider_than_its_bound_escalates():
    # a kept power one above that encloses all of [0, 1] derives a probe
    # that straddles any bound; the fresh power at twice the precision decides
    r = (7 * 2, 5 * 3)  # B/A at rho = 2, k = 2
    for bits in (8, 128):
        for n, want in ((20, False), (80, True)):
            wide = (0, 1 << bits)
            assert pow_less(wide, (1, n), bits) is None
            assert weights_mod._lemma74_predicate(r, n, bits, {n + 1: wide}) is want
            assert ratio_pow_less(r, n, (1, n), True, bits) is want
