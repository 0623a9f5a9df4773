"""Weights: axioms, sphere minima, and the two staircase constructions."""

import hashlib
import json
import math
import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ball_walk_oracle
import waug.certify as certify_mod
import waug.weights as weights_mod
from waug.certify import Enclosure, nth_root, pow_less, pow_mantissas
from waug.idealkit import witness_thm75
from waug.serialize import canonical_json
from waug.structures import (InvalidInput, ResourceLimit, division_balls,
                             structure_from_spec)
from waug.weights import (ExplicitWeight, Lemma74Weight, Lemma76Weight,
                          RadialExpWeight, RadialPolyWeight, TrivialWeight,
                          build_lemma74, build_lemma76, estimate_radii,
                          tau_step_check, tau_and_C, verify_weight_axioms,
                          weight_from_spec)


# ---------------------------------------------------------------------------
# basic families
# ---------------------------------------------------------------------------

def test_radial_poly_values():
    s, _ = structure_from_spec({"family": "Z"})
    w = RadialPolyWeight(F(2))
    assert w.eval(s, 0) == 1
    assert w.eval(s, 3) == 16
    assert w.eval(s, -3) == 16


def test_radial_exp_values():
    s, _ = structure_from_spec({"family": "Z"})
    w = RadialExpWeight(F(2), F(1))
    assert w.eval(s, 5) == 32
    w2 = RadialExpWeight(F(2), F(1, 2))
    v = w2.eval(s, 4)  # 2^sqrt(4) = 4, exact because 4 is a square
    if isinstance(v, Enclosure):
        assert v.lo <= 4 <= v.hi
    else:
        assert v == 4


def test_trivial_weight():
    s, _ = structure_from_spec({"family": "Z"})
    assert TrivialWeight().eval(s, 12345) == 1


def test_explicit_weight_table():
    s, _ = structure_from_spec({"family": "Z"})
    w = ExplicitWeight({0: F(1), 1: F(2), -1: F(3)})
    assert w.eval(s, 1) == 2
    assert w.eval(s, -1) == 3
    with pytest.raises(InvalidInput):
        w.eval(s, 7)
    w.check_domain(s)
    with pytest.raises(InvalidInput, match="explicit weight key '\\+1'"):
        ExplicitWeight({0: F(1), "+1": F(2)}).check_domain(s)
    # every key must name an element: the F2 generators do, zz.q does not
    f2, gens = structure_from_spec({"family": "free", "params": {"rank": 2}})
    values = {"e": "1", "a": "2", "a^-1": "2", "b": "2", "b^-1": "2"}
    ExplicitWeight(values).check_domain(f2)
    assert verify_weight_axioms(f2, gens, ExplicitWeight(values), 1)["ok"]
    with pytest.raises(InvalidInput, match="^explicit weight key 'zz.q' names "
                       "no element of this free structure$"):
        ExplicitWeight({**values, "zz.q": "5"}).check_domain(f2)


def test_weight_from_spec_round_trip():
    for spec in (
        {"family": "trivial"},
        {"family": "radial_poly", "params": {"alpha": "2"}},
        {"family": "radial_exp", "params": {"c": "2", "beta": "1"}},
        {"family": "lemma74", "params": {"rho": "2", "blocks": 5}},
        {"family": "lemma76", "params": {"rho": "2", "N": 31}},
    ):
        w = weight_from_spec(spec)
        assert w.family == spec["family"]


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("weight", [
    TrivialWeight(),
    RadialPolyWeight(F(2)),
    RadialExpWeight(F(2), F(1)),
])
def test_axioms_pass_for_standard_weights(weight):
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    rep = verify_weight_axioms(s, gens, weight, 5)
    assert rep["ok"], rep["failures"]


def test_axioms_fail_for_bad_table():
    s, gens = structure_from_spec({"family": "Z"})
    # omega(2) > omega(1)^2 breaks submultiplicativity
    vals = {n: F(1) for n in range(-6, 7)}
    vals[1] = F(2)
    vals[-1] = F(2)
    vals[2] = F(5)
    w = ExplicitWeight(vals)
    rep = verify_weight_axioms(s, gens, w, 3)
    assert not rep["ok"]
    assert any(f["axiom"] == "submultiplicative" for f in rep["failures"])


@pytest.mark.parametrize("bits", [16385, certify_mod.MAX_BITS])
def test_radial_exp_pairs_decided_up_to_the_precision_ceiling(bits):
    # every precision --precision accepts gets at least one probe
    w = RadialExpWeight(F(2), F(1, 2))
    for m, n in ((1, 1), (1, 3), (2, 2)):
        assert weights_mod._radial_submult_pair(w, m, n, bits, {})


def test_radial_exp_pairs_share_roots_per_precision():
    # beta near 1 leaves some pairs open at 8 bits: each escalated probe
    # reads the roots of its own precision from the shared dict
    s, gens = structure_from_spec({"family": "Z"})
    w = RadialExpWeight(F(2), F(999, 1000))
    roots = {}
    assert all(weights_mod._radial_submult_pair(w, m, n, 8, roots)
               for m in range(1, 6) for n in range(m, 12 - m))
    assert {b for _, b in roots} == {8, 16}
    assert all(enc == nth_root(F(k) ** 999, 1000, b) for (k, b), enc in roots.items())
    rep = verify_weight_axioms(s, gens, w, 11, bits=8)
    assert rep["ok"] and rep["pairs_checked"] == 30


def test_radial_exp_keeps_one_root_chain_per_precision():
    # one weight read at several precisions in turn gives the values a
    # fresh weight gives at each
    w = RadialExpWeight(F(5, 2), F(1, 2))
    for bits in (128, 64, 256, 128, 8):
        for n in (1, 2, 7, 40, 3):
            fresh = RadialExpWeight(F(5, 2), F(1, 2))
            assert w.radial_value(n, bits) == fresh.radial_value(n, bits)
    assert sorted(w.chains) == [8, 64, 128, 256]


def test_axioms_fail_below_one():
    s, gens = structure_from_spec({"family": "Z"})
    vals = {n: F(1) for n in range(-4, 5)}
    vals[1] = F(1, 2)
    rep = verify_weight_axioms(s, gens, ExplicitWeight(vals), 2)
    assert not rep["ok"]


# ---------------------------------------------------------------------------
# sphere minima
# ---------------------------------------------------------------------------

def test_tau_radial_poly_on_free_group():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    tc = tau_and_C(s, gens, RadialPolyWeight(F(2)), 6)
    assert tc["taus"] == [F((1 + n) ** 2) for n in range(1, 7)]
    assert tc["C"] == 4
    assert tc["method"] == "radial"
    assert tau_step_check(tc["taus"], tc["C"])["ok"]


def test_tau_radial_exp_on_lattice():
    s, gens = structure_from_spec({"family": "Zd", "params": {"d": 2}})
    tc = tau_and_C(s, gens, RadialExpWeight(F(2), F(1)), 8)
    assert tc["taus"] == [F(2) ** n for n in range(1, 9)]
    assert tc["C"] == 2
    assert tau_step_check(tc["taus"], tc["C"])["ok"]


def test_tau_enumeration_agrees_with_radial_fast_path():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    w = RadialPolyWeight(F(1))
    fast = tau_and_C(s, gens, w, 4)
    bt = ball_walk_oracle.division_balls(s, gens, 4)  # walked, not closed form
    slow = [min(w.eval(s, u) for u in bt.sphere(n)) for n in range(1, 5)]
    assert fast["taus"] == slow


_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")

# non-standard free generating sets, whose balls are walked: F2 over
# {a, a^-1, b, b^-1, ab}, F3 with one two-letter generator, and the rank-2
# free monoid over {a, b, ab} and over {a, b, bba}
_FREE_SETS = {
    "f2-ab": (2, True, [[1], [-1], [2], [-2], [1, 2]]),
    "f3-bc": (3, True, [[1], [-1], [2], [-2], [3], [-3], [2, 3]]),
    "fm2-ab": (2, False, [[1], [2], [1, 2]]),
    "fm2-bba": (2, False, [[1], [2], [2, 2, 1]]),
}


def _weight_input(name):
    with open(os.path.join(_INPUTS, name)) as fh:
        return weight_from_spec(json.load(fh))


_TAU_WEIGHTS = [_weight_input(name) for name in ("w_exp2.json", "w_poly2.json")]


@st.composite
def _free_set(draw):
    """A free structure, a generating set with reduced words of length 2 or 3
    beside the letters (so it is not the standard one), and a depth that
    keeps the ball small."""
    rank, inverses = draw(st.integers(1, 3)), draw(st.booleans())
    letters = [g for r in range(1, rank + 1) for g in ((r, -r) if inverses else (r,))]
    extra = st.lists(st.sampled_from(letters), min_size=2, max_size=3).filter(
        lambda w: all(a != -b for a, b in zip(w, w[1:])))
    gens = [[g] for g in letters] + draw(st.lists(extra, min_size=1, max_size=2))
    return rank, inverses, gens, draw(st.integers(1, 6 - rank))


@settings(max_examples=60)
@given(case=_free_set())
@example(case=(*_FREE_SETS["f2-ab"], 5))
@example(case=(*_FREE_SETS["f3-bc"], 3))
@example(case=(*_FREE_SETS["fm2-ab"], 6))
@example(case=(*_FREE_SETS["fm2-bba"], 6))
def test_sphere_lengths_and_minima_on_walked_free_levels(case):
    # the bisected lengths are the per-point ones in the order first met,
    # and tau_and_C is the brute-force minimum over the oracle's spheres
    rank, inverses, words, depth = case
    s, gens = structure_from_spec({"family": "free", "generators": words,
                                   "params": {"rank": rank, "inverses": inverses}})
    bt = division_balls(s, gens, depth)
    for level in bt.levels:
        assert s.sphere_lengths(level) == list(dict.fromkeys(map(s.word_length, level)))
    walked = ball_walk_oracle.division_balls(s, gens, depth)
    for weight in _TAU_WEIGHTS:
        tc = tau_and_C(s, gens, weight, depth)
        assert tc["method"] == "enumeration"
        assert tc["taus"] == [min(weight.eval(s, u) for u in walked.levels[n])
                              for n in range(1, depth + 1)]
        assert tc["C"] == max(weight.eval(s, x) for x in gens)
        assert tc["sphere_sizes"] == [len(walked.levels[n]) for n in range(1, depth + 1)]


def _cyclic_spec(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return {"family": "table", "params": {"table": table}, "generators": [1]}


F2_AB = {"family": "free", "params": {"rank": 2, "inverses": True},
         "generators": [[1], [-1], [2], [-2], [1, 2]]}
THETA2_LETTERS = {"family": "zero_adjoined", "params": {"rank": 2},
                  "generators": [[1], [2]]}


@pytest.mark.parametrize("spec,weight,N", [
    (F2_AB, RadialExpWeight(F(2)), 4),
    (F2_AB, RadialExpWeight(F(3, 2), F(1, 2)), 3),  # enclosures: refused
    (F2_AB, RadialPolyWeight(F(2)), 4),
    (F2_AB, TrivialWeight(), 4),
    (_cyclic_spec(11), TrivialWeight(), 5),
    (_cyclic_spec(11), RadialPolyWeight(F(1)), 3),  # no word length: refused
    (THETA2_LETTERS, RadialExpWeight(F(2)), 5),
    (THETA2_LETTERS, RadialPolyWeight(F(3)), 5),
    (THETA2_LETTERS, TrivialWeight(), 5),
], ids=["f2ab-exp", "f2ab-exp-sqrt", "f2ab-poly", "f2ab-trivial",
        "cyclic-trivial", "cyclic-poly", "theta2-exp", "theta2-poly",
        "theta2-trivial"])
def test_tau_enumeration_matches_per_element_evaluation(spec, weight, N):
    # the enumerating path evaluates a radial weight once per word length;
    # the oracle evaluates it at every element of every sphere
    s, gens = structure_from_spec(spec)

    def per_element():
        bt = division_balls(s, gens, N)
        taus, sizes = [], []
        for n in range(1, N + 1):
            vals = [weight.eval(s, u) for u in bt.levels[n]]
            if any(isinstance(v, Enclosure) for v in vals):
                raise InvalidInput(
                    "tau_and_C needs exact weight values (integer alpha or beta=1)")
            taus.append(min(vals))
            sizes.append(len(vals))
        return {"taus": taus, "C": max(weight.eval(s, x) for x in gens),
                "sphere_sizes": sizes}

    try:
        want = per_element()
    except InvalidInput as exc:
        with pytest.raises(InvalidInput) as got:
            tau_and_C(s, gens, weight, N)
        assert str(got.value) == str(exc)
        return
    tc = tau_and_C(s, gens, weight, N)
    assert tc["method"] == "enumeration"
    assert {k: tc[k] for k in want} == want


def test_tau_step_violation_detected():
    rep = tau_step_check([F(2), F(8), F(3)], F(2))
    # tau_2 = 8 > C tau_3 = 6
    assert not rep["ok"] and rep["violations"] == [2]


def test_radii_estimates_enclose_geometric_rate():
    s, _ = structure_from_spec({"family": "Z"})
    rep = estimate_radii(s, RadialExpWeight(F(2), F(1)), 10)
    r2 = rep["rho2_hat"]
    assert r2.lo <= 2 <= r2.hi


def test_radii_evaluate_each_radial_value_once(monkeypatch):
    # omega(-n) = omega(n) for a radial weight, so the negative side reuses
    # the positive roots: N values at depth N, not 2N
    s, _ = structure_from_spec({"family": "Z"})
    w = RadialExpWeight(F(3, 2), F(1, 2))
    calls = []
    plain = RadialExpWeight.radial_value

    def counted(self, n, bits=128):
        calls.append(n)
        return plain(self, n, bits)

    monkeypatch.setattr(RadialExpWeight, "radial_value", counted)
    rep = estimate_radii(s, w, 32)
    assert sorted(calls) == list(range(1, 33))
    for n, neg in enumerate(rep["per_n_neg"], start=1):
        r = nth_root(w.eval(s, -n), n)
        assert neg == Enclosure(1 / r.hi, 1 / r.lo)


# ---------------------------------------------------------------------------
# stepped-exponent construction
# ---------------------------------------------------------------------------

def brute_lemma74_markers(rho, K):
    """Independent oracle for the block markers, by exact scan."""
    eps = [F(1)] + [F(1, k + 1) for k in range(1, K + 1)]
    markers = [1]
    for k in range(2, K + 1):
        A, B = rho + eps[k - 1], rho + eps[k]
        n = markers[-1] + 1
        while not A**n > n * B**n:
            n += 1
        markers.append(n)
    return markers


def test_lemma74_markers_match_exact_scan():
    w, rep = build_lemma74(F(2), 6)
    assert rep["markers"] == brute_lemma74_markers(F(2), 6)
    w3, rep3 = build_lemma74(F(3, 2), 5)
    assert rep3["markers"] == brute_lemma74_markers(F(3, 2), 5)


def _count_predicate_calls(monkeypatch):
    calls = []
    real = weights_mod._lemma74_predicate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(weights_mod, "_lemma74_predicate", counted)
    return calls


@pytest.mark.parametrize("rho", [F(3, 2), F(2), F(3), F(5)])
def test_lemma74_markers_are_certified_brackets(rho, monkeypatch):
    calls = _count_predicate_calls(monkeypatch)
    K = 300
    _, rep = build_lemma74(rho, K)
    markers = rep["markers"]
    # the search certifies exactly the bracket: 2 calls a block, 1 when the
    # marker sits right after the previous one
    assert len(calls) <= 2.1 * (K - 1)
    monkeypatch.undo()
    pred = weights_mod._lemma74_predicate
    for k in range(2, K + 1):
        A, B = rho + rep["eps"][k - 1], rho + rep["eps"][k]
        r = ((B / A).numerator, (B / A).denominator)
        nk = markers[k - 1]
        assert nk > markers[k - 2]
        assert pred(r, nk, 128, {})
        assert nk - 1 == markers[k - 2] or not pred(r, nk - 1, 128, {})


@pytest.mark.parametrize("bias", [0.9, 0.999, 1.001, 1.2])
def test_lemma74_bad_float_guess_costs_calls_not_markers(bias, monkeypatch):
    # a skewed rate moves the float guess off the marker; the gallop from the
    # guess still lands on the same certified markers, at O(log error) calls
    want = build_lemma74(F(2), 60)[1]["markers"]
    real = math.log1p
    monkeypatch.setattr(weights_mod.math, "log1p", lambda v: real(v) * bias)
    calls = _count_predicate_calls(monkeypatch)
    assert build_lemma74(F(2), 60)[1]["markers"] == want
    assert 2 * 59 < len(calls) <= 59 * (2 * want[-1].bit_length() + 2)


def _step_ends(w, k):
    """(exact, lo, hi): step_ratio_ints(k) with its ends read as Fractions,
    lo <= omega_(n_k+1) / omega_(n_k) <= hi."""
    exact, lo, hi, d = w.step_ratio_ints(k)
    return exact, F(lo, d << w.bits), F(hi, d << w.bits)


def test_lemma74_values_and_ratios():
    w, rep = build_lemma74(F(2), 4)
    eps, markers = rep["eps"], rep["markers"]
    assert eps[0] == 1 and eps[3] == F(1, 4)
    assert rep["eps_monotone"] and rep["eps_below_1_over_k"]
    # omega_n = (rho + eps-at-n)^n with eps constant on blocks
    n1 = markers[0]
    assert w.radial_value(n1) == (F(2) + eps[0]) ** n1
    assert w.radial_value(n1 + 1) == (F(2) + eps[1]) ** (n1 + 1)
    # step ratio at k = 1 with rho = 2: omega_2/omega_1 = (5/2)^2 / 3 = 25/12
    assert _step_ends(w, 1) == (True, F(25, 12), F(25, 12))
    assert rep["step_bounds_all_ok"]
    # step-bound recheck from first principles: k omega_(n_k+1) <= (rho+1) omega_(n_k)
    for k in (1, 2, 3, 4):
        nk = markers[k - 1]
        lhs = F(k) * (F(2) + eps[k]) ** (nk + 1)
        rhs = F(3) * (F(2) + eps[k - 1]) ** nk
        assert lhs <= rhs


def test_lemma74_axioms_structural():
    w, rep = build_lemma74(F(2), 10)
    va = verify_weight_axioms(None, None, w, rep["markers"][-1] + 1)
    assert va["ok"] and va["method"] == "structural"
    # spot-check submultiplicativity exactly on small indices
    for m in range(0, 12):
        for n in range(0, 12):
            assert w.radial_value(m + n) <= w.radial_value(m) * w.radial_value(n)


def test_lemma74_huge_value_refuses_materialization():
    w, rep = build_lemma74(F(2), 300)
    with pytest.raises(ResourceLimit):
        w.radial_value(rep["markers"][-1])
    # but the step ratio is still available as an enclosure
    exact, lo, _ = _step_ends(w, 300)
    assert not exact and lo > 0


def _frozen_step_ratio(w, k, bits):
    """step_ratio as it read before the build kept its powers: the
    directed-rounding power (B/A)^(n_k) at `bits` times B, its loop frozen."""
    nk, rho = w.markers[k - 1], w.rho
    A, B = rho + w.eps[k - 1], rho + w.eps[k]
    r = B / A
    p, q = r.numerator, r.denominator
    mask = (1 << bits) - 1
    b_lo, b_hi = (p << bits) // q, -((-p << bits) // q)
    lo, hi = b_lo, b_hi
    for bit in bin(nk)[3:]:
        lo, hi = (lo * lo) >> bits, (hi * hi + mask) >> bits
        if bit == "1":
            lo, hi = (lo * b_lo) >> bits, (hi * b_hi + mask) >> bits
    return Enclosure(F(lo, 1 << bits) * B, F(hi, 1 << bits) * B)


@pytest.mark.parametrize("rho", [F(3, 2), F(2), F(3)])
def test_lemma74_low_precision_keeps_markers_and_verdicts(rho):
    # at 8 to 32 bits many kept powers do not decide their comparison, so
    # the marker probes and step certificates escalate; what they certify
    # must not depend on where they started
    K = 400
    want = build_lemma74(rho, K)[1]
    for bits in (8, 16, 32):
        rep = build_lemma74(rho, K, bits)[1]
        assert rep["markers"] == want["markers"]
        assert rep["step_bounds"] == want["step_bounds"]


@pytest.mark.parametrize("bits", [16, 128])
def test_lemma74_step_ratio_reads_the_kept_power(bits):
    w, rep = build_lemma74(F(5, 2), 300, bits)
    dyadic = [k for k in range(1, 301) if not _step_ends(w, k)[0]]
    assert len(dyadic) > 250
    for k in dyadic:
        assert _step_ends(w, k)[1:] == _frozen_step_ratio(w, k, bits)


@pytest.mark.parametrize("bits", [8, 128])
def test_lemma74_computes_each_power_once(bits, monkeypatch):
    # the marker probe's power serves the step certificate and step_ratio_ints,
    # and the probe below the marker is derived from it; only an escalation,
    # at a higher precision, computes a power again.  Every kept power is a
    # fresh one at `bits`, none is derived.
    computed = []
    real = weights_mod.pow_mantissas

    def spy(base, n, b):
        if b == bits:
            computed.append((base, n, b))
        return real(base, n, b)

    monkeypatch.setattr(weights_mod, "pow_mantissas", spy)
    monkeypatch.setattr(certify_mod, "pow_mantissas", spy)  # ratio_pow_less's probes
    w, rep = build_lemma74(F(2), 300, bits)
    for k in range(1, 301):
        w.step_ratio_ints(k)
    assert 300 <= len(computed) < 2 * 299  # one fresh power a block, not two
    assert len(set(computed)) == len(computed)
    fresh_at = {n for _, n, _ in computed}
    for k, nk in enumerate(rep["markers"], start=1):
        ratio = (F(2) + rep["eps"][k]) / (F(2) + rep["eps"][k - 1])
        assert nk in fresh_at
        assert w.pows[k - 1] == real((ratio.numerator, ratio.denominator), nk, bits)


def test_lemma74_undecided_step_certificates_escalate(monkeypatch):
    # a step certificate whose kept power straddles its bound computes a
    # fresh power at twice the precision; every other one computes none
    bits, rho = 8, F(3, 2)
    fresh, certifying = [], []
    real_pow, real_less = certify_mod.pow_mantissas, weights_mod.ratio_pow_less

    def pow_spy(base, n, b):
        if certifying and b == 2 * bits:
            fresh.append(n)
        return real_pow(base, n, b)

    def less_spy(r, n, c, strict, b, kept):
        certifying[:] = [] if strict else [n]  # only step certificates are non-strict
        return real_less(r, n, c, strict, b, kept)

    monkeypatch.setattr(certify_mod, "pow_mantissas", pow_spy)
    monkeypatch.setattr(weights_mod, "ratio_pow_less", less_spy)
    w, rep = build_lemma74(rho, 400, bits)
    straddling = []
    for c in rep["step_bounds"]:
        k, nk = c["k"], c["n_k"]
        if c["method"] == "exact":
            continue
        A, B = rho + rep["eps"][k - 1], rho + rep["eps"][k]
        r, c = B / A, (rho + 1) / (k * B)
        m = real_pow((r.numerator, r.denominator), nk, bits)
        assert w.pows[k - 1] == m
        if pow_less(m, (c.numerator, c.denominator), bits, strict=False) is None:
            straddling.append(nk)
    assert straddling and fresh == straddling


# sha256 prefixes of the canonical reports as they read before the build
# kept its powers; rho = (2*10^d + 1)/10^d
_HUGE_RHO_REPORTS = {
    (700, 1): ("0575f1cd11d1ae03", "a1186a41a141e0e6"),
    (700, 2): ("8fc03a522b8628a1", "11892a2f544527dc"),
    (1300, 1): ("a6337bff94fb16d5", "503dc8b9a22b1fbc"),
    (1300, 2): ("5a37bfc501da5de4", "9b8fdb9c82f848a4"),
}


@pytest.mark.parametrize("digits,K", sorted(_HUGE_RHO_REPORTS))
def test_lemma74_huge_rho_keeps_every_blocks_power(digits, K):
    # with a ~700-digit numerator block 1's step ratio leaves its exact
    # branch; with ~1300 digits so does its step certificate, and both read
    # the power that block 1 keeps like any other block
    rho = F(2 * 10 ** digits + 1, 10 ** digits)
    w, rep = build_lemma74(rho, K)
    assert all(len(m) == 2 for m in w.pows)
    digest = [hashlib.sha256(canonical_json(r).encode()).hexdigest()[:16]
              for r in (rep, witness_thm75(rho, K))]
    assert tuple(digest) == _HUGE_RHO_REPORTS[digits, K]


def test_lemma74_rejects_bad_rho():
    with pytest.raises(InvalidInput):
        build_lemma74(F(1), 3)
    with pytest.raises(InvalidInput):
        build_lemma74(F(1, 2), 3)


# ---------------------------------------------------------------------------
# self-similar gamma construction
# ---------------------------------------------------------------------------

def test_lemma76_ratio_sums_from_j_equal_1():
    # omega_n = 2^n gamma_n = 1, 6, 36, 24 for n = 0..3; the k = 2 ratio is
    # omega_3 / (omega_1 + omega_2) = 24/42, without omega_0 (24/43)
    _, rep = build_lemma76(F(2), 3)
    (check,) = rep["ratio_checks"]
    assert (check["k"], check["n_k"]) == (2, 3)
    assert check["ratio"] == F(4, 7)


def test_lemma76_gamma_prefix():
    w, rep = build_lemma76(F(2), 63)
    want = [F(x) for x in (1, 3, 9, 3, 9, 27, 9, 3, 9, 27, 9, 27, 81, 27, 9, 3)]
    assert w.gamma[:16] == want
    assert rep["star_ok"] and rep["dagger_ok"] and rep["submult_ok"]


def test_lemma76_star_identity():
    # gamma_(n_k - i) = (rho+1)^(i+1) for 0 <= i <= k-1
    w, _ = build_lemma76(F(2), 127)
    for k in range(2, 7):
        nk = 2**k - 1
        for i in range(k):
            assert w.gamma[nk - i] == F(3) ** (i + 1)


def test_lemma76_submultiplicative_brute():
    w, _ = build_lemma76(F(2), 63)
    for i in range(64):
        for j in range(64 - i):
            assert w.gamma[i + j] <= w.gamma[i] * w.gamma[j]


def test_lemma76_omega_and_negative_side():
    w, rep = build_lemma76(F(2), 31)
    s, _ = structure_from_spec({"family": "Z"})
    assert w.eval(s, 3) == F(2) ** 3 * w.gamma[3]
    assert rep["C"] == F(3, 2)
    assert w.eval(s, -4) == F(3, 2) ** 4 * w.eval(s, 4)
    with pytest.raises(InvalidInput):
        w.eval(s, 32)


def test_lemma76_ratio_bound():
    w, rep = build_lemma76(F(2), 1023)
    assert rep["ratio_all_ok"]
    for chk in rep["ratio_checks"]:
        k = chk["k"]
        assert chk["ratio"] <= F(2, 3) ** (k - 1)
    # recompute one ratio from scratch: omega_(n_k)/sum_(1<=j<n_k) omega_j at k=3
    n3 = 7
    top = F(2) ** n3 * w.gamma[n3]
    denom = sum(F(2) ** j * w.gamma[j] for j in range(1, n3))
    assert any(chk["k"] == 3 and chk["ratio"] == top / denom
               for chk in rep["ratio_checks"])


def _skew_binary_digit_sums(n):
    """Digit sums of 0..n in canonical skew binary (weights 2^(k+1) - 1,
    digits 0 or 1, the lowest nonzero digit may be 2), counted by Myers's
    increment: a lowest nonzero 2 becomes 0 and carries one into the next
    weight, otherwise the weight-1 digit goes up by one."""
    digits, sums = [0] * 20, [0]
    for _ in range(n):
        low = next((k for k, d in enumerate(digits) if d), None)
        if low is not None and digits[low] == 2:
            digits[low] = 0
            digits[low + 1] += 1
        else:
            digits[0] += 1
        sums.append(sum(digits))
    return sums


def test_lemma76_exponents_are_skew_binary_digit_sums():
    w, rep = build_lemma76(F(2), 4095)
    assert w.exponents == _skew_binary_digit_sums(4095)
    assert w.gamma == [F(3) ** x for x in w.exponents]
    assert rep["star_ok"] and rep["dagger_ok"] and rep["submult_ok"]


def _fraction_submult_first_failure(gamma, N):
    for i in range(1, N + 1):
        for j in range(i, N + 1 - i):
            if gamma[i + j] > gamma[i] * gamma[j]:
                return i, j
    return None


@pytest.mark.parametrize("pos,delta", [(2, 1), (3, -1), (5, 1), (12, 2),
                                       (31, -1), (40, 3), (62, 1), (63, 3)])
def test_lemma76_exponent_scan_matches_fraction_brute_force(pos, delta):
    N = 63
    w, _ = build_lemma76(F(3, 2), N)
    e = list(w.exponents)
    e[pos] += delta
    gamma = [F(5, 2) ** x for x in e]
    want = _fraction_submult_first_failure(gamma, N)
    assert want is not None
    assert next(weights_mod._exponent_submult_failures(e, N), None) == want
    # the axiom check reads the same exponents
    rep = verify_weight_axioms(None, None, Lemma76Weight(w.rho, N, e, w.C), N)
    sub = [f for f in rep["failures"]
           if f["axiom"] == "gamma-submultiplicative"]
    assert not rep["ok"] and (sub[0]["i"], sub[0]["j"]) == want


@pytest.mark.parametrize("rho", [F(3, 2), F(2), F(3)])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 63])
def test_lemma76_C_is_the_largest_omega_ratio(rho, N):
    w, rep = build_lemma76(rho, N)
    omega = [rho ** n * w.gamma[n] for n in range(N + 1)]
    want = max(omega[n] / omega[n + 1] for n in range(N))
    assert rep["C"] == w.C == want


@pytest.mark.parametrize("rho", [F(3, 2), F(3)])
def test_lemma76_ratio_premise_matches_fraction_brute_force(rho):
    N = 63
    w, _ = build_lemma76(rho, N)
    small_C = w.C * F(9, 10)
    omega = [rho ** n * w.gamma[n] for n in range(N + 1)]
    want = next(n for n in range(N) if omega[n] > small_C * omega[n + 1])
    rep = verify_weight_axioms(
        None, None, Lemma76Weight(rho, N, w.exponents, small_C), N)
    assert not rep["ok"]
    assert {"axiom": "ratio-premise", "n": want} in rep["failures"]


def test_lemma76_axioms_certified():
    w, _ = build_lemma76(F(2), 63)
    rep = verify_weight_axioms(None, None, w, 63)
    assert rep["ok"]


def _exponent_scan_oracle(e, N):
    """The exponent scan as it was before the packed screen: one pass over
    all j per i, listing the failing j when the pass finds one."""
    from operator import gt
    for i in range(1, N // 2 + 1):
        ei = e[i]
        if any(map(gt, e[2 * i:N + 1], map(ei.__add__, e[i:N + 1 - i]))):
            yield from ((i, j) for j in range(i, N + 1 - i)
                        if e[i + j] > ei + e[j])


def test_exponent_scan_matches_the_per_i_pass_on_perturbed_tables():
    rng = random.Random(9)
    base, _ = build_lemma76(F(2), 600)
    for trial in range(200):
        N = rng.choice([1, 2, 3, rng.randrange(4, 64), rng.randrange(64, 601)])
        e = list(base.exponents[:N + 1]) + [rng.randrange(0, 9)]  # e beyond N
        spread = rng.choice([1, 3, 100, 40000])
        for _ in range(rng.randrange(0, 6)):
            e[rng.randrange(0, N + 1)] += rng.randint(-spread, spread)
        want = list(_exponent_scan_oracle(e, N))
        assert list(weights_mod._exponent_submult_failures(e, N)) == want, trial
