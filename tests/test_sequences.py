"""Prefix sequences: tail functional, ratio analysis, block construction."""

import random
from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefix_fraction_oracle import FractionPrefixSequence
from waug.sequences import (PrefixSequence, build_block_sequence,
                            check_prefix_tp, csv_row_values, failure_witness,
                            growth_check, norm_tau, tail_functional)
from waug.structures import InvalidInput, ResourceLimit


def geometric(N, base=2):
    return PrefixSequence([base ** n for n in range(1, N + 1)])


def ones(N):
    return PrefixSequence([1] * N)


def from_rows(rows):
    return PrefixSequence(*csv_row_values(rows, "sequence"))


def over_lcm(values):
    """The PrefixSequence of the rationals `values`, through the CSV reader."""
    return from_rows([(n, v.numerator, v.denominator)
                      for n, v in enumerate(values, start=1)])


def taus(seq):
    return [seq.tau(n) for n in range(1, seq.N + 1)]


def prefix_sums(seq):
    """P_0..P_N, summed here from the taus."""
    return list(accumulate(taus(seq), initial=F(0)))


def test_prefix_sequence_basics():
    seq = geometric(5)
    assert seq.N == 5
    assert seq.tau(3) == 8
    assert prefix_sums(seq)[3] == seq.sums[3] == 2 + 4 + 8
    with pytest.raises(InvalidInput):
        PrefixSequence([1])             # need at least two entries
    with pytest.raises(InvalidInput, match="tau_2 = 1/2 < 1"):
        PrefixSequence([2, 1], 2)       # below 1


def test_csv_round_trip():
    seq = geometric(6, 3)
    rows = [(n, t.numerator, t.denominator) for n, t in enumerate(taus(seq), start=1)]
    back = from_rows(rows)
    assert taus(back) == taus(seq)
    with pytest.raises(InvalidInput):
        from_rows([(1, 2, 1), (3, 4, 1)])  # gap in indices


def test_tail_functional_on_basis_vectors():
    seq = ones(30)
    # T(e^(1)) = 0; T(e^(J)) = sum of tau_1..tau_(J-1)
    assert tail_functional(seq, {1: F(1)}) == 0
    assert tail_functional(seq, {7: F(1)}) == 6
    g = geometric(10)
    assert tail_functional(g, {4: F(1)}) == 2 + 4 + 8


def test_tail_functional_matches_definition():
    # T(x) = sum_n tau_n |sum_{j>n} x_j| against a direct double loop
    rng = random.Random(501)
    seq = geometric(12)
    for _ in range(50):
        x = {j: F(rng.randrange(-5, 6), rng.randrange(1, 7))
             for j in rng.sample(range(1, 13), 5)}
        direct = F(0)
        for n in range(1, 13):
            tail = sum((c for j, c in x.items() if j > n), F(0))
            direct += seq.tau(n) * abs(tail)
        assert tail_functional(seq, x) == direct


def test_norm_tau():
    seq = geometric(5)
    assert norm_tau(seq, {1: F(1, 2), 3: F(-1, 4)}) == F(1, 2) * 2 + F(1, 4) * 8


def test_check_prefix_tp_geometric_consistent():
    rep = check_prefix_tp(geometric(10))
    assert rep["D_hat"] == F(512, 511)
    assert rep["classification"] == "prefix-consistent"
    # ratio_n = tau_(n+1)/sum_(j<=n) tau_j; first one is 4/2 = 2
    assert rep["ratios"][0] == 2


def test_check_prefix_tp_flat_suspect():
    rep = check_prefix_tp(ones(100))
    assert rep["D_hat"] == F(1, 99)
    assert rep["classification"] == "suspect-fail"


def test_check_prefix_tp_polynomial_suspect():
    # tau_n = n^2 decays like 3/n: strictly decreasing with >5% decay
    rep = check_prefix_tp(PrefixSequence([n * n for n in range(1, 41)]))
    assert rep["classification"] == "suspect-fail"


def test_failure_witness_flat():
    rep = failure_witness(ones(100), F(10))
    assert rep["found"]
    x = rep["x"]
    assert len(x) <= 25
    assert rep["norm"] <= 1
    assert rep["T"] >= 10
    # independently recheck T and the norm
    seq = ones(100)
    assert tail_functional(seq, x) == rep["T"]
    assert norm_tau(seq, x) == rep["norm"]


def test_failure_witness_not_found_for_geometric(monkeypatch):
    # a miss scores no candidate with the tail functional
    import waug.sequences
    monkeypatch.setattr(waug.sequences, "tail_functional", None)
    rep = failure_witness(geometric(30), F(10))
    assert not rep["found"]
    assert rep["note"]


# tau_n >= 1 with small numerators and denominators, N = 2..8
short_sequences = st.lists(
    st.fractions(min_value=1, max_value=40, max_denominator=7),
    min_size=2, max_size=8).map(over_lcm)


def reference_failure_witness(seq, target):
    """The earlier search: singles, then uniform blocks (b ascending, a
    descending), each scored by tail_functional."""
    target = F(target)
    P = prefix_sums(seq)
    for j in range(1, seq.N + 1):
        if P[j - 1] / seq.tau(j) >= target:
            x = {j: 1 / seq.tau(j)}
            return {"found": True, "kind": "single", "x": x,
                    "norm": norm_tau(seq, x), "T": tail_functional(seq, x),
                    "target": target}
    for b in range(2, seq.N + 1):
        for a in range(b - 1, 0, -1):
            c = 1 / (P[b] - P[a - 1])
            x = {j: c for j in range(a, b + 1)}
            tval = tail_functional(seq, x)
            if tval >= target:
                return {"found": True, "kind": "block", "x": x,
                        "norm": norm_tau(seq, x), "T": tval, "target": target}
    return {"found": False, "target": target,
            "note": "no witness within this prefix; not a proof of tail-preservation"}


@settings(max_examples=100)
@given(short_sequences, st.fractions(min_value=F(1, 9), max_value=6,
                                     max_denominator=9))
def test_failure_witness_matches_reference_search(seq, target):
    assert failure_witness(seq, target) == reference_failure_witness(seq, target)


def test_failure_witness_reference_covers_hits_and_misses():
    # seeded so that hits and misses both occur, and some hits land on the
    # target exactly (the >= test accepts equality)
    rng = random.Random(503)
    kinds = set()
    exact = 0
    for _ in range(300):
        N = rng.randint(2, 14)
        shape = rng.choice(["flat", "geometric", "random"])
        if shape == "flat":
            vals = [F(rng.randint(1, 3))] * N
        elif shape == "geometric":
            vals = [F(rng.randint(3, 7), 2) ** n for n in range(1, N + 1)]
        else:
            vals = [F(rng.randint(2, 30), rng.randint(1, 2)) for _ in range(N)]
        seq = over_lcm(vals)
        target = F(rng.randint(1, 40), rng.randint(1, 8))
        want = reference_failure_witness(seq, target)
        assert failure_witness(seq, target) == want
        kinds.add(want.get("kind", "miss"))
        if want["found"]:
            hit = failure_witness(seq, want["T"])
            assert hit == reference_failure_witness(seq, want["T"])
            exact += hit["T"] == want["T"]
    assert kinds == {"single", "miss"}
    assert exact > 0


@settings(max_examples=100)
@given(short_sequences)
def test_no_block_beats_its_best_single(seq):
    # the unit-norm block on [a..b] is the convex combination
    # sum_j (tau_j / (P_b - P_(a-1))) e^(j)/tau_j of unit-norm singles and T
    # is convex, so a block never hits after every single has missed
    P = prefix_sums(seq)
    singles = [P[j - 1] / seq.tau(j) for j in range(1, seq.N + 1)]
    for b in range(2, seq.N + 1):
        for a in range(1, b):
            c = 1 / (P[b] - P[a - 1])
            T = tail_functional(seq, {j: c for j in range(a, b + 1)})
            assert T <= max(singles[a - 1:b])


def test_growth_check_geometric():
    rep = growth_check(geometric(20), F(1))
    assert rep["hypothesis_ok"] and rep["conclusion_ok"]
    rep2 = growth_check(ones(20), F(1))
    assert not rep2["hypothesis_ok"]
    # tau_3 = 1 < 1 * (tau_1 + tau_2) = 2 is the first violation
    assert rep2["hypothesis_first_failure"] == 3


def test_growth_conclusion_bound():
    # tau_(j+1) >= D (D+1)^(j-1) tau_1 for sequences satisfying the hypothesis
    seq = PrefixSequence([3 ** n for n in range(1, 15)])
    rep = growth_check(seq, F(2))
    assert rep["hypothesis_ok"] and rep["conclusion_ok"]


def test_block_sequence_markers_and_values():
    rep = build_block_sequence(F(2), 5)
    assert rep["markers"] == [1, 4, 8, 13, 19]
    seq = rep["sequence"]
    # block 1 covers j = 1, 2 at rho^(n_1+1) = 4
    assert seq.tau(1) == 4 and seq.tau(2) == 4
    # block 2 covers j = 3..5 at rho^(n_2+1) = 32
    assert seq.tau(3) == 32 and seq.tau(5) == 32
    assert rep["tau_geq_rho_pow_j"]
    assert rep["boundary_all_ok"]
    first = rep["boundary_ratios"][0]
    assert first["ratio"] == 1 and first["bound"] == 1


def test_block_sequence_boundary_ratio_is_exactly_one_over_k():
    # past k = 1 the ratio over the block j in [n_(k-1)+2, n_k] alone is
    # exactly 1/k; against the full prefix it is smaller, and <= 1/k is what
    # the report records
    rep = build_block_sequence(F(2), 8)
    seq, markers = rep["sequence"], rep["markers"]
    for k in range(2, 9):
        nk = markers[k - 1]
        if nk + 1 > seq.N:
            continue
        top = seq.tau(nk + 1)
        block_sum = sum(seq.tau(j) for j in range(markers[k - 2] + 2, nk + 1))
        assert top / block_sum == F(1, k)


def test_block_sequence_rejects_bad_input():
    with pytest.raises(InvalidInput):
        build_block_sequence(F(1), 5)
    with pytest.raises(InvalidInput):
        build_block_sequence(F(2), 1)


def test_block_sequence_refuses_numbers_past_the_digit_limit():
    # n_K = K(K+1)/2 + K - 1; rho^(n_K+1) = 2^14364 has 4325 digits at K = 168
    rep = build_block_sequence(F(2), 167)
    assert rep["markers"][-1] == 167 * 168 // 2 + 166
    for rho, K in ((F(2), 168), (F(7, 2), 120), (F(2), 10 ** 11)):
        with pytest.raises(ResourceLimit, match="--blocks"):
            build_block_sequence(rho, K)


def _fraction_block_sequence(rho, K):
    """Frozen copy of the Fraction builder the integer one replaced: every
    prefix sum a reduced Fraction addition, every tau_j >= rho^j a Fraction
    comparison against a fresh power; the oracle for its reports."""
    markers = [1]
    for k in range(2, K + 1):
        markers.append(markers[-1] + k + 1)
    values = []
    prev_end = 0
    for nk in markers:
        block_val = rho ** (nk + 1)
        values.extend([block_val] * (nk + 1 - prev_end))
        prev_end = nk + 1
    P = FractionPrefixSequence(values).prefix_sums()
    boundary = []
    for k, nk in enumerate(markers, start=1):
        ratio = values[nk] / P[nk]
        boundary.append({"k": k, "n_k": nk, "ratio": ratio,
                         "bound": F(1, k), "ok": ratio <= F(1, k)})
    return {
        "markers": markers,
        "values": values,
        "tau_geq_rho_pow_j": all(values[j - 1] >= rho ** j
                                 for j in range(1, len(values) + 1)),
        "boundary_ratios": boundary,
        "boundary_all_ok": all(b["ok"] for b in boundary),
    }


def _assert_matches_the_fraction_builder(rho, K):
    rep = build_block_sequence(rho, K)
    want = _fraction_block_sequence(rho, K)
    got = {key: rep[key] for key in want if key != "values"}
    got["values"] = taus(rep["sequence"])
    assert got == want
    assert all(type(b["ratio"]) is F for b in rep["boundary_ratios"])


@pytest.mark.parametrize("rho", [F(2), F(3), F(3, 2), F(5, 2), F(7, 3),
                                 F(1000000001, 1000000000), F(10 ** 400)],
                         ids=lambda rho: str(rho)[:12])
def test_block_sequence_matches_the_fraction_builder(rho):
    checked = []
    for K in (2, 3, 17, 40):
        try:
            _assert_matches_the_fraction_builder(rho, K)
        except ResourceLimit:  # past the digit limit: refused up front
            continue
        checked.append(K)
    assert checked[:2] == [2, 3]


def test_block_sequence_matches_the_fraction_builder_at_the_digit_limit():
    # K = 167 is the largest K that rho = 2 reaches below the limit
    _assert_matches_the_fraction_builder(F(2), 167)


def test_prefix_consistent_bound_property():
    # for nonnegative x with ||x||_tau <= 1, T(x) <= 1/D_hat
    rng = random.Random(502)
    seq = geometric(16)
    rep = check_prefix_tp(seq)
    dhat = rep["D_hat"]
    for _ in range(100):
        raw = {j: F(rng.randrange(0, 5), rng.randrange(1, 9))
               for j in rng.sample(range(1, 17), 6)}
        nrm = norm_tau(seq, raw)
        if nrm == 0:
            continue
        x = {j: c / nrm for j, c in raw.items()}
        assert tail_functional(seq, x) <= 1 / dhat
