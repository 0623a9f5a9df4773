"""Prefix sequences as integer numerators over one denominator against the
Fraction form they replace (prefix_fraction_oracle), under Hypothesis: the
CSV reader, the ratio analysis, the witness search and the growth checks
give the same values, reports and error messages."""

from fractions import Fraction as F
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefix_fraction_oracle as oracle
from waug.sequences import (PrefixSequence, check_prefix_tp, csv_row_values,
                            failure_witness, first_growth_failure, growth_check,
                            norm_tau, tail_functional)
from waug.structures import InvalidInput

# rationals with small parts: taus, signed entries (some taus below 1, so
# the refusals are compared too) and targets
TAUS = st.fractions(min_value=1, max_value=60, max_denominator=9)
ENTRIES = st.fractions(min_value=-20, max_value=20, max_denominator=9)
POSITIVE = st.fractions(min_value=F(1, 9), max_value=8, max_denominator=9)


@st.composite
def _rows(draw, values=TAUS):
    """CSV rows (index, numerator, denominator) of a list of `values` or of
    its running products, each written with a random nonzero common factor
    (so some denominators are negative), in a random order, as ints or as
    text."""
    drawn = draw(st.lists(st.tuples(values, st.integers(-6, 6).filter(bool)),
                          min_size=2, max_size=14))
    vals = [v for v, _ in drawn]
    if draw(st.booleans()):  # running products: growth that lasts
        vals = list(accumulate(vals, mul))
    rows = [(n, v.numerator * k, v.denominator * k)
            for n, (v, (_, k)) in enumerate(zip(vals, drawn), start=1)]
    draw(st.randoms(use_true_random=False)).shuffle(rows)
    if draw(st.booleans()):
        rows = [tuple(map(str, row)) for row in rows]
    return rows


def _read(rows):
    return PrefixSequence(*csv_row_values(rows, "sequence"))


def _outcome(fn, *args):
    """fn(*args), or the message of the InvalidInput it raises."""
    try:
        return fn(*args)
    except InvalidInput as exc:
        return ("InvalidInput", str(exc))


@pytest.mark.parametrize("rows", [
    [(1, 2, 1), (3, 4, 1)],                 # gap
    [(1, 2, 1), (2, 3, 0)],                 # zero denominator
    [(1, 2, 1), (2, 3, 1), (2, 5, 1)],      # repeated index
    [(1, 2, 1), ("2", "x", "1")],           # not an int
    [(1, 2)],                               # short row
    [(1, -3, 2), (2, 5, 1)],                # tau_1 < 1
    [(1, 4, -2), (2, 5, 1)],                # tau_1 < 1 through the sign
    [(1, 4, 2)],                            # N < 2
])
def test_bad_rows_give_the_fraction_reader_messages(rows):
    assert (_outcome(_read, rows)
            == _outcome(oracle.FractionPrefixSequence.from_csv_rows, rows))


@settings(max_examples=80)
@given(_rows(TAUS | ENTRIES), POSITIVE, POSITIVE)
def test_reader_and_analyses_match_the_fraction_form(rows, target, D):
    # as a vector CSV, every row is read
    nums, den = csv_row_values(rows, "vector")
    assert den > 0 and all(type(a) is int for a in nums)
    assert [F(a, den) for a in nums] == oracle.fraction_csv_row_values(rows, "vector")
    got = _outcome(_read, rows)
    want = _outcome(oracle.FractionPrefixSequence.from_csv_rows, rows)
    if type(want) is tuple:  # some tau_n < 1
        assert got == want
        return
    seq, old = got, want
    assert seq.den > 0
    assert list(map(seq.tau, range(1, seq.N + 1))) == old.values
    assert [F(s, seq.den) for s in seq.sums] == old.prefix_sums()
    assert check_prefix_tp(seq) == oracle.check_prefix_tp(old)
    # D and a D that tau_2 = D tau_1 meets with equality
    for d in (D, old.values[1] / old.values[0]):
        assert growth_check(seq, d) == oracle.growth_check(old, d)
        # idealkit hands first_growth_failure the Fraction sphere minima
        for n in (0, 1, seq.N):
            assert (first_growth_failure(old.values[:n], d)
                    == oracle.first_growth_failure(old.values[:n], d))
    assert failure_witness(seq, target) == oracle.failure_witness(old, target)
    # the best single's T, met with equality by the first single reaching it
    P = old.prefix_sums()
    best = max(P[j - 1] / old.values[j - 1] for j in range(2, old.N + 1))
    assert failure_witness(seq, best) == oracle.failure_witness(old, best)


@settings(max_examples=40)
@given(_rows(), st.data())
def test_norm_and_tail_functional_match_the_fraction_form(rows, data):
    seq = _read(rows)
    old = oracle.FractionPrefixSequence.from_csv_rows(rows)
    x = data.draw(st.dictionaries(st.integers(1, seq.N), ENTRIES | st.integers(-3, 3),
                                  max_size=seq.N))
    assert norm_tau(seq, x) == oracle.norm_tau(old, x)
    assert tail_functional(seq, x) == oracle.tail_functional(old, x)
    outside = {**x, seq.N + 1: F(1)}
    for new, frozen in ((norm_tau, oracle.norm_tau),
                        (tail_functional, oracle.tail_functional)):
        assert _outcome(new, seq, outside) == _outcome(frozen, old, outside)


@settings(max_examples=40)
@given(POSITIVE, TAUS, st.integers(2, 14), st.data())
def test_growth_checks_on_the_extremal_sequence(D, t, N, data):
    # tau_1 = t, tau_(j+1) = D (D+1)^(j-1) t: then P_j = (D+1)^(j-1) t, so
    # both the premise and the bound it implies hold with equality at every
    # index, and lowering one tau_k (k >= 2) breaks both first at k; both
    # are homogeneous, so scaling every tau up to >= 1 changes neither
    vals = [t] + [D * (D + 1) ** (j - 1) * t for j in range(1, N)]
    k = data.draw(st.integers(2, N + 1))  # N + 1: lower none
    if k <= N:
        vals[k - 1] *= F(999, 1000)
    scale = max(1, 1 / min(vals))
    rows = [(n, -(v * scale).numerator, -(v * scale).denominator)
            for n, v in enumerate(vals, start=1)]
    rep = growth_check(_read(rows), D)
    assert rep == oracle.growth_check(oracle.FractionPrefixSequence.from_csv_rows(rows), D)
    first = k if k <= N else None
    assert rep["hypothesis_first_failure"] == rep["conclusion_first_failure"] == first
