"""A frozen copy of the Fraction form of prefix sequences, the oracle for
the integer one in waug.sequences.

A prefix was a list of reduced Fractions, `values`; its prefix sums, the
ratios tau_(n+1)/P_n, the witness search and the growth checks were
Fraction arithmetic on that list, and the CSV reader built one reduced
Fraction per row.  This was waug.sequences before a prefix became integer
numerators over one denominator; it is kept as it was, not maintained
alongside.
"""

from __future__ import annotations

from fractions import Fraction

from waug.certify import parse_rational
from waug.sequences import TP_DECAY, TP_THRESHOLD, TP_WINDOW
from waug.structures import InvalidInput


class FractionPrefixSequence:
    """tau_1..tau_N, exact rationals, all >= 1, N >= 2."""

    def __init__(self, values):
        vals = [v if type(v) is Fraction else Fraction(v) for v in values]
        if len(vals) < 2:
            raise InvalidInput("prefix sequence needs N >= 2")
        for i, v in enumerate(vals, start=1):
            if v < 1:
                raise InvalidInput(f"tau_{i} = {v} < 1")
        self.values = vals

    @property
    def N(self):
        return len(self.values)

    def tau(self, n: int) -> Fraction:
        if not 1 <= n <= self.N:
            raise InvalidInput(f"index {n} outside 1..{self.N}")
        return self.values[n - 1]

    def prefix_sums(self):
        """P_n = sum_{j<=n} tau_j for n = 0..N (P_0 = 0)."""
        sums = [Fraction(0)]
        for v in self.values:
            sums.append(sums[-1] + v)
        return sums

    def to_csv_rows(self):
        """Rows (n, numerator, denominator), each distinct int formatted once."""
        ints = {i for v in self.values for i in (v.numerator, v.denominator)}
        text = dict(zip(ints, map(str, ints)))
        for n, v in enumerate(self.values, start=1):
            yield n, text[v.numerator], text[v.denominator]

    @classmethod
    def from_csv_rows(cls, rows):
        return cls(fraction_csv_row_values(rows, "sequence"))


def fraction_csv_row_values(rows, what: str) -> list:
    """Rows (index, numerator, denominator) -> [v_1..v_N]; the indices must
    be 1..N, each once.  `what` names the file kind in error messages."""
    vals = {}
    for row in rows:
        try:
            n, num, den = int(row[0]), int(row[1]), int(row[2])
        except (ValueError, IndexError) as exc:
            raise InvalidInput(f"bad {what} CSV row {row!r}") from exc
        if den == 0:
            raise InvalidInput(f"zero denominator at index {n}")
        if n in vals:
            raise InvalidInput(f"{what} CSV repeats index {n}")
        vals[n] = Fraction(num, den)
    if sorted(vals) != list(range(1, len(vals) + 1)):
        raise InvalidInput(f"{what} CSV indices must be 1..N without gaps")
    return [vals[n] for n in range(1, len(vals) + 1)]


def norm_tau(seq: FractionPrefixSequence, x: dict) -> Fraction:
    """||x||_tau for x given as {index: rational}."""
    total = Fraction(0)
    for j, v in x.items():
        total += seq.tau(j) * abs(Fraction(v))
    return total


def tail_functional(seq: FractionPrefixSequence, x: dict) -> Fraction:
    """T(x) = sum_{n=1}^{N} tau_n |sum_{j>n} x_j|, exact."""
    if not x:
        return Fraction(0)
    for j in x:
        if not 1 <= j <= seq.N:
            raise InvalidInput(f"support index {j} outside 1..{seq.N}")
    # the tail sum_{j>n} x_j is zero from n = max(x) on; build it downward
    total = Fraction(0)
    tail = Fraction(0)
    for n in range(max(x), 0, -1):
        if tail:
            total += seq.tau(n) * abs(tail)
        tail += Fraction(x.get(n, 0))
    return total


def check_prefix_tp(seq: FractionPrefixSequence) -> dict:
    """Exact per-n ratios and D_hat, plus the labeled heuristic classification.

    suspect-fail iff the final-quartile minimum ratio drops below TP_THRESHOLD,
    or the last TP_WINDOW ratios are strictly decreasing and lose at least a
    1 - TP_DECAY fraction over that stretch.  (A strict decrease alone proves
    nothing: ratios of genuinely tail-preserving sequences such as c^n
    decrease towards a positive limit.)
    """
    P = seq.prefix_sums()
    ratios = [seq.values[n] / P[n] for n in range(1, seq.N)]  # n = 1..N-1
    d_hat = min(ratios)
    argmin = ratios.index(d_hat) + 1
    quart = ratios[-(max(1, len(ratios) // 4)):]
    suspect = min(quart) < TP_THRESHOLD
    if not suspect and len(ratios) >= TP_WINDOW:
        lastw = ratios[-TP_WINDOW:]
        decreasing = all(b < a for a, b in zip(lastw, lastw[1:]))
        if decreasing and lastw[-1] < TP_DECAY * lastw[0]:
            suspect = True
    return {
        "N": seq.N,
        "D_hat": d_hat,
        "argmin_n": argmin,
        "ratios": ratios,
        "classification": "suspect-fail" if suspect else "prefix-consistent",
        "heuristic": {
            "kind": "semi-decision; prefix data cannot prove tail-preservation",
            "threshold": TP_THRESHOLD,
            "window": TP_WINDOW,
            "decay": TP_DECAY,
        },
    }


def failure_witness(seq: FractionPrefixSequence, target) -> dict:
    """Search canonical candidates for ||x||_tau <= 1 with T(x) >= target.

    Candidates, in order: single coordinates x = e^(j)/tau_j (j ascending;
    T = sum_{i<j} tau_i / tau_j).  No other non-negative x does better, the
    uniform unit-norm blocks on [a..b] included: for x >= 0,
    T(x) = sum_j x_j P_(j-1) = sum_j (tau_j x_j) (P_(j-1)/tau_j) is at most
    ||x||_tau max_j P_(j-1)/tau_j.  Returns the first hit; not-found is
    not a proof of tail-preservation (the prefix may just be short).
    """
    target = parse_rational(target)
    if target <= 0:
        raise InvalidInput("failure_witness needs target > 0")
    P = seq.prefix_sums()
    for j in range(1, seq.N + 1):
        tval = P[j - 1] / seq.values[j - 1]
        if tval >= target:
            x = {j: Fraction(1) / seq.values[j - 1]}
            return {"found": True, "kind": "single", "x": x,
                    "norm": norm_tau(seq, x), "T": tail_functional(seq, x),
                    "target": target}
    return {"found": False, "target": target,
            "note": "no witness within this prefix; not a proof of tail-preservation"}


def first_growth_failure(taus: list, D):
    """For the list tau_1..tau_n, the first index m + 1 (1 <= m < n) with
    tau_(m+1) < D * sum_(j<=m) tau_j, or None when the growth premise holds,
    as it does for n <= 1."""
    partial = 0
    for m in range(1, len(taus)):
        partial += taus[m - 1]
        if taus[m] < D * partial:
            return m + 1
    return None


def growth_check(seq: FractionPrefixSequence, D) -> dict:
    """Check the growth premise tau_(n+1) >= D sum_{j<=n} tau_j on the prefix, and the
    growth bound it implies: tau_(j+1) >= D (D+1)^(j-1) tau_1."""
    D = parse_rational(D)
    if D <= 0:
        raise InvalidInput("growth_check needs D > 0")
    hyp_fail = first_growth_failure(seq.values, D)
    concl_fail = None
    power = Fraction(1)  # (D+1)^(j-1)
    for j in range(1, seq.N):
        if seq.values[j] < D * power * seq.values[0]:
            concl_fail = j + 1
            break
        power *= (D + 1)
    return {
        "D": D,
        "N": seq.N,
        "hypothesis_ok": hyp_fail is None,
        "hypothesis_first_failure": hyp_fail,
        "conclusion_ok": concl_fail is None,
        "conclusion_first_failure": concl_fail,
    }

