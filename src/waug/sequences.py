"""Tail-preservation analysis of positive sequences over a finite prefix.

For tau_1..tau_N (all >= 1) and a finitely supported rational vector x,

    ||x||_tau = sum_n tau_n |x_n|,
    T(x)      = sum_n tau_n |sum_{j>n} x_j|.

The exact prefix invariant is D_hat = min_{1<=n<N} tau_(n+1) / sum_{j<=n} tau_j:
for non-negative x the norm dominates D_hat * T(x), so a large T against a
unit-norm x witnesses a collapsing D_hat.  Whether the *infinite* sequence is
tail-preserving is not decidable from a prefix; the classification emitted
here is a labeled heuristic, while D_hat, T and the witnesses are exact.

A prefix is integer numerators over one positive denominator, tau_n =
nums[n-1] / den, with the prefix sums den * P_n beside them: every test
compares those integers, and only a reported value becomes a Fraction.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from itertools import accumulate
from math import lcm, log10

from .certify import check_digits, format_rational, parse_rational
from .structures import InvalidInput

# check_prefix_tp's heuristic: the final-quartile ratio floor, and the
# window of trailing ratios with the decay factor they must fall below
TP_THRESHOLD = Fraction(1, 1000)
TP_WINDOW = 10
TP_DECAY = Fraction(19, 20)


class PrefixSequence:
    """tau_1..tau_N, all >= 1, N >= 2, as tau_n = nums[n-1] / den (den > 0);
    sums[n] = den * P_n = nums[0] + ... + nums[n-1] for n = 0..N."""

    def __init__(self, nums, den: int = 1):
        if len(nums) < 2:
            raise InvalidInput("prefix sequence needs N >= 2")
        for i, a in enumerate(nums, start=1):
            if a < den:
                raise InvalidInput(f"tau_{i} = {Fraction(a, den)} < 1")
        self.nums, self.den, self.N = nums, den, len(nums)
        self.sums = [0, *accumulate(nums)]

    def tau(self, n: int) -> Fraction:
        if not 1 <= n <= self.N:
            raise InvalidInput(f"index {n} outside 1..{self.N}")
        return Fraction(self.nums[n - 1], self.den)

    def ratio(self, n: int) -> Fraction:
        """tau_(n+1) / P_n, for 1 <= n < N; den cancels."""
        return Fraction(self.nums[n], self.sums[n])


def csv_row_values(rows, what: str):
    """Rows (index, numerator, denominator) -> (nums, den): v_n = nums[n-1]
    / den for n = 1..N, den the lcm of the row denominators; the indices
    must be 1..N, each once.  `what` names the file kind in error messages."""
    rats = {}
    for row in rows:
        try:
            n, num, d = int(row[0]), int(row[1]), int(row[2])
        except (ValueError, IndexError) as exc:
            raise InvalidInput(f"bad {what} CSV row {row!r}") from exc
        if d == 0:
            raise InvalidInput(f"zero denominator at index {n}")
        if n in rats:
            raise InvalidInput(f"{what} CSV repeats index {n}")
        rats[n] = num, d
    if sorted(rats) != list(range(1, len(rats) + 1)):
        raise InvalidInput(f"{what} CSV indices must be 1..N without gaps")
    pairs = [rats[n] for n in range(1, len(rats) + 1)]
    dens = {d for _, d in pairs}
    den = lcm(*dens)
    scale = {d: den // d for d in dens}  # negative for a negative d
    return [a * scale[d] for a, d in pairs], den


def read_csv(data: bytes, what: str, path: str):
    """csv_row_values of the bytes of the CSV file at path, read as
    open(path, newline="") reads them (UTF-8, a chunk at a time, no newline
    translation), its blank rows dropped and a first row whose index is not
    an integer skipped as the header.  Bytes that are not UTF-8 are refused
    first, by one decode of the whole file, so that the InvalidInput names
    the file and the offset of the bad byte in it, not in its chunk."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: CSV decode error: {exc}") from exc
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    rows = [r for r in csv.reader(text) if any(cell.strip() for cell in r)]
    if rows and not rows[0][0].strip().lstrip("-").isdigit():
        rows = rows[1:]
    return csv_row_values(rows, what)


def norm_tau(seq: PrefixSequence, x: dict) -> Fraction:
    """||x||_tau for x given as {index: rational}."""
    total = Fraction(0)
    for j, v in x.items():
        total += seq.tau(j) * abs(Fraction(v))
    return total


def tail_functional(seq: PrefixSequence, x: dict) -> Fraction:
    """T(x) = sum_{n=1}^{N} tau_n |sum_{j>n} x_j|, exact."""
    for j in x:
        if not 1 <= j <= seq.N:
            raise InvalidInput(f"support index {j} outside 1..{seq.N}")
    x = {j: Fraction(v) for j, v in x.items()}
    den = lcm(*(x[j].denominator for j in x))
    # the tail sum_{j>n} x_j is zero from n = max(x) on; build it downward,
    # times den, and the total times den * seq.den
    total = tail = 0
    for n in range(max(x, default=0), 0, -1):
        total += seq.nums[n - 1] * abs(tail)
        if n in x:
            tail += x[n].numerator * (den // x[n].denominator)
    return Fraction(total, den * seq.den)


def check_prefix_tp(seq: PrefixSequence) -> dict:
    """Exact per-n ratios and D_hat, plus the labeled heuristic classification.

    suspect-fail iff the final-quartile minimum ratio drops below TP_THRESHOLD,
    or the last TP_WINDOW ratios are strictly decreasing and lose at least a
    1 - TP_DECAY fraction over that stretch.  (A strict decrease alone proves
    nothing: ratios of genuinely tail-preserving sequences such as c^n
    decrease towards a positive limit.)
    """
    ratios = list(map(seq.ratio, range(1, seq.N)))  # n = 1..N-1
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


def failure_witness(seq: PrefixSequence, target) -> dict:
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
    for j, (a, s) in enumerate(zip(seq.nums, seq.sums), start=1):
        if s * target.denominator >= target.numerator * a:  # P_(j-1) / tau_j >= target
            x = {j: Fraction(seq.den, a)}
            return {"found": True, "kind": "single", "x": x,
                    "norm": norm_tau(seq, x), "T": tail_functional(seq, x),
                    "target": target}
    return {"found": False, "target": target,
            "note": "no witness within this prefix; not a proof of tail-preservation"}


def first_growth_failure(taus: list, D):
    """For tau_1..tau_n (rationals, or numerators over one denominator), the
    first index m + 1 (1 <= m < n) with tau_(m+1) < D * sum_(j<=m) tau_j, or
    None when the growth premise holds, as it does for n <= 1."""
    p, q = D.numerator, D.denominator
    partial = 0
    for m in range(1, len(taus)):
        partial += taus[m - 1]
        if taus[m] * q < p * partial:
            return m + 1
    return None


def growth_check(seq: PrefixSequence, D) -> dict:
    """Check the growth premise tau_(n+1) >= D sum_{j<=n} tau_j on the prefix, and the
    growth bound it implies: tau_(j+1) >= D (D+1)^(j-1) tau_1."""
    D = parse_rational(D)
    if D <= 0:
        raise InvalidInput("growth_check needs D > 0")
    hyp_fail = first_growth_failure(seq.nums, D)
    # with D = p/q: tau_(j+1) q^j < p (p+q)^(j-1) tau_1 is a failure
    p, q = D.numerator, D.denominator
    concl_fail = None
    low, high = q, p * seq.nums[0]
    for j in range(1, seq.N):
        if seq.nums[j] * low < high:
            concl_fail = j + 1
            break
        low *= q
        high *= p + q
    return {
        "D": D,
        "N": seq.N,
        "hypothesis_ok": hyp_fail is None,
        "hypothesis_first_failure": hyp_fail,
        "conclusion_ok": concl_fail is None,
        "conclusion_first_failure": concl_fail,
    }


def build_block_sequence(rho, K: int) -> dict:
    """The staircase witness sequence: markers n_1 = 1, n_k = n_(k-1) + k + 1,
    and tau_j = rho^(n_k+1) on the k-th block n_(k-1)+1 < j <= n_k+1 (block 1
    starts at j = 1, so tau_1 = tau_2 = rho^2).

    Every tau_j >= rho^j, and the boundary ratios
    tau_(n_k+1) / sum_{j<=n_k} tau_j are exactly <= 1/k: above the boundary
    sit k copies of rho^(n_k+1) from the same block.  Both facts are verified
    exactly and returned with the sequence.  A K is refused up front when
    the numbers, at most max(p, q)^(n_K+1) (n_K+1) for rho = p/q with
    n_K = K(K+1)/2 + K - 1, would pass the int->str digit limit.
    """
    rho = parse_rational(rho)
    if rho <= 1:
        raise InvalidInput("build_block_sequence needs rho > 1")
    if K < 2:
        raise InvalidInput("build_block_sequence needs K >= 2")
    top = K * (K + 1) // 2 + K
    check_digits(top * log10(max(rho.numerator, rho.denominator)) + log10(top),
                 f"--blocks {K} is too large for rho = {format_rational(rho)}: "
                 f"the sequence reaches rho^{top}")
    markers = [k * (k + 1) // 2 + k - 1 for k in range(1, K + 1)]
    # block k is tau_j = rho^e, e = n_k+1, for n_(k-1)+1 < j <= e, numerator
    # p^e q^(top-e) over q^top (top = n_K+1)
    p, q = rho.numerator, rho.denominator
    nums, exponents = [], []
    for nk in markers:
        e = nk + 1
        count = e - len(nums)
        nums += [p ** e * q ** (top - e)] * count
        exponents += [e] * count
    seq = PrefixSequence(nums, q ** top)
    boundary = []
    for k, nk in enumerate(markers, start=1):
        ratio, bound = seq.ratio(nk), Fraction(1, k)
        boundary.append({"k": k, "n_k": nk, "ratio": ratio,
                         "bound": bound, "ok": ratio <= bound})
    return {
        "rho": rho,
        "K": K,
        "markers": markers,
        "sequence": seq,
        # with rho > 1, tau_j = rho^e >= rho^j exactly when e >= j
        "tau_geq_rho_pow_j": all(e >= j for j, e in enumerate(exponents, start=1)),
        "boundary_ratios": boundary,
        "boundary_all_ok": all(b["ok"] for b in boundary),
    }
