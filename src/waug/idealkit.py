"""Augmentation-ideal toolkit: exact decompositions and witness reports.

Everything here lives on one question: when is the kernel of the sum-of-
coefficients character, as a left ideal, generated by the finitely many
elements delta_e - delta_x (x in a generating set X)?  The constructive side
produces exact decompositions f = sum_i a_i * g_i verified by reconvolution;
the obstruction side produces finite witness elements whose exactly computed
partial quantities grow past the ceilings any such decomposition must obey.
Witness reports only ever state computed truncations plus the analytic
divergence they evidence - divergence itself is never claimed as computed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, log10

from .algebra import (Element, ONE, convolve, convolve_sum, norm_terms,
                      sigma_sequence, weighted_norm)
from .certify import (DEFAULT_BITS, Enclosure, as_enclosure, basel_partial,
                      check_digits, harmonic_number, parse_rational, sqrt_sum_sign)
from .sequences import first_growth_failure
from .structures import (InvalidInput, UNIVERSE, division_balls,
                         geodesic_words, pseudo_finite_within,
                         IntegerGroup, Structure)
from .weights import build_lemma74, tau_and_C


class CertificateError(RuntimeError):
    """A certified inequality failed (or could not be established); the
    attached report carries the witness."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


def _le_status(a, b, terms, bits: int = DEFAULT_BITS) -> str:
    """'proved' or 'violated' for a <= b, exact or enclosed: by the enclosures
    where they do not overlap, else by sqrt_sum_sign on a - b = sum r sqrt(q)
    over the pairs terms() returns, where a tie is 'proved'."""
    ea, eb = as_enclosure(a), as_enclosure(b)
    le = True if ea.hi <= eb.lo else False if ea.lo > eb.hi else sqrt_sum_sign(terms(), bits) <= 0
    return "proved" if le else "violated"


class Decomposition:
    """f = sum_i coeff_i * gen_i over the (coeff_i, gen_i, label_i) `terms`,
    verified exactly on construction; `pairs` lists the (coeff_i, gen_i).
    Terms are kept as given: zero coefficients and repeated generators
    included."""

    def __init__(self, structure: Structure, target: Element, terms):
        self.structure = structure
        self.target = target
        self.terms = list(terms)
        self.pairs = [(coeff, gen) for coeff, gen, _ in self.terms]
        if not self.verify():
            raise CertificateError("decomposition does not reconvolve to its target")

    def verify(self) -> bool:
        return convolve_sum(self.structure, self.pairs) == self.target

    def to_json(self) -> dict:
        items = [{"coefficient": coeff.to_json(), "generator": gen.to_json(),
                  "label": label} for coeff, gen, label in self.terms]
        return {"target": self.target.to_json(), "pairs": items,
                "reconvolves": True}


def _difference(s: Structure, x, y=None):
    """(delta_y - delta_x, its label "delta_y - delta_x"), y = e by default."""
    name, y = ("e", s.identity()) if y is None else (s.elem_str(y), y)
    return Element(s, [(y, 1), (x, -1)]), f"delta_{name} - delta_{s.elem_str(x)}"


# ---------------------------------------------------------------------------
# telescoping: f = sum beta_u (delta_e - delta_u)
# ---------------------------------------------------------------------------

def telescope(f: Element) -> dict:
    """Write an augmentation-zero f as sum_u beta_u (delta_e - delta_u).

    Matching coefficients gives beta_u = -f(u) for u != e; the e-coordinate
    then balances automatically because the coefficients sum to zero.
    """
    s = f.structure
    if f.augmentation():
        raise InvalidInput("telescope needs augmentation 0")
    e = s.identity()
    terms = []
    betas = []
    for u in f.support():
        if u == e:
            continue
        beta = -f[u]
        terms.append((Element.delta(s, e, beta), *_difference(s, u)))
        betas.append({"u": s.elem_to_json(u), "beta": beta})
    decomp = Decomposition(s, f, terms)
    return {"op": "telescope", "betas": betas, "decomposition": decomp,
            "ok": True}


# ---------------------------------------------------------------------------
# the decomposition core: delta_e - delta_u over {delta_e - delta_x}
# ---------------------------------------------------------------------------

def _word_steps(s: Structure, gens, u, word):
    """Peeling the first letter of a geodesic word u = y_1...y_n over the
    generator alphabet, one letter at a time, gives
        delta_e - delta_u = sum_j delta_(p_j) * (delta_e - delta_(y_j)),
    p_j = y_1...y_(j-1): the steps (index of y_j, p_j, +1), in word order."""
    steps = []
    prefix = s.identity()
    for i in word:
        steps.append((i, prefix, 1))
        prefix = s.multiply(prefix, gens[i])
    if prefix != u:
        raise RuntimeError("geodesic word does not multiply back to its element")
    return steps


def _coefficients(s: Structure, gens, peeled):
    """The coefficient accumulator.  Each (beta_u, steps_u) of `peeled`
    writes delta_e - delta_u as the sum over its steps (i, p, sign) of
    sign * delta_p * (delta_e - delta_(x_i)), x_i = gens[i]; so
    sum_u beta_u (delta_e - delta_u) = sum_i s_i * (delta_e - delta_(x_i))
    with s_i summed as (re, im) numerator maps over the lcm of the betas'
    denominators.  Returns the pairs (x_i, s_i) for every i some step names
    (zero s_i included), in index order."""
    den = lcm(*(x.denominator for beta, _ in peeled for x in (beta.re, beta.im)))
    sx = {}
    for beta, steps in peeled:
        nums = [x.numerator * (den // x.denominator) for x in (beta.re, beta.im)]
        for i, p, sign in steps:
            for acc, b in zip(sx.setdefault(i, ({}, {})), nums):
                if b:
                    acc[p] = acc.get(p, 0) + sign * b
    return [(gens[i], Element.from_numerators(s, re, im, den))
            for i, (re, im) in sorted(sx.items())]


def _decompose(s: Structure, gens, weight, target: Element, betas, D, bits,
               max_depth, head: dict):
    """The decomposition core.  target = sum_u beta_u (delta_e - delta_u) over
    the pairs (u, beta_u) of `betas`; peeling each delta_e - delta_u along its
    geodesic word (_word_steps, _coefficients) gives
        target = sum_x s_x * (delta_e - delta_x),   s_x = sum_u beta_u f_x^(u),
    with the certified bound ||s_x||_omega <= (1/D) sum_u |beta_u| omega(u).
    `head` opens the report and the CertificateError report.  Returns
    (report, words), words mapping each u to its geodesic word."""
    op = head["op"]
    D = parse_rational(D)
    if D <= 0:
        raise InvalidInput(f"{op} needs D > 0")
    if target.augmentation():
        raise InvalidInput(f"{op} needs augmentation 0")
    words = geodesic_words(s, gens, [u for u, _ in betas], max_depth)
    peeled = sorted(((len(words[u]), s.elem_key(u), u, beta,
                      _word_steps(s, gens, u, words[u]))
                     for u, beta in betas), key=lambda t: t[:2])
    n_max = max((t[0] for t in peeled), default=0)

    taus = tau_and_C(s, gens, weight, n_max, bits)["taus"] if n_max else []
    growth_fail = first_growth_failure(taus, D)
    if growth_fail is not None:
        raise CertificateError(
            f"D = {D} is not valid for this weight prefix: "
            f"tau_{growth_fail} < D * (tau_1 + ... + tau_{growth_fail - 1})",
            report={**head, "D": D, "first_violation": growth_fail,
                    "taus": taus, "ok": False})
    # the telescoped bound sum_(j=0)^(n-1) tau_j <= (1/D) tau_n needs the
    # inclusive premise tau_n >= D (1 + sum_(j<n) tau_j) (tau_0 = 1), which
    # the growth premise does not imply (tau = (1, D)); both are reported
    inclusive_ok = not taus or taus[-1] >= D * (1 + sum(taus[:-1]))

    coeffs = _coefficients(s, gens, [(beta, steps) for *_, beta, steps in peeled])
    # the bound (1/D) sum_u |beta_u| omega(u)
    beta_f = Element(s, [(u, beta) for _, _, u, beta, _ in peeled])
    bound = weighted_norm(beta_f, weight, bits) * (1 / D)

    terms = [(sx, *_difference(s, x)) for x, sx in coeffs]
    norms, status = {}, {}
    for x, sx in coeffs:  # ||s_x|| - bound = sum r sqrt(q) over the exact terms
        nm = norms[s.elem_str(x)] = weighted_norm(sx, weight, bits)
        status[s.elem_str(x)] = _le_status(nm, bound, lambda: (
            norm_terms(sx, weight) + norm_terms(beta_f, weight, -1 / D)), bits)
    norm_ok = all(v == "proved" for v in status.values())
    return {
        **head,
        "D": D,
        "taus": taus,
        "premise_growth_ok": True,
        "premise_inclusive_ok": inclusive_ok,
        "decomposition": Decomposition(s, target, terms),
        "norms": norms,
        "bound": bound,
        "norm_status": status,
        "norm_ok": norm_ok,
        "reconvolved": True,
        "ok": norm_ok,
    }, words


def decompose_point(s: Structure, gens, weight, u, D, bits: int = DEFAULT_BITS,
                    max_depth: int = 64) -> dict:
    """delta_e - delta_u = sum_x f_x * (delta_e - delta_x) along a geodesic,
    with each f_x a {0,1}-sum of geodesic-prefix deltas, plus the certified
    norm bound ||f_x||_omega <= (1/D) omega(u): the one-point case of the
    decomposition core."""
    head = {"op": "decompose_point", "u": s.elem_to_json(u)}
    rep, words = _decompose(s, gens, weight, _difference(s, u)[0],
                            [(u, ONE)], D, bits, max_depth, head)
    rep["word"] = [s.elem_str(gens[i]) for i in words[u]]
    rep["n"] = len(words[u])
    return rep


def decompose_full(s: Structure, gens, weight, f: Element, D,
                   bits: int = DEFAULT_BITS, max_depth: int = 64) -> dict:
    """f = sum_x s_x * (delta_e - delta_x) for augmentation-zero f, by
    aggregating per-point geodesic decompositions:
        f = sum_(u != e) (-f(u)) (delta_e - delta_u),
        s_x = - sum_u f(u) f_x^(u),
    with the certified bound ||s_x||_omega <= (1/D) sum_(u!=e) |f(u)| omega(u).
    """
    e = s.identity()
    betas = [(u, -f[u]) for u in f.support() if u != e]
    rep, words = _decompose(s, gens, weight, f, betas, D, bits, max_depth,
                            {"op": "decompose_full"})
    rep["points"] = len(betas)
    rep["n_max"] = max(map(len, words.values()), default=0)
    return rep


# ---------------------------------------------------------------------------
# the integer line: division by delta_1 - delta_0 is a partial-sum shift
# ---------------------------------------------------------------------------

def divide_shift(f: Element):
    """Solve f = g * (delta_1 - delta_0) on Z for finitely supported g.

    For support in the non-negative half-line g(n) = -sum_(i<=n) f(i); the
    partial sums vanish beyond the support exactly when the augmentation is
    zero, which is therefore reported as the obstruction when nonzero.  The
    mirror side uses the divisor delta_(-1) - delta_0 and forward partial
    sums g(t) = sum_(m<=t-1) f(m).

    Returns (g, report); g is None when no finitely supported divisor exists.
    """
    s = f.structure
    if not isinstance(s, IntegerGroup):
        raise InvalidInput("divide_shift works on the integer line")
    aug = f.augmentation()
    if aug:
        return None, {
            "op": "divide_shift", "ok": False,
            "reason": "augmentation is nonzero; the partial sums of f never "
                      "vanish, so f has no finitely supported divisor",
            "augmentation": aug,
        }
    support = f.support()
    has_neg = any(u < 0 for u in support)
    if has_neg and any(u > 0 for u in support):
        raise InvalidInput(
            "divide_shift needs support in one half-line (all >= 0 or all <= 0)")
    x = -1 if has_neg else 1
    divisor = _difference(s, 0, x)[0]
    if not support:
        g = Element.zero(s)
        return g, {"op": "divide_shift", "ok": True, "side": "nonneg",
                   "divisor": divisor, "g": g, "reconvolved": True}
    lo, hi = min(support), max(support)
    # with P_n = sum_(i<=n) f(i): g(n) = -P_n (divisor delta_1 - delta_0), or
    # g(n+1) = P_n (divisor delta_(-1) - delta_0), for lo <= n < hi
    maps = [{n + (x < 0): -x * p for n, p in
             zip(range(lo, hi), accumulate(a.get(n, 0) for n in range(lo, hi)))}
            for a in (f.re, f.im)]
    g = Element.from_numerators(s, *maps, f.den)
    if convolve(g, divisor) != f:
        raise CertificateError("divide_shift reconvolution failed")
    return g, {"op": "divide_shift", "ok": True,
               "side": "nonpos" if has_neg else "nonneg",
               "divisor": divisor, "g": g, "reconvolved": True,
               "support_range": [lo, hi]}


# ---------------------------------------------------------------------------
# pseudo-finite rewriting: the decomposition core along ancestry chains
# ---------------------------------------------------------------------------

def rewrite_pseudofinite(s: Structure, gens, f: Element, depth: int = 16) -> dict:
    """Exact rewriting of an augmentation-zero f over a pseudo-finite monoid
    (M = B_n) as f = sum_x s_x * (delta_e - delta_x), x in X (the
    non-identity generators, first occurrences).

    f = sum_u (-f(u)) (delta_e - delta_u), and each delta_e - delta_u is
    peeled along its ancestry chain u = z_1, ..., z_m = e (BallTable.ancestry):
    a step z = z'.x gives delta_z' - delta_z = delta_z' * (delta_e - delta_x),
    a step z.x = z' gives delta_z' - delta_z = -delta_z * (delta_e - delta_x).
    The decomposition core sums the s_x (_coefficients); zero ones are
    dropped.
    """
    if f.augmentation():
        raise InvalidInput("rewrite needs augmentation 0")
    pf = pseudo_finite_within(s, gens, depth)
    if not pf["found"]:
        raise InvalidInput(f"structure is not pseudo-finite within depth "
                           f"{depth}: {pf['reason']}")
    n = pf["n"]
    bt = division_balls(s, gens, n)
    e = s.identity()
    X = list(dict.fromkeys(x for x in gens if x != e))
    idx = {x: i for i, x in enumerate(X)}

    start = 0
    peeled = []
    for u in f.support():
        chain = bt.ancestry(u, gens)
        if chain is None:
            raise InvalidInput(f"support point {s.elem_str(u)} escapes B_{n}")
        start = max(start, len(chain) - 1)
        peeled.append((-f[u], [(idx[st.x], st.elem, 1) if st.op == "mul"
                               else (idx[st.x], z.elem, -1)
                               for z, st in zip(chain, chain[1:])]))
    terms = [(sx, *_difference(s, x))
             for x, sx in _coefficients(s, X, peeled) if sx]
    return {
        "op": "rewrite_pseudofinite",
        "pseudo_finite_level": n,
        "start_level": start,
        "generators": [s.elem_str(x) for x in X],
        "family": [{"label": label, "generator": gen} for _, gen, label in terms],
        "decomposition": Decomposition(s, f, terms),
        "reconvolved": True,
        "ok": True,
    }


# ---------------------------------------------------------------------------
# necessity probe: do the supports of given ideal elements pseudo-generate?
# ---------------------------------------------------------------------------

def pseudo_generation_necessity(s: Structure, hs, depth: int) -> dict:
    """X = union of the supports of the given augmentation-zero elements;
    run the division-ball recursion over X and report how far it reaches.
    A strict stall below the reachable elements refutes generation of the
    augmentation ideal by these elements (their supports would have to
    pseudo-generate M)."""
    if not hs:
        raise InvalidInput("necessity probe needs at least one element")
    if any(h.augmentation() for h in hs):
        raise InvalidInput("necessity probe needs augmentation-zero elements")
    X = sorted({u for h in hs for u in h.support()}, key=s.elem_key)
    if not X:
        raise InvalidInput("necessity probe: all elements are zero")
    bt = division_balls(s, X, depth)
    sizes = bt.sizes()
    stall = bt.stable_at()
    at = bt.whole_at()
    # unknown, not False, while an infinite structure has no universal ball
    covered = True if at is not None else (False if s.size is not None else None)
    refuted = False
    reason = ""
    if covered:
        verdict = "covers"
        reason = f"B_{at} reaches the whole structure"
    elif stall is not None:
        refuted = True
        verdict = "refuted"
        stalled_size = sizes[stall]
        whole = s.size if s.size is not None else "infinitely many"
        reason = (f"balls reach a fixpoint at B_{stall - 1} with {stalled_size} "
                  f"elements out of {whole}; the supports do not "
                  f"pseudo-generate, so these elements cannot generate the "
                  f"augmentation ideal")
    else:
        verdict = "inconclusive"
        reason = (f"balls still growing at depth {depth} "
                  f"(sizes {sizes}); increase the depth")
    return {
        "op": "pseudo_generation_necessity",
        "X": [s.elem_to_json(x) for x in X],
        "depth": depth,
        "ball_sizes": sizes,
        "universal_at": bt.universal_at(),
        "stalled_at": stall,
        "covered": covered,
        "refuted": refuted,
        "verdict": verdict,
        "reason": reason,
        "ok": True,
    }


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def witness_prop45(s: Structure, gens, K: int) -> dict:
    """Truncated obstruction witness for a non-pseudo-finite monoid.

    With u_k the least new element of the k-th division ball,
        f = zeta_K delta_e - sum_(k<=K) (1/k^2) delta_(u_k),
    zeta_K = sum_(j<=K) 1/j^2, the ball sums are exactly
    sigma_k(f) = sum_(k<j<=K) 1/j^2, which in untruncated form stay above
    1/(k+1) at every k - incompatible with the summable ball sums any
    single-generator combination g*(delta_e - delta_x) must have.

    Every denominator in the report divides lcm(1..K)^2 and every number is
    at most (K + 2) lcm(1..K)^2, so a K whose numbers would pass the int->str
    digit limit is refused up front; lcm(1..K) >= 2^K for K >= 7 refuses a
    large K before the lcm is built.
    """
    if K < 1:
        raise InvalidInput("witness needs K >= 1")
    what = (f"--depth {K} is too large for the witness: its denominators "
            f"divide lcm(1..{K})^2")
    check_digits(2 * K * log10(2), what)
    check_digits(2 * log10(lcm(*range(1, K + 1))) + log10(K + 2), what)
    bt = division_balls(s, gens, K)
    points = []
    for k in range(1, K + 1):
        lev = bt.levels[k]
        if lev is UNIVERSE or not lev:
            found = pseudo_finite_within(s, gens, K)
            raise InvalidInput(
                "structure is pseudo-finite "
                f"({found['reason']}); every augmentation-zero element is a "
                "finite combination over the generators and no witness exists")
        points.append(lev[0])
    zeta = basel_partial(K)
    coeffs = {s.identity(): zeta}
    for k, u in enumerate(points, start=1):
        coeffs[u] = coeffs.get(u, 0) - Fraction(1, k * k)
    f = Element(s, coeffs)
    sigmas, _ = sigma_sequence(f, bt)
    sig = [v.re for v in sigmas]
    # sigma at level k must equal the zeta tail, exactly
    tail = zeta
    expect = [zeta]
    for k in range(1, K + 1):
        tail -= Fraction(1, k * k)
        expect.append(tail)
    if sig != expect:
        raise RuntimeError("ball sums disagree with the zeta tails")
    truncated_lb_ok = all(
        sig[k] >= Fraction(1, k + 1) - Fraction(1, K + 1) for k in range(1, K))
    # every sigma_k has a denominator dividing f.den: one reduction, not K
    partial_sum = Fraction(sum(q.numerator * (f.den // q.denominator)
                               for q in sig[1:]), f.den)
    hk = harmonic_number(K)
    if partial_sum != hk - zeta:
        raise RuntimeError("sigma partial sum disagrees with H_K - zeta_K")
    return {
        "op": "witness_prop45",
        "K": K,
        "levels": list(range(1, K + 1)),
        "points": [s.elem_to_json(u) for u in points],
        "zeta": zeta,
        "witness": f,
        "sigma": sig,
        "sigma_truncated_lower_bound_ok": truncated_lb_ok,
        "sigma_partial_sum": partial_sum,
        "harmonic_HK": hk,
        "untruncated_note": (
            "for the untruncated witness (zeta = pi^2/6) every ball sum "
            "sigma_(n_k) = sum_(j>k) 1/j^2 exceeds 1/(k+1), so the sums do "
            "not tend to 0 summably; any g*(delta_e - delta_x) has "
            "sum_n |sigma_n| <= 3 sum |g|, which the partial sums here "
            "(= H_K - zeta_K) outgrow as K increases"),
        "ok": True,
    }


def witness_nontp_element(s: Structure, gens, weight, alphas,
                          bits: int = DEFAULT_BITS) -> dict:
    """Truncated witness against single-generator decomposability.

    y_n is the least sphere point where the weight attains its sphere minimum
    tau_n; with non-negative alpha_1..alpha_N and zeta = sum alpha_n,
        f = zeta delta_e - sum alpha_n delta_(y_n)
    has ball sums sigma_n(f) = sum_(j>n) alpha_j, and the weighted total
    sum_n tau_n sigma_n(f) is compared against the ceiling (2+C)||g||_omega
    that any representation f = g*(delta_e - delta_x) imposes.  Prefix-scale
    evidence: the report states exact truncated quantities only.
    """
    alphas = [parse_rational(a) for a in alphas]
    if any(a < 0 for a in alphas):
        raise InvalidInput("witness weights alpha must be non-negative")
    e = s.identity()
    N = len(alphas)
    while N and alphas[N - 1] == 0:
        N -= 1
    alphas = alphas[:N]
    if N == 0:
        return {"op": "witness_nontp_element", "alphas": [], "points": [],
                "zeta": Fraction(0), "witness": Element.zero(s),
                "norm": Fraction(0), "weighted_sigma_sum": Fraction(0),
                "C": None, "ceiling_constant": None, "ceiling": Fraction(0),
                "implied_divisor_norm_lower_bound": Fraction(0),
                "exceeds_single_generator_ceiling": False, "ok": True}
    tc = tau_and_C(s, gens, weight, N, bits)
    taus, C = tc["taus"], tc["C"]
    if tc["method"] == "radial":
        # the least point of sphere n is x^n, x the first standard generator
        x = s.default_generators()[0]
        points = list(accumulate([x] * N, s.multiply))
    else:
        bt = division_balls(s, gens, N)
        points = [next((u for u in bt.sphere(n)
                        if weight.eval(s, u, bits) == taus[n - 1]), None)
                  for n in range(1, N + 1)]
    for n, y in enumerate(points, start=1):
        if y is None:
            raise RuntimeError(f"no sphere point attains tau_{n}")
        if weight.eval(s, y, bits) != taus[n - 1]:
            raise RuntimeError(f"selected point does not attain tau_{n}")
    zeta = sum(alphas, Fraction(0))
    coeffs = {e: zeta}
    for a, y in zip(alphas, points):
        if a:
            coeffs[y] = coeffs.get(y, 0) - a
    f = Element(s, coeffs)
    norm_f = zeta + sum((a * t for a, t in zip(alphas, taus)), Fraction(0))
    # sigma_n = sum_(j>n) alpha_j for 0 <= n < N, with tau_0 = 1
    sigmas = []
    tail = zeta
    for n in range(0, N):
        sigmas.append(tail)
        tail -= alphas[n]
    weighted = sigmas[0] + sum(
        (t * sg for t, sg in zip(taus, sigmas[1:])), Fraction(0))
    ceiling_constant = 2 + C
    ceiling = ceiling_constant * norm_f
    implied = weighted / ceiling_constant
    return {
        "op": "witness_nontp_element",
        "alphas": alphas,
        "points": [s.elem_to_json(y) for y in points],
        "zeta": zeta,
        "witness": f,
        "norm": norm_f,
        "taus": taus,
        "C": C,
        "sigma": sigmas,
        "weighted_sigma_sum": weighted,
        "ceiling_constant": ceiling_constant,
        "ceiling": ceiling,
        "implied_divisor_norm_lower_bound": implied,
        "exceeds_single_generator_ceiling": weighted > ceiling,
        "note": ("any f = g*(delta_e - delta_x) satisfies "
                 "sum_n tau_n |sigma_n(f)| <= (2+C) ||g||_omega, so the "
                 "weighted sum shown forces ||g||_omega >= the implied lower "
                 "bound; evidence at prefix scale, not a certificate"),
        "ok": True,
    }


def witness_thm75(rho, K: int, bits: int = DEFAULT_BITS) -> dict:
    """Bounded element with divergent divisor over the stepped-exponent
    weight on the half-line.

    f = sum_(k<=K) (1/(k omega_(n_k))) delta_(n_k+1) has
        ||f||_omega = sum_k (1/k) omega_(n_k+1)/omega_(n_k)
                   <= (rho+1) sum_k 1/k^2          (per-block certificates)
    while the forced divisor's lower-bound partial sums are exactly
    sum_(k<=K) (1/(k omega_(n_k))) omega_(n_k) = H_K - the weight factors
    cancel, so the divergence scale is the harmonic series.

    The norm enclosure's ends, each a pair (N, E) for N / (E 2**bits), stay
    exact until either's reduced denominator outgrows `bits`; then both are
    rounded outward to dyadics (E = 1), so they stay small.
    """
    rho = parse_rational(rho)
    if K < 1:
        raise InvalidInput("witness needs K >= 1")
    weight, brep = build_lemma74(rho, K, bits)
    markers = brep["markers"]
    p, q = rho.numerator, rho.denominator
    ends = [(0, 1), (0, 1)]
    sites = []
    alpha_symbolic = []
    for k in range(1, K + 1):
        _, lo, hi, d = weight.step_ratio_ints(k)
        d *= k  # the ratio / k lies in [lo, hi] / (d 2**bits)
        sums = [(n * d + x * e, e * d) for (n, e), x in zip(ends, (lo, hi))]
        if any(((e << bits) // gcd(n, e << bits)).bit_length() > bits for n, e in sums):
            (n_lo, e_lo), (n_hi, e_hi) = sums
            ends = [(n_lo // e_lo, 1), (-(-n_hi // e_hi), 1)]
        else:
            ends = [(n // g, e // g) for n, e in sums for g in (gcd(n, e),)]
        nk = markers[k - 1]
        sites.append(nk + 1)
        alpha_symbolic.append({
            "k": k, "site": nk + 1, "inv_scale": k,
            "omega_base": Fraction(p * k + q, q * k), "omega_exponent": nk})
    norm_enc = Enclosure(*(Fraction(n, e << bits) for n, e in ends))
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
