"""Submultiplicative weights (omega >= 1, omega(uv) <= omega(u) omega(v)).

Families:

  trivial       omega = 1
  radial_poly   omega(u) = (1+|u|)^alpha, alpha >= 0 rational
  radial_exp    omega(u) = c^(|u|^beta), c >= 1, 0 < beta <= 1 rational
  lemma74       stepped-exponent weight omega_n = (rho+eps(n))^n on the
                one-letter free monoid (grading n = |u|), eps a positive
                non-increasing staircase; built block-by-block so that the
                norm of delta_(n_k+1) divided by omega_(n_k) stays summable
  lemma76       two-sided weight on Z: omega_n = rho^n gamma_n for n >= 0
                with gamma_n = (rho+1)^(e_n) for a recursively self-similar
                integer table e, omega_(-n) = C^n omega_n
                where C = max_n omega_n/omega_(n+1)
  explicit      finite value table keyed by the element's canonical string

Radial means the value depends only on the word length w.r.t. the family's
standard generating set.  Evaluations are exact Fractions whenever the
mathematics permits, certified enclosures otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from .certify import (DEFAULT_BITS, EXACT_POW_CAP, L74_EXACT_BITS, REQUIRED, Enclosure,
                      _digit_limit, as_enclosure, check_digits, escalate, format_rational,
                      nth_root, pow_mantissas, rat_pow, ratio_pow_less, read_as, read_family)
from .structures import (FreeStructure, InvalidInput, ResourceLimit, Structure,
                         UNIVERSE, division_balls, is_graded)


class Weight:
    family = "?"
    is_radial = False

    def eval(self, s: Structure, u, bits: int = DEFAULT_BITS):
        raise NotImplementedError

    def radial_value(self, n: int, bits: int = DEFAULT_BITS):
        raise InvalidInput(f"{self.family}: not a radial weight")

    def sphere_values(self, s: Structure, points, bits: int = DEFAULT_BITS):
        """The values omega takes on `points`, a list in elem_key order (a
        BallTable level), each at least once."""
        return [self.eval(s, u, bits) for u in points]

    def check_domain(self, s: Structure):
        """Raise InvalidInput unless the weight is defined on s; the
        constructed weights live on one structure each."""


class WordLengthWeight(Weight):
    """A radial weight read off the standard word length,
    omega(u) = radial_value(|u|)."""

    is_radial = True

    def check_domain(self, s):
        s.word_length(s.identity())  # InvalidInput where s has no word length

    def eval(self, s, u, bits=DEFAULT_BITS):
        return self.radial_value(s.word_length(u), bits)

    def sphere_values(self, s, points, bits=DEFAULT_BITS):
        # one value per distinct length, met in the order eval would meet
        # them, so a length that cannot be evaluated raises the same error
        return [self.radial_value(n, bits) for n in s.sphere_lengths(points)]


class TrivialWeight(Weight):
    family = "trivial"
    is_radial = True

    def eval(self, s, u, bits=DEFAULT_BITS):
        return Fraction(1)

    def radial_value(self, n, bits=DEFAULT_BITS):
        return Fraction(1)


class RadialPolyWeight(WordLengthWeight):
    """(1 + |u|)^alpha."""

    family = "radial_poly"

    def __init__(self, alpha):
        self.alpha = Fraction(alpha)
        if self.alpha < 0:
            raise InvalidInput("radial_poly needs alpha >= 0")
        if self.alpha.numerator > EXACT_POW_CAP:
            raise ResourceLimit(f"radial_poly alpha has a numerator over {EXACT_POW_CAP}: "
                                "its values are too large to materialize")

    def radial_value(self, n, bits=DEFAULT_BITS):
        p, q = self.alpha.numerator, self.alpha.denominator
        base = 1 + n
        if q == 1:
            return Fraction(base) ** p
        return nth_root(Fraction(base) ** p, q, bits)


class RadialExpWeight(WordLengthWeight):
    """c^(|u|^beta) with c >= 1 and 0 < beta <= 1 (so the exponent is
    subadditive and the weight submultiplicative); its values share one
    rat_pow chain of roots of c per precision, which lives with the weight."""

    family = "radial_exp"

    def __init__(self, c, beta=1):
        self.c = Fraction(c)
        self.beta = Fraction(beta)
        self.chains = {}  # bits -> rat_pow's chain of roots of c
        if self.c < 1:
            raise InvalidInput("radial_exp needs c >= 1")
        if not (0 < self.beta <= 1):
            raise InvalidInput("radial_exp needs 0 < beta <= 1")

    def radial_value(self, n, bits=DEFAULT_BITS):
        if n == 0:
            return Fraction(1)
        p, q = self.beta.numerator, self.beta.denominator
        if q == 1:  # beta == 1
            if n > EXACT_POW_CAP:
                raise ResourceLimit(f"radial_exp value at n={n} is too large to materialize")
            return self.c ** n
        t = nth_root(Fraction(n) ** p, q, bits)
        if t.hi > EXACT_POW_CAP:
            raise ResourceLimit(f"radial_exp value at n={n} is too large to materialize")
        if t.is_exact and t.lo.denominator == 1:
            return self.c ** t.lo.numerator
        return rat_pow(self.c, t, bits, self.chains.setdefault(bits, []))


class ExplicitWeight(Weight):
    """Finite table elem_str -> value; evaluation outside the table fails."""

    family = "explicit"

    def __init__(self, values: dict):
        self.values = {str(k): read_as(v, Fraction, "weight", ("params", "values", k))
                       for k, v in values.items()}
        for k, v in self.values.items():
            if v <= 0:
                raise InvalidInput(f"explicit weight value at {k!r} must be positive")

    def check_domain(self, s):
        for key in self.values:
            try:
                s.parse_str(key)
            except InvalidInput as exc:
                raise InvalidInput(f"explicit weight key {exc}") from None

    def eval(self, s, u, bits=DEFAULT_BITS):
        key = s.elem_str(u)
        if key not in self.values:
            raise InvalidInput(f"explicit weight has no value for element {key!r}")
        return self.values[key]


class Lemma74Weight(WordLengthWeight):
    """omega_n = (rho + eps(n))^n on the one-letter free monoid.

    eps(n) = eps_k for n_k < n <= n_(k+1) (eps_0 up to n_1, eps_K beyond n_K).
    Values for large n are astronomically big; radial_value materializes them
    only up to EXACT_POW_CAP and callers needing large-index information use
    the ratio helpers instead.
    """

    family = "lemma74"

    def __init__(self, rho, blocks, markers, eps, pows, bits):
        self.rho = Fraction(rho)
        self.blocks = blocks
        self.markers = list(markers)   # n_1 < n_2 < ... < n_K
        self.eps = list(eps)  # eps_0 .. eps_K, Fractions
        self.pows, self.bits = pows, bits
        if len(self.markers) != blocks or len(self.eps) != blocks + 1:
            raise InvalidInput("lemma74 weight: inconsistent block data")

    def check_domain(self, s):
        if not (isinstance(s, FreeStructure) and s.rank == 1 and not s.inverses):
            raise InvalidInput("lemma74 weight lives on the one-letter free "
                               f"monoid, not on this {s.family} structure")

    def eps_at(self, n: int) -> Fraction:
        if n < 0:
            raise InvalidInput("lemma74 weight is graded by n >= 0")
        return self.eps[bisect_left(self.markers, n)]

    def base_at(self, n: int) -> Fraction:
        return self.rho + self.eps_at(n)

    def radial_value(self, n, bits=DEFAULT_BITS):
        if n > EXACT_POW_CAP:
            raise ResourceLimit(
                f"lemma74 weight value at n={n} is too large to materialize; "
                "use the ratio certificates instead")
        return self.base_at(n) ** n

    def step_ratio_ints(self, k: int):
        """(exact, lo, hi, d) with lo <= 2**bits d omega_(n_k+1)/omega_(n_k)
        <= hi, for the bases A = (pk+q)/(qk) on the block ending at n_k and
        B = A_(k+1) from n_k + 1 on, rho = p/q.  Exact, with lo == hi, while
        B^(n_k+1) and A^(n_k) are small; else lo and hi are the power
        (B/A)^(n_k) the build kept in pows[k-1] at its `bits`, times B."""
        p, q, nk = self.rho.numerator, self.rho.denominator, self.markers[k - 1]
        a, b = p * k + q, p * (k + 1) + q
        if _l74_exact(a // math.gcd(a, q * k), b // math.gcd(b, q * (k + 1)), nk + 1):
            num = b ** (nk + 1) * (q * k) ** nk << self.bits
            return True, num, num, (q * (k + 1)) ** (nk + 1) * a ** nk
        lo, hi = self.pows[k - 1]
        return False, lo * b, hi * b, q * (k + 1)


class Lemma76Weight(Weight):
    """Two-sided weight on Z built from the self-similar exponent table:
    gamma_n = (rho+1)^(e_n) for 0 <= n <= N."""

    family = "lemma76"

    def __init__(self, rho, N, exponents, C):
        self.rho = Fraction(rho)
        self.N = N
        self.exponents = list(exponents)  # e_0 .. e_N
        powers = {x: (self.rho + 1) ** x for x in set(self.exponents)}
        self.gamma = [powers[x] for x in self.exponents]
        self.C = Fraction(C)

    def check_domain(self, s):
        if s.family != "Z":
            raise InvalidInput(f"lemma76 weight lives on Z, not on {s.family}")

    def omega_pos(self, n: int) -> Fraction:
        return self.rho ** n * self.gamma[n]

    def eval(self, s, u, bits=DEFAULT_BITS):
        if not isinstance(u, int):
            raise InvalidInput("lemma76 weight lives on Z")
        n = abs(u)
        if n > self.N:
            raise InvalidInput(f"lemma76 weight table only reaches |n| <= {self.N}")
        w = self.omega_pos(n)
        return w if u >= 0 else self.C ** n * w


WEIGHTS = {
    "trivial": (TrivialWeight, {}),
    "radial_poly": (RadialPolyWeight, {"alpha": (Fraction, 0)}),
    "radial_exp": (RadialExpWeight, {"c": (Fraction, 1), "beta": (Fraction, 1)}),
    "explicit": (ExplicitWeight, {"values": (dict, REQUIRED)}),
    "lemma74": (lambda rho, blocks: build_lemma74(rho, blocks)[0],
                {"rho": (Fraction, REQUIRED), "blocks": (int, REQUIRED)}),
    "lemma76": (lambda rho, N: build_lemma76(rho, N)[0],
                {"rho": (Fraction, REQUIRED), "N": (int, REQUIRED)}),
}


def weight_from_spec(spec: dict) -> Weight:
    return read_family(spec, WEIGHTS, "weight")[0]


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

def _fail(report: dict, **kw):
    """Record a failed axiom: the report turns not ok and keeps the first ten
    failures."""
    report["ok"] = False
    if len(report["failures"]) < 10:
        report["failures"].append(kw)


def verify_weight_axioms(s: Structure, gens, weight: Weight, radius: int,
                         bits: int = DEFAULT_BITS) -> dict:
    """Check omega(e) = 1, omega >= 1, omega(uv) <= omega(u) omega(v).

    Enumerates pairs from B_radius for explicit weights; uses exact
    length-pair checks for radial weights (the value depends only on |u|,
    and |uv| <= |u| + |v|); and uses the recorded structural certificates
    for the lemma74/lemma76 constructions, whose interesting indices are far
    beyond anything enumerable.
    """
    if radius < 0:
        raise InvalidInput(f"radius must be >= 0, got {radius}")
    report = {"ok": True, "method": None, "radius": radius,
              "pairs_checked": 0, "failures": [], "notes": []}
    if isinstance(weight, TrivialWeight):
        report["method"] = "structural"
        report["notes"].append("constant weight 1: all axioms are identities")
        return report

    if isinstance(weight, Lemma74Weight):
        report["method"] = "structural"
        eps = weight.eps
        if any(e <= 0 for e in eps):
            _fail(report, axiom="omega>=1", detail="eps staircase not positive")
        if any(eps[i + 1] > eps[i] for i in range(len(eps) - 1)):
            _fail(report, axiom="submultiplicative", detail="eps staircase increases")
        if weight.rho < 1:
            _fail(report, axiom="omega>=1", detail="rho < 1")
        report["notes"].append(
            "omega_(m+n) = (rho+eps(m+n))^m (rho+eps(m+n))^n <= "
            "(rho+eps(m))^m (rho+eps(n))^n since eps is non-increasing; "
            "omega_n >= rho^n >= 1; omega_0 = 1; valid for ALL m, n")
        report["pairs_checked"] = len(eps) - 1
        return report

    if isinstance(weight, Lemma76Weight):
        return _verify_lemma76_axioms(weight, radius, report)

    if weight.is_radial:
        # value = F(|u|); |uv| <= |u|+|v| and F is checked submultiplicative
        # on the integer lengths, which covers every pair from B_radius.
        report["method"] = "radial-lengths"
        if as_enclosure(w0 := weight.radial_value(0, bits)) != Enclosure.exact(1):
            _fail(report, axiom="omega(e)=1", value=w0)
        for n in range(0, radius + 1):
            if as_enclosure(weight.radial_value(n, bits)).lo < 1:
                _fail(report, axiom="omega>=1", n=n)
                break
        pairs, roots = 0, {}  # (k, bits) -> k**beta, shared by the pairs
        for m in range(1, radius // 2 + 1):
            for n in range(m, radius - m + 1):  # m <= n, m + n <= radius
                pairs += 1
                if not _radial_submult_pair(weight, m, n, bits, roots):
                    _fail(report, axiom="submultiplicative", m=m, n=n)
        report["pairs_checked"] = pairs
        return report

    # explicit table: enumerate
    report["method"] = "enumeration"
    ball = division_balls(s, gens, radius).ball(radius)
    if ball is UNIVERSE:
        raise ResourceLimit("cannot enumerate pairs from a universal ball")
    elems = sorted(ball, key=s.elem_key)
    we = weight.eval(s, s.identity(), bits)
    if we != 1:
        _fail(report, axiom="omega(e)=1", value=we)
    vals = {}
    for u in elems:
        try:
            vals[u] = weight.eval(s, u, bits)
        except InvalidInput:
            report["notes"].append(f"no value for {s.elem_str(u)}; skipped")
    for u, wu in vals.items():
        if wu < 1:
            _fail(report, axiom="omega>=1", elem=s.elem_str(u))
    pairs = 0
    for u, wu in vals.items():
        for v, wv in vals.items():
            w = s.multiply(u, v)
            if w not in vals:
                continue
            pairs += 1
            if vals[w] > wu * wv:
                _fail(report, axiom="submultiplicative", u=s.elem_str(u),
                      v=s.elem_str(v), lhs=vals[w], rhs=wu * wv)
    report["pairs_checked"] = pairs
    return report


def _radial_submult_pair(weight, m, n, bits, roots=None) -> bool:
    """Certified F(m+n) <= F(m) F(n) for a radial_poly or radial_exp weight
    (verify_weight_axioms settles the other radial families before), with
    the enclosures of k**beta kept in `roots` by (k, bits)."""
    if isinstance(weight, RadialPolyWeight):
        # (1+m+n)^alpha <= ((1+m)(1+n))^alpha <=> 1+m+n <= (1+m)(1+n): exact
        return 1 + m + n <= (1 + m) * (1 + n)
    p, q = weight.beta.numerator, weight.beta.denominator
    if q == 1:
        return True  # exponent additive

    roots = {} if roots is None else roots

    def probe(b):  # (m+n)^beta <= m^beta + n^beta, certified at b bits
        for k in (m, n, m + n):
            if (k, b) not in roots:
                roots[k, b] = nth_root(Fraction(k) ** p, q, b)
        tm, tn, ts = (roots[k, b] for k in (m, n, m + n))
        return True if ts.hi <= tm.lo + tn.lo else False if ts.lo > tm.hi + tn.hi else None
    return escalate(probe, bits, f"radial_exp submultiplicativity at ({m},{n})")


def _exponent_submult_failures(e, N: int):
    """The pairs (i, j), 1 <= i <= j, i + j <= N, with e_(i+j) > e_i + e_j,
    in order.  e_0..e_N are packed into one integer, lane k of W bits
    holding e_k + M (M = max |e_k|, 2^(W-1) > 3M + 1); for each i, shifts, a
    mask and one subtraction give the lanes 2^(W-1) + e_(i+j) - e_j - e_i - 1
    (j = i..N-i), which stay in [0, 2^W), so none borrows from the next, and
    have the top bit set exactly when e_(i+j) > e_i + e_j.  The failing j
    are listed only for an i whose lanes have a top bit set."""
    M = max(map(abs, e[:N + 1]))
    nbytes = ((3 * M + 1).bit_length() + 8) // 8
    W, B = 8 * nbytes, 1 << (8 * nbytes - 1)
    packed = int.from_bytes(b"".join((x + M).to_bytes(nbytes, "little")
                                     for x in e[:N + 1]), "little")
    ones = int.from_bytes((b"\x01" + bytes(nbytes - 1)) * (N + 1), "little")
    for i in range(1, N // 2 + 1):
        rep = ones >> (2 * i * W)  # one 1 per lane j = i..N-i
        lanes = ((packed >> (2 * i * W)) + rep * (B - 1 - e[i])
                 - ((packed >> (i * W)) & ((1 << ((N + 1 - 2 * i) * W)) - 1)))
        if lanes & (rep << (W - 1)):
            yield from ((i, j) for j in range(i, N + 1 - i)
                        if e[i + j] > e[i] + e[j])


def _verify_lemma76_axioms(weight: Lemma76Weight, radius: int, report: dict) -> dict:
    """Exponent-table checks plus the ratio-chain argument for mixed signs;
    rho + 1 > 1, so each gamma comparison is one of exponents."""
    report["method"] = "table+structural"
    N = min(radius, weight.N)
    e = weight.exponents
    if e[0] != 0:
        _fail(report, axiom="omega(e)=1", value=weight.gamma[0])
    for i in range(0, N + 1):
        if e[i] < 0:
            _fail(report, axiom="gamma>=1", n=i)
            break
    for i, j in _exponent_submult_failures(e, N):
        _fail(report, axiom="gamma-submultiplicative", i=i, j=j)
    # omega_n/omega_(n+1) <= C by construction; record the premise for the
    # mixed-sign chain omega_(m-n) <= C^n omega_m <= omega_m omega_(-n).
    # omega_n <= C omega_(n+1) iff (rho+1)^(e_n - e_(n+1)) <= C rho, decided
    # once per distinct drop e_n - e_(n+1).
    drops = [e[n] - e[n + 1] for n in range(N)]
    holds = {d: (weight.rho + 1) ** d <= weight.C * weight.rho for d in set(drops)}
    bad = next((n for n, d in enumerate(drops) if not holds[d]), None)
    if bad is not None:
        _fail(report, axiom="ratio-premise", n=bad)
    if weight.C < 1:
        _fail(report, axiom="omega>=1 (negative side)", detail="C < 1")
    report["pairs_checked"] = sum(max(0, N + 1 - 2 * i) for i in range(1, N + 1))
    report["notes"].append(
        "positive side: omega_(i+j) <= omega_i omega_j iff gamma_(i+j) <= "
        "gamma_i gamma_j (rho^n cancels); negative and mixed signs follow "
        "from the chain omega_j <= C omega_(j+1) and omega >= 1")
    return report


# ---------------------------------------------------------------------------
# sphere minima and generator maximum
# ---------------------------------------------------------------------------

def tau_and_C(s: Structure, gens, weight: Weight, N: int,
              bits: int = DEFAULT_BITS) -> dict:
    """tau_n = min over the sphere S_n of omega, for n = 1..N, plus
    C = max over the generators of omega.  Exact Fractions required (use
    integer alpha / beta = 1 radial weights, or table weights).  The first
    tau_n with a numerator or denominator of more digits than the int->str
    limit, which no report could print, stops the loop with ResourceLimit."""
    if N < 0:
        raise InvalidInput(f"depth N must be >= 0, got {N}")
    limit = _digit_limit()
    radial_fast = weight.is_radial and is_graded(s, gens)
    bt = None if radial_fast else division_balls(s, gens, N)
    taus = []
    sphere_sizes = []
    for n in range(1, N + 1):
        if radial_fast:
            vals = [weight.radial_value(n, bits)]
            sphere_sizes.append(s.ball_size(n) - s.ball_size(n - 1))
        else:
            lev = bt.levels[n]
            if lev is UNIVERSE:
                raise ResourceLimit("sphere minima over a universal sphere")
            if not lev:
                raise InvalidInput(
                    f"sphere S_{n} is empty; tau is undefined past the "
                    f"stabilization depth (ball sizes {bt.sizes()})")
            vals = weight.sphere_values(s, lev, bits)
            sphere_sizes.append(len(lev))
        if any(isinstance(v, Enclosure) for v in vals):
            raise InvalidInput(
                "tau_and_C needs exact weight values (integer alpha or beta=1)")
        taus.append(tau := min(vals))
        big = max(abs(tau.numerator), tau.denominator)  # prints iff big < 10**limit
        if big.bit_length() > 3.3219 * limit and big >= 10 ** limit:  # 2**3.3219 < 10
            raise ResourceLimit(f"--depth {N} reaches tau_{n}, a number past the "
                                f"{limit}-digit int->str limit; nothing was written")
    cvals = [weight.eval(s, x, bits) for x in gens]
    if any(isinstance(v, Enclosure) for v in cvals):
        raise InvalidInput("tau_and_C needs exact weight values on the generators")
    return {"taus": taus, "C": max(cvals), "sphere_sizes": sphere_sizes,
            "N": N, "method": "radial" if radial_fast else "enumeration"}


def tau_step_check(taus, C) -> dict:
    """tau_n <= C tau_(n+1) for all n (the sphere-minima Lipschitz bound)."""
    bad = [n + 1 for n in range(len(taus) - 1) if taus[n] > C * taus[n + 1]]
    return {"ok": not bad, "violations": bad, "C": C, "N": len(taus)}


def estimate_radii(s: Structure, weight: Weight, N: int,
                   bits: int = DEFAULT_BITS) -> dict:
    """Running root estimates for the convergence annulus at horizon N.

    rho2_hat = min_{1<=n<=N} omega(n)^(1/n)  (outer radius estimate);
    for two-sided weights on Z also rho1_hat = max_n omega(-n)^(-1/n).
    Both are certified enclosures of the finite-horizon min/max.  A weight
    that is not radial is read at the integers, so only on Z.
    """
    if N < 1:
        raise InvalidInput("estimate_radii needs N >= 1")
    if not weight.is_radial and s.family != "Z":
        raise InvalidInput(f"{weight.family} weight is not radial: its radii "
                           f"are estimated on Z only, not on {s.family}")
    pos = []
    for n in range(1, N + 1):
        if weight.is_radial:
            v = weight.radial_value(n, bits)
        else:
            v = weight.eval(s, n, bits)
        pos.append(nth_root(v, n, bits))
    rho2 = Enclosure(min(e.lo for e in pos), min(e.hi for e in pos))
    out = {"N": N, "rho2_hat": rho2, "per_n_pos": pos}
    if s.family == "Z":
        neg = []
        for n, r in enumerate(pos, start=1):
            if not weight.is_radial:  # else omega(-n) = omega(n): r is its root
                try:
                    v = weight.eval(s, -n, bits)
                except InvalidInput:
                    break
                r = nth_root(v, n, bits)
            neg.append(Enclosure(1 / r.hi, 1 / r.lo))
        if len(neg) == N:
            out["rho1_hat"] = Enclosure(max(e.lo for e in neg), max(e.hi for e in neg))
            out["per_n_neg"] = neg
    return out


# ---------------------------------------------------------------------------
# Stepped-exponent weight builder: summable step ratios by construction
# ---------------------------------------------------------------------------

def _l74_exact(a: int, b: int, n: int) -> bool:
    """Whether lemma 7.4 handles A^n and B^n exactly, for the reduced
    numerators a of A and b of B: only while they are small, as their
    product or gcd is the whole runtime once n reaches ~1e4."""
    return n * (a.bit_length() + b.bit_length()) <= L74_EXACT_BITS


def _lemma74_predicate(r: tuple, n: int, bits: int, seen: dict) -> bool:
    """Certified  A^n > n B^n,  i.e.  x^n < 1/n for x = B/A = r[0]/r[1]:
    `ratio_pow_less` with a first probe at `bits`, derived from seen[n+1]
    by one multiplication by A/B rounded outward, else fresh mantissas of
    x^n, which go to seen[n]: seen holds only fresh mantissas."""
    up = seen.get(n + 1)
    if up is None:
        seen[n] = m = pow_mantissas(r, n, bits)
    else:
        m = up[0] * r[1] // r[0], -(-up[1] * r[1] // r[0])
    return ratio_pow_less(r, n, (1, n), True, bits, m)


def _lemma74_marker(r: tuple, lo: int, bits: int):
    """Least n > lo with A^n > n B^n for the pair r = B/A (8/9 <= B/A < 1),
    certified by its bracket, and fresh mantissas of (B/A)^n at `bits`.

    n log(A/B) - log n is convex, positive at n = 1 and negative at n = 2, so
    past n = 1 the predicate turns true once, at the larger real root: "true
    at n, false at n-1 (or n-1 == lo)" means "least n".  Newton guesses the
    root in floats on the rate log1p((A-B)/B) (two logs near log(rho) would
    cancel); only the certified predicate decides, and a wrong guess costs
    O(log error) calls: the stride doubles away from it, then halves.  The
    guess is mostly the marker, and the probe at n-1 derived from n's.
    """
    seen = {}
    lr = math.log1p((r[1] - r[0]) / r[0])
    if lr < 1e-300:  # the root, about log(1/lr)/lr, overflows a float
        raise ResourceLimit("lemma74 block search diverged")
    x = 2 / lr * math.log(2 / lr)  # above the root, where Newton is monotone
    for _ in range(8):  # 5 steps reach a relative error of 1e-12 at any float rate
        x -= (x * lr - math.log(x)) / (lr - 1 / x)
    n = max(lo + 1, math.floor(x) + 1)
    false_at, true_at, stride = lo, None, 1
    while true_at is None or true_at - false_at > 1:
        if _lemma74_predicate(r, n, bits, seen):
            true_at = n
        else:
            false_at = n
        if true_at is None:  # gallop up from the guess
            if stride > (1 << 40):
                raise ResourceLimit("lemma74 block search diverged")
            n = false_at + stride
        elif false_at == lo and true_at - stride > lo:  # gallop down from it
            n = true_at - stride
        else:  # halve the certified bracket
            n = (false_at + true_at) // 2
        stride *= 2
    return true_at, seen.get(true_at) or pow_mantissas(r, true_at, bits)


def build_lemma74(rho, K: int, bits: int = DEFAULT_BITS):
    """Construct the stepped-exponent weight with K blocks.

    eps_0 = 1, eps_k = 1/(k+1); n_1 = 1 and for k >= 2, n_k is the least
    integer above n_(k-1) with  (rho+eps_(k-1))^n > n (rho+eps_k)^n.  Each
    block then satisfies the step-ratio bound
        omega_(n_k+1)/omega_(n_k) <= (rho+1)/k,
    which is certified per block: exactly while the numbers materialize, else
    by `ratio_pow_less` from the fresh mantissas of (B/A)^(n_k) that the
    marker search returns, which `step_ratio_ints` reuses.  All on integer pairs:
    with rho = p/q, block k has A = (pk+q)/(qk), B = A_(k+1), the ratio
    B/A = (p(k+1)+q)k / ((pk+q)(k+1)) and the step bound
    (rho+1)/(kB) = (p+q)(k+1) / (k(p(k+1)+q)); the marker search derives its
    probe at n-1 from its fresh one at n (see `_lemma74_predicate`).

    Returns (Lemma74Weight, report).
    """
    rho = Fraction(rho)
    if rho <= 1:
        raise InvalidInput("build_lemma74 needs rho > 1")
    if K < 1:
        raise InvalidInput("build_lemma74 needs K >= 1")
    eps = [Fraction(1)] + [Fraction(1, k + 1) for k in range(1, K + 1)]
    # n_1 = 1: the defining inequality at n = 1 is (rho+1)^1 > 1*(rho+1/2)^1, exact.
    assert rho + eps[0] > 1 * (rho + eps[1])
    p, q = rho.numerator, rho.denominator
    markers, pows, step_bounds = [], [], []
    b_red = p + q  # the reduced numerator of B, here of A_1 = (p+q)/q
    for k in range(1, K + 1):
        a, b = p * k + q, p * (k + 1) + q
        r = (b * k, a * (k + 1))  # B/A
        a_red, b_red = b_red, b // math.gcd(b, q * (k + 1))
        nk, m = (_lemma74_marker(r, markers[-1], bits) if k > 1
                 else (1, pow_mantissas(r, 1, bits)))
        # step-ratio certificate:  k omega_(n_k+1) <= (rho+1) omega_(n_k)
        c = ((p + q) * (k + 1), k * b)  # <=>  (B/A)^nk <= (rho+1)/(k B) = c
        if _l74_exact(a_red, b_red, nk):
            ok = r[0] ** nk * c[1] <= c[0] * r[1] ** nk
            method = "exact"
        else:
            ok = ratio_pow_less(r, nk, c, False, bits, m)
            method = "certified-dyadic"
        markers.append(nk)
        pows.append(m)
        step_bounds.append({"k": k, "n_k": nk, "ok": ok, "method": method})
    weight = Lemma74Weight(rho, K, markers, eps, pows, bits)
    report = {
        "rho": rho,
        "blocks": K,
        "markers": markers,
        "eps": eps,
        "eps_monotone": all(b.numerator * a.denominator <= a.numerator * b.denominator
                            for a, b in zip(eps, eps[1:])),
        "eps_below_1_over_k": all(e.numerator * k < e.denominator
                                  for k, e in enumerate(eps[1:], start=1)),
        "step_bounds": step_bounds,
        "step_bounds_all_ok": all(c["ok"] for c in step_bounds),
        "top_index": markers[-1] + 1,
    }
    return weight, report


# ---------------------------------------------------------------------------
# Self-similar weight builder: gamma table on Z with a mirrored negative side
# ---------------------------------------------------------------------------

def build_lemma76(rho, N: int):
    """gamma_j = (rho+1)^(e_j) with e_0 = 0, e_1 = 1, e_2 = 2 and
    e_j = 1 + e_(j - n_k) for n_k <= j < n_(k+1), n_k = 2^k - 1: e_j is the
    digit sum of j in canonical skew binary.

    omega_n = rho^n gamma_n for 0 <= n <= N; omega_(-n) = C^n omega_n with
    C = max_{0<=n<N} omega_n/omega_(n+1) = (rho+1)^(max_n (e_n - e_(n+1))) / rho.

    Verifies exactly, for the whole table; rho + 1 > 1, so the first three
    are comparisons of exponents:
      (star)    gamma_(n_k - i) = (rho+1)^(i+1) for 0 <= i <= k-1, k >= 2
      (dagger)  gamma_j <= (rho+1) gamma_(j+1)
      submult   gamma_(i+j) <= gamma_i gamma_j  for all i + j <= N
      ratio     omega_(n_k) / sum_(j=1..n_k-1) omega_j <= (rho/(rho+1))^(k-1), k >= 2
                (omega_0 = 1 is left out of the sum)

    An N whose largest ratio would pass the int->str digit limit is refused
    up front.  For rho = p/q, j + e_j never decreases (dagger) and is
    n_k + 1 at j = n_k - 1 (star), so the ratio at n_k is p^(n_k) (p+q) / D
    with an integer D <= n_k p^(n_k+1) 2^(max e), and max e <= bit_length(N+1).

    Returns (Lemma76Weight, report).
    """
    rho = Fraction(rho)
    if rho <= 1:
        raise InvalidInput("build_lemma76 needs rho > 1")
    if N < 1:
        raise InvalidInput("build_lemma76 needs N >= 1")
    r1 = rho + 1
    markers = [(1 << k) - 1 for k in range(1, (N + 1).bit_length())]
    top = markers[-1]
    check_digits((top + 1) * math.log10(rho.numerator)
                 + (N + 1).bit_length() * math.log10(2) + math.log10(top),
                 f"lemma76 N = {N} is too large for rho = {format_rational(rho)}: "
                 f"its ratio check at n_k = {top} reaches rho^{top}")
    e = [0]
    for j in range(1, N + 1):
        nk = (1 << ((j + 1).bit_length() - 1)) - 1  # the largest n_k <= j
        e.append(1 + e[j - nk])

    star_fail = next(({"k": k, "i": i}
                      for k, nk in enumerate(markers[1:], start=2)
                      for i in range(k) if e[nk - i] != i + 1), None)
    dagger_bad = [j for j in range(0, N) if e[j] > 1 + e[j + 1]]
    sub_bad = next(_exponent_submult_failures(e, N), None)
    C = r1 ** max(e[n] - e[n + 1] for n in range(N)) / rho
    weight = Lemma76Weight(rho, N, e, C)

    ratios = []
    total, rho_n = Fraction(0), Fraction(1)  # sum_(1<=j<n) omega_j, rho^n
    for n in range(1, top + 1):
        rho_n *= rho
        omega = rho_n * weight.gamma[n]
        if n > 1 and not n & (n + 1):  # n = n_k = 2^k - 1 with k >= 2
            k = n.bit_length()
            val = omega / total
            bound = (rho / r1) ** (k - 1)
            ratios.append({"k": k, "n_k": n, "ratio": val, "bound": bound,
                           "ok": val <= bound})
        total += omega
    report = {
        "rho": rho,
        "N": N,
        "markers": markers,
        "star_ok": star_fail is None,
        "star_failure": star_fail,
        "dagger_ok": not dagger_bad,
        "dagger_violations": dagger_bad[:5],
        "submult_ok": sub_bad is None,
        "submult_failure": sub_bad,
        "ratio_checks": ratios,
        "ratio_all_ok": all(r["ok"] for r in ratios),
        "C": C,
    }
    return weight, report
