"""Independent checks of `waug` reports.

Every check recomputes what it tests with the benchmark's own small
arithmetic: its own multiplication for Z, Z^d, free words, tables and the
adjoined zero theta, its own Fraction convolution, closed forms for ball
sizes, integer square-root brackets for complex moduli and `decimal`
logarithms for the lemma-7.4 markers.  Nothing is compared with a stored
copy of an earlier report and nothing here imports `waug`.

`verdict(cmd, rc, err, path)` returns None for a correct command and the
reason otherwise.  A check also decides the exit code the command must
return (1 where the program rightly reports a failed property or an empty
search).
"""

from __future__ import annotations

import csv
import decimal
import io
import json
import random
from fractions import Fraction
from math import comb, isqrt

KNOWN_FAULT = "known fault"
THETA = "theta"
UNIVERSAL = "all"


class CheckFailed(Exception):
    pass


def need(cond, message):
    if not cond:
        raise CheckFailed(message)


def verdict(cmd, rc, err, path):
    kind, params = cmd["check"]
    if err is not None:
        return KNOWN_FAULT if err == cmd.get("fault") else f"raised {err}"
    try:
        with open(path) as fh:
            text = fh.read()
        want_rc = CHECKS[kind](params, text)
    except CheckFailed as exc:
        return f"check {kind}: {exc}"
    except Exception as exc:  # a malformed report fails its command, not the run
        return f"check {kind}: unreadable report ({exc!r})"
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    return None


# ---------------------------------------------------------------------------
# report and input parsing
# ---------------------------------------------------------------------------

def rat(text) -> Fraction:
    return Fraction(text)


def result_of(text: str) -> dict:
    return json.loads(text)["result"]


def csv_rows(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def key(obj):
    """Report or input element -> hashable element."""
    return tuple(obj) if isinstance(obj, list) else obj


def element(obj) -> dict:
    """{"terms": [...]} -> {elem: (re, im)} without zero terms."""
    out = {}
    for t in obj["terms"]:
        re, im = rat(t.get("re", 0)), rat(t.get("im", 0))
        u = key(t["elem"])
        pre, pim = out.get(u, (Fraction(0), Fraction(0)))
        out[u] = (pre + re, pim + im)
    return {u: c for u, c in out.items() if c != (0, 0)}


def load_element(path: str) -> dict:
    with open(path) as fh:
        return element(json.load(fh))


def load_sequence(path: str):
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    return [Fraction(int(r[1]), int(r[2])) for r in rows]


# ---------------------------------------------------------------------------
# the benchmark's own structures
# ---------------------------------------------------------------------------

class Own:
    """Multiplication, right division of sets and generators of one family,
    written from the definitions."""

    def __init__(self, spec: dict):
        self.family = spec["family"]
        p = spec.get("params", {})
        if self.family == "Z":
            self.e, gens = 0, [1, -1]
        elif self.family == "Zd":
            self.d = p["d"]
            self.e = (0,) * self.d
            gens = [tuple((s if j == i else 0) for j in range(self.d))
                    for i in range(self.d) for s in (1, -1)]
        elif self.family == "free":
            self.rank, self.inverses = p["rank"], p.get("inverses", True)
            self.e = ()
            gens = [((s * i),) for i in range(1, self.rank + 1)
                    for s in ((1, -1) if self.inverses else (1,))]
        elif self.family == "zero_adjoined":
            self.e, gens = (), [THETA]
        elif self.family == "table":
            self.table = p["table"]
            self.e, gens = 0, None
        else:
            raise CheckFailed(f"no own model of {self.family}")
        self.gens = [key(g) for g in spec["generators"]] if "generators" in spec else gens

    def mul(self, u, v):
        f = self.family
        if f == "Z":
            return u + v
        if f == "Zd":
            return tuple(a + b for a, b in zip(u, v))
        if f == "table":
            return self.table[u][v]
        if f == "zero_adjoined":
            return THETA if THETA in (u, v) else u + v
        if not self.inverses:
            return u + v
        w = list(u)
        for g in v:
            if w and w[-1] == -g:
                w.pop()
            else:
                w.append(g)
        return tuple(w)

    def inv(self, u):
        if self.family == "Z":
            return -u
        if self.family == "Zd":
            return tuple(-a for a in u)
        return tuple(-g for g in reversed(u))

    def length(self, u) -> int:
        if self.family == "Z":
            return abs(u)
        if self.family == "Zd":
            return sum(map(abs, u))
        return len(u)

    def divide(self, E, x):
        """{v : v x in E}; UNIVERSAL when every v qualifies."""
        f = self.family
        if f in ("Z", "Zd") or (f == "free" and self.inverses):
            return {self.mul(u, self.inv(x)) for u in E}
        if f == "table":
            return {v for v in range(len(self.table)) if self.table[v][x] in E}
        if f == "zero_adjoined" and x == THETA:
            return UNIVERSAL if THETA in E else set()
        out = {THETA} if THETA in E else set()
        n = len(x)
        for u in E:
            if u != THETA and len(u) >= n and u[len(u) - n:] == x:
                out.add(u[:len(u) - n])
        return out

    def balls(self, gens, depth):
        """Division-closure balls B_0..B_depth by direct enumeration."""
        balls = [{self.e}]
        for _ in range(depth):
            prev = balls[-1]
            if prev == UNIVERSAL:
                balls.append(UNIVERSAL)
                continue
            acc = set(prev)
            for x in gens:
                acc |= {self.mul(u, x) for u in prev}
                d = self.divide(prev, x)
                if d == UNIVERSAL:
                    acc = UNIVERSAL
                    break
                acc |= d
            balls.append(acc)
        return balls


def closed_form_size(spec: dict, n: int) -> int:
    """|B_n| for the standard generators of Z^d and the free families."""
    p = spec.get("params", {})
    if spec["family"] == "Zd":
        d = p["d"]
        return sum(2 ** k * comb(d, k) * comb(n, k) for k in range(min(d, n) + 1))
    r = p["rank"]
    if p.get("inverses", True):
        return 1 if n == 0 else 1 + 2 * r * ((2 * r - 1) ** n - 1) // (2 * r - 2)
    return (r ** (n + 1) - 1) // (r - 1)


def own_sizes(spec: dict, depth: int):
    if spec["family"] in ("Zd", "free") and "generators" not in spec:
        return [closed_form_size(spec, n) for n in range(depth + 1)]
    own = Own(spec)
    return [UNIVERSAL if b == UNIVERSAL else len(b) for b in own.balls(own.gens, depth)]


# ---------------------------------------------------------------------------
# exact element arithmetic
# ---------------------------------------------------------------------------

def add_into(acc: dict, u, c, scale=(1, 0)):
    re = c[0] * scale[0] - c[1] * scale[1]
    im = c[0] * scale[1] + c[1] * scale[0]
    pre, pim = acc.get(u, (Fraction(0), Fraction(0)))
    acc[u] = (pre + re, pim + im)


def clean(f: dict) -> dict:
    return {u: c for u, c in f.items() if c != (0, 0)}


def convolve(own: Own, f: dict, g: dict) -> dict:
    out = {}
    for u, cu in f.items():
        for v, cv in g.items():
            add_into(out, own.mul(u, v), cu, cv)
    return clean(out)


def reconvolve(own: Own, pairs) -> dict:
    acc = {}
    for coeff, gen in pairs:
        for u, c in convolve(own, coeff, gen).items():
            add_into(acc, u, c)
    return clean(acc)


def decomposition(own: Own, res: dict, target: dict):
    """Reconvolve a reported decomposition; it must give the target."""
    dec = res["decomposition"]
    need(element(dec["target"]) == target, "decomposition target is not the input")
    pairs = [(element(p["coefficient"]), element(p["generator"])) for p in dec["pairs"]]
    need(reconvolve(own, pairs) == target, "pairs do not reconvolve to the target")
    return pairs


def modulus_bounds(c, bits=64):
    """Integer square-root bracket of |re + i im|."""
    q = c[0] * c[0] + c[1] * c[1]
    if c[1] == 0 or c[0] == 0:
        m = abs(c[0]) + abs(c[1])
        return m, m
    scale = 1 << bits
    r = isqrt(q.numerator * q.denominator * scale * scale)
    den = q.denominator * scale
    return Fraction(r, den), Fraction(r + 1, den)


def norm_bounds(f: dict, omega):
    lo = hi = Fraction(0)
    for u, c in f.items():
        a, b = modulus_bounds(c)
        w = omega(u)
        lo += a * w
        hi += b * w
    return lo, hi


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------

def check_ball(params, text):
    spec, depth = params["spec"], params["depth"]
    want = own_sizes(spec, depth)
    if params["format"] == "csv":
        header, rows = csv_rows(text)
        need(header == ["n", "ball_size", "sphere_size"], "CSV header")
        need([int(r[0]) for r in rows] == list(range(depth + 1)), "CSV levels")
        got = [UNIVERSAL if r[1] == "all" else int(r[1]) for r in rows]
        need(got == want, f"ball sizes {got[-3:]} != {want[-3:]}")
        spheres = [UNIVERSAL if r[2] == "all" else int(r[2]) for r in rows]
        for n in range(1, depth + 1):
            if UNIVERSAL not in (want[n], want[n - 1]):
                need(spheres[n] == want[n] - want[n - 1], f"sphere size at {n}")
        return 0
    res = result_of(text)
    need(res["ball_sizes"] == want, f"ball sizes {res['ball_sizes'][-3:]} != {want[-3:]}")
    universal = next((n for n, s in enumerate(want) if s == UNIVERSAL), None)
    need(res["universal_at"] == universal, "universal_at")
    stable = next((n for n in range(1, depth + 1) if want[n] == want[n - 1]), None)
    need(res["stable_at"] == stable, "stable_at")
    own = Own(spec)
    enumerated = None if spec["family"] in ("Zd", "free") else own.balls(own.gens, depth)
    seen = set()
    for n, level in enumerate(res["levels"]):
        if level == UNIVERSAL:
            need(want[n] == UNIVERSAL, f"level {n} universal too early")
            continue
        if n > 0 and want[n] == UNIVERSAL:
            need(level == [], f"level {n} after the universal ball is not empty")
            continue
        elems = [key(u) for u in level]
        need(len(set(elems)) == len(elems) and not seen & set(elems),
             f"level {n} repeats elements")
        seen |= set(elems)
        need(len(seen) == want[n], f"levels up to {n} do not fill B_{n}")
        if enumerated is None:
            need(all(own.length(u) == n for u in elems), f"level {n} word lengths")
        else:
            need(seen == enumerated[n], f"B_{n} differs from the enumeration")
    return 0


def check_pseudofinite(params, text):
    spec, depth = params["spec"], params["depth"]
    res = result_of(text)
    if spec["family"] in ("Zd", "free"):
        need(res["found"] is False and res["n"] is None, "infinite monoid reported finite")
        need(res["ball_sizes"] == own_sizes(spec, min(depth, 64)), "closed-form sizes")
        return 0
    sizes = own_sizes(spec, depth)
    whole = len(spec["params"]["table"]) if spec["family"] == "table" else UNIVERSAL
    n = next(i for i, s in enumerate(sizes) if s == whole)
    need(res["found"] is True and res["n"] == n, f"pseudo-finite at {res['n']}, expected {n}")
    need(res["ball_sizes"] == sizes[:n + 1], "ball sizes")
    return 0


def check_tau_trivial_cyclic(params, text):
    res = result_of(text)
    depth = params["depth"]
    need(res["N"] == depth and res["C"] == "1", "N or C")
    need(res["taus"] == ["1"] * depth, "sphere minima of the trivial weight")
    need(res["sphere_sizes"] == [2] * depth, "spheres of a cyclic group")
    need(res["certified"] is True, "not certified")
    return 0


def check_ancestry(params, text):
    spec = params["spec"]
    own = Own(spec)
    res = result_of(text)
    target = key(params["target"])
    chain = res["chain"]
    need(res["found"] is True, "chain not found")
    need(key(chain[0]["elem"]) == target and key(chain[-1]["elem"]) == own.e,
         "chain does not run from the target to e")
    need(len(chain) - 1 == own.length(target), "chain is not geodesic")
    for prev, step in zip(chain, chain[1:]):
        x, z, zp = key(step["x"]), key(step["elem"]), key(prev["elem"])
        need(x in own.gens, "step by a non-generator")
        if step["op"] == "mul":
            need(own.mul(z, x) == zp, "mul step does not multiply back")
        else:
            need(step["op"] == "div" and own.mul(zp, x) == z, "div step does not divide")
    need(res["ball_sizes"] == own_sizes(spec, len(chain) - 1), "ball sizes")
    return 0


def check_necessity(params, text):
    own = Own(params["spec"])
    res = result_of(text)
    X = set()
    for p in params["elements"]:
        X |= set(load_element(p))
    balls = own.balls(sorted(X, key=repr), params["depth"])
    sizes = [UNIVERSAL if b == UNIVERSAL else len(b) for b in balls]
    need(res["ball_sizes"] == sizes, f"ball sizes {res['ball_sizes']} != {sizes}")
    if UNIVERSAL in sizes:
        verdict_ = "covers"
    elif any(balls[n] == balls[n - 1] for n in range(1, len(balls))):
        verdict_ = "refuted"
    else:
        verdict_ = "inconclusive"
    need(res["verdict"] == verdict_, f"verdict {res['verdict']}, expected {verdict_}")
    return 0 if verdict_ == "covers" else 1


def check_sigma(params, text):
    own = Own(params["spec"])
    f = load_element(params["element"])
    want = []
    for n in range(params["depth"] + 1):
        acc = {}
        for u, c in f.items():
            if own.length(u) <= n:
                add_into(acc, 0, c)
        want.append(acc.get(0, (Fraction(0), Fraction(0))))
    if params["format"] == "csv":
        _, rows = csv_rows(text)
        got = [(Fraction(int(r[1]), int(r[2])), Fraction(int(r[3]), int(r[4])))
               for r in rows]
    else:
        res = result_of(text)
        got = [(rat(v["re"]), rat(v["im"])) for v in res["sigma"]]
        stable = next((n for n in range(params["depth"] + 1)
                       if all(own.length(u) <= n for u in f)), None)
        need(res["stable_from"] == stable, "stable_from")
    need(got == want, "ball sums")
    return 0


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

def check_tau_check(params, text):
    tau = load_sequence(params["csv"])
    res = result_of(text)
    partial, ratios = Fraction(0), []
    for n in range(1, len(tau)):
        partial += tau[n - 1]
        ratios.append(tau[n] / partial)
    d_hat = min(ratios)
    need(res["N"] == len(tau), "N")
    need([rat(r) for r in res["ratios"]] == ratios, "prefix ratios")
    need(rat(res["D_hat"]) == d_hat, f"D-hat {res['D_hat']}, recomputed {d_hat}")
    need(res["argmin_n"] == ratios.index(d_hat) + 1, "argmin")
    return 0


def check_tau_growth(params, text):
    tau = load_sequence(params["csv"])
    D = rat(params["D"])
    res = result_of(text)
    partial, hyp = Fraction(0), None
    for n in range(1, len(tau)):
        partial += tau[n - 1]
        if tau[n] < D * partial:
            hyp = n + 1
            break
    concl = next((j + 1 for j in range(1, len(tau))
                  if tau[j] < D * (D + 1) ** (j - 1) * tau[0]), None)
    need(res["hypothesis_first_failure"] == hyp, "first failure of the hypothesis")
    need(res["conclusion_first_failure"] == concl, "first failure of the conclusion")
    need(res["hypothesis_ok"] == (hyp is None) and res["conclusion_ok"] == (concl is None),
         "ok flags")
    return 0 if hyp is None and concl is None else 1


def check_tau_witness(params, text):
    tau = load_sequence(params["csv"])
    target = rat(params["target"])
    res = result_of(text)
    # for x >= 0:  T(x) = sum_j x_j P_(j-1) <= max_j (P_(j-1)/tau_j) ||x||
    ceiling = max(sum(tau[:j - 1], Fraction(0)) / tau[j - 1] for j in range(1, len(tau) + 1))
    need(ceiling < target, "benchmark input admits a witness; no independent verdict")
    need(res["found"] is False, "witness reported where T(x) < ||x|| <= 1 < target")
    need(rat(res["target"]) == target, "target")
    return 1


def own_blockseq(rho: Fraction, K: int):
    markers = [1]
    for k in range(2, K + 1):
        markers.append(markers[-1] + k + 1)
    values, start = [], 1
    for nk in markers:
        values += [rho ** (nk + 1)] * (nk + 2 - start)
        start = nk + 2
    return markers, values


def check_blockseq(params, text):
    rho, K = rat(params["rho"]), params["blocks"]
    markers, values = own_blockseq(rho, K)
    if params["format"] == "csv":
        _, rows = csv_rows(text)
        got = [Fraction(int(r[1]), int(r[2])) for r in rows]
        need([int(r[0]) for r in rows] == list(range(1, len(values) + 1)), "indices")
        need(got == values, "staircase values")
        return 0
    res = result_of(text)
    need(res["markers"] == markers, "markers")
    need([rat(v) for v in res["values"]] == values, "staircase values")
    prefix = [Fraction(0)]
    for v in values:
        prefix.append(prefix[-1] + v)
    for k, (nk, entry) in enumerate(zip(markers, res["boundary_ratios"]), start=1):
        ratio = values[nk] / prefix[nk]
        need(rat(entry["ratio"]) == ratio and ratio <= Fraction(1, k), f"boundary ratio {k}")
    need(len(res["boundary_ratios"]) == K, "number of boundary ratios")
    need(res["tau_geq_rho_pow_j"] is True and res["certified"] is True, "not certified")
    return 0


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def _generator_points(own: Own, pairs):
    e = own.e
    for _, gen in pairs:
        pts = [u for u in gen if u != e]
        need(len(pts) == 1 and gen.get(e) == (1, 0) and gen[pts[0]] == (-1, 0),
             "generator is not delta_e - delta_x")
        need(pts[0] in own.gens, "generator point outside the generating set")


def _norm_bound(own, res, pairs, mass_lo, D, c):
    """||s_x||_omega <= (1/D) * mass for every coefficient s_x, omega(u) =
    c^|u| in the standard word length."""
    omega = lambda u: Fraction(c) ** own.length(u)
    for coeff, _ in pairs:
        _, hi = norm_bounds(coeff, omega)
        need(hi <= mass_lo / D, f"norm bound fails: {hi} > {mass_lo / D}")
    need(res["norm_ok"] is True and res["ok"] is True, "norm_ok or ok not set")


def _taus(res, n, c):
    need([rat(t) for t in res["taus"]] == [Fraction(c) ** k for k in range(1, n + 1)],
         "sphere minima")


def check_decompose_point(params, text):
    own = Own(params["spec"])
    res = result_of(text)
    u = key(params["target"])
    target = clean({own.e: (Fraction(1), Fraction(0)), u: (Fraction(-1), Fraction(0))})
    pairs = decomposition(own, res, target)
    _generator_points(own, pairs)
    D, c = rat(params["D"]), params["c"]
    need(res["n"] <= own.length(u), "word longer than the standard length")
    _taus(res, res["n"], c)
    _norm_bound(own, res, pairs, Fraction(c) ** own.length(u), D, c)
    return 0


def check_decompose_full(params, text):
    own = Own(params["spec"])
    res = result_of(text)
    f = load_element(params["element"])
    pairs = decomposition(own, res, f)
    _generator_points(own, pairs)
    D, c = rat(params["D"]), params["c"]
    mass_lo, _ = norm_bounds({u: v for u, v in f.items() if u != own.e},
                             lambda u: Fraction(c) ** own.length(u))
    need(res["points"] == len([u for u in f if u != own.e]), "point count")
    _taus(res, res["n_max"], c)
    _norm_bound(own, res, pairs, mass_lo, D, c)
    return 0


def check_divide_shift(params, text):
    own = Own({"family": "Z"})
    f = load_element(params["element"])
    res = result_of(text)
    g = element(res["g"])
    side = 1 if all(u >= 0 for u in f) else -1
    divisor = {side: (Fraction(1), Fraction(0)), 0: (Fraction(-1), Fraction(0))}
    need(element(res["divisor"]) == divisor, "divisor")
    need(convolve(own, g, divisor) == f, "g * divisor != f")
    return 0


def check_rewrite_pf(params, text):
    own = Own(params["spec"])
    f = load_element(params["element"])
    pairs = decomposition(own, result_of(text), f)
    for _, gen in pairs:
        need(sum(c[0] for c in gen.values()) == 0 == sum(c[1] for c in gen.values()),
             "family generator with nonzero augmentation")
    return 0


def check_telescope(params, text):
    own = Own(params["spec"])
    f = load_element(params["element"])
    res = result_of(text)
    decomposition(own, res, f)
    betas = {key(b["u"]): (rat(b["beta"]["re"]), rat(b["beta"]["im"])) for b in res["betas"]}
    need(betas == {u: (-c[0], -c[1]) for u, c in f.items() if u != own.e}, "betas")
    return 0


def check_convolve(params, text):
    own = Own(params["spec"])
    f, g = (load_element(p) for p in params["elements"])
    need(element(result_of(text)["product"]) == convolve(own, f, g), "product")
    return 0


# ---------------------------------------------------------------------------
# weights and certificates
# ---------------------------------------------------------------------------

_CTX = decimal.Context(prec=70)


def _ln(q: Fraction) -> decimal.Decimal:
    return _CTX.ln(_CTX.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator)))


def _l74_flip(rho: Fraction, markers, k: int):
    """Marker n_k is the least n > n_(k-1) with (rho+eps_(k-1))^n > n
    (rho+eps_k)^n, eps_0 = 1 and eps_j = 1/(j+1): the predicate is true at
    n_k and false at n_k - 1.  Decided with 70-digit logarithms."""
    eps = lambda j: Fraction(1) if j == 0 else Fraction(1, j + 1)
    rate = _ln((rho + eps(k - 1)) / (rho + eps(k)))
    margin = decimal.Decimal(10) ** -50

    def predicate(n):
        v = _CTX.subtract(_CTX.multiply(rate, decimal.Decimal(n)), _ln(Fraction(n)))
        need(abs(v) > margin, f"block {k}: predicate undecided at n = {n}")
        return v > 0

    nk, prev = markers[k - 1], markers[k - 2]
    need(predicate(nk), f"block {k}: predicate false at the marker {nk}")
    if nk - 1 > prev:
        need(not predicate(nk - 1), f"block {k}: predicate already true at {nk - 1}")


def _l74_markers(rho, K, res, seed):
    markers = res["markers"]
    need(len(markers) == K and markers[0] == 1, "marker count or n_1")
    need(all(a < b for a, b in zip(markers, markers[1:])), "markers not increasing")
    need([rat(e) for e in res["eps"]] == [Fraction(1)] + [Fraction(1, k + 1)
                                                         for k in range(1, K + 1)], "eps")
    sample = {2, K} | set(random.Random(seed).sample(range(2, K + 1), min(40, K - 1)))
    for k in sorted(sample):
        _l74_flip(rho, markers, k)


def check_build_l74(params, text):
    res = result_of(text)
    K = params["blocks"]
    _l74_markers(rat(params["rho"]), K, res, params["seed"])
    need(len(res["step_bounds"]) == K and all(c["ok"] for c in res["step_bounds"]),
         "step bounds")
    need(res["certified"] is True and res["top_index"] == res["markers"][-1] + 1,
         "certified or top_index")
    return 0


def check_witness_75(params, text):
    res = result_of(text)
    rho, K = rat(params["rho"]), params["blocks"]
    _l74_markers(rho, K, res, params["seed"])
    harmonic = sum((Fraction(1, k) for k in range(1, K + 1)), Fraction(0))
    basel = sum((Fraction(1, k * k) for k in range(1, K + 1)), Fraction(0))
    need(rat(res["divisor_partial_norm"]) == harmonic, "divisor partial norm != H_K")
    enc = res["norm_enclosure"]
    lo, hi = (rat(enc["exact"]),) * 2 if "exact" in enc else (rat(enc["lo"]), rat(enc["hi"]))
    need(0 < lo <= hi <= (rho + 1) * basel, "norm enclosure above (rho+1) sum 1/k^2")
    need(rat(res["norm_upper_bound_exact"]) == (rho + 1) * basel, "exact norm bound")
    need(res["support_sites"] == [n + 1 for n in res["markers"]], "support sites")
    need(res["ok"] is True, "not ok")
    return 0


def own_gamma(rho: Fraction, N: int):
    """gamma_0 = 1, gamma_1 = rho+1, gamma_2 = (rho+1)^2 and gamma_j =
    (rho+1) gamma_(j - n_k) for n_k = 2^k - 1 <= j < n_(k+1)."""
    r1 = rho + 1
    gamma = [Fraction(1), r1, r1 * r1]
    for j in range(3, N + 1):
        gamma.append(r1 * gamma[j - ((1 << ((j + 1).bit_length() - 1)) - 1)])
    return gamma[:N + 1]


def own_l76_omega(rho: Fraction, N: int):
    gamma = own_gamma(rho, N)
    omega = [rho ** n * g for n, g in enumerate(gamma)]
    C = max(omega[n] / omega[n + 1] for n in range(N))
    return gamma, omega, C


def check_build_l76(params, text):
    res = result_of(text)
    rho, N = rat(params["rho"]), params["depth"]
    gamma, omega, C = own_l76_omega(rho, N)
    need([rat(g) for g in res["gamma"]] == gamma, "gamma table")
    need(rat(res["C"]) == C, "C")
    rng = random.Random(N)
    for _ in range(2000):
        i = rng.randint(1, N // 2)
        j = rng.randint(i, N - i)
        need(gamma[i + j] <= gamma[i] * gamma[j], f"gamma not submultiplicative at {i},{j}")
    r1 = rho + 1
    for entry in res["ratio_checks"]:
        k, nk = entry["k"], entry["n_k"]
        need(nk == (1 << k) - 1, "marker")
        ratio = omega[nk] / sum(omega[1:nk], Fraction(0))
        need(rat(entry["ratio"]) == ratio and ratio <= (rho / r1) ** (k - 1),
             f"ratio at k = {k}")
    need(len(res["ratio_checks"]) == (N + 1).bit_length() - 2, "number of ratio checks")
    need(res["certified"] is True, "not certified")
    return 0


def _weight_omega(spec: dict):
    """omega(u) on Z for the lemma-7.6 weight, from the own gamma table."""
    p = spec["params"]
    rho, N = rat(p["rho"]), int(p["N"])
    _, omega, C = own_l76_omega(rho, N)
    return (lambda u: omega[u] if u >= 0 else C ** -u * omega[-u]), omega, C


def check_weight_verify(params, text):
    res = result_of(text)
    spec, R = params["weight"], params["radius"]
    need(res["ok"] is True and res["failures"] == [], "axioms not verified")
    if spec["family"] == "radial_exp":
        pairs = sum(1 for m in range(1, R + 1) for n in range(m, R + 1) if m + n <= R)
    else:
        N = min(R, int(spec["params"]["N"]))
        pairs = sum(max(0, N - 2 * i + 1) for i in range(1, N + 1))
    need(res["pairs_checked"] == pairs, f"pairs checked {res['pairs_checked']} != {pairs}")
    return 0


def _enclosure(obj):
    if "exact" in obj:
        return rat(obj["exact"]), rat(obj["exact"])
    return rat(obj["lo"]), rat(obj["hi"])


def _encloses(obj, value: decimal.Decimal, what: str):
    lo, hi = _enclosure(obj)
    need(hi - lo < Fraction(1, 1 << 100), f"{what}: enclosure too wide")
    tol = decimal.Decimal(10) ** -55
    as_dec = lambda q: _CTX.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))
    need(_CTX.subtract(as_dec(lo), tol) <= value <= _CTX.add(as_dec(hi), tol),
         f"{what}: value outside enclosure")


def check_radii(params, text):
    res = result_of(text)
    spec, N = params["weight"], params["depth"]
    if spec["family"] == "radial_exp":
        ln_c = _ln(rat(spec["params"]["c"]))
        # omega(n)^(1/n) = c^(n^(1/2) / n) = c^(1 / sqrt n); omega(-n) = omega(n)
        pos = [_CTX.exp(_CTX.divide(ln_c, _CTX.sqrt(decimal.Decimal(n))))
               for n in range(1, N + 1)]
        neg = [_CTX.divide(1, v) for v in pos]
    else:
        _, omega, C = _weight_omega(spec)
        pos = [_CTX.exp(_CTX.divide(_ln(omega[n]), decimal.Decimal(n)))
               for n in range(1, N + 1)]
        neg = [_CTX.divide(1, _CTX.multiply(_CTX.exp(_ln(C)), v)) for v in pos]
    for n in range(N):
        _encloses(res["per_n_pos"][n], pos[n], f"omega({n + 1})^(1/{n + 1})")
        _encloses(res["per_n_neg"][n], neg[n], f"omega(-{n + 1})^(-1/{n + 1})")
    _encloses(res["rho2_hat"], min(pos), "rho2_hat")
    _encloses(res["rho1_hat"], max(neg), "rho1_hat")
    return 0


def check_norm_l76(params, text):
    res = result_of(text)
    f = load_element(params["element"])
    omega, _, _ = _weight_omega(params["weight"])
    norm = sum((abs(c[0]) * omega(u) for u, c in f.items()), Fraction(0))
    need(rat(res["norm"]) == norm, "weighted norm")
    need(res["support_size"] == len(f), "support size")
    return 0


CHECKS = {name[len("check_"):]: fn for name, fn in globals().items()
          if name.startswith("check_")}
