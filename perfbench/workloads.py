"""Seeded inputs and command lists for the three benchmark workloads.

Each workload is a list of `waug` leaf commands.  A command is a dict:

  argv    the command line after `waug`, without `--out`
  check   (kind, params) for `checks.verdict`; params describe the inputs
          in the benchmark's own terms, never a copy of a report
  fault   absent, or the name of the exception a known fault raises

The seed changes the points, coefficients, targets and parameters; the sizes
that decide the amount of work (depths, block counts, support sizes, prefix
lengths) are fixed, so that runs with different seeds do the same work.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from fractions import Fraction

WORKLOADS = ("balls", "decompose", "certify")


def _fmt(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class _Inputs:
    """Writes the input files of one workload into its directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def json(self, name: str, obj) -> str:
        p = self.path(name)
        with open(p, "w") as fh:
            json.dump(obj, fh, sort_keys=True)
        return p

    def csv(self, name: str, values) -> str:
        p = self.path(name)
        with open(p, "w") as fh:
            fh.write("index,numerator,denominator\n")
            for n, v in enumerate(values, start=1):
                v = Fraction(v)
                fh.write(f"{n},{v.numerator},{v.denominator}\n")
        return p


def _cmd(argv, check, fault=None):
    cmd = {"argv": [str(a) for a in argv], "check": check}
    if fault is not None:
        cmd["fault"] = fault
    return cmd


def _reduced_word(rng, rank: int, n: int, no_ab: bool = False):
    """A random reduced word of length n; with `no_ab`, one without the
    letter pair a b, so that over the generators {a, a^-1, b, b^-1, ab} its
    geodesic length is n as well."""
    w = []
    while len(w) < n:
        g = rng.choice([i for r in range(1, rank + 1) for i in (r, -r)])
        if w and (w[-1] == -g or (no_ab and (w[-1], g) == (1, 2))):
            continue
        w.append(g)
    return w


def _terms(coeffs: dict) -> dict:
    """{elem_json_text: (re, im)} -> element JSON."""
    out = []
    for key, (re, im) in coeffs.items():
        if re or im:
            out.append({"elem": json.loads(key), "re": _fmt(re), "im": _fmt(im)})
    return {"terms": out}


def _zero_aug(rng, points, identity_key: str, gaussian: bool) -> dict:
    """Random coefficients on `points`, balanced at the identity so that
    the augmentation is zero."""
    coeffs = {}
    sre = Fraction(0)
    sim = Fraction(0)
    for key in points:
        re = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
        im = Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if gaussian else Fraction(0)
        coeffs[key] = (re, im)
        sre += re
        sim += im
    re0, im0 = coeffs.get(identity_key, (Fraction(0), Fraction(0)))
    coeffs[identity_key] = (re0 - sre, im0 - sim)
    return _terms(coeffs)


def _cyclic_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# balls: division-ball enumeration and its reports
# ---------------------------------------------------------------------------

Z3 = {"family": "Zd", "params": {"d": 3}}
F2 = {"family": "free", "params": {"rank": 2, "inverses": True}}
F2_NONSTANDARD = dict(F2, generators=[[1], [-1], [2], [-2], [1, 2]])
M3 = {"family": "free", "params": {"rank": 3, "inverses": False}}
CYCLIC_ORDER = 51


def _l1_point(rng, d: int, norm: int):
    """A point of Z^d with l1 norm exactly `norm`."""
    cuts = sorted(rng.randint(0, norm) for _ in range(d - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [norm])]
    return [rng.choice([-1, 1]) * p for p in parts]


def _balls(rng, inp: _Inputs):
    z3 = inp.json("z3.json", Z3)
    f2 = inp.json("f2.json", F2)
    m3 = inp.json("m3.json", M3)
    trivial = inp.json("trivial.json", {"family": "trivial"})

    def ball(path, spec, depth, fmt="json"):
        return _cmd(["structure", "ball", "--spec", path, "--depth", depth,
                     "--format", fmt],
                    ("ball", {"spec": spec, "depth": depth, "format": fmt}))

    def pseudofinite(path, spec, depth):
        return _cmd(["structure", "pseudofinite", "--spec", path, "--depth", depth],
                    ("pseudofinite", {"spec": spec, "depth": depth}))

    cmds = [ball(z3, Z3, 22), ball(z3, Z3, 16, "csv"),
            ball(f2, F2, 9), ball(f2, F2, 7, "csv"),
            ball(m3, M3, 9), ball(m3, M3, 7, "csv"),
            pseudofinite(f2, F2, 40), pseudofinite(z3, Z3, 40)]
    # zero-adjoined monoids: the universal-ball case, with the standard
    # generator theta or with a letter next to it
    za2 = None
    for rank in (1, 2, 3):
        spec = {"family": "zero_adjoined", "params": {"rank": rank}}
        gens = rng.choice([None, [[1], "theta"], ["theta", [rank]]])
        if gens is not None:
            spec["generators"] = gens
        p = inp.json(f"za{rank}.json", spec)
        cmds += [ball(p, spec, 6), pseudofinite(p, spec, 8)]
        if rank == 2:
            za2 = (p, spec)
    # cyclic groups Z_51 as multiplication tables, generated by a seeded unit
    n = CYCLIC_ORDER
    units = [g for g in range(1, n) if g % 3 and g % 17]
    for i in range(3):
        spec = {"family": "table", "params": {"table": _cyclic_table(n)},
                "generators": [rng.choice(units)]}
        p = inp.json(f"cyclic{i}.json", spec)
        depth = n // 2 + 1
        cmds += [ball(p, spec, depth), pseudofinite(p, spec, depth)]
        cmds.append(_cmd(["weight", "tau", "--spec", p, "--weight", trivial,
                          "--depth", depth - 2],   # spheres stay non-empty
                         ("tau_trivial_cyclic", {"depth": depth - 2})))
    # ancestry chains back to e, from the sphere of radius 6
    for _ in range(16):
        w = _reduced_word(rng, 2, 6)
        cmds.append(_cmd(["structure", "ancestry", "--spec", f2, "--target",
                          json.dumps(w), "--depth", 6],
                         ("ancestry", {"spec": F2, "target": w})))
    for _ in range(8):
        u = _l1_point(rng, 3, 6)
        cmds.append(_cmd(["structure", "ancestry", "--spec", z3, "--target",
                          json.dumps(u), "--depth", 6],
                         ("ancestry", {"spec": Z3, "target": u})))
    # necessity: do the supports pseudo-generate?
    for i in range(4):
        pts = set()
        while len(pts) < 3:
            pts.add(json.dumps(_reduced_word(rng, 2, 2)))
        p = inp.json(f"nec_f2_{i}.json", _zero_aug(rng, sorted(pts), "[]", False))
        cmds.append(_cmd(["ideal", "necessity", "--spec", f2, "--element", p,
                          "--depth", 4],
                         ("necessity", {"spec": F2, "elements": [p], "depth": 4})))
    for i in range(2):
        pts = ['"theta"', json.dumps([rng.randint(1, 2)]), json.dumps([1, 2])]
        p = inp.json(f"nec_za_{i}.json", _zero_aug(rng, sorted(set(pts)), "[]", False))
        cmds.append(_cmd(["ideal", "necessity", "--spec", za2[0], "--element", p,
                          "--depth", 4],
                         ("necessity", {"spec": za2[1], "elements": [p], "depth": 4})))
    # ball sums of elements
    for i in range(4):
        pts = {json.dumps(_reduced_word(rng, 2, k % 8)) for k in range(12)}
        p = inp.json(f"sig_f2_{i}.json", _zero_aug(rng, sorted(pts), "[]", i % 2 == 1))
        fmt = "csv" if i % 2 else "json"
        cmds.append(_cmd(["element", "sigma", "--spec", f2, "--element", p,
                          "--depth", 7, "--format", fmt],
                         ("sigma", {"spec": F2, "element": p, "depth": 7,
                                    "format": fmt})))
    for i in range(2):
        pts = {json.dumps(_l1_point(rng, 3, k % 9)) for k in range(12)}
        p = inp.json(f"sig_z3_{i}.json", _zero_aug(rng, sorted(pts), "[0, 0, 0]", False))
        cmds.append(_cmd(["element", "sigma", "--spec", z3, "--element", p,
                          "--depth", 10],
                         ("sigma", {"spec": Z3, "element": p, "depth": 10,
                                    "format": "json"})))
    # sphere sizes of F2 as a sequence: exact prefix ratios and D-hat
    sph = inp.csv("f2_spheres.csv", [4 * 3 ** (k - 1) for k in range(1, 41)])
    cmds.append(_cmd(["tau", "check", "--csv", sph], ("tau_check", {"csv": sph})))
    return cmds


# ---------------------------------------------------------------------------
# decompose: exact decompositions over the generators, reconvolved
# ---------------------------------------------------------------------------

def _decompose(rng, inp: _Inputs):
    f2 = inp.json("f2.json", F2)
    f2ns = inp.json("f2ns.json", F2_NONSTANDARD)
    exp2 = inp.json("exp2.json", {"family": "radial_exp", "params": {"c": 2}})
    z = inp.json("z.json", {"family": "Z"})
    za2spec = {"family": "zero_adjoined", "params": {"rank": 2}}
    za2 = inp.json("za2.json", za2spec)
    cmds = []
    # points of B_6, a fixed number from each sphere
    for length, count in ((1, 2), (2, 2), (3, 4), (4, 8), (5, 16), (6, 28)):
        for _ in range(count):
            w = _reduced_word(rng, 2, length)
            cmds.append(_cmd(["ideal", "decompose-point", "--spec", f2, "--weight",
                              exp2, "--target", json.dumps(w), "--d", "1"],
                             ("decompose_point", {"spec": F2, "c": 2, "target": w,
                                                  "D": "1"})))
    # the geodesic search over the non-standard generators costs about 12,
    # 30 and 110 ms at geodesic length 4, 5 and 6, and each letter pair a b
    # shortens a word's geodesic by one; so these words have none, and the
    # work does not depend on the seed
    for length, count in ((4, 4), (5, 8), (6, 4)):
        for _ in range(count):
            w = _reduced_word(rng, 2, length, no_ab=True)
            cmds.append(_cmd(["ideal", "decompose-point", "--spec", f2ns, "--weight",
                              exp2, "--target", json.dumps(w), "--d", "1/2"],
                             ("decompose_point", {"spec": F2_NONSTANDARD, "c": 2,
                                                  "target": w, "D": "1/2"})))
    # zero-augmentation elements on B_5, real and Gaussian coefficients; the
    # points' lengths follow a fixed schedule, and the points of the elements
    # over the non-standard generators have no letter pair a b (see above)
    for i in range(16):
        k = (5, 12, 25, 40)[i % 4]
        pts = set()
        while len(pts) < k:
            pts.add(json.dumps(_reduced_word(rng, 2, 2 + len(pts) % 4, no_ab=i >= 8)))
        gaussian = (i // 4) % 2 == 1
        p = inp.json(f"full_{i}.json", _zero_aug(rng, sorted(pts), "[]", gaussian))
        spec, sp, D = (F2, f2, "1") if i < 8 else (F2_NONSTANDARD, f2ns, "1/2")
        cmds.append(_cmd(["ideal", "decompose-full", "--spec", sp, "--weight", exp2,
                          "--element", p, "--d", D],
                         ("decompose_full", {"spec": spec, "c": 2, "element": p,
                                             "D": D})))
    for i in range(6):
        lo, hi = (0, 40) if i % 2 == 0 else (-40, 0)
        pts = {json.dumps(u) for u in rng.sample(range(lo, hi + 1), 30)}
        p = inp.json(f"shift_{i}.json", _zero_aug(rng, sorted(pts), "0", False))
        cmds.append(_cmd(["ideal", "divide-shift", "--spec", z, "--element", p],
                         ("divide_shift", {"element": p})))
    for i in range(6):
        pts = {'"theta"'}
        while len(pts) < 9:
            pts.add(json.dumps([rng.randint(1, 2) for _ in range(rng.randint(1, 3))]))
        p = inp.json(f"rewrite_{i}.json", _zero_aug(rng, sorted(pts), "[]", i % 2 == 1))
        cmds.append(_cmd(["ideal", "rewrite-pf", "--spec", za2, "--element", p],
                         ("rewrite_pf", {"spec": za2spec, "element": p})))
    for i in range(4):
        pts = set()
        while len(pts) < 30:
            pts.add(json.dumps(_reduced_word(rng, 2, rng.randint(1, 6))))
        p = inp.json(f"tele_{i}.json", _zero_aug(rng, sorted(pts), "[]", i % 2 == 1))
        cmds.append(_cmd(["ideal", "telescope", "--spec", f2, "--element", p],
                         ("telescope", {"spec": F2, "element": p})))
    for i in range(6):
        paths = []
        for j in range(2):
            coeffs = {}
            while len(coeffs) < (20, 30, 40)[i % 3]:
                w = json.dumps(_reduced_word(rng, 2, rng.randint(0, 4)))
                coeffs[w] = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                      rng.randint(1, 9)),
                             Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                             if i % 2 else Fraction(0))
            paths.append(inp.json(f"conv_{i}_{j}.json", _terms(coeffs)))
        cmds.append(_cmd(["element", "convolve", "--spec", f2, "--element", paths[0],
                          "--element", paths[1]],
                         ("convolve", {"spec": F2, "elements": paths})))
    # the growth premise of the decompositions, on the sphere minima 2^n
    seq = inp.csv("tau_exp2.csv", [2 ** n for n in range(1, 41)])
    for D in ("1", "1/2"):
        cmds.append(_cmd(["tau", "growth", "--csv", seq, "--target", D],
                         ("tau_growth", {"csv": seq, "D": D})))
    return cmds


# ---------------------------------------------------------------------------
# certify: weight builders, precision escalation, tail functionals
# ---------------------------------------------------------------------------

def _certify(rng, inp: _Inputs):
    z = inp.json("z.json", {"family": "Z"})
    sample = lambda: rng.randrange(1 << 30)   # which blocks the check samples
    cmds = [
        _cmd(["weight", "build-l74", "--rho", "2", "--blocks", 2000],
             ("build_l74", {"rho": "2", "blocks": 2000, "seed": sample()})),
        _cmd(["ideal", "witness-75", "--rho", "3", "--blocks", 1500],
             ("witness_75", {"rho": "3", "blocks": 1500, "seed": sample()})),
        # fails every time: the unrounded norm enclosure exceeds the
        # interpreter's int->str digit limit while the report is serialized
        _cmd(["ideal", "witness-75", "--rho", "2", "--blocks", 3000],
             ("witness_75", {"rho": "2", "blocks": 3000, "seed": 3000}),
             fault="ValueError"),
        _cmd(["weight", "build-l76", "--rho", "2", "--depth", 1023],
             ("build_l76", {"rho": "2", "depth": 1023})),
        _cmd(["weight", "build-l76", "--rho", "3", "--depth", 511],
             ("build_l76", {"rho": "3", "depth": 511})),
    ]
    c = rng.choice(["3/2", "5/2", "7/2"])
    exph = {"family": "radial_exp", "params": {"c": c, "beta": "1/2"}}
    exph_p = inp.json("exp_half.json", exph)
    rho76 = rng.choice(["2", "3"])
    l76 = {"family": "lemma76", "params": {"rho": rho76, "N": 255}}
    l76_p = inp.json("l76.json", l76)
    l76s = {"family": "lemma76", "params": {"rho": rho76, "N": 63}}
    l76s_p = inp.json("l76_small.json", l76s)
    cmds += [
        _cmd(["weight", "verify", "--spec", z, "--weight", exph_p, "--radius", 32],
             ("weight_verify", {"weight": exph, "radius": 32})),
        _cmd(["weight", "verify", "--spec", z, "--weight", l76_p, "--radius", 255],
             ("weight_verify", {"weight": l76, "radius": 255})),
        _cmd(["weight", "radii", "--spec", z, "--weight", exph_p, "--depth", 32],
             ("radii", {"weight": exph, "depth": 32})),
        _cmd(["weight", "radii", "--spec", z, "--weight", l76s_p, "--depth", 48],
             ("radii", {"weight": l76s, "depth": 48})),
    ]
    for i in range(3):
        terms = {json.dumps(u): (Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                          rng.randint(1, 9)), Fraction(0))
                 for u in rng.sample(range(-60, 61), 12)}
        p = inp.json(f"norm_{i}.json", _terms(terms))
        cmds.append(_cmd(["element", "norm", "--spec", z, "--weight", l76s_p,
                          "--element", p],
                         ("norm_l76", {"weight": l76s, "element": p})))
    # tau_n = 2^n has no failure witness for any target above 1, so the
    # cubic candidate search runs to its end.  The twelve short searches are
    # the middle of the latency distribution: twelve commands of a round are
    # faster and eleven slower, so op_p50_ms falls in the middle of one kind
    # of command, not on the edge between two kinds.
    # (a common factor of tau would change the cost of the search with the seed)
    for i, n in enumerate([64] + [30] * 12):
        p = inp.csv(f"geo{i}.csv", [2 ** k for k in range(1, n + 1)])
        target = _fmt(Fraction(rng.randint(101, 400), 100))
        cmds.append(_cmd(["tau", "witness", "--csv", p, "--target", target],
                         ("tau_witness", {"csv": p, "target": target})))
    for i in range(3):
        vals = [Fraction(1)]
        for _ in range(159):
            vals.append(vals[-1] * Fraction(rng.randint(11, 40), 10))
        p = inp.csv(f"seq{i}.csv", vals)
        D = _fmt(Fraction(rng.randint(1, 10), 10))
        cmds += [_cmd(["tau", "check", "--csv", p], ("tau_check", {"csv": p})),
                 _cmd(["tau", "growth", "--csv", p, "--target", D],
                      ("tau_growth", {"csv": p, "D": D}))]
    # rho^(n_K + 1) has up to about 2000 digits: below the interpreter's
    # 4300-digit int->str limit, which the program meets while serializing
    for i, (r, k) in enumerate((("3", 50), ("2", 60), ("5/2", 70), ("3/2", 80))):
        fmt = "csv" if i % 2 else "json"
        cmds.append(_cmd(["tau", "blockseq", "--rho", r, "--blocks", k, "--format", fmt],
                         ("blockseq", {"rho": r, "blocks": k, "format": fmt})))
    return cmds


_BUILDERS = {"balls": _balls, "decompose": _decompose, "certify": _certify}
# a chunk of the reference kernel (yardstick.py, about 20 ms) is timed
# before every n-th command: 15, 10 and 18 chunks a round, 5-8% of the run.
# Fixed positions keep the heap of every run alike, and so its peak memory.
RULER_STRIDE = {"balls": 4, "decompose": 12, "certify": 2}
# set-up runs the first command of this kind: short and typical
_WARMUP = {"balls": "ancestry", "decompose": "decompose_point", "certify": "tau_check"}


def _interleave(cmds):
    """Spread the commands of each kind evenly over the round (kinds with a
    single command count as one group), so that a slow phase of the shared
    machine does not fall on all the commands of one kind at once."""
    group = Counter(c["check"][0] for c in cmds)
    name = lambda c: c["check"][0] if group[c["check"][0]] > 1 else ""
    size = Counter(name(c) for c in cmds)
    seen = Counter()
    keyed = []
    for i, c in enumerate(cmds):
        keyed.append(((seen[name(c)] + 0.5) / size[name(c)], i, c))
        seen[name(c)] += 1
    return [c for _, _, c in sorted(keyed, key=lambda t: t[:2])]


def make(workload: str, seed: int, root: str):
    """Write the inputs of `workload` for `seed` under `root`.  Returns the
    command list (every path in it absolute) and the index of the warm-up
    command."""
    rng = random.Random(f"{workload}:{seed}")
    cmds = _interleave(_BUILDERS[workload](rng, _Inputs(root)))
    warmup = next(i for i, c in enumerate(cmds) if c["check"][0] == _WARMUP[workload])
    return cmds, warmup
