"""Acceptance suite: one test per deliverable property, exact arithmetic.

Each test is independent and seeded; the whole file is meant to run in well
under five minutes.  Oracles are computed inside the tests (closed forms,
brute-force recomputation, or reconvolution), never read back from the code
under test.
"""

import itertools
import json
import random
from fractions import Fraction as F

from waug.algebra import Element, convolve, sigma_sequence, weighted_norm
from waug.certify import Enclosure, basel_partial, harmonic_number
from waug.cli import main
from waug.idealkit import (decompose_full, decompose_point, divide_shift,
                           rewrite_pseudofinite, witness_prop45,
                           witness_thm75)
from waug.sequences import (PrefixSequence, build_block_sequence,
                            check_prefix_tp, failure_witness, norm_tau,
                            tail_functional)
from waug.structures import (TableMonoid, division_balls,
                             pseudo_finite_within, structure_from_spec)
from waug.weights import (RadialExpWeight, RadialPolyWeight, build_lemma74,
                          build_lemma76, tau_step_check, tau_and_C,
                          verify_weight_axioms)

FREE_GROUP_2 = {"family": "free", "params": {"rank": 2, "inverses": True}}
FREE_MONOID_2 = {"family": "free", "params": {"rank": 2, "inverses": False}}
FREE_MONOID_1 = {"family": "free", "params": {"rank": 1, "inverses": False}}


def random_real_element(rng, s, pool, terms, zero_aug=False):
    f = Element.zero(s)
    for _ in range(terms):
        f = f + Element.delta(s, rng.choice(pool),
                              F(rng.randrange(-5, 6), rng.randrange(1, 8)))
    if zero_aug:
        f = f - Element.delta(s, s.identity(), f.augmentation())
    return f


def test_c01_geometric_sequence_is_prefix_tail_preserving():
    """tau_n = 2^n at N = 64: D-hat >= 1 and 1000 random non-negative unit
    vectors satisfy T(x) <= 1/D-hat, all exactly."""
    seq = PrefixSequence([2 ** n for n in range(1, 65)])
    rep = check_prefix_tp(seq)
    assert rep["D_hat"] == F(2 ** 63, 2 ** 63 - 1)
    assert rep["D_hat"] >= 1
    assert rep["classification"] == "prefix-consistent"
    bound = 1 / rep["D_hat"]
    rng = random.Random(101)
    for _ in range(1000):
        support = rng.sample(range(1, 65), rng.randrange(1, 9))
        x = {j: F(rng.randrange(1, 50), rng.randrange(1, 50)) for j in support}
        nrm = norm_tau(seq, x)
        scale = F(rng.randrange(1, 8), 7) / nrm  # ||x|| becomes <= 1
        x = {j: v * scale for j, v in x.items()}
        assert norm_tau(seq, x) <= 1
        assert tail_functional(seq, x) <= bound


def test_c02_constant_sequence_fails_tail_preservation():
    """tau == 1: a witness with <= 25 support points, norm <= 1 and tail
    functional >= 10 exists and rechecks exactly."""
    seq = PrefixSequence([1] * 30)
    rep = failure_witness(seq, 10)
    assert rep["found"]
    x = rep["x"]
    assert len(x) <= 25
    assert norm_tau(seq, x) == rep["norm"] <= 1
    assert tail_functional(seq, x) == rep["T"] >= 10


def test_c03_block_sequence_growth_and_boundary_ratios():
    """Staircase sequence with rho = 2, 20 blocks: tau_j >= 2^j everywhere
    and the block-boundary ratios are exactly <= 1/k."""
    rep = build_block_sequence(F(2), 20)
    seq = rep["sequence"]
    assert rep["tau_geq_rho_pow_j"]
    for j in range(1, seq.N + 1):
        assert seq.tau(j) >= F(2) ** j
    assert rep["boundary_all_ok"] and len(rep["boundary_ratios"]) == 20
    for chk in rep["boundary_ratios"]:
        k, nk = chk["k"], chk["n_k"]
        ratio = seq.tau(nk + 1) / sum(seq.tau(j) for j in range(1, nk + 1))
        assert ratio == chk["ratio"] <= F(1, k)


def test_c04_sphere_minima_are_single_step_comparable():
    """tau_n <= C tau_(n+1) exactly: (1+n)^2 weight on the rank-2 free group
    to radius 6, and 2^n weight on Z^2 to radius 8."""
    s, gens = structure_from_spec(FREE_GROUP_2)
    tc = tau_and_C(s, gens, RadialPolyWeight(F(2)), 6)
    assert tc["taus"] == [F((1 + n) ** 2) for n in range(1, 7)]
    chk = tau_step_check(tc["taus"], tc["C"])
    assert chk["ok"] and not chk["violations"]

    s2, gens2 = structure_from_spec({"family": "Zd", "params": {"d": 2}})
    tc2 = tau_and_C(s2, gens2, RadialExpWeight(F(2), F(1)), 8)
    assert tc2["taus"] == [F(2) ** n for n in range(1, 9)]
    chk2 = tau_step_check(tc2["taus"], tc2["C"])
    assert chk2["ok"] and not chk2["violations"]


def test_c05_ball_sum_bound_for_generator_multiples():
    """Free monoid on {a,b}: sum_n |sigma_n(g * (delta_e - delta_x))| is at
    most 3 sum_u |g(u)| for 200 random g and both generators, exactly."""
    rng = random.Random(105)
    s, gens = structure_from_spec(FREE_MONOID_2)
    bt = division_balls(s, gens, 6)
    pool = sorted(bt.ball(4), key=s.elem_key)
    e = s.identity()
    for _ in range(200):
        g = random_real_element(rng, s, pool, rng.randrange(1, 6))
        g_l1 = weighted_norm(g)
        for x in gens:
            f = convolve(g, Element.delta(s, e) - Element.delta(s, x))
            vals, stable = sigma_sequence(f, bt)
            assert stable is not None and vals[stable].re == 0
            total = sum((abs(v.re) for v in vals), F(0))
            assert total <= 3 * g_l1


def test_c06_weighted_ball_sum_bound_on_z2():
    """Z^2 with the 2^n weight: sum_n tau_n |sigma_n(g * (delta_e - delta_x))|
    is at most (2+C) ||g||_omega for 100 random g, exactly."""
    rng = random.Random(106)
    s, gens = structure_from_spec({"family": "Zd", "params": {"d": 2}})
    w = RadialExpWeight(F(2), F(1))
    tc = tau_and_C(s, gens, w, 8)
    taus, C = tc["taus"], tc["C"]
    assert C == 2
    bt = division_balls(s, gens, 8)
    pool = sorted(bt.ball(5), key=s.elem_key)
    e = s.identity()
    for _ in range(100):
        g = random_real_element(rng, s, pool, rng.randrange(1, 6))
        gw = weighted_norm(g, w)
        for x in gens:
            f = convolve(g, Element.delta(s, e) - Element.delta(s, x))
            vals, stable = sigma_sequence(f, bt)
            assert stable is not None
            weighted = abs(vals[0].re) + sum(
                (t * abs(v.re) for t, v in zip(taus, vals[1:])), F(0))
            assert weighted <= (2 + C) * gw


def test_c07_point_decompositions_reconvolve_with_norm_control():
    """Every point u of length <= 6 in the rank-2 free group, 2^n weight,
    D = 1: the decomposition reconvolves to delta_e - delta_u and each
    coefficient norm is <= omega(u), exactly."""
    s, gens = structure_from_spec(FREE_GROUP_2)
    w = RadialExpWeight(F(2), F(1))
    bt = division_balls(s, gens, 6)
    e = s.identity()
    count = 0
    for u in sorted(bt.ball(6), key=s.elem_key):
        if u == e:
            continue
        rep = decompose_point(s, gens, w, u, F(1))
        assert rep["reconvolved"] and rep["norm_ok"]
        wu = w.eval(s, u)
        assert rep["bound"] == wu
        for nm in rep["norms"].values():
            assert nm <= wu
        count += 1
    assert count == 2 * 3 ** 6 - 2  # |B_6| - 1 points


def test_c08_full_decompositions_reconvolve_with_norm_bound():
    """100 random zero-augmentation elements on the rank-2 free group with
    support in B_5, 2^n weight: the aggregated decomposition reconvolves and
    every part obeys the stated norm bound, exactly."""
    rng = random.Random(108)
    s, gens = structure_from_spec(FREE_GROUP_2)
    w = RadialExpWeight(F(2), F(1))
    bt = division_balls(s, gens, 5)
    pool = sorted(bt.ball(5), key=s.elem_key)
    e = s.identity()
    for _ in range(100):
        f = random_real_element(rng, s, pool, rng.randrange(2, 6),
                                zero_aug=True)
        rep = decompose_full(s, gens, w, f, F(1))
        rep["decomposition"].verify()
        assert rep["norm_ok"]
        mass = sum((abs(f[u].re) * w.eval(s, u) for u in f.support()
                    if u != e), F(0))
        bound = rep["bound"]
        hi = bound.hi if isinstance(bound, Enclosure) else bound
        assert hi <= mass  # bound = mass / D with D = 1
        for nm in rep["norms"].values():
            v = nm.hi if isinstance(nm, Enclosure) else nm
            assert v <= hi


def test_c09_half_line_division_reconvolves():
    """500 random zero-augmentation elements supported in [0,40] divide
    exactly by delta_1 - delta_0; mirrored supports in [-40,0] likewise."""
    rng = random.Random(109)
    s, _ = structure_from_spec({"family": "Z"})
    plus = Element.delta(s, 1) - Element.delta(s, 0)
    minus = Element.delta(s, -1) - Element.delta(s, 0)
    for _ in range(500):
        f = random_real_element(rng, s, range(0, 41), rng.randrange(1, 8),
                                zero_aug=True)
        g, rep = divide_shift(f)
        assert rep["ok"] and convolve(g, plus) == f
        mirrored = Element(s, {-u: c for u, c in f.coeffs.items()})
        gm, repm = divide_shift(mirrored)
        assert repm["ok"] and convolve(gm, minus) == mirrored


def test_c10_stepped_exponent_weight_axioms_and_block_inequality():
    """Stepped-exponent weight with rho = 2, 50 blocks: weight axioms hold to
    index n_50 + 1 and the per-block inequality holds exactly for all k."""
    w, rep = build_lemma74(F(2), 50)
    n50 = rep["markers"][-1]
    assert len(rep["markers"]) == 50
    ax = verify_weight_axioms(None, None, w, n50 + 1)
    assert ax["ok"]
    assert rep["step_bounds_all_ok"] and len(rep["step_bounds"]) == 50
    assert all(c["ok"] for c in rep["step_bounds"])


def test_c11_bounded_element_with_divergent_divisor():
    """rho = 2, K = 10^4: certified element norm <= 3 sum_(k<=K) 1/k^2
    (< 4.935) while the divisor partial norms equal H_K (> 9.5), flagged."""
    rep = witness_thm75(F(2), 10 ** 4)
    assert rep["ok"]
    basel = basel_partial(10 ** 4)
    assert rep["norm_enclosure"].hi <= 3 * basel
    assert 3 * basel < F(4935, 1000)
    hk = harmonic_number(10 ** 4)
    assert rep["divisor_partial_norm"] == hk
    assert hk > F(19, 2)
    assert rep["element_norm_bounded"] and rep["divisor_partials_divergent"]


def test_c12_self_similar_weight_certificates():
    """Self-similar weight on Z with rho = 2, table to N = 1023: the stepped
    identities, the negative-side extension, and submultiplicativity for all
    i + j <= 1023 certify exactly; marker ratios are <= (2/3)^(k-1)."""
    w, rep = build_lemma76(F(2), 1023)
    assert rep["star_ok"] and rep["dagger_ok"] and rep["submult_ok"]
    assert rep["markers"] == [2 ** k - 1 for k in range(1, 11)]
    assert rep["ratio_all_ok"]
    ks = [c["k"] for c in rep["ratio_checks"]]
    assert ks == list(range(2, 11))
    for c in rep["ratio_checks"]:
        assert c["ok"] and c["ratio"] <= F(2, 3) ** (c["k"] - 1)
        assert c["bound"] == F(2, 3) ** (c["k"] - 1)


def test_c13_pseudo_finiteness_decisions():
    """Zero-adjoined monoid found pseudo-finite at n = 2; the rank-2 free
    monoid is not within depth 50; C_5 with X = {g, g^4} found at n = 2."""
    s0, _ = structure_from_spec({"family": "zero_adjoined",
                                 "params": {"rank": 2}})
    r0 = pseudo_finite_within(s0, ["theta"], 6)
    assert r0["found"] and r0["n"] == 2

    s1, gens1 = structure_from_spec(FREE_MONOID_2)
    r1 = pseudo_finite_within(s1, gens1, 50)
    assert not r1["found"] and r1["depth"] == 50 and r1["reason"]

    T5 = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    s2, gens2 = structure_from_spec(
        {"family": "table", "params": {"table": T5}, "generators": [1, 4]})
    r2 = pseudo_finite_within(s2, gens2, 6)
    assert r2["found"] and r2["n"] == 2 and r2["ball_sizes"] == [1, 3, 5]


def test_c14_pseudofinite_rewriting_reconvolves():
    """200 random zero-augmentation elements of the zero-adjoined monoid
    (support within the level-2 ball, i.e. anywhere) rewrite exactly."""
    rng = random.Random(114)
    s, _ = structure_from_spec({"family": "zero_adjoined",
                                "params": {"rank": 2}})
    pool = [s.elem_from_json(u) for u in
            [[], "theta", [1], [2], [1, 1], [1, 2], [2, 1], [2, 2],
             [1, 2, 1], [2, 1, 2], [1, 1, 2, 2]]]
    for _ in range(200):
        f = random_real_element(rng, s, pool, rng.randrange(1, 7),
                                zero_aug=True)
        rep = rewrite_pseudofinite(s, ["theta"], f)
        assert rep["ok"]
        rep["decomposition"].verify()


def test_c15_ball_sum_witness_tail_values():
    """Rank-1 free monoid, K = 100: the witness's ball sums equal the exact
    tails sum_(j>n, j<=100) 1/j^2, and sigma_(k-1) >= 1/k exactly for every
    k where the truncation leaves the analytic bound intact (k <= 7)."""
    s, gens = structure_from_spec(FREE_MONOID_1)
    rep = witness_prop45(s, gens, 100)
    assert rep["ok"]
    z100 = basel_partial(100)
    for n in range(0, 101):
        assert rep["sigma"][n] == z100 - basel_partial(n)
    holding = [k for k in range(1, 101) if rep["sigma"][k - 1] >= F(1, k)]
    assert holding == list(range(1, 8))
    for k in range(1, 101):  # truncation-corrected bound holds everywhere
        assert rep["sigma"][k - 1] >= F(1, k) - F(1, 101)


def transformation_monoid(base, gens):
    """The monoid of maps on range(base) generated by gens, as a table with
    the identity map as element 0 and the others in sorted order."""
    ident = tuple(range(base))
    funcs = {ident, *gens}
    frontier = list(funcs)
    while frontier:
        a = frontier.pop()
        for b in list(funcs):
            for c in (tuple(a[b[i]] for i in range(base)),
                      tuple(b[a[i]] for i in range(base))):
                if c not in funcs:
                    funcs.add(c)
                    frontier.append(c)
    elems = [ident] + sorted(funcs - {ident})
    idx = {f: i for i, f in enumerate(elems)}
    return [[idx[tuple(a[b[i]] for i in range(base))] for b in elems]
            for a in elems]


def brute_transformation_monoid(rng):
    """A random monoid of functions on a small set, closed under composition,
    identity adjoined; retried until it has at most 12 elements."""
    while True:
        base = rng.randrange(2, 4)
        gens = [tuple(rng.randrange(base) for _ in range(base))
                for _ in range(rng.randrange(1, 4))]
        table = transformation_monoid(base, gens)
        if len(table) <= 12:
            return table


def test_c16_closure_of_the_pseudo_generated_set():
    """20 random finite monoid tables (size <= 12), random X: the
    pseudo-generated set H is exhaustively closed under right multiplication
    by members and under right division (y * u in H and u in H force y in H)."""
    rng = random.Random(116)
    for _ in range(20):
        table = brute_transformation_monoid(rng)
        m = len(table)
        s = TableMonoid(table)
        X = rng.sample(range(m), rng.randrange(1, m + 1))
        bt = division_balls(s, X, m + 2)
        stable = bt.stable_at()
        assert stable is not None
        H = bt.ball(stable)
        for u in H:
            for h in H:
                assert s.multiply(h, u) in H
            for y in range(m):
                if s.multiply(y, u) in H:
                    assert y in H


def test_c17_cli_reports_are_deterministic(tmp_path, capsys):
    """Every CLI leaf command, invoked twice with identical inputs, produces
    byte-identical reports and equal exit codes."""
    def jf(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    f2 = jf("f2.json", FREE_GROUP_2)
    fm1 = jf("fm1.json", FREE_MONOID_1)
    z = jf("z.json", {"family": "Z"})
    m0 = jf("m0.json", {"family": "zero_adjoined", "params": {"rank": 2}})
    w2n = jf("w2n.json", {"family": "radial_exp", "params": {"c": "2"}})
    wpoly = jf("wpoly.json", {"family": "radial_poly", "params": {"alpha": "2"}})
    wtriv = jf("wtriv.json", {"family": "trivial"})
    e1 = jf("e1.json", {"terms": [{"elem": 1, "re": "1", "im": "0"},
                                  {"elem": 0, "re": "-1", "im": "0"}]})
    e2 = jf("e2.json", {"terms": [{"elem": 0, "re": "1", "im": "0"},
                                  {"elem": 2, "re": "1", "im": "0"}]})
    ez0 = jf("ez0.json", {"terms": [{"elem": 5, "re": "1", "im": "0"},
                                    {"elem": 0, "re": "-1", "im": "0"}]})
    ef2 = jf("ef2.json", {"terms": [{"elem": [1, 2], "re": "1", "im": "0"},
                                    {"elem": [], "re": "-1", "im": "0"}]})
    em0 = jf("em0.json", {"terms": [{"elem": [2, 1], "re": "1", "im": "0"},
                                    {"elem": [], "re": "-1", "im": "0"}]})
    eth = jf("eth.json", {"terms": [{"elem": "theta", "re": "1", "im": "0"},
                                    {"elem": [], "re": "-1", "im": "0"}]})
    taucsv = tmp_path / "tau.csv"
    taucsv.write_text("index,numerator,denominator\n" + "".join(
        f"{n},{2 ** n},1\n" for n in range(1, 9)))
    onescsv = tmp_path / "ones.csv"
    onescsv.write_text("".join(f"{n},1,1\n" for n in range(1, 13)))
    alphacsv = tmp_path / "alpha.csv"
    alphacsv.write_text("".join(f"{n},1,{n * n}\n" for n in range(1, 6)))

    invocations = [
        ["structure", "ball", "--spec", f2, "--depth", "3"],
        ["structure", "ancestry", "--spec", f2, "--target", "[1, 2]",
         "--depth", "4"],
        ["structure", "pseudofinite", "--spec", m0, "--depth", "4"],
        ["weight", "verify", "--spec", f2, "--weight", w2n, "--radius", "3"],
        ["weight", "tau", "--spec", f2, "--weight", wpoly, "--depth", "5"],
        ["weight", "build-l74", "--rho", "2", "--blocks", "4"],
        ["weight", "build-l76", "--rho", "2", "--depth", "15"],
        ["weight", "radii", "--spec", z, "--weight", w2n, "--depth", "8"],
        ["tau", "check", "--csv", str(taucsv)],
        ["tau", "witness", "--csv", str(onescsv), "--target", "5"],
        ["tau", "blockseq", "--rho", "2", "--blocks", "5"],
        ["tau", "growth", "--csv", str(taucsv), "--target", "1"],
        ["element", "convolve", "--spec", z, "--element", e1,
         "--element", e2],
        ["element", "norm", "--spec", z, "--weight", w2n, "--element", e1],
        ["element", "sigma", "--spec", z, "--element", e1, "--depth", "4"],
        ["element", "augment", "--spec", z, "--element", e1],
        ["ideal", "telescope", "--spec", f2, "--element", ef2],
        ["ideal", "decompose-point", "--spec", f2, "--weight", w2n,
         "--target", "[1, 2]", "--d", "1"],
        ["ideal", "decompose-full", "--spec", f2, "--weight", w2n,
         "--element", ef2, "--d", "1"],
        ["ideal", "divide-shift", "--spec", z, "--element", ez0],
        ["ideal", "rewrite-pf", "--spec", m0, "--element", em0],
        ["ideal", "necessity", "--spec", m0, "--element", eth,
         "--depth", "3"],
        ["ideal", "witness-45", "--spec", fm1, "--depth", "8"],
        ["ideal", "witness-65", "--spec", fm1, "--weight", wtriv,
         "--csv", str(alphacsv)],
        ["ideal", "witness-75", "--rho", "2", "--blocks", "3"],
    ]
    for i, argv in enumerate(invocations):
        out_a = tmp_path / f"a{i}.json"
        out_b = tmp_path / f"b{i}.json"
        code_a = main(argv + ["--out", str(out_a)])
        code_b = main(argv + ["--out", str(out_b)])
        capsys.readouterr()  # drop stderr timing lines
        assert code_a == code_b, argv
        assert code_a in (0, 1), (argv, code_a)
        assert out_a.read_bytes() == out_b.read_bytes(), argv
