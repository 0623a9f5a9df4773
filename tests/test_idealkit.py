"""Augmentation-ideal decompositions, divisors, and witnesses."""

import json
import os
import random
from fractions import Fraction as F

import pytest

from waug.algebra import QC, Element, convolve, sigma_sequence
from waug.certify import Enclosure, basel_partial, harmonic_number
from waug.idealkit import (CertificateError, decompose_full, decompose_point,
                           divide_shift, pseudo_generation_necessity,
                           rewrite_pseudofinite, telescope,
                           witness_nontp_element, witness_prop45,
                           witness_thm75)
import waug.structures as structures_mod
from waug.structures import (InvalidInput, ResourceLimit, TableMonoid,
                             division_balls, pseudo_finite_within,
                             structure_from_spec)
from waug.weights import RadialExpWeight, TrivialWeight, build_lemma74

from test_acceptance import brute_transformation_monoid

GOLDEN_INPUTS = os.path.join(os.path.dirname(__file__), "golden", "inputs")


def word(s, *letters):
    """The free word with these signed letters."""
    return s.elem_from_json(list(letters))


def random_zero_aug(rng, s, pool, size, denom=8):
    f = Element.zero(s)
    for _ in range(size):
        u = rng.choice(pool)
        f = f + Element.delta(s, u, F(rng.randrange(-5, 6), rng.randrange(1, denom)))
    e = s.identity()
    return f - Element.delta(s, e, f.augmentation())


# ---------------------------------------------------------------------------
# telescoping
# ---------------------------------------------------------------------------

def test_telescope_two_generator_example():
    s, _ = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    e = s.identity()
    f = (Element.delta(s, word(s, 1)) + Element.delta(s, word(s, 2))
         - Element.delta(s, e, F(2)))
    rep = telescope(f)
    betas = {tuple(b["u"]): b["beta"].re for b in rep["betas"]}
    assert betas == {(1,): F(-1), (2,): F(-1)}
    rep["decomposition"].verify()


def test_telescope_difference_of_deltas():
    s, _ = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    f = Element.delta(s, word(s, 1, 2)) - Element.delta(s, word(s, 2))
    rep = telescope(f)
    betas = {tuple(b["u"]): b["beta"].re for b in rep["betas"]}
    assert betas == {(1, 2): F(-1), (2,): F(1)}


def test_telescope_random_reconvolves():
    rng = random.Random(601)
    s, gens = structure_from_spec({"family": "Zd", "params": {"d": 2}})
    bt = division_balls(s, gens, 3)
    pool = sorted(bt.ball(3), key=s.elem_key)
    for _ in range(40):
        f = random_zero_aug(rng, s, pool, 5)
        rep = telescope(f)
        rep["decomposition"].verify()


def test_telescope_rejects_nonzero_augmentation():
    s, _ = structure_from_spec({"family": "Z"})
    with pytest.raises(InvalidInput):
        telescope(Element.delta(s, 1))


# ---------------------------------------------------------------------------
# geodesic point decomposition
# ---------------------------------------------------------------------------

def test_decompose_point_two_letter_word():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    w = RadialExpWeight(F(2), F(1))
    rep = decompose_point(s, gens, w, word(s, 1, 2), F(1))
    assert rep["ok"] and rep["reconvolved"]
    # u = ab: coefficient on (delta_e - delta_a) is delta_e, on
    # (delta_e - delta_b) is delta_a
    by_label = {label: coeff for coeff, _, label in rep["decomposition"].terms}
    fa = by_label["delta_e - delta_a"]
    fb = by_label["delta_e - delta_b"]
    assert fa == Element.delta(s, s.identity())
    assert fb == Element.delta(s, word(s, 1))
    rep["decomposition"].verify()


def test_decompose_point_single_generator():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    rep = decompose_point(s, gens, RadialExpWeight(F(2), F(1)), word(s, 2), F(1))
    pairs = rep["decomposition"].pairs
    assert len(pairs) == 1
    assert pairs[0][0] == Element.delta(s, s.identity())


def test_decompose_point_geometric_weight_norm_equality_case():
    # u = a^6 under the 2^n weight with D = 1: ||f_a|| = 1+2+...+32 = 63 <= 64
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    rep = decompose_point(s, gens, RadialExpWeight(F(2), F(1)), word(s, *[1] * 6),
                          F(1))
    assert rep["norms"]["a"] == 63
    assert rep["bound"] == 64
    assert rep["norm_ok"]


def test_decompose_point_prefix_delta_invariant():
    # every coefficient is a {0,1}-sum of geodesic prefix deltas
    rng = random.Random(602)
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    bt = division_balls(s, gens, 4)
    pool = [u for u in sorted(bt.ball(4), key=s.elem_key) if u != s.identity()]
    for u in rng.sample(pool, 25):
        rep = decompose_point(s, gens, RadialExpWeight(F(2), F(1)), u, F(1))
        rep["decomposition"].verify()
        for coeff, _ in rep["decomposition"].pairs:
            for v in coeff.support():
                assert (coeff[v].re, coeff[v].im) == (1, 0)
                assert s.word_length(v) < s.word_length(u)


def test_decompose_point_rejects_invalid_D():
    # trivial weight: tau_3 = 1 < 1 * (tau_1 + tau_2) = 2
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    with pytest.raises(CertificateError) as exc:
        decompose_point(s, gens, TrivialWeight(), word(s, 1, 2, 1), F(1))
    assert exc.value.report["first_violation"] == 3


def test_decompose_point_inclusive_premise_reported():
    # 2^n with D = 1 satisfies the growth premise with equality, inclusive form too
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    rep = decompose_point(s, gens, RadialExpWeight(F(2), F(1)), word(s, 1, 2), F(1))
    assert rep["premise_growth_ok"] and rep["premise_inclusive_ok"]


def test_decompose_full_matches_pointwise_aggregation():
    rng = random.Random(603)
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    w = RadialExpWeight(F(2), F(1))
    bt = division_balls(s, gens, 3)
    pool = sorted(bt.ball(3), key=s.elem_key)
    for _ in range(15):
        f = random_zero_aug(rng, s, pool, 4)
        rep = decompose_full(s, gens, w, f, F(1))
        rep["decomposition"].verify()
        assert rep["norm_ok"]
        # norm bound: ||s_x|| <= (1/D) sum_(u != e) |f(u)| omega(u)
        mass = sum((abs(f[u].re) * w.eval(s, u) for u in f.support()
                    if u != s.identity()), F(0))
        bound = rep["bound"]
        hi = bound.hi if isinstance(bound, Enclosure) else bound
        lo = bound.lo if isinstance(bound, Enclosure) else bound
        assert lo <= mass <= hi
        for nm in rep["norms"].values():
            v = nm.hi if isinstance(nm, Enclosure) else nm
            assert v <= hi


F2_AB = {"family": "free", "params": {"rank": 2, "inverses": True},
         "generators": [[1], [-1], [2], [-2], [1, 2]]}


def test_decompose_full_runs_one_word_bfs(monkeypatch):
    rng = random.Random(604)
    s, gens = structure_from_spec(F2_AB)
    w = RadialExpWeight(F(2), F(1))
    pool = sorted(division_balls(s, gens, 3).ball(3), key=s.elem_key)
    calls = []
    real_bfs = structures_mod.bfs_words

    def counting_bfs(*args, **kwargs):
        calls.append(kwargs.get("targets"))
        return real_bfs(*args, **kwargs)

    monkeypatch.setattr(structures_mod, "bfs_words", counting_bfs)
    for _ in range(5):
        f = random_zero_aug(rng, s, pool, 6)
        calls.clear()
        rep = decompose_full(s, gens, w, f, F(1, 2))
        assert len(calls) == 1
        assert set(calls[0]) == {u for u in f.support() if u != s.identity()}
        alone = [decompose_point(s, gens, w, u, F(1, 2))["n"] for u in calls[0]]
        assert rep["n_max"] == max(alone)


def test_decompose_full_unreachable_point_message():
    s, gens = structure_from_spec(F2_AB)
    w = RadialExpWeight(F(2), F(1))
    near, far = word(s, 1), word(s, 2, 2, 1, 1)  # geodesic lengths 1 and 4
    f = (Element.delta(s, s.identity()) - Element.delta(s, near)
         + Element.delta(s, far) - Element.delta(s, s.identity()))
    with pytest.raises(ResourceLimit) as point_exc:
        decompose_point(s, gens, w, far, F(1, 2), max_depth=3)
    with pytest.raises(ResourceLimit) as full_exc:
        decompose_full(s, gens, w, f, F(1, 2), max_depth=3)
    assert str(full_exc.value) == str(point_exc.value) == \
        "element not reached within depth 3"
    assert decompose_full(s, gens, w, f, F(1, 2), max_depth=4)["n_max"] == 4


def test_decompose_full_rejects_nonzero_augmentation():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    with pytest.raises(InvalidInput):
        decompose_full(s, gens, TrivialWeight(), Element.delta(s, word(s, 1)), F(1))


# ---------------------------------------------------------------------------
# division by the shift
# ---------------------------------------------------------------------------

def test_divide_shift_examples():
    s, _ = structure_from_spec({"family": "Z"})
    g, rep = divide_shift(Element.delta(s, 2) - Element.delta(s, 0))
    assert g == Element.delta(s, 0) + Element.delta(s, 1)
    g, rep = divide_shift(Element.delta(s, 1) - Element.delta(s, 0))
    assert g == Element.delta(s, 0)
    assert rep["side"] == "nonneg"


def test_divide_shift_nonzero_augmentation_refused():
    s, _ = structure_from_spec({"family": "Z"})
    g, rep = divide_shift(Element.delta(s, 3, F(1, 2)))
    assert g is None and not rep["ok"]
    aug = rep["augmentation"]
    assert (aug.re, aug.im) == (F(1, 2), 0)


def test_divide_shift_random_reconvolves():
    rng = random.Random(604)
    s, _ = structure_from_spec({"family": "Z"})
    divisor = Element.delta(s, 1) - Element.delta(s, 0)
    for _ in range(60):
        f = random_zero_aug(rng, s, range(0, 41), 6)
        g, rep = divide_shift(f)
        assert rep["ok"]
        assert convolve(g, divisor) == f
        if f:
            assert min(g.support(), default=0) >= 0


def test_divide_shift_mirror_side():
    rng = random.Random(605)
    s, _ = structure_from_spec({"family": "Z"})
    divisor = Element.delta(s, -1) - Element.delta(s, 0)
    for _ in range(60):
        f = random_zero_aug(rng, s, range(-40, 1), 6)
        g, rep = divide_shift(f)
        assert rep["ok"] and rep["side"] in ("nonpos", "nonneg")
        assert convolve(g, rep["divisor"]) == f


def test_divide_shift_mixed_support_rejected():
    s, _ = structure_from_spec({"family": "Z"})
    f = Element.delta(s, 2) - Element.delta(s, -2)
    with pytest.raises(InvalidInput):
        divide_shift(f)


def test_divide_shift_wrong_structure():
    s, _ = structure_from_spec({"family": "Zd", "params": {"d": 2}})
    with pytest.raises(InvalidInput):
        divide_shift(Element.zero(s))


# ---------------------------------------------------------------------------
# pseudo-finite rewriting
# ---------------------------------------------------------------------------

def test_rewrite_zero_adjoined_one_step():
    s, _ = structure_from_spec({"family": "zero_adjoined", "params": {"rank": 2}})
    e, th = s.identity(), "theta"
    f = Element.delta(s, th) - Element.delta(s, e)
    rep = rewrite_pseudofinite(s, [th], f)
    assert rep["ok"] and rep["pseudo_finite_level"] == 2
    assert len(rep["decomposition"].pairs) == 1
    coeff, gen = rep["decomposition"].pairs[0]
    assert gen == Element.delta(s, e) - Element.delta(s, th)
    assert coeff == Element.zero(s) - Element.delta(s, e)


def test_rewrite_zero_adjoined_level_two():
    s, _ = structure_from_spec({"family": "zero_adjoined", "params": {"rank": 2}})
    e, th = s.identity(), "theta"
    f = Element.delta(s, word(s, 1, 2)) - Element.delta(s, e)
    rep = rewrite_pseudofinite(s, [th], f)
    assert rep["ok"]
    coeff, gen = rep["decomposition"].pairs[0]
    assert coeff == Element.delta(s, word(s, 1, 2)) - Element.delta(s, e)
    rep["decomposition"].verify()


def test_rewrite_zero_element():
    s, _ = structure_from_spec({"family": "zero_adjoined", "params": {"rank": 2}})
    rep = rewrite_pseudofinite(s, ["theta"], Element.zero(s))
    assert rep["ok"] and not rep["decomposition"].pairs


def test_rewrite_random_zero_adjoined():
    rng = random.Random(606)
    s, _ = structure_from_spec({"family": "zero_adjoined", "params": {"rank": 2}})
    th = "theta"
    bt = division_balls(s, [th], 2)
    # B_2 is everything; sample words of length <= 3 plus theta and e
    pool = [s.elem_from_json(u) for u in
            [[], th, [1], [2], [1, 2], [2, 1], [1, 1], [2, 2], [1, 2, 1]]]
    for _ in range(40):
        f = random_zero_aug(rng, s, pool, 5)
        rep = rewrite_pseudofinite(s, [th], f)
        assert rep["ok"]
        rep["decomposition"].verify()
        for _, gen in rep["decomposition"].pairs:
            assert not gen.augmentation()


def test_rewrite_cyclic_group_two_generators():
    rng = random.Random(607)
    T5 = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    s, gens = structure_from_spec(
        {"family": "table", "params": {"table": T5}, "generators": [1, 4]})
    for _ in range(40):
        f = random_zero_aug(rng, s, range(5), 4)
        rep = rewrite_pseudofinite(s, gens, f)
        assert rep["ok"]
        rep["decomposition"].verify()


def test_rewrite_refuses_non_pseudofinite():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": False}})
    f = Element.delta(s, word(s, 1)) - Element.delta(s, word(s))
    with pytest.raises(InvalidInput):
        rewrite_pseudofinite(s, gens, f, depth=10)


def test_rewrite_generator_family_forms():
    # the emitted family is delta_e - delta_x over the generators
    s, _ = structure_from_spec({"family": "zero_adjoined", "params": {"rank": 1}})
    th = "theta"
    f = Element.delta(s, word(s, 1, 1)) - Element.delta(s, th)
    rep = rewrite_pseudofinite(s, [th], f)
    rep["decomposition"].verify()
    assert [t["label"] for t in rep["family"]] == ["delta_e - delta_theta"]
    assert rep["generators"] == ["theta"]


def test_rewrite_over_theta_is_the_closed_form():
    """X = {theta}: f = s (delta_e - delta_theta) with s = f - f(theta)
    delta_theta, as one term, over 200 seeded real and Gaussian elements of
    ranks 1-3."""
    rng = random.Random(2020)
    for trial in range(200):
        rank = 1 + trial % 3
        s, _ = structure_from_spec(
            {"family": "zero_adjoined", "params": {"rank": rank}})
        e, th = s.identity(), "theta"
        pool = [e, th] + [word(s, *(rng.randrange(1, rank + 1)
                                    for _ in range(rng.randrange(1, 4))))
                          for _ in range(5)]
        f = Element(s, [(rng.choice(pool),
                         QC(F(rng.randrange(-5, 6), rng.randrange(1, 8)),
                            F(rng.randrange(-5, 6), rng.randrange(1, 8))
                            if trial % 2 else 0))
                        for _ in range(rng.randrange(1, 6))])
        f = f - Element.delta(s, e, f.augmentation())
        rep = rewrite_pseudofinite(s, [th], f)
        closed = f - Element.delta(s, th, f[th])
        gen = Element.delta(s, e) - Element.delta(s, th)
        assert rep["decomposition"].pairs == ([(closed, gen)] if f else [])
        assert [t["label"] for t in rep["family"]] == (
            ["delta_e - delta_theta"] if f else [])


KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
TRUNCATED_ADDITION = [[min(i + j, 4) for j in range(5)] for i in range(5)]


def _rewrite_emits_identity_differences(s, gens, f):
    """rewrite-pf writes f over delta_e - delta_x, x a non-identity
    generator, each x at most once, and the terms reconvolve to f."""
    e = s.identity()
    X = [x for x in dict.fromkeys(gens) if x != e]
    rep = rewrite_pseudofinite(s, gens, f)
    labels = [t["label"] for t in rep["family"]]
    assert len(labels) == len(set(labels)) <= len(X)
    allowed = {f"delta_e - delta_{s.elem_str(x)}": x for x in X}
    total = Element.zero(s)
    for coeff, gen, label in rep["decomposition"].terms:
        assert label in allowed
        assert gen == Element.delta(s, e) - Element.delta(s, allowed[label])
        assert coeff
        total = total + convolve(coeff, gen)
    assert total == f


@pytest.mark.parametrize("spec", [
    "c5.json",
    {"family": "table", "params": {"table": KLEIN}, "generators": [1, 2]},
    {"family": "table", "params": {"table": TRUNCATED_ADDITION}, "generators": [1]},
    {"family": "table", "params": {"table": TRUNCATED_ADDITION},
     "generators": [2, 1]},
    "a_theta.json",
    "theta_b.json",
], ids=["c5", "klein_12", "truncated_1", "truncated_21", "a_theta", "theta_b"])
def test_rewrite_emits_only_identity_differences(spec):
    if isinstance(spec, str):
        with open(os.path.join(GOLDEN_INPUTS, spec)) as fh:
            spec = json.load(fh)
    s, gens = structure_from_spec(spec)
    if s.size is not None:
        pool = list(range(s.size))
    else:
        pool = [s.identity(), "theta"] + [word(s, *w) for w in
                                          [[1], [2], [1, 2], [2, 1], [2, 2, 1]]]
    rng = random.Random(2021)
    for _ in range(40):
        _rewrite_emits_identity_differences(s, gens, random_zero_aug(rng, s, pool, 5))


def test_rewrite_emits_only_identity_differences_on_random_tables():
    rng = random.Random(2022)
    rewritten = 0
    for _ in range(40):
        table = brute_transformation_monoid(rng)
        s = TableMonoid(table)
        gens = rng.sample(range(len(table)), rng.randrange(1, len(table) + 1))
        if not pseudo_finite_within(s, gens, len(table))["found"]:
            continue
        rewritten += 1
        for _ in range(5):
            f = random_zero_aug(rng, s, range(len(table)), 4)
            _rewrite_emits_identity_differences(s, gens, f)
    assert rewritten >= 10


# ---------------------------------------------------------------------------
# necessity of pseudo-generation
# ---------------------------------------------------------------------------

def test_necessity_stall_refutes():
    T = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    s, _ = structure_from_spec(
        {"family": "table", "params": {"table": T}, "generators": [1]})
    h = Element.delta(s, 0) - Element.delta(s, 1)
    rep = pseudo_generation_necessity(s, [h], 6)
    assert rep["verdict"] == "refuted"
    assert rep["stalled_at"] is not None


def test_necessity_universal_covers():
    s, _ = structure_from_spec({"family": "zero_adjoined", "params": {"rank": 2}})
    h = Element.delta(s, "theta") - Element.delta(s, s.identity())
    rep = pseudo_generation_necessity(s, [h], 6)
    assert rep["verdict"] == "covers"
    assert rep["universal_at"] == 2


def test_necessity_inconclusive_on_growing_balls():
    s, _ = structure_from_spec({"family": "Z"})
    h = Element.delta(s, 1) - Element.delta(s, 0)
    rep = pseudo_generation_necessity(s, [h], 5)
    assert rep["verdict"] == "inconclusive"


def test_necessity_requires_zero_augmentation():
    s, _ = structure_from_spec({"family": "Z"})
    with pytest.raises(InvalidInput):
        pseudo_generation_necessity(s, [Element.delta(s, 1)], 3)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witness_prop45_free_monoid_exact_tails():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 1, "inverses": False}})
    rep = witness_prop45(s, gens, 100)
    assert rep["ok"]
    K = 100
    zeta = basel_partial(K)
    assert rep["zeta"] == zeta
    # sigma_k = sum_(j>k<=K) 1/j^2, exactly
    assert rep["sigma"][0] == zeta
    assert rep["sigma"][K] == 0
    assert rep["sigma"][3] == zeta - 1 - F(1, 4) - F(1, 9)
    assert rep["sigma_partial_sum"] == harmonic_number(K) - zeta
    assert rep["sigma_truncated_lower_bound_ok"]


def test_witness_prop45_witness_element_shape():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 1, "inverses": False}})
    rep = witness_prop45(s, gens, 5)
    f = rep["witness"]
    assert f[s.identity()].re == basel_partial(5)
    assert f[word(s, 1, 1, 1)].re == F(-1, 9)
    assert not f.augmentation()


def test_witness_prop45_refuses_pseudofinite():
    s, _ = structure_from_spec({"family": "zero_adjoined", "params": {"rank": 2}})
    with pytest.raises(InvalidInput):
        witness_prop45(s, ["theta"], 5)


def test_generator_multiple_ball_sums_bounded():
    # sum_n |sigma_n(g * (delta_e - delta_x))| <= 3 sum |g| on the free monoid
    rng = random.Random(608)
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": False}})
    bt = division_balls(s, gens, 6)
    pool = sorted(bt.ball(4), key=s.elem_key)
    for _ in range(50):
        g = Element.zero(s)
        for _ in range(4):
            g = g + Element.delta(s, rng.choice(pool),
                                  F(rng.randrange(-4, 5), rng.randrange(1, 6)))
        for x in gens:
            f = convolve(g, Element.delta(s, s.identity()) - Element.delta(s, x))
            vals, stable = sigma_sequence(f, bt)
            assert vals[stable].re == 0 and vals[stable].im == 0
            total = sum((abs(v.re) + abs(v.im) for v in vals[:stable]), F(0))
            g_l1 = sum((abs(g[u].re) + abs(g[u].im) for u in g.support()), F(0))
            assert total <= 3 * g_l1


def test_witness_nontp_spike_exceeds_trivial_ceiling():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": False}})
    alphas = [F(0)] * 9 + [F(1)]
    rep = witness_nontp_element(s, gens, TrivialWeight(), alphas)
    # T = 1 + 9 = 10 > (2+1) * ||f|| = 3 * 2 = 6
    assert rep["weighted_sigma_sum"] == 10
    assert rep["ceiling"] == 6
    assert rep["exceeds_single_generator_ceiling"]
    assert rep["implied_divisor_norm_lower_bound"] == F(10, 3)


def test_witness_nontp_geometric_weight_never_flags():
    s, gens = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    alphas = [F(1, (n + 1) ** 2) for n in range(20)]
    rep = witness_nontp_element(s, gens, RadialExpWeight(F(2), F(1)), alphas)
    assert not rep["exceeds_single_generator_ceiling"]
    # the chosen points attain the sphere minima
    for n, y in enumerate(rep["points"], start=1):
        assert (RadialExpWeight(F(2), F(1)).eval(s, s.elem_from_json(y))
                == rep["taus"][n - 1])


def test_witness_nontp_rejects_negative_alpha():
    s, gens = structure_from_spec({"family": "Z"})
    with pytest.raises(InvalidInput):
        witness_nontp_element(s, gens, TrivialWeight(), [F(1), F(-1)])


def test_witness_thm75_single_block():
    rep = witness_thm75(F(2), 1)
    assert rep["ok"]
    # K = 1: norm = omega_(n_1+1)/omega_(n_1) = (5/2)^2/3 = 25/12, H_1 = 1
    ne = rep["norm_enclosure"]
    assert ne.lo == ne.hi == F(25, 12)
    assert rep["divisor_partial_norm"] == 1
    assert rep["norm_upper_bound_exact"] == 3 * basel_partial(1)


def test_witness_thm75_small_blocks_exact():
    rep = witness_thm75(F(2), 3)
    w, _ = build_lemma74(F(2), 3)
    expect = F(0)
    for k in (1, 2, 3):
        exact, lo, _, d = w.step_ratio_ints(k)
        assert exact
        expect += F(lo, k * (d << w.bits))
    ne = rep["norm_enclosure"]
    assert ne.lo <= expect <= ne.hi
    assert rep["divisor_partial_norm"] == harmonic_number(3)
    assert rep["element_norm_bounded"] and rep["divisor_partials_divergent"]
    # alpha sites live just past the block markers
    sites = [a["site"] for a in rep["alpha_symbolic"]]
    assert sites == [m + 1 for m in rep["markers"]]
