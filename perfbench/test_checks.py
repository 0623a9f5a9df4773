"""Each check accepts the program's real report and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py

The reports come from `waug` itself, on inputs small enough to keep the
test quick; the corruption changes one value that the check recomputes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from workloads import F2, F2_NONSTANDARD, M3, Z3, _cyclic_table  # noqa: E402

from waug.cli import main  # noqa: E402

ZA2 = {"family": "zero_adjoined", "params": {"rank": 2}, "generators": [[1], "theta"]}
EXP2 = {"family": "radial_exp", "params": {"c": 2}}
EXP_HALF = {"family": "radial_exp", "params": {"c": "3/2", "beta": "1/2"}}
L76 = {"family": "lemma76", "params": {"rho": "3", "N": 31}}


def _elem(terms):
    return {"terms": [{"elem": u, "re": re, "im": im} for u, re, im in terms]}


F2_ELEMENT = _elem([([], "-1", "0"), ([1, 2], "1/2", "1"), ([-2], "1/2", "-1"),
                    ([2, 1, -2], "0", "0")])
F2_REAL = _elem([([], "-3/2", "0"), ([1], "2", "0"), ([2, -1], "-1/2", "0")])


def _write(tmp_path, name, obj):
    p = tmp_path / name
    if isinstance(obj, list):      # a sequence
        p.write_text("index,numerator,denominator\n" + "".join(
            f"{n},{Fraction(v).numerator},{Fraction(v).denominator}\n"
            for n, v in enumerate(obj, start=1)))
    else:
        p.write_text(json.dumps(obj))
    return str(p)


def _json_edit(fn):
    def corrupt(text):
        obj = json.loads(text)
        fn(obj["result"])
        return json.dumps(obj)
    return corrupt


def _csv_edit(row, col, value):
    def corrupt(text):
        lines = text.splitlines()
        cells = lines[row].split(",")
        cells[col] = value
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return corrupt


def _bump(x):
    return str(Fraction(x) + 1)


def _add_cancelling_pair(res):
    """Reconvolves to the same target, but one coefficient is huge."""
    pairs = res["decomposition"]["pairs"]
    big = {"terms": [{"elem": [], "re": "1000000", "im": "0"}]}
    neg = {"terms": [{"elem": [], "re": "-1000000", "im": "0"}]}
    gen = pairs[0]["generator"]
    pairs += [{"coefficient": big, "generator": gen}, {"coefficient": neg, "generator": gen}]


def _nudge_enclosure(enc):
    shift = Fraction(1, 10 ** 30)
    enc["lo"] = str(Fraction(enc["lo"]) + shift)
    enc["hi"] = str(Fraction(enc["hi"]) + shift)


# "kind" or "kind__variant" -> (inputs, argv(paths), check params(paths), corruption)
CASES = {
    "ball": (
        {"s": Z3}, lambda p: ["structure", "ball", "--spec", p["s"], "--depth", "5"],
        lambda p: {"spec": Z3, "depth": 5, "format": "json"},
        _json_edit(lambda r: r["levels"][3].pop())),
    "ball__csv": (
        {"s": M3},
        lambda p: ["structure", "ball", "--spec", p["s"], "--depth", "4", "--format", "csv"],
        lambda p: {"spec": M3, "depth": 4, "format": "csv"}, _csv_edit(3, 1, "41")),
    "ball__universal": (
        {"s": ZA2}, lambda p: ["structure", "ball", "--spec", p["s"], "--depth", "4"],
        lambda p: {"spec": ZA2, "depth": 4, "format": "json"},
        _json_edit(lambda r: r.update(universal_at=3))),
    "pseudofinite": (
        {"s": {"family": "table", "params": {"table": _cyclic_table(11)},
               "generators": [3]}},
        lambda p: ["structure", "pseudofinite", "--spec", p["s"], "--depth", "8"],
        lambda p: {"spec": {"family": "table", "params": {"table": _cyclic_table(11)},
                            "generators": [3]}, "depth": 8},
        _json_edit(lambda r: r.update(n=r["n"] + 1))),
    "tau_trivial_cyclic": (
        {"s": {"family": "table", "params": {"table": _cyclic_table(11)},
               "generators": [2]}, "w": {"family": "trivial"}},
        lambda p: ["weight", "tau", "--spec", p["s"], "--weight", p["w"], "--depth", "4"],
        lambda p: {"depth": 4}, _json_edit(lambda r: r["sphere_sizes"].__setitem__(1, 3))),
    "ancestry": (
        {"s": F2},
        lambda p: ["structure", "ancestry", "--spec", p["s"], "--target", "[1, -2, -2]",
                   "--depth", "3"],
        lambda p: {"spec": F2, "target": [1, -2, -2]},
        _json_edit(lambda r: r["chain"][1].update(x=[1]))),
    "necessity": (
        {"s": F2, "f": F2_REAL},
        lambda p: ["ideal", "necessity", "--spec", p["s"], "--element", p["f"],
                   "--depth", "3"],
        lambda p: {"spec": F2, "elements": [p["f"]], "depth": 3},
        _json_edit(lambda r: r.update(verdict="refuted"))),
    "sigma": (
        {"s": F2, "f": F2_ELEMENT},
        lambda p: ["element", "sigma", "--spec", p["s"], "--element", p["f"], "--depth", "4"],
        lambda p: {"spec": F2, "element": p["f"], "depth": 4, "format": "json"},
        _json_edit(lambda r: r["sigma"][2].update(im=_bump(r["sigma"][2]["im"])))),
    "sigma__csv": (
        {"s": F2, "f": F2_ELEMENT},
        lambda p: ["element", "sigma", "--spec", p["s"], "--element", p["f"], "--depth", "4",
                   "--format", "csv"],
        lambda p: {"spec": F2, "element": p["f"], "depth": 4, "format": "csv"},
        _csv_edit(2, 1, "7")),
    "tau_check": (
        {"q": [1, 3, 4, 20, 21, 200]}, lambda p: ["tau", "check", "--csv", p["q"]],
        lambda p: {"csv": p["q"]}, _json_edit(lambda r: r.update(D_hat=_bump(r["D_hat"])))),
    "tau_growth": (
        {"q": [1, 3, 4, 20, 21, 200]},
        lambda p: ["tau", "growth", "--csv", p["q"], "--target", "1/2"],
        lambda p: {"csv": p["q"], "D": "1/2"},
        _json_edit(lambda r: r.update(hypothesis_first_failure=2))),
    "tau_witness": (
        {"q": [3 * 2 ** n for n in range(1, 12)]},
        lambda p: ["tau", "witness", "--csv", p["q"], "--target", "3/2"],
        lambda p: {"csv": p["q"], "target": "3/2"}, _json_edit(lambda r: r.update(found=True))),
    "blockseq": (
        {}, lambda p: ["tau", "blockseq", "--rho", "3/2", "--blocks", "6"],
        lambda p: {"rho": "3/2", "blocks": 6, "format": "json"},
        _json_edit(lambda r: r["boundary_ratios"][3].update(ratio="1/4"))),
    "blockseq__csv": (
        {}, lambda p: ["tau", "blockseq", "--rho", "2", "--blocks", "6", "--format", "csv"],
        lambda p: {"rho": "2", "blocks": 6, "format": "csv"}, _csv_edit(5, 1, "33")),
    "decompose_point": (
        {"s": F2_NONSTANDARD, "w": EXP2},
        lambda p: ["ideal", "decompose-point", "--spec", p["s"], "--weight", p["w"],
                   "--target", "[1, 2, 1, 2, -1]", "--d", "1/2"],
        lambda p: {"spec": F2_NONSTANDARD, "c": 2, "target": [1, 2, 1, 2, -1], "D": "1/2"},
        _json_edit(lambda r: r["decomposition"]["pairs"][0]["coefficient"]["terms"]
                   .pop())),
    "decompose_full": (
        {"s": F2, "w": EXP2, "f": F2_ELEMENT},
        lambda p: ["ideal", "decompose-full", "--spec", p["s"], "--weight", p["w"],
                   "--element", p["f"], "--d", "1"],
        lambda p: {"spec": F2, "c": 2, "element": p["f"], "D": "1"},
        _json_edit(_add_cancelling_pair)),
    "divide_shift": (
        {"s": {"family": "Z"}, "f": _elem([(0, "-3", "0"), (2, "1", "0"), (5, "2", "0")])},
        lambda p: ["ideal", "divide-shift", "--spec", p["s"], "--element", p["f"]],
        lambda p: {"element": p["f"]},
        _json_edit(lambda r: r["g"]["terms"][1].update(re=_bump(r["g"]["terms"][1]["re"])))),
    "rewrite_pf": (
        {"s": ZA2, "f": _elem([([], "2", "0"), ([1, 2], "-1", "1"), ("theta", "-1", "-1")])},
        lambda p: ["ideal", "rewrite-pf", "--spec", p["s"], "--element", p["f"]],
        lambda p: {"spec": ZA2, "element": p["f"]},
        _json_edit(lambda r: r["decomposition"]["pairs"][-1]["coefficient"]["terms"][0]
                   .update(im="5"))),
    "telescope": (
        {"s": F2, "f": F2_ELEMENT},
        lambda p: ["ideal", "telescope", "--spec", p["s"], "--element", p["f"]],
        lambda p: {"spec": F2, "element": p["f"]},
        _json_edit(lambda r: r["betas"][0]["beta"].update(re="7"))),
    "convolve": (
        {"s": F2, "f": F2_ELEMENT, "g": F2_REAL},
        lambda p: ["element", "convolve", "--spec", p["s"], "--element", p["f"],
                   "--element", p["g"]],
        lambda p: {"spec": F2, "elements": [p["f"], p["g"]]},
        _json_edit(lambda r: r["product"]["terms"].pop(3))),
    "build_l74": (
        {}, lambda p: ["weight", "build-l74", "--rho", "5/2", "--blocks", "30"],
        lambda p: {"rho": "5/2", "blocks": 30, "seed": 1},
        _json_edit(lambda r: r["markers"].__setitem__(-1, r["markers"][-1] + 1))),
    "witness_75": (
        {}, lambda p: ["ideal", "witness-75", "--rho", "2", "--blocks", "25"],
        lambda p: {"rho": "2", "blocks": 25, "seed": 1},
        _json_edit(lambda r: r.update(divisor_partial_norm=_bump(r["divisor_partial_norm"])))),
    "witness_75__norm": (
        {}, lambda p: ["ideal", "witness-75", "--rho", "2", "--blocks", "25"],
        lambda p: {"rho": "2", "blocks": 25, "seed": 1},
        _json_edit(lambda r: r.update(norm_enclosure={"lo": "1", "hi": "10"}))),
    "build_l76": (
        {}, lambda p: ["weight", "build-l76", "--rho", "3", "--depth", "40"],
        lambda p: {"rho": "3", "depth": 40},
        _json_edit(lambda r: r["gamma"].__setitem__(33, _bump(r["gamma"][33])))),
    "weight_verify": (
        {"s": {"family": "Z"}, "w": L76},
        lambda p: ["weight", "verify", "--spec", p["s"], "--weight", p["w"], "--radius", "20"],
        lambda p: {"weight": L76, "radius": 20},
        _json_edit(lambda r: r.update(pairs_checked=r["pairs_checked"] - 1))),
    "radii": (
        {"s": {"family": "Z"}, "w": EXP_HALF},
        lambda p: ["weight", "radii", "--spec", p["s"], "--weight", p["w"], "--depth", "6"],
        lambda p: {"weight": EXP_HALF, "depth": 6},
        _json_edit(lambda r: _nudge_enclosure(r["per_n_pos"][4]))),
    "radii__l76": (
        {"s": {"family": "Z"}, "w": L76},
        lambda p: ["weight", "radii", "--spec", p["s"], "--weight", p["w"], "--depth", "9"],
        lambda p: {"weight": L76, "depth": 9},
        _json_edit(lambda r: _nudge_enclosure(r["rho1_hat"]))),
    "norm_l76": (
        {"s": {"family": "Z"}, "w": L76,
         "f": _elem([(-7, "2", "0"), (0, "-1/3", "0"), (12, "5", "0")])},
        lambda p: ["element", "norm", "--spec", p["s"], "--weight", p["w"],
                   "--element", p["f"]],
        lambda p: {"weight": L76, "element": p["f"]},
        _json_edit(lambda r: r.update(norm=_bump(r["norm"])))),
}


def _run(tmp_path, name):
    inputs, argv, params, corrupt = CASES[name]
    paths = {k: _write(tmp_path, f"{k}.{'csv' if isinstance(v, list) else 'json'}", v)
             for k, v in inputs.items()}
    out = str(tmp_path / "report.out")
    with contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv(paths) + ["--out", out])
    cmd = {"argv": argv(paths), "check": (name.split("__")[0], params(paths))}
    return cmd, rc, out, corrupt


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_accepts_report_and_rejects_corruption(tmp_path, name):
    cmd, rc, out, corrupt = _run(tmp_path, name)
    assert checks.verdict(cmd, rc, None, out) is None
    with open(out) as fh:
        text = fh.read()
    bad = corrupt(text)
    assert bad != text
    with open(out, "w") as fh:
        fh.write(bad)
    assert checks.verdict(cmd, rc, None, out) is not None


def test_every_check_kind_is_exercised():
    assert {name.split("__")[0] for name in CASES} == set(checks.CHECKS)


def test_wrong_exit_code_is_a_failure(tmp_path):
    cmd, rc, out, _ = _run(tmp_path, "tau_witness")
    assert rc == 1
    assert checks.verdict(cmd, 0, None, out) is not None


def test_known_fault_and_other_exceptions(tmp_path):
    cmd = {"argv": [], "check": ("witness_75", {}), "fault": "ValueError"}
    assert checks.verdict(cmd, None, "ValueError", "") == checks.KNOWN_FAULT
    assert checks.verdict(cmd, None, "TypeError", "") not in (None, checks.KNOWN_FAULT)
    assert checks.verdict(cmd, 0, None, str(tmp_path / "missing.out")) is not None
