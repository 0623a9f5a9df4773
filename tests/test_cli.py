"""Command-line interface: exit codes, report envelopes, byte stability."""

import hashlib
import json
import math
import os
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import waug.certify as certify_mod
from waug.certify import basel_partial, harmonic_number
from waug.cli import COMMANDS, SPEC, WEIGHT, main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def f2(tmp_path):
    return write_json(tmp_path / "f2.json",
                      {"family": "free", "params": {"rank": 2, "inverses": True}})


@pytest.fixture
def zline(tmp_path):
    return write_json(tmp_path / "z.json", {"family": "Z"})


def test_ball_report_envelope(capsys, f2):
    code, out, err = run(capsys, "structure", "ball", "--spec", f2,
                         "--depth", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["tool"] == "waug" and rep["ok"]
    assert rep["operation"] == "structure ball"
    assert rep["result"]["ball_sizes"] == [1, 5, 17, 53]
    assert "sha256" in rep["inputs"]["spec"]
    assert "duration" not in out
    assert "duration_ms=" in err


def test_reports_are_byte_identical_across_runs(capsys, f2):
    argv = ["structure", "ball", "--spec", f2, "--depth", "4"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_flag_writes_file(capsys, tmp_path, f2):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "structure", "ball", "--spec", f2,
                       "--depth", "2", "--out", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["ok"]


def test_ball_csv_format(capsys, zline):
    code, out, _ = run(capsys, "structure", "ball", "--spec", zline,
                       "--depth", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,ball_size,sphere_size"
    assert out.splitlines()[1] == "0,1,1"
    assert out.splitlines()[-1] == "3,7,2"


def test_weight_tau_csv_then_check_loop(capsys, tmp_path, f2, monkeypatch):
    wfile = write_json(tmp_path / "w.json",
                       {"family": "radial_poly", "params": {"alpha": "2"}})
    tau_csv = tmp_path / "tau.csv"
    code, _, _ = run(capsys, "weight", "tau", "--spec", f2,
                     "--weight", wfile, "--depth", "6",
                     "--format", "csv", "--out", str(tau_csv))
    assert code == 0
    lines = tau_csv.read_text().splitlines()
    assert lines[0] == "n,tau_num,tau_den"
    assert lines[1] == "1,4,1"  # tau_1 = (1+1)^2
    code, out, _ = run(capsys, "tau", "check", "--csv", str(tau_csv))
    assert code == 0
    rep = json.loads(out)
    assert rep["operation"] == "tau check"


def test_exit_one_when_witness_fails(capsys, tmp_path, zline):
    # dividing an element with nonzero augmentation: report ok=false, exit 1
    efile = write_json(tmp_path / "e.json",
                       {"terms": [{"elem": 3, "re": "1", "im": "0"}]})
    code, out, _ = run(capsys, "ideal", "divide-shift", "--spec", zline,
                       "--element", efile)
    assert code == 1
    rep = json.loads(out)
    assert not rep["ok"]
    assert rep["result"]["reason"]


def test_exit_two_on_malformed_element(capsys, tmp_path, zline):
    efile = tmp_path / "bad.json"
    efile.write_text('{"terms": [')
    code, out, err = run(capsys, "element", "augment", "--spec", zline,
                         "--element", str(efile))
    assert code == 2
    assert out == "" and "JSON parse error" in err


def test_exit_two_on_low_precision(capsys, f2):
    code, _, err = run(capsys, "structure", "ball", "--spec", f2,
                       "--depth", "2", "--precision", "4")
    assert code == 2 and "precision" in err


def test_exit_two_on_high_precision(capsys):
    # past 65536 bits a lemma-7.4 build would run every probe at that
    # precision; it is refused before any work starts
    code, out, err = run(capsys, "weight", "build-l74", "--rho", "2",
                         "--blocks", "300", "--precision", "65537")
    assert code == 2 and out == ""
    assert err == "waug: --precision must be between 8 and 65536 bits\n"


def test_precision_at_its_ceiling_is_accepted(capsys):
    # 65536 bits is MAX_BITS, where ratio_pow_less's escalation ends; the
    # build certifies what it certifies at the default precision
    argv = ["weight", "build-l74", "--rho", "2", "--blocks", "12"]
    code, out, _ = run(capsys, *argv, "--precision", "65536")
    assert code == 0
    top = json.loads(out)["result"]
    assert top["step_bounds"][-1]["method"] == "certified-dyadic"
    code, out, _ = run(capsys, *argv)
    want = json.loads(out)["result"]
    assert (top["markers"], top["step_bounds"]) == (want["markers"], want["step_bounds"])


def test_undecided_power_comparison_exits_two_on_one_line(capsys, monkeypatch):
    # with the escalation ceiling and the exact cap shrunk, an 8-bit build's
    # first straddling probe runs out of both: a resource error on one line
    monkeypatch.setattr(certify_mod, "MAX_BITS", 8)
    monkeypatch.setattr(certify_mod, "EXACT_RATIO_BITS", 1)
    code, out, err = run(capsys, "weight", "build-l74", "--rho", "2",
                         "--blocks", "300", "--precision", "8")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("waug: error: a power comparison at exponent ")
    assert err.endswith(" is undecided at 8 bits and too large to decide exactly\n")


def test_exit_two_on_unknown_structure_family(capsys, tmp_path):
    sfile = write_json(tmp_path / "s.json", {"family": "frobnicate"})
    code, _, err = run(capsys, "structure", "ball", "--spec", sfile,
                       "--depth", "2")
    assert code == 2 and "frobnicate" in err


def test_convolve_two_elements(capsys, tmp_path, zline):
    e1 = write_json(tmp_path / "e1.json",
                    {"terms": [{"elem": 1, "re": "1", "im": "0"},
                               {"elem": 0, "re": "-1", "im": "0"}]})
    e2 = write_json(tmp_path / "e2.json",
                    {"terms": [{"elem": 0, "re": "1", "im": "0"},
                               {"elem": 1, "re": "1", "im": "0"},
                               {"elem": 2, "re": "1", "im": "0"}]})
    code, out, _ = run(capsys, "element", "convolve", "--spec", zline,
                       "--element", e1, "--element", e2)
    assert code == 0
    rep = json.loads(out)
    # (delta_1 - delta_0) * (delta_0 + delta_1 + delta_2) = delta_3 - delta_0
    terms = {t["elem"]: t["re"] for t in rep["result"]["product"]["terms"]}
    assert terms == {0: "-1", 3: "1"}


def test_sigma_csv_columns(capsys, tmp_path, zline):
    efile = write_json(tmp_path / "e.json",
                       {"terms": [{"elem": 2, "re": "1", "im": "0"},
                                  {"elem": 0, "re": "-1", "im": "0"}]})
    code, out, _ = run(capsys, "element", "sigma", "--spec", zline,
                       "--element", efile, "--depth", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,re_num,re_den,im_num,im_den"
    # sigma_0 = -1 (only delta_0 inside B_0), sigma_2.. = 0
    assert lines[1] == "0,-1,1,0,1"
    assert lines[3] == "2,0,1,0,1"


def test_decompose_point_cli(capsys, tmp_path, f2):
    wfile = write_json(tmp_path / "w.json",
                       {"family": "radial_exp", "params": {"c": "2"}})
    code, out, _ = run(capsys, "ideal", "decompose-point", "--spec", f2,
                       "--weight", wfile, "--target", '[1, 2]', "--d", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["bound"] == "4"
    assert rep["result"]["norm_ok"]


def test_huge_decimal_exponents_are_refused_at_parse(capsys, tmp_path, zline):
    # Fraction would build 10^(10^8) in full; the exponent alone refuses it
    wfile = write_json(tmp_path / "w.json",
                       {"family": "radial_exp", "params": {"c": "1e100000000"}})
    for argv in (["tau", "blockseq", "--rho", "1e100000000", "--blocks", "2"],
                 ["weight", "verify", "--spec", zline, "--weight", wfile, "--radius", "2"]):
        started = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - started < 1
        assert code == 2 and out == ""
        assert err == ("waug: error: '1e100000000': its decimal exponent reaches "
                       "the digit limit\n")
    # 1e400 stays a rational, 10^400, whose blocks grow by rho
    code, out, _ = run(capsys, "tau", "blockseq", "--rho", "1e400", "--blocks", "2")
    assert code == 0 and json.loads(out)["result"]["boundary_all_ok"]


def _gaussian_element(terms):
    """An element file's object from (word, z) pairs, z a Gaussian integer."""
    return {"terms": [{"elem": u, "re": str(int(z.real)), "im": str(int(z.imag))}
                      for u, z in terms]}


def test_undecided_decomposition_bound_exits_two(capsys, tmp_path, f2, monkeypatch):
    # f = (z1 + z2) delta_e - z1 delta_a - z2 delta_b with z1 = 1+i, z2 = 1+2i
    # on w_exp2: ||s_a|| = sqrt 2 against the bound 2 (sqrt 2 + sqrt 5) / D,
    # and D just below 2 + sqrt 10 leaves a nonzero gap below 2^-41
    z1, z2 = 1 + 1j, 1 + 2j
    efile = write_json(tmp_path / "e.json",
                       _gaussian_element([([], z1 + z2), ([1], -z1), ([2], -z2)]))
    wfile = write_json(tmp_path / "w.json", {"family": "radial_exp", "params": {"c": "2"}})
    D = Fraction(2 * 2 ** 40 + math.isqrt(10 * 2 ** 80), 2 ** 40)
    argv = ["ideal", "decompose-full", "--spec", f2, "--weight", wfile,
            "--element", efile, "--d", str(D), "--precision", "8"]
    code, out, _ = run(capsys, *argv)
    assert code == 1  # b's bound fails; a's holds, decided past 8 bits
    assert json.loads(out)["result"]["norm_status"] == {"a": "proved", "b": "violated"}
    monkeypatch.setattr(certify_mod, "MAX_BITS", 16)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "waug: error: a sum of square roots is undecided at 16 bits\n"


_WORDS = [[1], [2], [-1], [1, 2], [2, 2], [-2, 1], [1, -2, 1]]
_INPUTS = os.path.join(os.path.dirname(__file__), "golden", "inputs")
F2_GOLDEN, W_EXP2 = (os.path.join(_INPUTS, name) for name in ("f2.json", "w_exp2.json"))


@settings(max_examples=60)
@given(coeffs=st.lists(st.tuples(st.sampled_from(_WORDS), st.integers(-4, 4)),
                       min_size=1, max_size=4),
       z=st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any),
       d=st.sampled_from(["1/2", "1", "2", "3", "4"]))
def test_gaussian_scalars_keep_the_decomposition_verdicts(coeffs, z, d):
    # s_x and the bound are linear in f, so z f scales both sides of every
    # norm comparison by |z|: the verdicts and the exit code stay those of
    # the real f, ties included (f = c (delta_e - delta_a) ties at D = 2)
    z = complex(*z)
    f = [([], -sum(c for _, c in coeffs)), *coeffs]
    got = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, scale in enumerate((1, z)):
            efile = os.path.join(tmp, f"e{k}.json")
            with open(efile, "w") as fh:
                json.dump(_gaussian_element([(u, scale * c) for u, c in f]), fh)
            out = os.path.join(tmp, f"out{k}.json")
            code = main(["ideal", "decompose-full", "--spec", F2_GOLDEN, "--weight", W_EXP2,
                         "--element", efile, "--d", d, "--out", out])
            with open(out) as fh:
                got.append((code, json.load(fh)["result"].get("norm_status")))
    assert got[0] == got[1]


def test_witness_45_cli(capsys, tmp_path):
    sfile = write_json(tmp_path / "m.json",
                       {"family": "free", "params": {"rank": 1,
                                                     "inverses": False}})
    code, out, _ = run(capsys, "ideal", "witness-45", "--spec", sfile,
                       "--depth", "12")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["sigma_truncated_lower_bound_ok"]


def test_blockseq_csv_feeds_tau_check(capsys, tmp_path):
    seq_csv = tmp_path / "blk.csv"
    code, _, _ = run(capsys, "tau", "blockseq", "--rho", "2", "--blocks", "4",
                     "--format", "csv", "--out", str(seq_csv))
    assert code == 0
    code, out, _ = run(capsys, "tau", "check", "--csv", str(seq_csv))
    assert code in (0, 1)  # verdict depends on the data, not a crash
    rep = json.loads(out)
    assert rep["operation"] == "tau check"


@pytest.mark.parametrize("rho,blocks,digest", [
    ("3/2", "80", "757f83162ef53190b1c057b26f102c44ad6a44c78b3e1fdbd32d9454729e8216"),
    ("5/2", "70", "9d48f7fec098a7d72756ac565e80c056e266d4dac9b568136939850f9bd8e5eb")])
def test_big_blockseq_csv_bytes_are_pinned(capsys, rho, blocks, digest):
    # 3,320 and 2,555 rows of numbers with up to about 1,800 digits, far past
    # the goldens' K = 5; the digests are those of the Fraction builder's CSVs
    code, out, _ = run(capsys, "tau", "blockseq", "--rho", rho,
                       "--blocks", blocks, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("rho,blocks", [("2", 3000), ("3/2", 1500)])
def test_witness_75_report_at_scale(capsys, tmp_path, rho, blocks):
    # the exact norm sums would pass the interpreter's 4300-digit int->str
    # limit here; the report carries an outward-rounded dyadic enclosure
    out = tmp_path / "w75.json"
    code, _, err = run(capsys, "ideal", "witness-75", "--rho", rho,
                       "--blocks", str(blocks), "--out", str(out))
    assert code == 0 and "Traceback" not in err
    enc = json.loads(out.read_text())["result"]["norm_enclosure"]
    lo, hi = Fraction(enc["lo"]), Fraction(enc["hi"])
    assert 0 < lo <= hi <= (Fraction(rho) + 1) * basel_partial(blocks)
    assert hi - lo < Fraction(1, 10 ** 30)


@pytest.mark.parametrize("blocks,rounded", [
    (5000, ["norm_upper_bound_exact"]),
    (10000, ["norm_upper_bound_exact", "divisor_partial_norm"])])
def test_witness_75_past_the_digit_limit(capsys, tmp_path, blocks, rounded):
    # the exact bound 3 zeta_K passes the 4300-digit int->str limit from
    # about K = 4,970 and H_K at K = 10^4; each is then reported as an
    # outward-rounded enclosure of itself, and below the limit exactly
    out = tmp_path / "w75.json"
    code, _, err = run(capsys, "ideal", "witness-75", "--rho", "2",
                       "--blocks", str(blocks), "--out", str(out))
    assert code == 0 and "Traceback" not in err
    result = json.loads(out.read_text())["result"]
    for field, exact in [("norm_upper_bound_exact", 3 * basel_partial(blocks)),
                         ("divisor_partial_norm", harmonic_number(blocks))]:
        got = result[field]
        if field in rounded:
            lo, hi = Fraction(got["lo"]), Fraction(got["hi"])
            assert lo <= exact <= hi and hi - lo < Fraction(1, 10 ** 30)
        else:
            assert Fraction(got) == exact


@pytest.mark.parametrize("rho,blocks", [("7/2", "120"), ("2", "100000000000")])
def test_blockseq_too_many_blocks_is_refused_up_front(capsys, rho, blocks):
    started = time.monotonic()
    code, out, err = run(capsys, "tau", "blockseq", "--rho", rho,
                         "--blocks", blocks)
    assert time.monotonic() - started < 5
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "--blocks" in err and "Traceback" not in err


@pytest.mark.parametrize("rho,depth", [("1000", "2047"), ("2", "20000")])
def test_build_l76_too_deep_is_refused_up_front(capsys, rho, depth):
    # the largest ratio check would pass the 4300-digit int->str limit
    started = time.monotonic()
    code, out, err = run(capsys, "weight", "build-l76", "--rho", rho,
                         "--depth", depth)
    assert time.monotonic() - started < 5
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"N = {depth}" in err and "-digit limit" in err


def test_build_l76_just_below_the_digit_limit_runs(capsys):
    code, out, _ = run(capsys, "weight", "build-l76", "--rho", "1000",
                       "--depth", "2046")
    assert code == 0
    assert json.loads(out)["result"]["certified"]


def test_unsupported_csv_format_refused(capsys, tmp_path, zline):
    efile = write_json(tmp_path / "e.json",
                       {"terms": [{"elem": 0, "re": "1", "im": "0"}]})
    code, _, err = run(capsys, "element", "augment", "--spec", zline,
                       "--element", efile, "--format", "csv")
    assert code == 2 and "csv" in err.lower()


def test_necessity_cli_refuted(capsys, tmp_path):
    T = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    sfile = write_json(tmp_path / "k4.json",
                       {"family": "table", "params": {"table": T},
                        "generators": [1]})
    efile = write_json(tmp_path / "h.json",
                       {"terms": [{"elem": 0, "re": "1", "im": "0"},
                                  {"elem": 1, "re": "-1", "im": "0"}]})
    code, out, _ = run(capsys, "ideal", "necessity", "--spec", sfile,
                       "--element", efile, "--depth", "6")
    assert code == 1
    assert json.loads(out)["result"]["verdict"] == "refuted"


def test_version_field_matches_package(capsys, zline):
    import waug
    code, out, _ = run(capsys, "structure", "ball", "--spec", zline,
                       "--depth", "1")
    assert code == 0
    assert json.loads(out)["version"] == waug.__version__


_NEGATIVE_DEPTH_COMMANDS = {
    # argv, and the flag that takes the negative value
    "ball": (["structure", "ball"], "--depth"),
    "ancestry": (["structure", "ancestry", "--target", "POINT"], "--depth"),
    "pseudofinite": (["structure", "pseudofinite"], "--depth"),
    "sigma": (["element", "sigma", "--element", "ELEMENT"], "--depth"),
    "necessity": (["ideal", "necessity", "--element", "ELEMENT"], "--depth"),
    "decompose-point": (["ideal", "decompose-point", "--weight", "WEIGHT",
                         "--target", "POINT", "--d", "1"], "--depth"),
    "decompose-full": (["ideal", "decompose-full", "--weight", "WEIGHT",
                        "--element", "ELEMENT", "--d", "1"], "--depth"),
    "weight-verify": (["weight", "verify", "--weight", "WEIGHT"], "--radius"),
    "weight-tau": (["weight", "tau", "--weight", "WEIGHT"], "--depth"),
}
_NEGATIVE_DEPTH_SPECS = {
    # spec, a point, an augmentation-zero element, a weight: radial on Z,
    # explicit on theta, so the weight commands take both their radial and
    # their enumerating paths
    "Z": ({"family": "Z"}, "1", [0, 1],
          {"family": "radial_poly", "params": {"alpha": "2"}}),
    "theta": ({"family": "zero_adjoined", "params": {"rank": 2},
               "generators": ["theta"]}, "theta", [[], "theta"],
              {"family": "explicit",
               "params": {"values": {"e": "1", "theta": "1"}}}),
}


@pytest.mark.parametrize("command", sorted(_NEGATIVE_DEPTH_COMMANDS))
@pytest.mark.parametrize("family", sorted(_NEGATIVE_DEPTH_SPECS))
def test_negative_depth_is_an_input_error(capsys, tmp_path, command, family):
    spec, point, (a, b), weight = _NEGATIVE_DEPTH_SPECS[family]
    sfile = write_json(tmp_path / "s.json", spec)
    efile = write_json(tmp_path / "e.json",
                       {"terms": [{"elem": a, "re": "1", "im": "0"},
                                  {"elem": b, "re": "-1", "im": "0"}]})
    wfile = write_json(tmp_path / "w.json", weight)
    argv, flag = _NEGATIVE_DEPTH_COMMANDS[command]
    argv = [{"POINT": point, "ELEMENT": efile, "WEIGHT": wfile}.get(arg, arg)
            for arg in argv]
    code, out, err = run(capsys, *argv, "--spec", sfile, flag, "-3")
    assert code == 2
    assert out == "" and flag[2:] in err and "Traceback" not in err


F2_SPEC = {"family": "free", "params": {"rank": 2, "inverses": True}}
EXPLICIT_F2 = {"family": "explicit", "params": {"values": {"e": "1", "a": "2"}}}
LEMMA76 = {"family": "lemma76", "params": {"rho": "2", "N": 7}}


def golden_input(name):
    with open(os.path.join(os.path.dirname(__file__), "golden", "inputs", name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("command", ["ball", "pseudofinite", "ancestry"])
@pytest.mark.parametrize("name,target", [("c5.json", "1"), ("theta.json", '"theta"')])
def test_depth_past_a_stopped_walk_is_refused(capsys, command, name, target):
    # the walk stops at a fixpoint (c5) or a universal ball (theta); the
    # empty levels after it, one per n up to the depth, count against the cap
    depth = str(10 ** 19)
    spec = os.path.join(os.path.dirname(__file__), "golden", "inputs", name)
    argv = ["structure", command, "--spec", spec, "--depth", depth]
    started = time.monotonic()
    code, out, err = run(capsys, *argv, *(["--target", target] if command == "ancestry" else []))
    assert time.monotonic() - started < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("waug: error: ")
    assert f"B_0..B_{depth}" in err and "over the cap" in err
    assert "Error" not in err and "ResourceLimit" not in err


@pytest.mark.parametrize("command,flag,value", [
    ("decompose-point", "--target", "[1,2]"),
    ("decompose-full", "--element", "f2_zero_elem.json")])
def test_geodesic_depth_past_sys_maxsize(capsys, command, flag, value):
    # over non-standard generators the word BFS runs to the cap or a
    # fixpoint, never to a depth past what islice accepts
    inputs = os.path.join(os.path.dirname(__file__), "golden", "inputs")
    if flag == "--element":
        value = os.path.join(inputs, value)
    argv = ["ideal", command, "--spec", os.path.join(inputs, "f2_ab.json"),
            "--weight", os.path.join(inputs, "w_exp2.json"), flag, value, "--d", "1"]
    code, out, err = run(capsys, *argv, "--depth", str(10 ** 19))
    assert "Error" not in err and "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("waug: error: ") and err.count("\n") == 1
    else:
        assert code == 0
        _, out64, _ = run(capsys, *argv, "--depth", "64")
        assert json.loads(out)["result"] == json.loads(out64)["result"]


@pytest.mark.parametrize("spec,weight,argv,message", [
    ({"family": "Zd", "params": {"d": "x"}}, None,
     ["structure", "ball", "--depth", "2"], "params.d must be an integer"),
    ({"family": "free", "params": {"rank": [2]}}, None,
     ["structure", "ball", "--depth", "2"], "params.rank must be an integer"),
    ({"family": "zero_adjoined", "params": {"rank": "two"}}, None,
     ["structure", "ball", "--depth", "2"], "params.rank must be an integer"),
    ({"family": "Z"}, {"family": "lemma74", "params": {"rho": "2", "blocks": "x"}},
     ["weight", "tau", "--depth", "2"], "params.blocks must be an integer"),
    # a weight on a structure it is not defined on is refused up front
    (F2_SPEC, EXPLICIT_F2, ["weight", "radii", "--depth", "2"],
     "explicit weight is not radial: its radii are estimated on Z only, not on free"),
    ({"family": "Z"}, {"family": "lemma74", "params": {"rho": "2", "blocks": 2}},
     ["weight", "verify", "--radius", "64"],
     "lemma74 weight lives on the one-letter free monoid, not on this Z structure"),
    (F2_SPEC, LEMMA76, ["weight", "radii", "--depth", "2"],
     "lemma76 weight lives on Z, not on free"),
    ({"family": "Zd", "params": {"d": 2}}, LEMMA76,
     ["weight", "verify", "--radius", "4"], "lemma76 weight lives on Z, not on Zd"),
    # two elements printing alike would make names ambiguous
    ({"family": "table", "params": {"table": [[0, 1], [1, 0]], "names": ["x", "x"]},
      "generators": [1]}, None,
     ["structure", "ball", "--depth", "2"], "table params.names must be distinct strings"),
    # a JSON string is not a boolean: "false" would load the free group
    ({"family": "free", "params": {"rank": 2, "inverses": "false"}}, None,
     ["structure", "ball", "--depth", "2"],
     "params.inverses must be true or false, got 'false'"),
    # a misspelt key would otherwise leave its field at the default: the
    # free group for `inverse`, c = 1 for `C`
    ({"family": "free", "params": {"rank": 2, "inverse": False}}, None,
     ["structure", "ball", "--depth", "2"], "spec: params.inverse is an unknown key"),
    ({"family": "Z"}, {"family": "radial_exp", "params": {"C": "3"}},
     ["weight", "verify", "--radius", "2"], "weight: params.C is an unknown key"),
    # 2*d^2 has 4,401 digits, past the int->str limit: named by a power of 2
    ({"family": "Zd", "params": {"d": 10 ** 2200}}, None,
     ["structure", "ball", "--depth", "2"],
     "params.d = at least 2^7308 needs 2*d^2 = at least 2^14617 generator entries"),
], ids=["zd-d", "free-rank", "theta-rank", "lemma74-blocks", "radii-explicit-f2",
        "verify-lemma74-z", "radii-lemma76-f2", "verify-lemma76-z2", "table-names",
        "free-inverses", "free-misspelt-key", "radial-exp-misspelt-key",
        "zd-d-past-digit-limit"])
def test_crashes_are_one_line_input_errors(capsys, tmp_path, spec, weight,
                                           argv, message):
    argv = argv + ["--spec", write_json(tmp_path / "s.json", spec)]
    if weight is not None:
        argv += ["--weight", write_json(tmp_path / "w.json", weight)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("waug: error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("alpha,code", [("100000000", 2), ("1e400", 2),
                                        (str(1 << 18), 0)])
def test_radial_poly_exponent_is_capped_at_load(capsys, tmp_path, zline, alpha, code):
    # an alpha numerator past EXACT_POW_CAP is refused before any value is
    # computed, as a radial_exp value is; 2^18 itself still verifies
    wfile = write_json(tmp_path / "w.json",
                       {"family": "radial_poly", "params": {"alpha": alpha}})
    started = time.monotonic()
    got, out, err = run(capsys, "weight", "verify", "--spec", zline,
                        "--weight", wfile, "--radius", "3")
    assert time.monotonic() - started < 1
    assert got == code
    if code == 2:
        assert out == "" and err == ("waug: error: radial_poly alpha has a numerator "
                                     "over 262144: its values are too large to "
                                     "materialize\n")


@pytest.mark.parametrize("blocks", [3_000_000, 10 ** 19])
def test_lemma74_file_blocks_are_capped_at_load(capsys, tmp_path, blocks):
    # the builder keeps eps_0..eps_K, so a file's blocks count against the
    # cap before anything is built, as build-l74's --blocks does
    spec = write_json(tmp_path / "fm1.json", golden_input("fm1.json"))
    wfile = write_json(tmp_path / "w.json",
                       {"family": "lemma74", "params": {"rho": "2", "blocks": blocks}})
    started = time.monotonic()
    code, out, err = run(capsys, "weight", "tau", "--spec", spec, "--weight", wfile,
                         "--depth", "3")
    assert time.monotonic() - started < 1
    assert code == 2 and out == ""
    assert err == (f"waug: error: params.blocks = {blocks} asks for eps_k, k = 0..blocks "
                   f"= {blocks + 1} values, over the cap 1000000 (set WAUG_BALL_CAP "
                   "to raise it)\n")


@pytest.mark.parametrize("argv,message", [
    (["element", "convolve", "--spec", "z.json", "--element", "z_e1.json"],
     "convolve needs --element at least twice"),
    (["tau", "check", "--csv", "seq_pow2.csv", "--depth", "1"],
     "--depth must be >= 2 for a sequence prefix"),
    (["ideal", "divide-shift", "--spec", "f2.json", "--element", "f2_zero_elem.json"],
     "divide_shift works on the integer line"),
    (["ideal", "divide-shift", "--spec", "z.json", "--element", "z_both_sides_elem.json"],
     "divide_shift needs support in one half-line (all >= 0 or all <= 0)"),
    (["ideal", "witness-45", "--spec", "c5.json", "--depth", "3"],
     "structure is pseudo-finite (B_2 exhausts all 5 elements); every "
     "augmentation-zero element is a finite combination over the generators "
     "and no witness exists"),
    (["ideal", "rewrite-pf", "--spec", "z.json", "--element", "z_ez0.json"],
     "structure is not pseudo-finite within depth 16: monoid is infinite but "
     "every ball is finite"),
], ids=["convolve-one-element", "tau-check-depth-1", "divide-shift-on-f2",
        "divide-shift-both-sides", "witness-45-pseudofinite", "rewrite-pf-on-z"])
def test_leaf_refusals_are_one_input_error_line(capsys, monkeypatch, argv, message):
    # the file arguments name inputs of the golden corpus
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), "golden", "inputs"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"waug: error: {message}\n"


# every leaf that reads --spec or --weight, with a valid value for each of
# its other required flags, so that only the input under test can fail
_FILLERS = {"--depth": "2", "--radius": "2", "--target": "1", "--d": "1"}
_BAD_JSON = '{"family": "Z",'
# case -> (spec, weight or None, a part of the one error line)
_SPEC_CASES = {
    "spec-malformed": (_BAD_JSON, None, "JSON parse error"),
    "spec-unknown-family": ({"family": "klein-bottle"}, None, "klein-bottle")}
_WEIGHT_CASES = {
    "weight-malformed": (F2_SPEC, _BAD_JSON, "JSON parse error"),
    "weight-unknown-family": (F2_SPEC, {"family": "gauss"}, "gauss"),
    "weight-lemma76-on-f2": (F2_SPEC, LEMMA76, "lemma76 weight lives on Z"),
    # a key that no element of the structure prints as
    "weight-explicit-unknown-key": (
        F2_SPEC, {"family": "explicit", "params": {"values": {
            "e": "1", "a": "2", "a^-1": "2", "b": "2", "b^-1": "2", "zz.q": "5"}}},
        "explicit weight key 'zz.q' names no element of this free structure"),
    # the cyclic monoid C5 as a table has no standard word length
    "weight-radial-on-table": (
        golden_input("c5.json"), golden_input("w_poly2.json"),
        "table: no standard word length")}
# case -> (the --csv file, a part of the one error line); spec and weight valid
_CSV_CASES = {
    "csv-repeated-index": ("1,2,1\n2,3,1\n2,5,1\n3,9,1\n", "CSV repeats index 2")}
_Z = {"family": "Z"}


def _exp(c, beta="1"):
    return {"family": "radial_exp", "params": {"c": c, "beta": beta}}


def _delta(n):
    return {"terms": [{"elem": n, "re": "1", "im": "0"}]}


# case -> (leaf, spec, weight, element, flags after the required ones, a
# part of the one error line): values too large to compute or to print,
# refused after the inputs load
_SIZE_CASES = {
    "norm-past-digit-limit": (("element", "norm"), _Z, _exp("2"), _delta(14500), [],
                              "-digit int->str limit; nothing was written"),
    "tau-csv-past-digit-limit": (
        ("weight", "tau"), _Z, _exp("1000000000"), None,
        ["--depth", "500", "--format", "csv"], "-digit int->str limit; nothing was written"),
    "radial-exp-too-large": (("element", "norm"), _Z, _exp("2"), _delta(300000), [],
                             "radial_exp value at n=300000 is too large to materialize"),
    "radial-exp-half-too-large": (
        ("element", "norm"), _Z, _exp("3/2", "1/2"), _delta(10 ** 11), [],
        f"radial_exp value at n={10 ** 11} is too large to materialize")}
_INPUT_CASES = [
    (key, case)
    for key, (_, _, flags, *_) in COMMANDS.items()
    for case in [*(_SPEC_CASES if SPEC in flags else ()),
                 *(_WEIGHT_CASES if WEIGHT in flags else ()),
                 *(_CSV_CASES if any(name == "--csv" for name, _ in flags) else ())]
] + [(key, case) for case, (key, *_) in _SIZE_CASES.items()]


def _write_input(path, obj):
    """obj written as JSON to path, or as it is when it is text."""
    if isinstance(obj, str):
        path.write_text(obj)
        return str(path)
    return write_json(path, obj)


@pytest.mark.parametrize("key,case", _INPUT_CASES,
                         ids=[f"{g}-{c}-{case}" for (g, c), case in _INPUT_CASES])
def test_input_errors_exit_two_on_one_line(capsys, tmp_path, key, case):
    text, element, extra = "1,1,1\n2,1,1\n", None, []
    if case in _CSV_CASES:
        spec, weight = F2_SPEC, {"family": "trivial"}
        text, message = _CSV_CASES[case]
    elif case in _SIZE_CASES:
        _, spec, weight, element, extra, message = _SIZE_CASES[case]
    else:
        spec, weight, message = {**_SPEC_CASES, **_WEIGHT_CASES}[case]
    csv = tmp_path / "v.csv"
    csv.write_text(text)
    files = {"--spec": _write_input(tmp_path / "s.json", spec),
             "--weight": _write_input(tmp_path / "w.json", weight or {}),
             "--element": write_json(tmp_path / "e.json", element or {"terms": []}),
             "--csv": str(csv)}
    argv = list(key)
    for name, kw in COMMANDS[key][2]:
        if kw.get("required"):
            argv += [name, files.get(name) or _FILLERS[name]]
    code, out, err = run(capsys, *argv, *extra)
    assert code == 2 and out == ""
    assert err.startswith("waug: error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("key", [key for key, row in COMMANDS.items() if len(row) == 3],
                         ids=" ".join)
def test_csv_refused_before_the_handler_runs(capsys, monkeypatch, key):
    # a leaf without a CSV header refuses --format csv before it loads its
    # inputs (the paths below name no file) or runs its handler
    text, _, flags = COMMANDS[key]

    def handler(args, bits):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(COMMANDS, key, (text, handler, flags))
    values = {**_FILLERS, "--rho": "2", "--blocks": "10000"}
    argv = [*key, "--format", "csv"]
    for name, kw in flags:
        if kw.get("required"):
            argv += [name, values.get(name, "no-such-file")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"waug: no CSV form for '{key[0]} {key[1]}'\n"


@pytest.mark.parametrize("spec,message", [
    ({"family": "Zd", "params": {"d": 8}}, "params.d = 8 needs 2*d^2 = 128"),
    ({"family": "free", "params": {"rank": 51}}, "params.rank = 51 needs 2*rank = 102"),
    ({"family": "zero_adjoined", "params": {"rank": 51}},
     "params.rank = 51 needs 2*rank = 102"),
], ids=["zd-d", "free-rank", "theta-rank"])
def test_spec_sizes_are_capped_at_load(capsys, tmp_path, monkeypatch, spec, message):
    # the generators a spec builds before any check are bounded by the ball cap
    monkeypatch.setenv("WAUG_BALL_CAP", "100")
    code, out, err = run(capsys, "structure", "ball", "--depth", "0",
                         "--spec", write_json(tmp_path / "s.json", spec))
    assert code == 2 and out == ""
    assert err == (f"waug: error: {message} generator entries, over the cap 100 "
                   "(set WAUG_BALL_CAP to raise it)\n")
    # one step smaller loads
    params = {"d": 7} if "d" in spec["params"] else {"rank": 50}
    smaller = write_json(tmp_path / "t.json", {**spec, "params": params})
    code, out, _ = run(capsys, "structure", "ball", "--depth", "0", "--spec", smaller)
    assert code == 0 and json.loads(out)["result"]["ball_sizes"] == [1]


@pytest.mark.parametrize("argv", [
    ["tau", "blockseq", "--rho", "2", "--blocks", "200"],
    ["weight", "build-l76", "--rho", "2", "--depth", "20000"],
    ["ideal", "witness-45", "--spec", "Z", "--depth", "5000"],
], ids=["blockseq", "build-l76", "witness-45"])
def test_size_refusals_exit_two_on_one_line(capsys, zline, argv):
    started = time.monotonic()
    code, out, err = run(capsys, *[zline if a == "Z" else a for a in argv])
    assert time.monotonic() - started < 1
    assert code == 2 and out == ""
    assert err.startswith("waug: error: ") and err.count("\n") == 1
    assert "-digit limit" in err and "Traceback" not in err


@pytest.mark.parametrize("spec,argv,flag", [
    ("z", ["weight", "tau", "--depth", str(10 ** 19)], "--depth"),
    ("f2", ["weight", "tau", "--depth", str(10 ** 19)], "--depth"),
    ("f2", ["weight", "tau", "--depth", "2000000"], "--depth"),
    ("z", ["weight", "radii", "--depth", str(10 ** 19)], "--depth"),
    ("f2", ["weight", "radii", "--depth", str(10 ** 19)], "--depth"),
    ("z", ["weight", "verify", "--radius", str(10 ** 19)], "--radius"),
    ("f2", ["weight", "verify", "--radius", "2001"], "--radius"),
], ids=["tau-z", "tau-f2", "tau-f2-2e6", "radii-z", "radii-f2", "verify-z",
        "verify-f2-2001"])
def test_per_n_loops_on_infinite_structures_are_capped(capsys, spec, argv, flag):
    # the radial loops of weight tau, radii and verify read no ball, so the
    # flag itself is held to the ball cap, before any work
    spec = os.path.join(os.path.dirname(__file__), "golden", "inputs",
                        {"z": "z.json", "f2": "f2.json"}[spec])
    weight = os.path.join(os.path.dirname(__file__), "golden", "inputs", "w_exp2.json")
    started = time.monotonic()
    code, out, err = run(capsys, *argv, "--spec", spec, "--weight", weight)
    assert time.monotonic() - started < 1
    assert code == 2 and out == ""
    assert err.startswith(f"waug: error: {flag} ") and err.count("\n") == 1
    assert err.endswith("over the cap 1000000 (set WAUG_BALL_CAP to raise it)\n")


def test_radius_cap_counts_length_pairs(capsys, monkeypatch):
    # radius R checks k (R - k) pairs, k = R // 2: 9 at R = 6, 12 at R = 7
    monkeypatch.setenv("WAUG_BALL_CAP", "10")
    inputs = os.path.join(os.path.dirname(__file__), "golden", "inputs")
    argv = ["weight", "verify", "--spec", os.path.join(inputs, "z.json"),
            "--weight", os.path.join(inputs, "w_exp2.json"), "--radius"]
    code, out, _ = run(capsys, *argv, "6")
    assert code == 0 and json.loads(out)["result"]["pairs_checked"] == 9
    code, out, err = run(capsys, *argv, "7")
    assert code == 2 and out == ""
    assert err == ("waug: error: --radius 7 checks the length pairs m <= n, "
                   "m + n <= radius = 12 pairs, over the cap 10 (set WAUG_BALL_CAP "
                   "to raise it)\n")


@pytest.mark.parametrize("command", [["weight", "build-l74"], ["ideal", "witness-75"]],
                         ids=["build-l74", "witness-75"])
def test_blocks_are_capped_before_the_builder(capsys, monkeypatch, command):
    # the builder keeps eps_0..eps_K, K + 1 values: K = cap - 1 is the largest
    argv = [*command, "--rho", "2", "--blocks"]
    monkeypatch.setenv("WAUG_BALL_CAP", "5")
    assert run(capsys, *argv, "4")[0] == 0
    code, out, err = run(capsys, *argv, "5")
    assert code == 2 and out == ""
    assert err == ("waug: error: --blocks 5 asks for eps_k, k = 0..blocks = 6 "
                   "values, over the cap 5 (set WAUG_BALL_CAP to raise it)\n")
    monkeypatch.delenv("WAUG_BALL_CAP")
    started = time.monotonic()
    code, out, err = run(capsys, *argv, str(10 ** 19))
    assert time.monotonic() - started < 1
    assert code == 2 and out == ""
    assert err == ("waug: error: --blocks 10000000000000000000 asks for eps_k, "
                   "k = 0..blocks = 10000000000000000001 values, over the cap "
                   "1000000 (set WAUG_BALL_CAP to raise it)\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_weight_tau_refuses_a_tau_past_the_digit_limit_before_the_rest(
        capsys, tmp_path, zline, fmt):
    # tau_n = 2^n first passes the 4300-digit int->str limit at n = 14285:
    # the loop stops there, and neither form is written
    weight = os.path.join(os.path.dirname(__file__), "golden", "inputs", "w_exp2.json")
    out = tmp_path / f"tau.{fmt}"
    argv = ["weight", "tau", "--spec", zline, "--format", fmt, "--out", str(out)]
    started = time.monotonic()
    code, _, err = run(capsys, *argv, "--weight", weight, "--depth", "20000")
    assert time.monotonic() - started < 1
    assert code == 2 and not out.exists()
    assert err == ("waug: error: --depth 20000 reaches tau_14285, a number past the "
                   "4300-digit int->str limit; nothing was written\n")
    # the serializer's boundary: with c = 10^1433, tau_3 = 10^4299 has exactly
    # 4300 digits and is written; with c = 10^1075, tau_4 = 10^4300 has 4301
    weight = write_json(tmp_path / "w.json",
                        {"family": "radial_exp", "params": {"c": str(10 ** 1433)}})
    code, _, err = run(capsys, *argv, "--weight", weight, "--depth", "3")
    assert code == 0
    text = out.read_text()
    last = (json.loads(text)["result"]["taus"][-1] if fmt == "json"
            else text.splitlines()[-1].split(",")[1])
    assert last == str(10 ** 4299) and len(last) == 4300
    out.unlink()
    weight = write_json(tmp_path / "w.json",
                        {"family": "radial_exp", "params": {"c": str(10 ** 1075)}})
    code, _, err = run(capsys, *argv, "--weight", weight, "--depth", "4")
    assert code == 2 and not out.exists()
    assert err == ("waug: error: --depth 4 reaches tau_4, a number past the "
                   "4300-digit int->str limit; nothing was written\n")


def test_input_files_are_read_once_with_the_texts_of_open(capsys, tmp_path, zline):
    # a CSV that is not UTF-8 is named with the offset of its bad byte in the
    # whole file, also past the first 8 KiB
    rows = b"".join(b"%d,%d,1\r\n" % (n, 2 ** n) for n in range(1, 1200))
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"index,num,den\r\n" + rows + b"1200,\xff,1\r\n")
    offset = bad.read_bytes().index(b"\xff")
    code, out, err = run(capsys, "tau", "check", "--csv", str(bad))
    assert code == 2 and out == "" and offset == 226865
    assert err == (f"waug: error: {bad}: CSV decode error: 'utf-8' codec can't decode "
                   f"byte 0xff in position {offset}: invalid start byte\n")
    # CRLF rows and a blank CRLF row read as the LF file does
    crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
    crlf.write_bytes(b"index,num,den\r\n1,1,1\r\n2,3,1\r\n\r\n3,9,1\r\n")
    lf.write_bytes(b"index,num,den\n1,1,1\n2,3,1\n3,9,1\n")
    reports = []
    for path in (crlf, lf):
        code, out, _ = run(capsys, "tau", "check", "--csv", str(path))
        assert code == 0
        reports.append(json.loads(out)["result"])
    assert reports[0] == reports[1]
    # JSON: not UTF-8, and a parse error placed after universal newlines
    spec = tmp_path / "s.json"
    spec.write_bytes(b'{"family": "Z",\r\n "x": "\xe9"}')
    code, out, err = run(capsys, "structure", "ball", "--spec", str(spec), "--depth", "1")
    assert code == 2 and err == (
        f"waug: error: {spec}: JSON parse error: 'utf-8' codec can't decode byte "
        "0xe9 in position 24: invalid continuation byte\n")
    spec.write_bytes(b'{"family": "Z",\r\n\r\n "x": 1,}')
    code, out, err = run(capsys, "structure", "ball", "--spec", str(spec), "--depth", "1")
    assert code == 2 and err == (
        f"waug: error: {spec}: JSON parse error: Expecting property name enclosed "
        "in double quotes: line 3 column 9 (char 25)\n")
