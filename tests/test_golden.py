"""Golden reports: CLI output pinned byte for byte.

Each case runs one `waug` leaf command from inside `tests/golden`, so the
input paths recorded in the report envelope are the relative paths below,
and compares the report with `tests/golden/<name>`.  A change that alters a
report on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says so; any other difference is a regression.
"""

import os
import sys

import pytest

from waug.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (report file, expected exit code, argv without --out)
CASES = [
    ("ball_f2_d5.json", 0,
     ["structure", "ball", "--spec", "inputs/f2.json", "--depth", "5"]),
    ("ball_f2_d5.csv", 0,
     ["structure", "ball", "--spec", "inputs/f2.json", "--depth", "5",
      "--format", "csv"]),
    ("ball_f2_ab_d4.json", 0,
     ["structure", "ball", "--spec", "inputs/f2_ab.json", "--depth", "4"]),
    ("ball_z3_d4.json", 0,
     ["structure", "ball", "--spec", "inputs/z3.json", "--depth", "4"]),
    ("ball_z3_d4.csv", 0,
     ["structure", "ball", "--spec", "inputs/z3.json", "--depth", "4",
      "--format", "csv"]),
    ("ball_fm3_d4.json", 0,
     ["structure", "ball", "--spec", "inputs/fm3.json", "--depth", "4"]),
    ("ball_fm3_d4.csv", 0,
     ["structure", "ball", "--spec", "inputs/fm3.json", "--depth", "4",
      "--format", "csv"]),
    ("ball_theta_d3.json", 0,
     ["structure", "ball", "--spec", "inputs/theta.json", "--depth", "3"]),
    ("ball_theta_d3.csv", 0,
     ["structure", "ball", "--spec", "inputs/theta.json", "--depth", "3",
      "--format", "csv"]),
    ("ball_a_theta_d3.json", 0,
     ["structure", "ball", "--spec", "inputs/a_theta.json", "--depth", "3"]),
    ("ball_theta_b_d3.json", 0,
     ["structure", "ball", "--spec", "inputs/theta_b.json", "--depth", "3"]),
    ("ball_klein_a_d4.json", 0,
     ["structure", "ball", "--spec", "inputs/klein_a.json", "--depth", "4"]),
    ("ancestry_f2.json", 0,
     ["structure", "ancestry", "--spec", "inputs/f2.json",
      "--target", "[1, -2, 1]", "--depth", "4"]),
    ("ancestry_z3.json", 0,
     ["structure", "ancestry", "--spec", "inputs/z3.json",
      "--target", "[2, -1, 1]", "--depth", "4"]),
    ("ancestry_z3_outside.json", 1,
     ["structure", "ancestry", "--spec", "inputs/z3.json",
      "--target", "[3, 3, 0]", "--depth", "4"]),
    ("ancestry_theta.json", 0,
     ["structure", "ancestry", "--spec", "inputs/theta.json",
      "--target", "[1, 2, 1]", "--depth", "3"]),
    ("pseudofinite_c5.json", 0,
     ["structure", "pseudofinite", "--spec", "inputs/c5.json", "--depth", "5"]),
    ("pseudofinite_klein_a.json", 0,
     ["structure", "pseudofinite", "--spec", "inputs/klein_a.json",
      "--depth", "5"]),
    ("pseudofinite_theta_b.json", 0,
     ["structure", "pseudofinite", "--spec", "inputs/theta_b.json",
      "--depth", "4"]),
    ("pseudofinite_f2.json", 0,
     ["structure", "pseudofinite", "--spec", "inputs/f2.json", "--depth", "10"]),
    ("sigma_f2_d5.json", 0,
     ["element", "sigma", "--spec", "inputs/f2.json",
      "--element", "inputs/f2_elem.json", "--depth", "5"]),
    ("sigma_f2_d5.csv", 0,
     ["element", "sigma", "--spec", "inputs/f2.json",
      "--element", "inputs/f2_elem.json", "--depth", "5", "--format", "csv"]),
    ("sigma_theta_d3.json", 0,
     ["element", "sigma", "--spec", "inputs/theta.json",
      "--element", "inputs/theta_elem.json", "--depth", "3"]),
]


def _run(name, argv, out_dir):
    out = os.path.join(out_dir, name)
    code = main(argv + ["--out", out])
    with open(out, "rb") as fh:
        return code, fh.read()


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, code, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    got_code, got = _run(name, argv, str(tmp_path))
    assert got_code == code
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        assert got == fh.read()


if __name__ == "__main__":
    os.chdir(GOLDEN_DIR)
    for name, code, argv in CASES:
        got_code, _ = _run(name, argv, GOLDEN_DIR)
        if got_code != code:
            sys.exit(f"{name}: exit {got_code}, expected {code}")
