"""Golden CLI text: help, version and parse errors pinned byte for byte.

Each case runs `waug.cli.main(argv)` with `COLUMNS=80` (the NARROW_CASES
with `COLUMNS=40`, where argparse wraps usage and help) and compares its
exit code, stdout and stderr with `tests/golden/cli/<name>.txt`.  These are
the texts argparse writes, so they pin the shape of the parser: every group,
every leaf and every flag with its help.  A change that alters them on
purpose regenerates the files with

    PYTHONPATH=src python tests/test_cli_text.py

and says so; any other difference is a regression.
"""

import contextlib
import io
import os
import sys

from test_golden import assert_same_lines
from waug.cli import build_parser, main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden", "cli")

LEAVES = [
    ("structure", "ball"), ("structure", "ancestry"),
    ("structure", "pseudofinite"),
    ("weight", "verify"), ("weight", "tau"), ("weight", "build-l74"),
    ("weight", "build-l76"), ("weight", "radii"),
    ("tau", "check"), ("tau", "witness"), ("tau", "blockseq"),
    ("tau", "growth"),
    ("element", "convolve"), ("element", "norm"), ("element", "sigma"),
    ("element", "augment"),
    ("ideal", "telescope"), ("ideal", "decompose-point"),
    ("ideal", "decompose-full"), ("ideal", "divide-shift"),
    ("ideal", "rewrite-pf"), ("ideal", "necessity"), ("ideal", "witness-45"),
    ("ideal", "witness-65"), ("ideal", "witness-75"),
]
GROUPS = ["structure", "weight", "tau", "element", "ideal"]

# (name, argv)
CASES = (
    [("help", ["-h"]), ("version", ["--version"]), ("no_group", [])]
    + [(f"{g}_help", [g, "-h"]) for g in GROUPS]
    + [(f"{g}_{c}_help", [g, c, "-h"]) for g, c in LEAVES]
    + [(f"{g}_{c}_missing", [g, c]) for g, c in LEAVES]
    + [("ideal_bogus", ["ideal", "bogus"]),
       ("ball_unrecognized", ["structure", "ball", "--spec", "s.json",
                              "--depth", "2", "--bogus", "1"]),
       ("ball_version", ["structure", "ball", "--version"]),
       ("ball_abbreviated_unrecognized", ["structure", "ball", "--spe", "s.json",
                                          "--dep", "2", "--bogus", "1"])]
)
NARROW_CASES = [
    ("narrow_ideal_decompose-point_help", ["ideal", "decompose-point", "-h"]),
    ("narrow_ideal_decompose-point_missing", ["ideal", "decompose-point"]),
]
# (name, argv, COLUMNS)
ALL_CASES = ([(name, argv, "80") for name, argv in CASES]
             + [(name, argv, "40") for name, argv in NARROW_CASES])


def _render(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit: {code}\n[stdout]\n{out.getvalue()}[stderr]\n{err.getvalue()}"


def _golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.txt")


def test_cli_text_matches_golden(monkeypatch):
    for name, argv, columns in ALL_CASES:
        monkeypatch.setenv("COLUMNS", columns)
        with open(_golden_path(name), "rb") as fh:
            want = fh.read()
        assert_same_lines(_render(list(argv)).encode(), want, name)


def test_build_parser_without_arguments_is_the_full_tree(monkeypatch):
    # build_parser reads no argv: even when sys.argv names a leaf, it gives
    # every group and every leaf
    monkeypatch.setattr(sys, "argv", ["waug", "structure", "ball"])
    ap = build_parser()
    groups = ap._subparsers._group_actions[0].choices
    assert list(groups) == GROUPS
    leaves = [(g, c) for g, gp in groups.items()
              for c in gp._subparsers._group_actions[0].choices]
    assert leaves == LEAVES


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, argv, columns in ALL_CASES:
        os.environ["COLUMNS"] = columns
        with open(_golden_path(name), "wb") as fh:
            fh.write(_render(list(argv)).encode())
