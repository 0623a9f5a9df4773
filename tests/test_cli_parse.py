"""`waug.cli.main` parses a command as the full argparse tree does.

A command whose argv[:2] names a leaf and whose other words are full flag
names each followed by one plain value is read off the COMMANDS table
(`parse_command`); everything else goes to `build_parser()`.  The property
draws argvs from COMMANDS (the leaf's flags in any subset and order,
repeated, as `--flag=value`, abbreviated, with bad values, a bogus flag,
`--`, a trailing -h, --help or --version) and requires `main` to exit,
print and parse exactly as `build_parser().parse_args(argv)` does, at two
terminal widths.  Fixed edge cases pin the forms the property may stop
drawing, and further tests pin that the table path is the one taken.
"""

import contextlib
import io
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden import CASES
from waug import cli

# not a leaf: the full tree parses these on both sides
OTHER_KEYS = [[], ["-h"], ["--version"], ["structure"], ["ideal", "bogus"],
              ["--spec", "ball"], ["structure", "--version"]]
BOGUS = ["--=x", "--bogus", "--bogus=1", "-x", "extra", "--ver", "--vers=1",
         "-", "-hx"]


def _good_value(kw):
    if "choices" in kw:
        return st.sampled_from(kw["choices"])
    if kw.get("type") is int:
        return st.integers(-3, 200).map(str)
    return st.sampled_from(["a.json", "[1,2]", "-1", "a b"])


def _bad_value(kw):
    if "choices" in kw:
        return st.just("xml")
    if kw.get("type") is int:
        return st.sampled_from(["x", "1.5", ""])
    return st.sampled_from(["-x", "--"])


@st.composite
def _flag_words(draw, name, kw, bad):
    """One flag, spelled out or abbreviated, its value split off or joined
    by '='; a bad flag has a bad value or none."""
    spelled = draw(st.sampled_from(
        [name] * 3 + [name[:k] for k in range(3, len(name))]))
    if bad and draw(st.booleans()):
        return [spelled]
    value = draw(_bad_value(kw) if bad else _good_value(kw))
    return [f"{spelled}={value}"] if draw(st.booleans()) else [spelled, value]


@st.composite
def argvs(draw):
    if draw(st.integers(0, 9)) == 0:
        key, flags = draw(st.sampled_from(OTHER_KEYS)), cli.IO_FLAGS
    else:
        key = list(draw(st.sampled_from(list(cli.COMMANDS))))
        flags = cli.IO_FLAGS + cli.COMMANDS[tuple(key)][2]
    # every flag in some order, one in ten dropped, some repeated, and in
    # about one argv in four one flag made bad
    picked = [f for f in draw(st.permutations(flags))
              if draw(st.integers(0, 9))]
    picked += draw(st.lists(st.sampled_from(flags), max_size=2))
    bad = draw(st.integers(0, 4 * len(picked)))
    words = [w for i, (name, kw) in enumerate(picked)
             for w in draw(_flag_words(name, kw, i == bad))]
    if draw(st.integers(0, 3)) == 0:
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(BOGUS)))
    if draw(st.integers(0, 7)) == 0:
        words += ["--"] + draw(st.lists(st.sampled_from(["x", "--spec", "-h"]),
                                        max_size=2))
    tail = draw(st.sampled_from([[]] * 9 + [["-h"], ["--help"], ["--version"]]))
    return key + words + tail


class _Parsed(Exception):
    """Stops `main` once it has parsed: no input file is opened."""


def _outcome(call):
    out, err = io.StringIO(), io.StringIO()
    ns = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = vars(call())
        except SystemExit as exc:
            code = exc.code
        except _Parsed as exc:
            ns = exc.args[0]
    return code, out.getvalue(), err.getvalue(), ns


def _main_outcome(argv):
    parse = cli.parse_command

    def parse_then_stop(a):
        raise _Parsed(vars(parse(a)))

    with mock.patch.object(cli, "parse_command", parse_then_stop):
        return _outcome(lambda: cli.main(list(argv)))


REFERENCE = cli.build_parser()  # parsing leaves a parser as it was


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argvs())
def test_main_parses_as_the_full_tree(argv):
    for columns in ("40", "120"):
        with mock.patch.dict(os.environ, {"COLUMNS": columns}):
            want = _outcome(lambda: REFERENCE.parse_args(list(argv)))
            assert _main_outcome(argv) == want, (columns, argv)


def test_a_leaf_is_parsed_without_the_tree():
    # every golden command is read off the table: no silent fall-back
    for _, _, argv in CASES:
        with mock.patch.object(cli, "build_parser", side_effect=AssertionError):
            args = cli.parse_command(argv)
        assert vars(args) == vars(REFERENCE.parse_args(argv)), argv


def _assert_parses_as_the_tree(argv):
    want = _outcome(lambda: REFERENCE.parse_args(list(argv)))
    assert _main_outcome(argv) == want, argv


LEAF = ["structure", "ancestry", "--spec", "s.json", "--target", "[1,2]",
        "--depth", "3"]


@pytest.mark.parametrize("at", [2, 3, len(LEAF)], ids=["start", "value", "end"])
@pytest.mark.parametrize("word", BOGUS)
def test_bogus_words_parse_as_the_tree(word, at):
    # at the start of the flags, between --spec and its value, at the end
    _assert_parses_as_the_tree(LEAF[:at] + [word] + LEAF[at:])


@pytest.mark.parametrize("argv", [
    LEAF[:-1] + ["-1"],
    ["structure", "ball", "--spec", "-", "--depth", "3"],
    LEAF[:5] + [""] + LEAF[6:],
    LEAF[:-2] + ["--depth=3"],
    LEAF[:-2] + ["--dep", "3"],
    LEAF + ["--depth", "4"],
    LEAF + ["--depth", "x", "--depth", "4"],
    ["element", "convolve", "--spec", "s.json", "--element", "a.json",
     "--element", "b.json"],
    ["element", "norm", "--spec", "s.json", "--weight", "w.json",
     "--element", "a.json", "--element", "b.json"],
    LEAF[:-1] + ["\u0663"],
    LEAF[:-1] + ["9" * 5000],
    LEAF + ["--format", "xml"],
    LEAF + ["--format", "csv", "--precision", "64", "--out", "r.json"],
    LEAF[:-2],
    LEAF + ["--depth"],
    LEAF[:5] + ["-x"] + LEAF[6:],
    LEAF + ["--bogus", "1"],
    LEAF + ["--", "x"],
    LEAF + ["-h", "x"],
], ids=["negative-depth", "dash-spec", "empty-target", "depth-equals",
        "abbreviated", "repeated-depth", "bad-then-good-depth",
        "append-element", "element-twice", "arabic-indic-digit",
        "5000-digit-depth", "format-xml", "io-flags", "missing-required",
        "missing-value", "dash-target", "unknown-flag", "double-dash", "help"])
def test_edge_cases_parse_as_the_tree(argv):
    _assert_parses_as_the_tree(argv)


def test_every_flag_has_the_dest_of_the_tree():
    # the full tree's leaf parsers, reached through its subparser actions
    groups = next(a for a in REFERENCE._actions if a.dest == "group").choices
    for (group, command), (_, _, flags, *_) in cli.COMMANDS.items():
        commands = next(a for a in groups[group]._actions if a.dest == "command")
        actions = commands.choices[command]._option_string_actions
        for name, kw in cli.IO_FLAGS + flags:
            assert cli._dest(name, kw) == actions[name].dest, (group, command, name)


def _run_python(*args):
    """The stdout of a fresh interpreter run with `args`, waug importable."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}).stdout


def test_a_leaf_parse_imports_no_argparse():
    code = ("import sys, waug.cli\n"
            "waug.cli.parse_command(['structure', 'ball', '--spec', 's.json',"
            " '--depth', '3'])\n"
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    assert _run_python("-c", code) == "[]\n"


def test_importing_the_cli_loads_no_typing_dataclasses_or_argparse():
    # -S: without site, whose start-up may load typing itself
    code = ("import sys, waug.cli\n"
            "print(sorted({'typing', 'dataclasses', 'argparse'} & set(sys.modules)))")
    assert _run_python("-S", "-c", code) == "[]\n"
