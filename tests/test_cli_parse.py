"""`waug.cli.main` parses a command as the full argparse tree does.

A command whose argv[:2] names a leaf is parsed by that leaf's parser alone
(`parse_command`); everything else, and whatever the leaf leaves over, goes
to `build_parser()`.  The property draws argvs from COMMANDS (the leaf's
flags in any subset and order, repeated, as `--flag=value`, abbreviated,
with bad values, a bogus flag, `--`, a trailing -h, --help or --version)
and requires `main` to exit, print and parse exactly as
`build_parser().parse_args(argv)` does, at two terminal widths.
"""

import contextlib
import io
import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

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
    argv = ["ideal", "decompose-point", "--spec", "s.json", "--weight", "w.json",
            "--target", "[1,2]", "--d", "1"]
    with mock.patch.object(cli, "build_parser", side_effect=AssertionError):
        args = cli.parse_command(argv)
    assert vars(args) == vars(REFERENCE.parse_args(argv))
