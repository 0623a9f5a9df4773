"""Mutated golden inputs: every input error is one line, never a crash.

Each run takes a random golden case that reads an input file, changes one
node of one of its JSON inputs (replaced, deleted, or a value appended to a
list or object) or one cell of its CSV input, and runs the command through
`cli.main` in-process.  Whatever the mutation, the exit code is 0, 1 or 2,
nothing prints a traceback, no `waug: error:` line is a Python exception
passed through by name, and no run takes RUN_LIMIT seconds.

The values put in are type confusions and small values: null, bools,
floats, strings, lists, objects and ints from -2 to 3.  Values whose size
alone makes a command slow (huge depths, exponents, tables) are for the
work-cap tests to cover, not this one; and the ball cap is lowered to
BALL_CAP, far above every golden ball, so that a mutation that leaves a
search without its target (generators that cannot reach it) ends at the
cap within the time limit.
"""

import builtins
import copy
import json
import os
import random
import re
import signal

from test_golden import CASES, GOLDEN_DIR
from waug.cli import main

RUNS = 1000
RUN_LIMIT = 2  # seconds; a run takes a few milliseconds
BALL_CAP = "20000"
SEED = 0
INPUT_FLAGS = ("--spec", "--weight", "--element", "--csv")
POOL = [None, True, False, 0.5, -1.0, 1e300, "", "x", "1/2", "-1", "theta",
        "false", [], [1], [1, -1], ["theta"], [[0]], {}, {"x": 1}, {"rank": 2},
        -2, -1, 0, 1, 2, 3]
NEW_KEYS = ["x", "params", "re", "rank", "alpha", "C"]
CELLS = ["", " ", "x", "1.5", "1/2", "-1", "0", "1", "2", "3", "9" * 30]
FUZZ_CASES = [(name, argv) for name, _, argv in CASES
              if any(flag in argv for flag in INPUT_FLAGS)]
ERROR_NAME = re.compile(r"waug: error: (\w+)")


def _nodes(value, path=()):
    """Every node of a JSON value, as the path of keys and indices to it."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutate_json(rng, value):
    """A copy of value with one node replaced, deleted, or appended to."""
    value = copy.deepcopy(value)
    path = rng.choice(list(_nodes(value)))
    new = copy.deepcopy(rng.choice(POOL))
    if not path:
        return new
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    op = rng.choice(["replace", "delete", "append"])
    if op == "delete":
        del parent[path[-1]]
    elif op == "append" and isinstance(node, list):
        node.append(new)
    elif op == "append" and isinstance(node, dict):
        node[rng.choice(NEW_KEYS)] = new
    else:
        parent[path[-1]] = new
    return value


def _mutate_csv(rng, text):
    """text with one cell of one row replaced."""
    rows = [line.split(",") for line in text.splitlines()]
    row = rng.choice(rows)
    row[rng.randrange(len(row))] = rng.choice(CELLS)
    return "".join(",".join(r) + "\n" for r in rows)


def _python_exception(err):
    """The name of the built-in exception an error line starts with, if any."""
    for line in err.splitlines():
        m = ERROR_NAME.match(line)
        cls = getattr(builtins, m.group(1), None) if m else None
        if isinstance(cls, type) and issubclass(cls, BaseException):
            return cls.__name__
    return None


class _TooSlow(BaseException):
    """Raised by the run timer; not an Exception, so main lets it through."""


def _too_slow(signum, frame):
    raise _TooSlow


def _run(argv):
    """main(argv)'s exit code, or a note when it runs past RUN_LIMIT."""
    signal.setitimer(signal.ITIMER_REAL, RUN_LIMIT)
    try:
        return main(argv)
    except _TooSlow:
        return f"none, still running after {RUN_LIMIT} s"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def test_mutated_inputs_exit_cleanly(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WAUG_BALL_CAP", BALL_CAP)
    rng = random.Random(SEED)
    texts, leaks = {}, []
    previous = signal.signal(signal.SIGALRM, _too_slow)
    try:
        for _ in range(RUNS):
            name, argv = rng.choice(FUZZ_CASES)
            spot = rng.choice([i + 1 for i, a in enumerate(argv) if a in INPUT_FLAGS])
            source = os.path.join(GOLDEN_DIR, argv[spot])
            if source not in texts:
                with open(source) as fh:
                    texts[source] = fh.read()
            if source.endswith(".csv"):
                text = _mutate_csv(rng, texts[source])
            else:
                text = json.dumps(_mutate_json(rng, json.loads(texts[source])))
            mutated = tmp_path / ("input" + os.path.splitext(source)[1])
            mutated.write_text(text)
            args = [os.path.join(GOLDEN_DIR, a) if a.startswith("inputs/") else a
                    for a in argv]
            args[spot] = str(mutated)
            code = _run(args + ["--out", str(tmp_path / "report")])
            err = capsys.readouterr().err
            if code not in (0, 1, 2) or "Traceback" in err or _python_exception(err):
                leaks.append(f"{name}, {argv[spot]} = {text[:100]}: "
                             f"exit {code}, {err[:160]!r}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not leaks, f"{len(leaks)} of {RUNS} runs leaked:\n" + "\n".join(leaks[:20])
