"""A pytest plugin that finds the code of waug only the unit tests reach.

    PYTHONPATH=src python -m pytest -q -p tests.reach_trace

runs the suite under a line trace of the functions in src/waug (module and
class bodies, which run at import, are left out) and, at the end, lists
the functions that no call inside `waug.cli.main` enters, and the lines of
the other functions that run only outside it.  Code on neither list is
reached through the CLI; code that runs only outside `main` is a candidate
for deletion, or for a CLI test.  A command a test runs in a subprocess is
not traced, and the trace makes the suite several times slower.  The file
is a plugin, not a test module: pytest collects only test_*.py.
"""

import os
import sys
from inspect import CO_OPTIMIZED

import waug.cli

_SRC = os.path.dirname(os.path.abspath(waug.__file__)) + os.sep
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _owner(code):
    """The qualname a line of code is listed under: a comprehension's lines
    go to the function around it."""
    q = code.co_qualname
    return q.rsplit(".<locals>.", 1)[0] if code.co_name in _COMPREHENSIONS else q


class _Trace:
    def __init__(self):
        self.main = waug.cli.main.__code__
        self.depth = 0  # frames of cli.main on the stack
        # (inside main?) -> {(file, qualname, first line)} and
        # {(file, qualname, line)}
        self.funcs = {True: set(), False: set()}
        self.lines = {True: set(), False: set()}

    def call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(_SRC) or not code.co_flags & CO_OPTIMIZED:
            return None
        if code is self.main:
            self.depth += 1
        if code.co_name not in _COMPREHENSIONS:
            self.funcs[self.depth > 0].add((code.co_filename, code.co_qualname,
                                            code.co_firstlineno))
        return self.line

    def line(self, frame, event, arg):
        code = frame.f_code
        if event == "line":
            self.lines[self.depth > 0].add((code.co_filename, _owner(code),
                                            frame.f_lineno))
        elif event == "return" and code is self.main:
            self.depth -= 1
        return self.line


def _ranges(numbers):
    """'3, 7-9' for [3, 7, 8, 9]."""
    out = []
    for n in sorted(numbers):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


_trace = _Trace()


def pytest_configure(config):
    sys.settrace(_trace.call)


def pytest_sessionfinish(session):
    sys.settrace(None)


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    inside = {(f, q) for f, q, _ in _trace.funcs[True]}
    only_out = sorted((f, first, q) for f, q, first in _trace.funcs[False]
                      if (f, q) not in inside)
    write(f"reach trace: {len(only_out)} functions of src/waug entered only "
          "outside waug.cli.main")
    for f, first, q in only_out:
        write(f"  {os.path.basename(f)}:{first} {q}")
    by_func = {}
    for f, q, n in _trace.lines[False] - _trace.lines[True]:
        if (f, q) in inside:
            by_func.setdefault((f, q), []).append(n)
    write(f"reach trace: lines run only outside waug.cli.main, in {len(by_func)} "
          "functions it also enters")
    for (f, q), numbers in sorted(by_func.items(), key=lambda kv: (kv[0][0], min(kv[1]))):
        write(f"  {os.path.basename(f)} {q}: {_ranges(numbers)}")
