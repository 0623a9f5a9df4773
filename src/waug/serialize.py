"""Canonical, byte-stable serialization for reports and data files.

JSON: sorted keys, two-space indent, rationals as "p/q" strings, enclosures
as {"lo","hi"} (or {"exact"}), no floats anywhere.  CSV: fixed column sets
per producer, '\n' line endings.  Identical inputs and tool version must
yield byte-identical bytes, so nothing time- or locale-dependent belongs
here.

write_csv(header, rows) joins each row's fields with "," and the rows with
"\n", and returns the text with a final "\n".  A field is an int or a
non-empty str with no ',', '"', '\r' or '\n': exactly the fields that
csv.writer(lineterminator="\n") writes unquoted, so the bytes are the
same and no quoting code is needed.  Any other field, a bool, a float or
an empty str among them, raises TypeError.

canonical_json(x) walks the report x once and writes each value as it meets
it: int, str, bool and None as themselves; list and tuple as arrays; dict
with str keys in sorted key order; Fraction through format_rational;
UNIVERSE as "all"; any object with a to_json method (Enclosure, QC,
Element, Decomposition) as what that returns; a callable as the text that
x(parts, nl) appends to parts at the indentation nl: the spheres of a ball
on Z^d or a free structure (structures._write_spheres) are such a value,
written a sphere at a time, one str.join per sphere.  Anything else,
floats, sets, dataclasses and non-str keys included, raises TypeError; an
int past the interpreter's int->str digit limit raises ResourceLimit, here
and in write_csv.  A memo that lives for one call keys each Fraction by
value, its reduced (numerator, denominator) pair, and holds its text, so a
value repeated in a report (a block sequence repeats each of its values) is
formatted once.  json.dumps with an indent runs the pure-Python encoder;
the writer instead writes a list of ints with one join and strings with the
C function encode_basestring_ascii.  tests/test_serialize.py checks its
bytes against json.dumps over a reference conversion to plain JSON values,
as a property.

read_input(path) reads an input file once, for its bytes and their sha256;
load_json parses those bytes as json.load(open(path)) would, with the same
error texts.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .certify import ResourceLimit, _digit_limit, format_rational
from .structures import UNIVERSE, InvalidInput

_INT = {int}
_LITERALS = {None: "null", True: "true", False: "false"}


def _write(x, parts, nl, memo):
    """Append the indented JSON text of the report value x; nl is the
    newline plus indentation of the line x starts on, and memo maps each
    Fraction met so far in this report to its quoted text."""
    t = type(x)
    if t is int:
        parts.append(int.__repr__(x))
    elif t is str:
        parts.append(encode_basestring_ascii(x))
    elif t is list or t is tuple:
        if not x:
            parts.append("[]")
            return
        inner = nl + "  "
        if set(map(type, x)) == _INT:
            parts.append("[" + inner + ("," + inner).join(map(int.__repr__, x))
                         + nl + "]")
            return
        sep = "[" + inner
        for v in x:
            parts.append(sep)
            _write(v, parts, inner, memo)
            sep = "," + inner
        parts.append(nl + "]")
    elif t is dict:
        if not x:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(x):
            if type(k) is not str:
                raise TypeError(f"report keys must be str, got {k!r}")
            parts.append(sep + encode_basestring_ascii(k) + ": ")
            _write(x[k], parts, inner, memo)
            sep = "," + inner
        parts.append(nl + "}")
    elif t is Fraction:
        key = (x.numerator, x.denominator)
        text = memo.get(key)
        if text is None:
            text = memo[key] = '"' + format_rational(x) + '"'
        parts.append(text)
    elif t is bool or x is None:
        parts.append(_LITERALS[x])
    elif x is UNIVERSE:
        parts.append('"all"')
    elif callable(getattr(x, "to_json", None)):
        _write(x.to_json(), parts, nl, memo)
    elif callable(x):
        x(parts, nl)
    else:
        raise TypeError(f"cannot serialize {t.__name__}: {x!r}")


@contextmanager
def _within_digit_limit():
    """Raise the writer's one ValueError, an int past the interpreter's
    int->str digit limit, as a ResourceLimit that names the limit."""
    try:
        yield
    except ValueError as exc:
        raise ResourceLimit(f"the report holds a number past the {_digit_limit()}-digit "
                            "int->str limit; nothing was written") from exc


def canonical_json(obj) -> str:
    parts = []
    with _within_digit_limit():
        _write(obj, parts, "\n", {})
    parts.append("\n")
    return "".join(parts)


def read_input(path: str):
    """The bytes of the input file at path, read once, and their sha256."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data, hashlib.sha256(data).hexdigest()


def _csv_field(v) -> str:
    """The text of an int, or a str that csv.writer would write unquoted."""
    t = type(v)
    if t is int:
        return int.__repr__(v)
    if t is str and v and "," not in v and '"' not in v and "\r" not in v and "\n" not in v:
        return v
    raise TypeError("a CSV field is an int or a non-empty str with no comma, "
                    f"quote or line break, got {v!r}")


def write_csv(header, rows) -> str:
    with _within_digit_limit():
        lines = [",".join(map(_csv_field, row)) for row in (header, *rows)]
    lines.append("")
    return "\n".join(lines)


def load_json(data: bytes, path: str):
    """The JSON value of the bytes of the input file at path, decoded as
    open(path).read() decodes them: UTF-8, with universal newlines."""
    try:
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also not UTF-8, huge ints, deep nesting
        raise InvalidInput(f"{path}: JSON parse error: {exc}") from exc
