"""Canonical, byte-stable serialization for reports and data files.

JSON: sorted keys, two-space indent, rationals as "p/q" strings, enclosures
as {"lo","hi"} (or {"exact"}), no floats anywhere.  CSV: fixed column sets
per producer, '\n' line endings.  Identical inputs and tool version must
yield byte-identical bytes, so nothing time- or locale-dependent belongs
here.

canonical_json(x) converts x once with to_jsonable and writes the result
with its own writer over plain JSON values (dict with str keys, list, str,
int, bool, None; any other type raises TypeError).  Its bytes are those of
    json.dumps(to_jsonable(x), sort_keys=True, indent=2, ensure_ascii=True) + "\n"
which tests/test_serialize.py checks as a property.  json.dumps with an
indent runs the pure-Python encoder; the writer instead writes a list of
ints with one join and strings with the C function encode_basestring_ascii.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .certify import Enclosure, format_rational
from .structures import UNIVERSE, InvalidInput

_INT = {int}
_PLAIN_SEQ = (list, tuple)  # exact types: no to_json hook to honour


def to_jsonable(x):
    """Recursively convert report values to JSON-ready structures."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if type(x) in _PLAIN_SEQ and set(map(type, x)) <= _INT:
        return list(x)
    if isinstance(x, float):
        raise TypeError("floats are banned from reports; use Fraction/Enclosure")
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, Enclosure):
        return x.to_json()
    if x is UNIVERSE:
        return "all"
    to_json = getattr(x, "to_json", None)
    if callable(to_json):
        return to_jsonable(to_json())
    if dataclasses.is_dataclass(x):
        return {f.name: to_jsonable(getattr(x, f.name))
                for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        items = [to_jsonable(v) for v in x]
        return sorted(items, key=lambda v: json.dumps(v, sort_keys=True))
    raise TypeError(f"cannot serialize {type(x).__name__}: {x!r}")


_LITERALS = {None: "null", True: "true", False: "false"}


def _write(x, parts, nl):
    """Append the indented JSON text of the plain value x; nl is the
    newline plus indentation of the line x starts on."""
    t = type(x)
    if t is int:
        parts.append(int.__repr__(x))
    elif t is str:
        parts.append(encode_basestring_ascii(x))
    elif t is list:
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
            _write(v, parts, inner)
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
            _write(x[k], parts, inner)
            sep = "," + inner
        parts.append(nl + "}")
    elif t is bool or x is None:
        parts.append(_LITERALS[x])
    else:
        raise TypeError(f"not a plain JSON value: {type(x).__name__}")


def canonical_json(obj) -> str:
    parts = []
    _write(to_jsonable(obj), parts, "\n")
    parts.append("\n")
    return "".join(parts)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _read_csv_rows(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if rows and not rows[0][0].strip().lstrip("-").isdigit():
        rows = rows[1:]  # header line
    return rows


def load_sequence_csv(path: str):
    """Sequence CSV (columns: index, numerator, denominator) -> PrefixSequence."""
    from .sequences import PrefixSequence
    return PrefixSequence.from_csv_rows(_read_csv_rows(path))


def load_vector_csv(path: str):
    """Same columns as the sequence CSV, but entries are arbitrary rationals;
    returns the list [v_1..v_N] (indices must be 1..N without gaps)."""
    from .sequences import csv_row_values
    return csv_row_values(_read_csv_rows(path), "vector")


def sequence_csv_text(seq) -> str:
    return write_csv(["index", "numerator", "denominator"], seq.to_csv_rows())


def load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path}: JSON parse error at line {exc.lineno}, "
                           f"column {exc.colno}: {exc.msg}") from exc
