"""Byte-stable JSON/CSV serialization and polymorphic file loading."""

import csv
import hashlib
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden import assert_same_lines
from waug.algebra import QC, Element
from waug.certify import Enclosure, format_rational, parse_rational
from waug.sequences import PrefixSequence, read_csv
from waug.serialize import canonical_json, load_json, read_input, write_csv
from waug.structures import UNIVERSE, InvalidInput, ResourceLimit


def _plain(x):
    """The report value x as it reads back from canonical_json."""
    return json.loads(canonical_json(x))


def test_rationals_render_as_integer_or_quotient():
    assert _plain(F(3)) == "3"
    assert _plain(F(-7, 2)) == "-7/2"
    assert _plain({"a": [F(1, 3)]}) == {"a": ["1/3"]}


def test_floats_are_banned():
    with pytest.raises(TypeError):
        canonical_json(0.5)
    with pytest.raises(TypeError):
        canonical_json({"x": [1, 2.0]})


def test_enclosure_forms():
    assert _plain(Enclosure(F(1, 2), F(1, 2))) == {"exact": "1/2"}
    assert _plain(Enclosure(F(1, 3), F(1, 2))) == {"lo": "1/3", "hi": "1/2"}


def test_universal_ball_token():
    assert _plain(UNIVERSE) == "all"
    assert _plain([UNIVERSE, F(1)]) == ["all", "1"]


def test_dataclass_and_set_handling():
    assert _plain((3, (1, 2), ())) == [3, [1, 2], []]
    with pytest.raises(TypeError):  # no report holds a set
        canonical_json({3, 1, 2})


def test_canonical_json_is_insertion_order_independent():
    one = canonical_json({"b": F(2), "a": [1, {"y": 0, "x": 1}]})
    two = canonical_json({"a": [1, {"x": 1, "y": 0}], "b": F(2)})
    assert one == two
    assert one.endswith("\n")
    parsed = json.loads(one)
    assert parsed == {"a": [1, {"x": 1, "y": 0}], "b": "2"}


def test_sha256_matches_file_and_bytes(tmp_path):
    data = canonical_json({"k": F(5, 3)}).encode()
    p = tmp_path / "r.json"
    p.write_bytes(data)
    assert read_input(str(p)) == (data, hashlib.sha256(data).hexdigest())


def test_csv_uses_newline_termination():
    text = write_csv(["index", "numerator", "denominator"], [(1, 1, 2)])
    assert text == "index,numerator,denominator\n1,1,2\n"


def test_sequence_csv_round_trip(tmp_path):
    seq = PrefixSequence([4, 6, 9], 4)  # 1, 3/2, 9/4
    p = tmp_path / "seq.csv"
    p.write_text(write_csv(["index", "numerator", "denominator"],
                           [(n, seq.tau(n).numerator, seq.tau(n).denominator)
                            for n in range(1, seq.N + 1)]))
    back = PrefixSequence(*read_csv(p.read_bytes(), "sequence", str(p)))
    assert (back.nums, back.den) == (seq.nums, seq.den)
    assert [back.tau(n) for n in range(1, 4)] == [F(1), F(3, 2), F(9, 4)]


_csv_fields = st.one_of(
    st.integers(), st.integers(min_value=-10 ** 60, max_value=10 ** 60),
    st.text(min_size=1).filter(lambda v: not set(v) & set(',"\r\n')))


@given(st.lists(_csv_fields, min_size=1, max_size=5),
       st.lists(st.lists(_csv_fields, max_size=5), max_size=8))
def test_csv_equals_csv_writer(header, rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    assert write_csv(header, rows) == buf.getvalue()


@pytest.mark.parametrize("field", [
    pytest.param(True, id="bool"), pytest.param(1.5, id="float"),
    pytest.param(None, id="None"), pytest.param(F(1, 2), id="Fraction"),
    pytest.param("", id="empty"), pytest.param("1,2", id="comma"),
    pytest.param('"x"', id="quote"), pytest.param("a\rb", id="CR"),
    pytest.param("a\nb", id="LF")])
def test_csv_refuses_a_field_it_would_have_to_quote(field):
    with pytest.raises(TypeError, match="a CSV field is an int or a non-empty str"):
        write_csv(["n", "value"], [[1, "x"], [2, field]])


def test_vector_csv_loading(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("index,numerator,denominator\n1,-1,2\n2,0,1\n3,5,3\n")
    assert read_csv(p.read_bytes(), "vector", str(p)) == ([-3, 0, 10], 6)


def test_vector_csv_rejects_gaps_and_zero_denominator(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("1,1,1\n3,1,1\n")
    with pytest.raises(InvalidInput):
        read_csv(p.read_bytes(), "vector", str(p))
    p.write_text("1,1,0\n")
    with pytest.raises(InvalidInput):
        read_csv(p.read_bytes(), "vector", str(p))


def test_json_parse_error_reports_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"family": "Z",}')
    with pytest.raises(InvalidInput) as exc:
        load_json(p.read_bytes(), str(p))
    assert "line 1" in str(exc.value)


def test_element_round_trips_through_canonical_json(tmp_path):
    from waug.structures import structure_from_spec
    s, _ = structure_from_spec(
        {"family": "free", "params": {"rank": 2, "inverses": True}})
    f = (Element.delta(s, s.elem_from_json([1, -2]), F(2, 3))
         + Element.delta(s, s.elem_from_json([]), QC(F(0), F(1, 5))))
    text = canonical_json(f.to_json())
    back = Element.from_json(s, json.loads(text))
    assert back == f


def test_rational_text_parsing():
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("7") == F(7)
    assert parse_rational("0.5") == F(1, 2)  # decimal text is exact
    with pytest.raises(InvalidInput):
        parse_rational("1/0")
    with pytest.raises(InvalidInput):
        parse_rational("two")


_enclosures = st.tuples(st.fractions(), st.fractions()).map(
    lambda pair: Enclosure(min(pair), max(pair)))
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 60, max_value=10 ** 60),
    st.text(),                      # non-ASCII and control characters
    st.fractions(), _enclosures, st.just(UNIVERSE))
_values = st.recursive(_scalars, lambda kids: st.one_of(
    st.lists(kids, max_size=5),
    st.tuples(kids, kids),
    st.lists(st.integers(), max_size=6),
    st.lists(st.integers(), max_size=6).map(tuple),
    st.dictionaries(st.text(max_size=6), kids, max_size=5),
    st.fixed_dictionaries({"left": kids, "right": kids})), max_leaves=40)


def _reference_plain(x):
    """Reference conversion of a report value to plain JSON values, written
    apart from the serializer's single pass as the oracle it must match."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        raise TypeError("floats are banned from reports")
    if isinstance(x, F):
        return format_rational(x)
    if x is UNIVERSE:
        return "all"
    if callable(getattr(x, "to_json", None)):
        return _reference_plain(x.to_json())
    if isinstance(x, dict):
        return {k: _reference_plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_reference_plain(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


@settings(max_examples=200, deadline=None)
@given(_values)
def test_canonical_json_equals_json_dumps(x):
    expect = json.dumps(_reference_plain(x), sort_keys=True, indent=2,
                        ensure_ascii=True) + "\n"
    assert canonical_json(x) == expect


def _dumps_reference(x):
    return json.dumps(_reference_plain(x), sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


def test_repeated_and_equal_fractions_share_one_text():
    big = F(3 ** 2000, 2 ** 2000)
    half = F(1, 2)
    report = {"same": [big] * 5 + [half] * 3,
              "equal": [F(3 ** 2000, 2 ** 2000), F(2, 4), F(-1, 2), F(1, 2)],
              "nested": {"a": Enclosure(half, big), "b": [F(1), 1, F(0)]}}
    assert report["equal"][0] is not big
    assert canonical_json(report) == _dumps_reference(report)


def test_no_memo_survives_a_failed_call():
    with pytest.raises(TypeError):
        canonical_json({"a": [F(1, 3), F(7, 5)], "b": 0.5, "c": F(2, 3)})
    report = {"a": [F(2, 3), F(1, 3)], "b": F(7, 5)}
    assert canonical_json(report) == _dumps_reference(report)
    assert canonical_json([F(1, 3)]) == '[\n  "1/3"\n]\n'
    for n in range(1, 50):  # dead Fractions' ids come back: no text may stick
        assert canonical_json(F(n, n + 1)) == f'"{n}/{n + 1}"\n'


def test_canonical_json_refuses_non_plain_values():
    with pytest.raises(TypeError):
        canonical_json({"x": [1, 0.5]})
    with pytest.raises(TypeError):
        canonical_json(object())
    with pytest.raises(TypeError):
        canonical_json({1: "one"})


def test_int_string_digit_limit_still_raises():
    # CPython's int -> str limit (4300 digits) is not lifted by the writer:
    # JSON and CSV alike refuse a number past it with one ResourceLimit
    with pytest.raises(ResourceLimit, match="-digit int->str limit"):
        canonical_json({"norm": F(10 ** 4400 + 1, 3)})
    with pytest.raises(ResourceLimit, match="-digit int->str limit"):
        canonical_json([10 ** 4400])
    with pytest.raises(ResourceLimit, match="-digit int->str limit"):
        write_csv(["n"], [[10 ** 4400]])


_GRADED = ([{"family": "Zd", "params": {"d": d}} for d in range(1, 5)]
           + [{"family": "free", "params": {"rank": r, "inverses": g}}
              for r in (1, 2, 3) for g in (True, False)])
_WALKED = [  # non-standard sets: their spheres hold words of any parent
    ({"family": "free", "params": {"rank": 2, "inverses": True}}, [[1, 2]]),
    ({"family": "free", "params": {"rank": 2, "inverses": True}}, [[1, 2], [-2]]),
    ({"family": "free", "params": {"rank": 2, "inverses": False}}, [[1, 2], [2, 2, 1]]),
    ({"family": "Zd", "params": {"d": 2}}, [[1, 1]]),
    ({"family": "Zd", "params": {"d": 3}}, [[1, 1, 0], [0, -1, 2]])]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=st.one_of(st.tuples(st.sampled_from(_GRADED), st.none()),
                      st.sampled_from(_WALKED)),
       depth=st.integers(0, 4), nested=st.booleans())
def test_sphere_writers_equal_json_dumps(case, depth, nested):
    # Z^d and the free structures write a ball's spheres a sphere at a time;
    # the text is that of their elements' values, at either indentation
    from waug.structures import division_balls, structure_from_spec
    spec, gens = case
    s, std = structure_from_spec(spec)
    gens = std if gens is None else [s.elem_from_json(g) for g in gens]
    levels = division_balls(s, gens, depth).levels
    value = [list(map(s.elem_to_json, lev)) for lev in levels]

    def wrap(x):
        return {"result": {"levels": x, "ok": True}} if nested else x

    expect = json.dumps(wrap(value), sort_keys=True, indent=2) + "\n"
    assert_same_lines(canonical_json(wrap(s.spheres_to_json(levels))), expect)
