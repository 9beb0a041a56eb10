"""The ``POST /ingest`` body decoders: columnar fast paths vs the reference.

Both ingest forms have a per-sample reference decoder that names the
offending line (JSONL) or sample (JSON document) in every refusal, and
a columnar fast path that converts a well-formed batch without a
Python-level step per sample.  The property tests pin that the two
agree on every body — the same columns bit for bit, or the same
refusal text — and that whatever the fast path accepts, the reference
accepts identically.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.serve.daemon import (_fast_jsonl, _jsonl_rows, _parse_json_batch,
                                _parse_jsonl_batch, _reference_columns,
                                _sample_rows)


def _outcome(decode):
    """``("ok", serials, hours, matrix bits)`` or ``("error", text)``."""
    try:
        serials, hours, matrix = decode()
    except ServeError as error:
        return ("error", str(error))
    assert matrix.dtype == np.float64
    assert all(type(serial) is str for serial in serials)
    assert all(type(hour) is int for hour in hours)
    return ("ok", serials, hours, matrix.shape, matrix.tobytes())


def _jsonl_reference(body):
    lines = body.decode("utf-8").splitlines()
    return _reference_columns(_jsonl_rows(lines), "lines")


def _document_reference(body):
    samples = json.loads(body.decode("utf-8"))["samples"]
    return _reference_columns(_sample_rows(samples), "samples")


def _line(serial="D1", hour=5, values=(1.0, 2.5, 3.0)):
    return json.dumps({"serial": serial, "hour": hour,
                       "values": list(values)})


# -- generated bodies ---------------------------------------------------------

_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(-10**6, 10**6),
    st.sampled_from([0.0, -0.0, 1e-320, 2**53 + 1, 2**64, 10**30]),
)
_odd_values = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), True, False, None, "1.5",
     "q", "1_0", [1.0], {"a": 1}])
_value = st.one_of(_numbers, _numbers, _numbers, _odd_values)
_serial = st.one_of(
    st.sampled_from(["D1", "D2", "Z9", "a\u2028b", "c\u2029\x85d",
                     'q"uote', "tab\there", "\u00e9t\u00e9", ""]),
    st.text(max_size=6))
#: Integer hours, a few of them at or just past the ``int64`` edges.
_int_hour = st.one_of(st.integers(0, 10**6), st.integers(0, 10**6),
                      st.integers(0, 10**6),
                      st.sampled_from([2**63 - 1, 2**63, -2**63,
                                       -2**63 - 1]))
_hour = st.one_of(_int_hour, st.sampled_from([True, 2.5, "7", "x", None,
                                              10**30]))
_odd_serial = st.one_of(_serial, _serial,
                        st.sampled_from([None, 7, 2.5, True, ["D1"]]))


@st.composite
def _values(draw, width, clean):
    if clean:
        return draw(st.lists(_numbers, min_size=width, max_size=width))
    kind = draw(st.sampled_from(
        ["ok", "ok", "ragged", "empty", "string", "object", "number",
         "nested"]))
    if kind == "ragged":
        return draw(st.lists(_value, max_size=width + 2))
    if kind == "empty":
        return []
    if kind == "string":
        return draw(st.sampled_from(["12", "1234", ""]))
    if kind == "object":
        return {"1": 2, "3": 4}
    if kind == "number":
        return 12
    if kind == "nested":
        return [[1.0, 2.0]] * width
    return draw(st.lists(_value, min_size=width, max_size=width))


@st.composite
def _record(draw, width, clean):
    """One JSONL record; a clean one only varies serials, numbers and
    integer hours (the int64 edges included)."""
    if clean:
        return {"serial": draw(_serial), "hour": draw(_int_hour),
                "values": draw(_values(width, True))}
    record = {"serial": draw(_odd_serial), "hour": draw(_hour),
              "values": draw(_values(width, False))}
    drop = draw(st.sampled_from([None, None, "serial", "hour", "values"]))
    if drop is not None:
        del record[drop]
    if draw(st.booleans()):
        record["extra"] = draw(st.sampled_from([[{"nested": [1, 2]}], "x"]))
    return record


def _encode(record, ascii_only):
    if not isinstance(record, dict):
        return json.dumps(record)
    return json.dumps(record, ensure_ascii=ascii_only)


@st.composite
def jsonl_bodies(draw):
    """JSONL bodies, half of them clean, with every known hazard mixed in:
    blank and CRLF lines, two objects on one line, a line (or a string)
    split in two, a raw U+2028 inside a serial, non-object lines."""
    width = draw(st.integers(0, 4))
    record = (_record(width, True) if draw(st.booleans()) else
              st.one_of(_record(width, True), _record(width, False),
                        st.sampled_from([[1, 2], "text", 7, None])))
    records = draw(st.lists(record, max_size=8))
    ascii_only = draw(st.booleans())
    lines = [_encode(record, ascii_only) for record in records]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        if not lines:
            break
        index = draw(st.integers(0, len(lines) - 1))
        hazard = draw(st.sampled_from(
            ["blank", "join", "join-space", "split", "splice", "garbage",
             "pad"]))
        line = lines[index]
        if hazard == "splice" and len(line) > 1 and index + 2 < len(lines):
            # A line split inside its serial plus two objects on one
            # line: the line count still equals the object count.
            start = line.find('"serial": "') + len('"serial": "')
            cut = draw(st.integers(start, start + 2))
            lines[index:index + 3] = [line[:cut], line[cut:],
                                      lines[index + 1] + "," + lines[index + 2]]
        elif hazard == "blank":
            lines.insert(index, draw(st.sampled_from(["", "   ", "\t"])))
        elif hazard in ("join", "join-space") and index + 1 < len(lines):
            glue = "," if hazard == "join" else " "
            lines[index:index + 2] = [line + glue + lines[index + 1]]
        elif hazard == "split" and len(line) > 1:
            cut = draw(st.integers(1, len(line) - 1))
            lines[index:index + 1] = [line[:cut], line[cut:]]
        elif hazard == "garbage":
            lines[index] = line + draw(st.sampled_from(["}", "x", " {"]))
        elif hazard == "pad":
            lines[index] = " " + line + " "
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    trailer = draw(st.sampled_from(["", newline, newline * 2]))
    return (newline.join(lines) + trailer).encode("utf-8")


@st.composite
def document_bodies(draw):
    """``{"samples": [...]}`` bodies with short, long and odd entries."""
    width = draw(st.integers(0, 4))
    clean = st.builds(lambda s, h, v: [s, h, v], _serial,
                      _int_hour, _values(width, True))
    entry = st.one_of(
        clean, clean,
        st.builds(lambda s, h, v: [s, h, v], _odd_serial, _hour,
                  _values(width, False)),
        st.sampled_from([["D1", 3], ["D1", 3, [1.0], "extra"], "abc",
                         {"a": 1, "b": 2, "c": 3}, None]))
    samples = draw(st.lists(entry, max_size=8))
    return json.dumps({"samples": samples}).encode("utf-8")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(body=jsonl_bodies())
def test_jsonl_fast_path_matches_the_per_line_reference(body):
    reference = _outcome(lambda: _jsonl_reference(body))
    assert _outcome(lambda: _parse_jsonl_batch(body)) == reference
    lines = body.decode("utf-8").splitlines()
    fast = _fast_jsonl(lines)
    if fast is not None:
        assert _outcome(lambda: fast) == reference


@settings(max_examples=300, deadline=None, derandomize=True)
@given(body=document_bodies())
def test_document_fast_path_matches_the_per_sample_reference(body):
    reference = _outcome(lambda: _document_reference(body))
    assert _outcome(lambda: _parse_json_batch(body)) == reference


def test_clean_bodies_take_the_fast_path():
    lines = [_line(f"D{index}", index, (index, 0.5, -0.0))
             for index in range(5)]
    fast = _fast_jsonl(lines + ["", "  "])
    assert fast is not None
    assert _outcome(lambda: fast) == _outcome(
        lambda: _jsonl_reference("\n".join(lines).encode("utf-8")))


def test_line_alignment_is_checked_not_just_counted():
    """Three lines, three objects when joined into one array — but line
    1 alone is not JSON, so the batch is refused, naming line 1."""
    lines = ['{"serial": "A", "hour": 1, "values": [1.0',
             '2.0]}',
             _line("B", 1, (1.0, 2.0)) + "," + _line("C", 1, (3.0, 4.0))]
    joined = json.loads("[" + ",".join(lines) + "]")
    assert len(joined) == len(lines)
    assert _fast_jsonl(lines) is None
    with pytest.raises(ServeError, match=r"^line 1: Expecting ',' delimiter"):
        _parse_jsonl_batch("\n".join(lines).encode("utf-8"))


# -- refusals name their line or sample ----------------------------------------

@pytest.mark.parametrize("lines, expected", [
    ([_line(), _line(), _line(), '{"serial": "D1", "hour": 5 "values": []}'],
     "line 4: Expecting ',' delimiter: line 1 column 28 (char 27)"),
    ([_line(), _line(hour="x")],
     "line 2: invalid literal for int() with base 10: 'x'"),
    ([_line(), _line(), _line(values=(1.0, "q", 2.0))],
     "line 3: could not convert string to float: 'q'"),
    ([_line(hour=None)],
     "line 1: int() argument must be a string, a bytes-like object or "
     "a real number, not 'NoneType'"),
    ([_line(hour=float("inf"))], "line 1: cannot convert float infinity "
                               "to integer"),
    ([_line(), "[1, 2]"], "line 2: expected an object with keys "
                          "serial/hour/values, got array"),
    (['{"serial": "D1", "hour": 5}'],
     "line 1: expected keys serial/hour/values (missing 'values')"),
    (["", _line(values=(1.0, 2.0))],
     None),
    ([_line(), _line(hour=1.5)], 'line 2: "hour" must be an integer, got 1.5'),
    ([_line(hour=5.0)], 'line 1: "hour" must be an integer, got 5.0'),
    ([_line(hour=True)], 'line 1: "hour" must be an integer, got true'),
    ([_line(), _line(serial=None)],
     'line 2: "serial" must be a string, got null'),
    ([_line(serial=7)], 'line 1: "serial" must be a string, got number'),
    ([_line(hour="7")], None),
    ([_line(), _line(hour=2**63)],
     'line 2: "hour" 9223372036854775808 is outside the int64 range'),
    ([_line(hour="99999999999999999999")],
     'line 1: "hour" 99999999999999999999 is outside the int64 range'),
    ([_line(hour=-2**63)], None),
])
def test_jsonl_refusals_name_the_line(lines, expected):
    body = "\n".join(lines).encode("utf-8")
    if expected is None:
        assert len(_parse_jsonl_batch(body)[0]) == 1
        return
    with pytest.raises(ServeError) as caught:
        _parse_jsonl_batch(body)
    assert str(caught.value) == expected


def test_invalid_utf8_names_its_line():
    body = (_line() + "\n" + _line() + "\n").encode("utf-8") + b"\xff\n"
    with pytest.raises(ServeError, match=r"^line 3: not UTF-8"):
        _parse_jsonl_batch(body)


@pytest.mark.parametrize("samples, expected", [
    ([["D1", 1, [1.0, 2.0]], ["D1", 2]],
     'sample 1: expected [serial, hour, values], got ["D1", 2]'),
    ([["D1", "x", [1.0]]],
     "sample 0: invalid literal for int() with base 10: 'x'"),
    ([["D1", 1, [1.0]], ["D1", 2, ["q"]]],
     "sample 1: could not convert string to float: 'q'"),
    ([["D1", 1, [1.0]], ["D1", 2, [1.0, 2.0]]],
     "sample 1: 2 values where earlier samples had 1"),
    ([["D1", 1, [1.0]], ["D1", 1.5, [1.0]]],
     'sample 1: "hour" must be an integer, got 1.5'),
    ([["D1", False, [1.0]]], 'sample 0: "hour" must be an integer, got false'),
    ([[None, 1, [1.0]]], 'sample 0: "serial" must be a string, got null'),
    ([["D1", 1, [1.0]], [["D1"], 1, [1.0]]],
     'sample 1: "serial" must be a string, got array'),
    ([["D1", 1, [1.0]], ["D1", -2**63 - 1, [1.0]]],
     'sample 1: "hour" -9223372036854775809 is outside the int64 range'),
])
def test_document_refusals_name_the_sample(samples, expected):
    body = json.dumps({"samples": samples}).encode("utf-8")
    with pytest.raises(ServeError) as caught:
        _parse_json_batch(body)
    assert str(caught.value) == expected


# -- "values" must be an array -------------------------------------------------

@pytest.mark.parametrize("values, kind", [
    ("12", "string"), ({"1": 2, "3": 4}, "object"), (12, "number"),
    (None, "null"),
])
def test_non_array_values_are_refused_in_both_forms(values, kind):
    jsonl = "\n".join([_line(values=(1.0, 2.0)),
                       json.dumps({"serial": "D2", "hour": 1,
                                   "values": values})]).encode("utf-8")
    with pytest.raises(ServeError) as caught:
        _parse_jsonl_batch(jsonl)
    assert str(caught.value) == f'line 2: "values" must be an array, got {kind}'
    document = json.dumps(
        {"samples": [["D2", 1, values]]}).encode("utf-8")
    with pytest.raises(ServeError) as caught:
        _parse_json_batch(document)
    assert str(caught.value) == (
        f'sample 0: "values" must be an array, got {kind}')


def test_non_array_samples_are_refused():
    body = json.dumps({"samples": {"a12": 0}}).encode("utf-8")
    with pytest.raises(ServeError, match='"samples" must be an array, '
                                         'got object'):
        _parse_json_batch(body)
