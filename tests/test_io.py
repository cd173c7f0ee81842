import json
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geninv import io
from geninv.errors import ParseError
from geninv.exact import GaussianRational
from geninv.io import (MAX_EXACT_EXPONENT, detect_format, format_complex, format_matrix,
                       load_matrix, parse_entry, parse_matrix)


class TestParseEntry:
    @pytest.mark.parametrize("token,expected", [
        ("3", 3 + 0j),
        ("-2.5", -2.5 + 0j),
        ("1e-3", 1e-3 + 0j),
        ("i", 1j),
        ("-i", -1j),
        ("+i", 1j),
        ("2i", 2j),
        ("2.5j", 2.5j),
        ("1+2i", 1 + 2j),
        ("1-2i", 1 - 2j),
        ("-1.5+0.5i", -1.5 + 0.5j),
        ("1e2+1e-2i", 100 + 0.01j),
        ("3/4", 0.75 + 0j),
        ("3/4-1/2i", 0.75 - 0.5j),
        (" 2 ", 2 + 0j),
    ])
    def test_float_grammar(self, token, expected):
        assert parse_entry(token) == expected

    def test_exact_fraction(self):
        v = parse_entry("3/5-1/3i", exact=True)
        assert v == GaussianRational(Fraction(3, 5), Fraction(-1, 3))

    def test_exact_decimal_is_exact(self):
        v = parse_entry("1.5", exact=True)
        assert v == GaussianRational(Fraction(3, 2))

    @pytest.mark.parametrize("token", ["-0", "-0.0", "+0e10", "-.0E-3", "-1e-400", "1e-400",
                                       "-2e-324", "4.9e-324", "1_0", "-1.5e+3"])
    def test_float_component_is_the_double_nearest_its_fraction(self, token):
        expected = np.complex128(complex(float(Fraction(token)), 0.0))
        assert np.complex128(parse_entry(token)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", ["1e400", "-1e400+1i", "1/3+1e309i", "1" * 400 + "/1",
                                     "inf", "nan"])
    def test_rejects_components_beyond_double_range(self, bad):
        with pytest.raises(ParseError):
            parse_entry(bad)

    @pytest.mark.parametrize("bad", ["", "abc", "1+2", "1//2", "1/0", "2+3", "i2", "1+2i3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_entry(bad)


class TestCsv:
    def test_basic_matrix(self):
        a = parse_matrix("1, 2\n3, 4\n", "csv")
        assert a.dtype == np.complex128
        assert np.array_equal(a, [[1, 2], [3, 4]])

    def test_blank_lines_skipped(self):
        a = parse_matrix("\n1,2\n\n3,4\n\n", "csv")
        assert a.shape == (2, 2)

    def test_complex_and_fraction_entries(self):
        a = parse_matrix("1+2i, -i\n1/2, 0\n", "csv")
        assert a[0, 0] == 1 + 2j
        assert a[0, 1] == -1j
        assert a[1, 0] == 0.5

    def test_ragged_rows_report_position(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("1,2\n3\n", "csv")
        assert exc.value.line == 2

    def test_bad_entry_reports_line_and_column(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("1, 2\n3, oops\n", "csv")
        assert exc.value.line == 2
        assert exc.value.column == 4

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("\n\n", "csv")


class TestJson:
    def test_basic_matrix(self):
        text = '{"rows": 2, "cols": 2, "data": [[1, 2], [3, 4]]}'
        assert np.array_equal(parse_matrix(text, "json"), [[1, 2], [3, 4]])

    def test_entry_forms(self):
        text = '{"rows": 1, "cols": 4, "data": [[1.5, [0, 1], "2-3i", "1/4"]]}'
        a = parse_matrix(text, "json")
        assert a[0, 0] == 1.5
        assert a[0, 1] == 1j
        assert a[0, 2] == 2 - 3j
        assert a[0, 3] == 0.25

    def test_exact_mode(self):
        text = '{"rows": 1, "cols": 2, "data": [["1/3", "2i"]]}'
        a = parse_matrix(text, "json", exact=True)
        assert a[0, 0] == GaussianRational(Fraction(1, 3))
        assert a[0, 1] == GaussianRational(Fraction(0), Fraction(2))

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix('{"rows": 1,\n "cols": }', "json")
        assert exc.value.line == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix('{"rows": 2, "cols": 2, "data": [[1, 2]]}', "json")
        with pytest.raises(ParseError):
            parse_matrix('{"rows": 1, "cols": 3, "data": [[1, 2]]}', "json")

    def test_boolean_entry_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix('{"rows": 1, "cols": 1, "data": [[true]]}', "json")

    def test_missing_keys_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix('{"rows": 1, "data": [[1]]}', "json")


class TestDetectAndLoad:
    def test_suffix_detection(self, tmp_path):
        (tmp_path / "m.json").write_text('{"rows":1,"cols":1,"data":[[1]]}')
        (tmp_path / "m.csv").write_text("1\n")
        assert detect_format(tmp_path / "m.json") == "json"
        assert detect_format(tmp_path / "m.csv") == "csv"

    def test_content_sniffing_for_unknown_suffix(self):
        assert detect_format("m.txt", '  {"rows":1,"cols":1,"data":[[7]]}') == "json"
        assert detect_format("m.txt", "7,8\n") == "csv"

    def test_load_uses_content_sniffing(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text('{"rows":1,"cols":1,"data":[[7]]}')
        a, fmt = load_matrix(p)
        assert fmt == "json"
        assert a[0, 0] == 7

    def test_load_matrix_roundtrip(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1, 2i\n-1/2, 0\n")
        a, fmt = load_matrix(p)
        assert fmt == "csv"
        assert a[0, 1] == 2j

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_matrix(tmp_path / "nope.csv")
        assert "nope.csv" in str(exc.value)


class TestFormatting:
    @pytest.mark.parametrize("value,text", [
        (1.0, "1"),
        (-2.5, "-2.5"),
        (1j, "1i"),
        (-1j, "-1i"),
        (1 + 2j, "1+2i"),
        (1 - 2j, "1-2i"),
        (0j, "0"),
    ])
    def test_format_complex(self, value, text):
        assert format_complex(value) == text

    def test_float_csv_roundtrip(self):
        a = np.array([[1 / 3, 2j], [-1.25, 1 + 1e-17j]], dtype=np.complex128)
        text = format_matrix(a, "csv")
        back = parse_matrix(text, "csv")
        assert np.array_equal(back, a)

    def test_float_json_roundtrip(self):
        a = np.array([[0.1 + 0.2j, 3]], dtype=np.complex128)
        text = format_matrix(a, "json")
        payload = json.loads(text)
        assert payload["rows"] == 1 and payload["cols"] == 2
        assert np.array_equal(parse_matrix(text, "json"), a)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_float_output_is_format_complex_of_each_entry(self, fmt):
        tiny = 5e-324
        a = np.array([[-0.0, 2.5, -3j, complex(-0.0, 1e-310)],
                      [tiny, complex(1e308, -1e308), -1e308j, complex(-tiny, tiny)]])
        text = format_matrix(a, fmt)
        if fmt == "csv":
            expected = "\n".join(",".join(format_complex(z) for z in row) for row in a)
            assert text == expected
        else:
            entries = [z.real if z.imag == 0 else [z.real, z.imag]
                       for z in map(complex, a.ravel())]
            assert text == json.dumps({"rows": 2, "cols": 4, "data": [entries[:4], entries[4:]]})

    def test_exact_roundtrip_both_formats(self):
        a = np.empty((1, 2), dtype=object)
        a[0, 0] = GaussianRational(Fraction(1, 3), Fraction(-2, 7))
        a[0, 1] = GaussianRational(Fraction(5))
        for fmt in ("csv", "json"):
            back = parse_matrix(format_matrix(a, fmt), fmt, exact=True)
            assert back[0, 0] == a[0, 0]
            assert back[0, 1] == a[0, 1]


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(finite, finite)
@settings(max_examples=200, deadline=None)
def test_format_parse_roundtrip_is_lossless(re, im):
    z = complex(re, im)
    assert parse_entry(format_complex(z)) == z


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4),
       st.integers(-10**6, 10**6), st.integers(1, 10**4))
@settings(max_examples=100, deadline=None)
def test_exact_token_roundtrip(a, b, c, d):
    v = GaussianRational(Fraction(a, b), Fraction(c, d))
    assert parse_entry(str(v), exact=True) == v


@given(finite, st.sampled_from(["%r", "%.3e", "%.17g", "%.40f", "%E"]))
@settings(max_examples=200, deadline=None)
def test_decimal_component_parses_as_through_fraction(x, fmt):
    text = fmt % x
    try:
        expected = np.complex128(complex(float(Fraction(text)), 0.0))
    except OverflowError:  # rounding the text went past the largest double
        with pytest.raises(ParseError):
            parse_entry(text)
        return
    assert np.complex128(parse_entry(text)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("token, expected", [
    ("-1e-1_0000000", -0.0), ("-0_0e1_0000000", 0.0), ("2_5e-1_0000000", 0.0)])
def test_huge_exponent_float_component_is_fast(token, expected):
    # the float path rounds as through Fraction, without building 10**exponent
    start = time.perf_counter()
    value = parse_entry(token)
    assert time.perf_counter() - start < 1.0
    assert value == expected and math.copysign(1, value.real) == math.copysign(1, expected)


def test_exact_exponent_bound():
    assert parse_entry(f"1e-{MAX_EXACT_EXPONENT}", exact=True).real == \
        Fraction(1, 10 ** MAX_EXACT_EXPONENT)
    with pytest.raises(ParseError, match="exponent"):
        parse_entry(f"1e{MAX_EXACT_EXPONENT + 1}", exact=True)


def _per_token(text):
    """parse_matrix(text, "csv") with every line read by _parse_token."""
    saved = io._ROW
    io._ROW = re.compile(r"(?!)")
    try:
        return _outcome(text)
    finally:
        io._ROW = saved


def _outcome(text):
    try:
        return parse_matrix(text, "csv").tobytes()
    except ParseError as exc:
        return str(exc)


def test_row_route_reads_plain_rows():
    assert io._parse_row(" 1.5,-2e-3i,\t3+4I , .5-6.J,7.e+2j ") == \
        [1.5, -2e-3j, 3 + 4j, 0.5 - 6j, 700j]
    for line in ["1,1/2", "1,1_0", "1,i", "1,-i", "1,\xa02", "1,1e400", "1,,2", "1 +2i",
                 "1e308,1e308", "1+-2i", "1e5e5", "1,\u0662"]:
        assert io._parse_row(line) is None


ROW_CASES = [
    "-0,0e5,-1e-400\n1e-400i,-0.0-0i,2",
    "1,2\n3,1e400\n4,5,6",
    "1,2\n3,4,5\n1e400,1",
    "1, 1/2\n1_0,\t-i\n",
    "1,2\n-1e-400,x\n",
    "1+2I,3J\n-4.5e-3-7j,i\n",
    "\xa01,2\n3,4\xa0\n",
    "\t1\t, 2 \n\n 3,4",
    "-0.0e10-0j,5\n.5,5.\n",
    "1+-2i,3\n",
]


@pytest.mark.parametrize("text", ROW_CASES)
def test_row_route_matches_per_token_route_on_fixed_rows(text):
    assert _outcome(text) == _per_token(text)


_strict = st.one_of(
    st.builds(lambda x, fmt: fmt % x, st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from(["%r", "%.3e", "%.17g", "%.5f", "%E"])),
    st.integers(-10**20, 10**20).map(str))
_special = st.sampled_from(["-0", "0e5", "-1e-400", "1e400", "-1e400", "1/3", "-2/7", "1_0",
                            "i", "-i", "+i", "0", "-0.0", ".5", "5.", "007", "1e-320",
                            "1\xa0", "\u0662", "x", ""])
_component = st.one_of(_strict, _special)


@st.composite
def _entries(draw):
    real, imag = draw(_component), draw(_component)
    suffix = draw(st.sampled_from("iIjJ"))
    shape = draw(st.sampled_from(["a", "bi", "a+bi"]))
    if shape == "a":
        token = real
    elif shape == "bi":
        token = imag + suffix
    else:
        sign = "-" if imag.startswith("-") else "+"
        token = real + sign + imag.lstrip("+-") + suffix
    pad = st.sampled_from(["", " ", "\t", "  \t", "\xa0"])
    return draw(pad) + token + draw(pad)


@st.composite
def _csv_texts(draw):
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.sampled_from([width, width, width, width + 1, max(width - 1, 1)]))
        lines.append(",".join(draw(_entries()) for _ in range(n)))
    return "\n".join(lines)


@given(_csv_texts())
@settings(max_examples=400, deadline=None)
def test_row_route_matches_per_token_route(text):
    assert _outcome(text) == _per_token(text)
