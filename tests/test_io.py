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
from geninv.decomposition import core_ep_decompose
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

    @pytest.mark.parametrize("csv, number, expected", [
        ("0.1", "0.1", GaussianRational(Fraction(1, 10))),
        ("-2.5e-3", "-2.5e-3", GaussianRational(Fraction(-1, 400))),
        ("1e-400", "1e-400", GaussianRational(Fraction(1, 10 ** 400))),
        ("0.1+0.2i", "[0.1, 0.2]", GaussianRational(Fraction(1, 10), Fraction(1, 5))),
        (str(2 ** 53 + 1), str(2 ** 53 + 1), GaussianRational(Fraction(2 ** 53 + 1))),
    ])
    def test_exact_mode_reads_json_numbers_by_their_text(self, csv, number, expected):
        # a JSON float is not rounded to a double first: it takes the value
        # its text names, as the same text does in a CSV file
        text = f'{{"rows": 1, "cols": 1, "data": [[{number}]]}}'
        from_json = parse_matrix(text, "json", exact=True)
        assert from_json[0, 0] == parse_matrix(csv, "csv", exact=True)[0, 0] == expected

    def test_exact_mode_bounds_a_json_exponent_as_csv_does(self):
        for text, fmt in (('{"rows": 1, "cols": 1, "data": [[1e5000]]}', "json"),
                          ("1e5000", "csv")):
            with pytest.raises(ParseError, match=f"decimal exponent beyond \\+-{MAX_EXACT_EXPONENT}"):
                parse_matrix(text, fmt, exact=True)

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


def _csv_per_entry(x):
    """The CSV text of x with every entry through format_complex."""
    return "\n".join(",".join(map(format_complex, row)) for row in np.asarray(x).tolist())


_TINY = 5e-324
_EDGE = [0.0, -0.0, 1.5, -2.5, _TINY, -_TINY, 2.2250738585072014e-308, 1e-308,
         1e308, 1.7976931348623157e308, -1.7976931348623157e308]


class TestFloatCsvRows:
    # format_matrix(x, "csv") builds one template per row; the text must be
    # that of format_complex on each entry, byte for byte

    def test_signed_zero_in_each_component(self):
        zeros = [0.0, -0.0, 1.5, -2.5]
        x = np.array([[complex(a, b) for b in zeros] for a in zeros])
        assert format_matrix(x, "csv") == _csv_per_entry(x)

    def test_real_imaginary_and_mixed_rows(self):
        x = np.array([[1, -2.5, 3e-7], [1j, -2.5j, 3e-7j], [1 + 1j, 2, -3j]])
        assert format_matrix(x, "csv") == _csv_per_entry(x)

    def test_subnormal_and_extreme_values(self):
        x = np.array([[complex(a, b) for b in _EDGE] for a in _EDGE])
        assert format_matrix(x, "csv") == _csv_per_entry(x)
        assert format_matrix(x.real, "csv") == _csv_per_entry(x.real)

    def test_memory_layouts(self, rng):
        x = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        x[1, 2], x[3, 0], x[4, 4] = 2.0, -3j, complex(-0.0, 1)
        for view in (np.asfortranarray(x), x.T, x[::2, 1::2], x[1:, ::-1], x.real.T):
            assert not view.flags.c_contiguous
            assert format_matrix(view, "csv") == _csv_per_entry(view)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_matrices(self, shape):
        x = np.zeros(shape, dtype=np.complex128)
        assert format_matrix(x, "csv") == _csv_per_entry(x)

    def test_non_finite_entries(self):
        x = np.array([[np.inf, complex(1, -np.inf)], [complex(np.nan, 1), complex(1, np.nan)]])
        assert format_matrix(x, "csv") == _csv_per_entry(x)

    def test_decomposition_blocks(self, rng):
        # the blocks of a decomposition, and a Fortran-ordered frame, which
        # the row formatter copies to C order first
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        t = np.triu(rng.standard_normal((6, 6))) + np.diag([1, 2, 3, 0, 0, 0])
        t[3:, 3:] = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        d = core_ep_decompose(q @ t @ q.conj().T)
        fortran = np.asfortranarray(d.u)
        assert not fortran.flags.c_contiguous
        for block in (d.u, d.t, d.s, d.nil, fortran):
            assert format_matrix(block, "csv") == _csv_per_entry(block)


def _per_entry_json(text):
    """parse_matrix(text, "json") with every entry read by _json_entry."""
    saved = io._float_json_data
    io._float_json_data = lambda data, m, n: None
    try:
        return _json_outcome(text)
    finally:
        io._float_json_data = saved


def _json_outcome(text):
    try:
        out = parse_matrix(text, "json")
    except ParseError as exc:
        return str(exc)
    assert out.dtype == np.complex128 and out.flags.c_contiguous
    return out.shape, out.tobytes()


def _json_doc(data):
    return json.dumps({"rows": len(data), "cols": len(data[0]), "data": data})


_BIG_INTS = [2**53 + 1, -(2**53 + 3), 2**63 + 1, -(2**64) + 3, 2**70 + 1, 10**300]


class TestFloatJsonArray:
    # a document of JSON numbers, or of [re, im] number pairs, is read by one
    # np.array; any other document keeps the per-entry route

    @pytest.mark.parametrize("data", [
        [[1, -0.0, 0.0], [2.5, -1e-320, 1e308], _BIG_INTS[:3], _BIG_INTS[3:]],
        [[[1, -0.0], [-0.0, -0.0], [2**53 + 1, 3]], [[0.0, 1e-320], _BIG_INTS[4:], [-1, 2]]],
        [[7]],
    ], ids=["numbers", "pairs", "one"])
    def test_same_bits_as_per_entry_route(self, data):
        text = _json_doc(data)
        assert io._float_json_data(data, len(data), len(data[0])) is not None
        assert _json_outcome(text) == _per_entry_json(text)
        parts = parse_matrix(text, "json").view(np.float64)
        assert not (np.signbit(parts) & (parts == 0)).any()  # -0.0 reads as +0.0

    @pytest.mark.parametrize("data, message", [
        ([[1, True]], "data[0][1]: entry True is not a number"),
        ([[[1, False]]], "data[0][0]: component False is not a number or fraction string"),
        ([[1, "1.5"]], None),
        ([[["1", 2]]], None),
        ([[1, float("nan")]], "data[0][1]: bad component nan: not a finite number"),
        ([[float("inf"), 1]], "data[0][0]: bad component inf: not a finite number"),
        ([[[1, 2, 3]]], "data[0][0]: a complex entry must be a 2-array [re, im]"),
        ([[1, 2], [3]], "data row 1 must be an array of 2 entries"),
        ([[1, [2, 3]], [[4, 5], 6]], None),
        ([[1, None]], "data[0][1]: entry None is not a number, string, or 2-array"),
        ([[1, 10**400]], "data[0][1]: bad component"),
    ], ids=["bool", "bool-component", "string", "string-component", "nan", "infinity",
            "three-array", "ragged", "mixed", "null", "past-double-range"])
    def test_other_documents_keep_the_per_entry_route(self, data, message):
        text = _json_doc(data)
        outcome = _json_outcome(text)
        assert outcome == _per_entry_json(text)
        if message is None:
            assert isinstance(outcome, tuple)
        else:
            assert isinstance(outcome, str) and outcome.startswith(message)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(st.lists(st.tuples(st.one_of(finite, st.sampled_from(_EDGE)),
                          st.one_of(finite, st.sampled_from(_EDGE))), min_size=6, max_size=6))
@settings(max_examples=200, deadline=None)
def test_float_csv_rows_match_format_complex(pairs):
    x = np.array([complex(a, b) for a, b in pairs]).reshape(2, 3)
    assert format_matrix(x, "csv") == _csv_per_entry(x)


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
