"""Matrix file input and output.

Two formats: CSV (one row per line, comma-separated entries) and JSON
(object with `rows`, `cols`, `data`). Complex entries are written as `a`,
`bi`, or `a+bi` / `a-bi`, with components given as decimals or fractions
`p/q`. Parsing targets either the float path (complex128 arrays) or the
exact path (Gaussian-rational object arrays); printing floats uses 17
significant digits and printing exact values uses fraction strings, so a
parse/print round trip is lossless in both directions. On the float path
each component is the double nearest its exact value, and a component
outside the double range is a parse error. On the exact path a decimal
exponent beyond +-MAX_EXACT_EXPONENT is a parse error.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import ParseError

_IMAG_SUFFIXES = "iIjJ"

# Components that float() rounds exactly as Fraction does; anything else
# (p/q, underscores, non-ASCII digits, bare signs) goes through Fraction,
# which keeps the accepted set that of the exact path. Each digit string
# matches one way only, so a line that fails _ROW fails in linear time.
_UNSIGNED = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_DECIMAL = re.compile(r"[+-]?" + _UNSIGNED)

# A CSV line whose every entry is `a`, `bi` or `a+bi` / `a-bi` over
# _DECIMAL components, with only spaces or tabs around entries: complex()
# reads each entry as _parse_token does, once the suffix is spelled `j`.
_ENTRY = rf"[ \t]*{_DECIMAL.pattern}(?:[iIjJ]|[+-]{_UNSIGNED}[iIjJ])?[ \t]*"
_ROW = re.compile(rf"{_ENTRY}(?:,{_ENTRY})*")
_TO_J = str.maketrans("iIJ", "jjj")

# The largest decimal exponent, in absolute value, that becomes a Fraction:
# far past the double range, while Fraction's 10**exponent stays cheap (it
# takes 14 s at 10**7) and printable (Python's int-to-str limit is 4300
# digits).
MAX_EXACT_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)\s*\Z")


def _split_complex(token: str) -> tuple[str | None, str | None]:
    """Split a complex token into raw (real, imaginary) component strings.

    Either part may be None when absent; an empty imaginary coefficient
    (as in `i` or `-i`) comes back as its sign alone.
    """
    t = token.strip()
    if not t:
        raise ValueError("empty entry")
    split = -1
    for idx in range(1, len(t)):
        if t[idx] in "+-" and t[idx - 1] not in "eE":
            split = idx
            break
    if split == -1:
        if t[-1] in _IMAG_SUFFIXES:
            return None, t[:-1]
        return t, None
    rest = t[split:]
    if rest[-1] not in _IMAG_SUFFIXES:
        raise ValueError(f"trailing component of {token.strip()!r} is not imaginary")
    return t[:split], rest[:-1]


def _huge_exponent(text: str) -> re.Match | None:
    """The exponent match of a decimal whose exponent is beyond
    +-MAX_EXACT_EXPONENT, else None."""
    match = _EXPONENT.search(text)
    if match is not None and abs(int(match.group(1))) > MAX_EXACT_EXPONENT:
        return match
    return None


def _fraction(text: str) -> Fraction:
    """Fraction from a decimal or p/q string; bare signs mean unit values."""
    if text in ("", "+"):
        return Fraction(1)
    if text == "-":
        return Fraction(-1)
    if _huge_exponent(text):
        raise ValueError(f"decimal exponent beyond +-{MAX_EXACT_EXPONENT} on the exact path")
    return Fraction(text)


def _nearest_double(text: str) -> float:
    """float(_fraction(text)), without building 10**exponent for a huge
    exponent: float() rounds such text the same way, and only an exact zero
    needs its sign fixed, as Fraction has no -0."""
    match = _huge_exponent(text)
    if match is None:
        return float(_fraction(text))
    value = float(text)
    if math.isinf(value):
        raise OverflowError(f"component {text!r} is beyond the double range")
    return value if value or Fraction(text[:match.start()]) else 0.0


def _parse_token(token: str, exact: bool):
    """One complex entry from its textual form.

    A float component that is a plain decimal goes straight to float(),
    which rounds as Fraction does; raises OverflowError past the double
    range.
    """
    re_part, im_part = _split_complex(token)
    if exact:
        from .exact import GaussianRational

        real = _fraction(re_part) if re_part is not None else Fraction(0)
        imag = _fraction(im_part) if im_part is not None else Fraction(0)
        return GaussianRational(real, imag)
    values = []
    for text in (re_part, im_part):
        if text is None:
            values.append(0.0)
        elif not _DECIMAL.fullmatch(text):
            values.append(_nearest_double(text))
        else:
            value = float(text)
            if math.isinf(value):
                raise OverflowError(f"component {text!r} is beyond the double range")
            if not value and not text.lower().partition("e")[0].strip("+-0."):
                value = 0.0  # an exact zero is +0.0 through Fraction; an underflow keeps its sign
            values.append(value)
    return complex(*values)


def parse_entry(token: str, exact: bool = False):
    """Parse a single complex entry; raises ParseError on bad syntax."""
    try:
        return _parse_token(token, exact)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"bad matrix entry {token.strip()!r}: {exc}") from exc


def _finish(rows: list[list], exact: bool) -> np.ndarray:
    if not rows:
        raise ParseError("matrix file contains no rows")
    if exact:
        out = np.empty((len(rows), len(rows[0])), dtype=object)
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                out[i, j] = value
        return out
    return np.array(rows, dtype=np.complex128)


def _parse_row(line: str) -> list[complex] | None:
    """The values of a float CSV line that _ROW matches, read by complex()
    in one pass; None when the line needs _parse_token (no match, or an
    entry beyond the double range)."""
    if not _ROW.fullmatch(line):
        return None
    row = list(map(complex, line.translate(_TO_J).split(",")))
    # the sum of finite entries can overflow too; _parse_token then decides
    return row if cmath.isfinite(sum(row)) else None


def _parse_entries(parts: list[str], exact: bool, lineno: int) -> list:
    row = []
    offset = 0
    for part in parts:
        column = offset + len(part) - len(part.lstrip()) + 1
        try:
            row.append(_parse_token(part, exact))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"bad matrix entry {part.strip()!r}: {exc}",
                             line=lineno, column=column) from exc
        offset += len(part) + 1
    return row


def _parse_csv(text: str, exact: bool) -> np.ndarray:
    rows: list[list] = []
    lines: list[tuple[int, str]] = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ParseError(
                f"row has {len(parts)} entries, expected {width}", line=lineno, column=1)
        row = None if exact else _parse_row(line)
        rows.append(row if row is not None else _parse_entries(parts, exact, lineno))
        lines.append((lineno, line))
    out = _finish(rows, exact)
    if not exact:
        # complex() keeps the sign of a zero such as `-0`, which _parse_token
        # reads as +0.0 (an exact zero has no sign); such rows are read again
        negative_zero = np.signbit(out.view(np.float64)) & (out.view(np.float64) == 0)
        for i in np.flatnonzero(negative_zero.any(axis=1)):
            lineno, line = lines[i]
            out[i] = _parse_entries(line.split(","), exact, lineno)
    return out


def _json_component(value, exact: bool, where: str):
    """A Fraction, or on the float path the double nearest it."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ParseError(f"{where}: component {value!r} is not a number or fraction string")
    try:
        if isinstance(value, str):
            if value in ("", "+", "-"):
                raise ValueError("a bare sign is not a number")
            return _fraction(value) if exact else _nearest_double(value)
        if exact:
            return Fraction(value)
        if not math.isfinite(value):
            raise ValueError("not a finite number")
        # + 0.0 maps -0.0 to +0.0, as the route through Fraction does
        return float(value) + 0.0
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"{where}: bad component {value!r}: {exc}") from exc


def _json_entry(value, exact: bool, where: str):
    if isinstance(value, str):
        try:
            return _parse_token(value, exact)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"{where}: bad matrix entry {value!r}: {exc}") from exc
    if isinstance(value, bool):
        raise ParseError(f"{where}: entry {value!r} is not a number")
    if isinstance(value, (int, float)):
        real, imag = _json_component(value, exact, where), 0
    elif isinstance(value, list):
        if len(value) != 2:
            raise ParseError(f"{where}: a complex entry must be a 2-array [re, im]")
        real = _json_component(value[0], exact, where)
        imag = _json_component(value[1], exact, where)
    else:
        raise ParseError(f"{where}: entry {value!r} is not a number, string, or 2-array")
    if exact:
        from .exact import GaussianRational

        return GaussianRational(real, imag)
    return complex(real, imag)


def _float_json_data(data: list, m: int, n: int) -> np.ndarray | None:
    """`data` read by one np.array when it is an m x n array of JSON numbers
    or of [re, im] number pairs, every one finite; else None, and the
    entries go through _json_entry. np.array would read a bool or a numeric
    string as a number, so any component that is not an int or a float
    sends the document the per-entry way."""
    try:
        values = np.array(data, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        return None
    if values.shape == (m, n):
        components = chain.from_iterable(data)
    elif values.shape == (m, n, 2):
        components = chain.from_iterable(chain.from_iterable(data))
    else:
        return None
    if not set(map(type, components)) <= {int, float} or not np.isfinite(values).all():
        return None
    values += 0.0  # -0.0 reads as +0.0, as the route through Fraction gives
    if values.ndim == 2:
        return values.astype(np.complex128)
    return values.view(np.complex128)[..., 0]


def _parse_json(text: str, exact: bool) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object with rows, cols, data")
    for key in ("rows", "cols", "data"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    m, n, data = doc["rows"], doc["cols"], doc["data"]
    if not isinstance(m, int) or not isinstance(n, int) or isinstance(m, bool) \
            or isinstance(n, bool) or m < 1 or n < 1:
        raise ParseError("rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != m:
        raise ParseError(f"data must be an array of {m} rows")
    if not exact:
        out = _float_json_data(data, m, n)
        if out is not None:
            return out
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"data row {i} must be an array of {n} entries")
        rows.append([_json_entry(v, exact, f"data[{i}][{j}]") for j, v in enumerate(row)])
    return _finish(rows, exact)


def parse_matrix(text: str, fmt: str, exact: bool = False) -> np.ndarray:
    """Matrix from file text in the given format ('csv' or 'json').

    Returns a complex128 array, or an object array of Gaussian rationals
    when `exact` is set.
    """
    if fmt == "csv":
        return _parse_csv(text, exact)
    if fmt == "json":
        return _parse_json(text, exact)
    raise ParseError(f"unknown matrix format {fmt!r} (expected 'csv' or 'json')")


def detect_format(path: str, text: str | None = None) -> str:
    """'csv' or 'json', from the file suffix or, failing that, the content."""
    lowered = str(path).lower()
    if lowered.endswith(".json"):
        return "json"
    if lowered.endswith(".csv"):
        return "csv"
    if text is not None and text.lstrip().startswith("{"):
        return "json"
    return "csv"


def load_matrix(path: str, exact: bool = False) -> tuple[np.ndarray, str]:
    """Read and parse a matrix file; returns (matrix, detected format)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    fmt = detect_format(path, text)
    try:
        return parse_matrix(text, fmt, exact), fmt
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.args[0] if exc.args else exc}") from exc


def _g17(value: float) -> str:
    return "%.17g" % value


def format_complex(z: complex) -> str:
    """Text form of one float entry: `a`, `bi`, or `a+bi` / `a-bi`."""
    z = complex(z)
    if z.imag == 0:
        return _g17(z.real)
    imag = _g17(abs(z.imag)) + "i"
    if z.real == 0:
        return imag if z.imag > 0 else "-" + imag
    return _g17(z.real) + ("+" if z.imag > 0 else "-") + imag


def _is_exact(matrix: np.ndarray) -> bool:
    return matrix.dtype == object


# Row templates by entry kind: imag == 0 (-0.0 too), real == 0, neither.
# For a finite entry each gives the text format_complex gives.
_CSV_TEMPLATES = np.array(["%.17g", "%.17gi", "%.17g%+.17gi"], dtype=object)


def _format_csv(matrix: np.ndarray) -> str:
    floats = matrix.dtype.kind in "fc" and np.can_cast(matrix.dtype, np.complex128)
    if not floats or not matrix.size or not np.isfinite(matrix).all():
        entry = str if _is_exact(matrix) else format_complex
        return "\n".join(",".join(map(entry, row)) for row in matrix.tolist())
    # one `%` per row over the components each entry's template reads; the
    # float64 view needs a C-ordered complex array (a transposed or
    # Fortran-ordered input is not)
    parts = np.ascontiguousarray(matrix, dtype=np.complex128).view(np.float64)
    real, imag = parts[:, 0::2], parts[:, 1::2]
    form = np.where(imag == 0, 0, np.where(real == 0, 1, 2))
    read = np.empty(parts.shape, dtype=bool)
    read[:, 0::2] = form != 1
    read[:, 1::2] = form != 0
    values = parts[read].tolist()
    lines = []
    start = 0
    for template, count in zip(map(",".join, _CSV_TEMPLATES[form].tolist()),
                               read.sum(axis=1).tolist()):
        lines.append(template % tuple(values[start:start + count]))
        start += count
    return "\n".join(lines)


def _json_value(value, exact: bool):
    if exact:
        if value.imag == 0:
            return str(value.real)
        return [str(value.real), str(value.imag)]
    z = complex(value)
    if z.imag == 0:
        return z.real
    return [z.real, z.imag]


def _format_json(matrix: np.ndarray) -> str:
    exact = _is_exact(matrix)
    m, n = matrix.shape
    data = [[_json_value(v, exact) for v in row] for row in matrix.tolist()]
    return json.dumps({"rows": m, "cols": n, "data": data})


def format_matrix(matrix: np.ndarray, fmt: str) -> str:
    """Render a matrix (float or exact) as CSV or JSON text."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ParseError(f"expected a 2-D matrix, got {matrix.ndim}-D")
    if fmt == "csv":
        return _format_csv(matrix)
    if fmt == "json":
        return _format_json(matrix)
    raise ParseError(f"unknown matrix format {fmt!r} (expected 'csv' or 'json')")


__all__ = [
    "parse_entry",
    "parse_matrix",
    "detect_format",
    "load_matrix",
    "format_complex",
    "format_matrix",
]
