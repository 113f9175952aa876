"""The one-pass ``parse_csv`` against the line-by-line reader it replaced."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kipa.errors import InvalidParameter
from kipa.material import parse_csv


def _reference_parse_csv(text, header):
    """``parse_csv`` as it was: split and convert line by line, rows as tuples."""
    want = ",".join(header)
    lines = [(n, ln) for n, ln in enumerate(map(str.strip, text.splitlines()), start=1) if ln]
    if not lines:
        raise InvalidParameter(f"empty input: expected header {want!r}")
    lineno, line = lines[0]
    if [c.strip() for c in line.split(",")] != list(header):
        raise InvalidParameter(f"line {lineno}: expected header {want!r}, got {line!r}")
    if len(lines) == 1:
        raise InvalidParameter(f"no data rows after header {want!r}")
    rows = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise InvalidParameter(
                f"line {lineno}: expected {len(header)} columns ({want}), got {len(cells)}")
        try:
            values = tuple(map(float, cells))
        except ValueError:
            raise InvalidParameter(f"line {lineno}: non-numeric value in {line!r}") from None
        if not all(map(math.isfinite, values)):
            raise InvalidParameter(f"line {lineno}: non-finite value in {line!r}")
        rows.append(values)
    return rows


HEADER = ("freq_hz", "p_on_dbm", "p_off_dbm")

_SPACE = st.sampled_from(["", " ", "  ", "\t", " \t "])
_NUMBER = st.floats(allow_nan=False, allow_infinity=False)
_ROUNDED = st.floats(-1e300, 1e300)   # rounding to a few digits keeps these finite
_CELL = st.one_of(
    _NUMBER.map(repr),
    _ROUNDED.map("{:.6e}".format),
    _ROUNDED.map("{:.3E}".format),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["0", "-0", "+1.5", ".5", "5.", "1e-320", "-2.5e+300", "1_000"]),
)


@st.composite
def _valid_tables(draw, header=HEADER):
    """(text, number of data rows): blank lines, CRLF and padding anywhere."""
    def line(cells):
        return ",".join(draw(_SPACE) + c + draw(_SPACE) for c in cells)

    blank = st.lists(st.sampled_from(["", " ", "\t"]), max_size=2)
    n = draw(st.integers(1, 6))
    lines = draw(blank) + [line(header)]
    for _ in range(n):
        lines += draw(blank) + [line(draw(st.lists(_CELL, min_size=len(header),
                                                   max_size=len(header))))]
    lines += draw(blank)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), n


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(_valid_tables())
def test_valid_tables_read_the_same_values(table):
    text, n = table
    got = parse_csv(text, HEADER)
    assert got.shape == (n, len(HEADER)) and got.dtype == np.float64
    # bit for bit, so the sign of a zero counts too
    assert np.array_equal(_bits(got), _bits(_reference_parse_csv(text, HEADER)))


def _break_row(row, fault, draw):
    cells = row.split(",")
    if fault == "short-row":
        return ",".join(cells[:-1])
    if fault == "long-row":
        return row + "," + row
    if fault == "empty-cell":
        cells[draw(st.integers(0, len(cells) - 1))] = " "
        return ",".join(cells)
    bad = {"non-numeric": ["abc", "1.2.3", "0x10", "1e", "--1", "1 2"],
           "non-finite": ["nan", "inf", "-inf", "1e999", "-Infinity", "NaN"]}[fault]
    cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(bad))
    return ",".join(cells)


_ROW_FAULTS = ["short-row", "long-row", "empty-cell", "non-numeric", "non-finite"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_faulty_tables_raise_the_same_message(data):
    text, n = data.draw(_valid_tables())
    end = "\r\n" if "\r\n" in text else "\n"
    lines = text.split(end)
    rows = [k for k, ln in enumerate(lines) if ln.strip()][1:]   # data lines
    fault = data.draw(st.sampled_from(_ROW_FAULTS + ["header", "header-only", "empty"]))
    if fault == "empty":
        text = data.draw(st.sampled_from(["", "\n", " \r\n\t\n"]))
    elif fault == "header-only":
        text = end.join(lines[:rows[0]])
    elif fault == "header":
        text = text.replace("p_on_dbm", data.draw(st.sampled_from(["p_on", "P_ON_DBM", ""])), 1)
    else:
        k = rows[0] if data.draw(st.booleans()) else rows[-1]   # first or last data line
        lines[k] = _break_row(lines[k], fault, data.draw)
        text = end.join(lines)
    with pytest.raises(InvalidParameter) as want:
        _reference_parse_csv(text, HEADER)
    with pytest.raises(InvalidParameter) as got:
        parse_csv(text, HEADER)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text, message", [
    ("", "empty input: expected header 'freq_hz,p_on_dbm,p_off_dbm'"),
    ("\n  \nfreq_hz,p_on_dbm,p_off_dbm\n\n", "no data rows after header "
     "'freq_hz,p_on_dbm,p_off_dbm'"),
    ("freq_hz,p_on_dbm,p_off_dbm\n1,2,3\n\n4,5\n", "line 4: expected 3 columns "
     "(freq_hz,p_on_dbm,p_off_dbm), got 2"),
    ("freq_hz,p_on_dbm,p_off_dbm\r\n1,2,x\r\n4,5,6,7\r\n", "line 2: non-numeric value in '1,2,x'"),
    ("freq_hz,p_on_dbm,p_off_dbm\n1,2,3\n1,2,inf\n", "line 3: non-finite value in '1,2,inf'"),
])
def test_fault_messages(text, message):
    with pytest.raises(InvalidParameter) as err:
        parse_csv(text, HEADER)
    assert str(err.value) == message
