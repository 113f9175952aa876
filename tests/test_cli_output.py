"""Output bytes of ``format_number`` and the column writer against the per-record rules
they replaced."""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kipa import cli
from kipa.cli import emit_results, format_number


def _reference_format_number(x) -> str:
    """``format_number`` as it was before its float fast path."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    xf = float(x)
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    if math.isnan(xf):
        return "nan"
    return f"{xf:.12g}"


def _reference_json_value(x):
    """``cli._json_value`` as it was, with inf and nan handled apart."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    xf = float(x)
    if math.isinf(xf) or math.isnan(xf):
        return _reference_format_number(xf)
    return float(_reference_format_number(xf))


def _reference_emit(records, columns, fmt) -> str:
    """``emit_results`` as it was: one dict per row, every cell through ``format_number``."""
    if fmt == "csv":
        lines = [",".join(columns)]
        for rec in records:
            lines.append(",".join(_reference_format_number(rec[c]) for c in columns))
        return "\n".join(lines) + "\n"
    rows = [{c: _reference_json_value(rec[c]) for c in columns} for rec in records]
    return json.dumps({"columns": list(columns), "records": rows}, indent=2) + "\n"


def _records(columns):
    """The per-row dicts the commands built before they handed over columns."""
    n = len(next(iter(columns.values()), []))
    return [{name: values[k] for name, values in columns.items()} for k in range(n)]


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_VALUES = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
    st.booleans(),
    st.text(max_size=8),
)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(-math.nan)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1e300)
@example(1e-300)
@example(-1e300)
@example(np.float64(-0.0))
@example(np.float64(math.nan))
@example(np.int64(-7))
@example(True)
@example(False)
@example(8_400_000_000)
def test_format_number_matches_reference(x):
    assert format_number(x) == _reference_format_number(x)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_FLOATS, _FLOATS, _FLOATS, _FLOATS), max_size=12))
def test_spectrum_csv_matches_numpy_scalar_records(points):
    freqs = np.array([p[0] for p in points], dtype=float)
    s11 = np.array([complex(p[1], p[2]) for p in points], dtype=complex)
    gain_db = np.array([p[3] for p in points], dtype=float)
    # the records as the simulate command once built them from numpy scalars
    scalar_records = [
        {"freq_hz": f / cli.TWO_PI, "re_s11": s.real, "im_s11": s.imag, "gain_db": g}
        for f, s, g in zip(freqs, s11, gain_db)
    ]
    columns = {"freq_hz": freqs / cli.TWO_PI, "re_s11": s11.real, "im_s11": s11.imag,
               "gain_db": gain_db}
    got = emit_results(columns, "csv")
    assert got == _reference_emit(scalar_records, list(columns), "csv")


# Column kinds the commands hand to the writer: float64 arrays take the row
# template, everything else goes through format_number.
_COLUMN_KINDS = {
    "float64 array": lambda n: st.lists(_FLOATS, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.float64)),
    "float list": lambda n: st.lists(_FLOATS, min_size=n, max_size=n),
    "int list": lambda n: st.lists(st.integers(), min_size=n, max_size=n),
    "int64 array": lambda n: st.lists(st.integers(-2**63, 2**63 - 1), min_size=n,
                                      max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
    "str list": lambda n: st.lists(st.text(max_size=8), min_size=n, max_size=n),
    "mixed list": lambda n: st.lists(_VALUES, min_size=n, max_size=n),
}


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=5))
    return {f"c{j}": draw(_COLUMN_KINDS[kind](n)) for j, kind in enumerate(kinds)}


@pytest.mark.parametrize("fmt", ["csv", "structured"])
@settings(max_examples=200, deadline=None)
@given(table=_tables())
def test_column_writer_matches_record_writer(fmt, table):
    assert emit_results(table, fmt) == _reference_emit(_records(table), list(table), fmt)


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, 1e300, -1e300, 1e-300, 8.4e9, 1 / 3]


@pytest.mark.parametrize("fmt", ["csv", "structured"])
def test_column_writer_special_values(fmt):
    n = len(_SPECIAL)
    table = {"array": np.array(_SPECIAL), "floats": list(_SPECIAL),
             "np_floats": [np.float64(x) for x in _SPECIAL], "ints": list(range(-7, n - 7)),
             "np_ints": list(np.arange(n, dtype=np.int64) * 10**17), "text": ["a"] * n}
    assert emit_results(table, fmt) == _reference_emit(_records(table), list(table), fmt)


@pytest.mark.parametrize("fmt", ["csv", "structured"])
def test_column_writer_empty_table(fmt):
    table = {"a": np.array([]), "b": [], "c": np.array([], dtype=np.int64)}
    assert emit_results(table, fmt) == _reference_emit([], ["a", "b", "c"], fmt)
    assert emit_results(table, "csv") == "a,b,c\n"


def test_column_writer_rejects_ragged_columns():
    with pytest.raises(ValueError):
        emit_results({"a": np.zeros(2), "b": [1.0]})
