"""CSV bytes of the fast ``format_number`` path against the rules it replaced."""
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from kipa import cli
from kipa.cli import emit_results, format_number
from kipa.simulator import GainProfile


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


def _reference_emit_csv(records, columns) -> str:
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(_reference_format_number(rec[c]) for c in columns))
    return "\n".join(lines) + "\n"


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
    profile = GainProfile(freqs=freqs, s11=s11, gain_db=gain_db, omega_p=0.0)
    # the records as the simulate command built them from numpy scalars
    scalar_records = [
        {"freq_hz": f / cli.TWO_PI, "re_s11": s.real, "im_s11": s.imag, "gain_db": g}
        for f, s, g in zip(freqs, s11, gain_db)
    ]
    got = emit_results(cli._spectrum_records(profile), cli._SPECTRUM_COLUMNS, "csv")
    assert got == _reference_emit_csv(scalar_records, cli._SPECTRUM_COLUMNS)
