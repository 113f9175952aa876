import math
from pathlib import Path

import pytest

from kipa.cli import main
from kipa.errors import InvalidParameter
from kipa.search import (
    DesignRecord,
    SearchRanges,
    aggregate_by_znr,
    default_ranges,
    required_capacitance,
    search_designs,
)

TWO_PI = 2 * math.pi
W8 = TWO_PI * 8e9


def _point_ranges(z14, z12, znr, fp2_hz, z_ki=150.0, omega0=W8):
    return SearchRanges((z14, z14, 1.0), (z12, z12, 1.0), (znr, znr, 1.0),
                        (TWO_PI * fp2_hz, TWO_PI * fp2_hz, 1.0), z_ki, omega0)


def test_single_point_produces_one_qualifying_record():
    # a known-good cell of the default sweep
    ranges = _point_ranges(80.0, 60.0, 50.0, 8.0e9)
    recs = list(search_designs(ranges))
    assert len(recs) == 1
    rec = recs[0]
    assert rec.max_bandwidth > 0
    assert rec.eta == rec.max_bandwidth / rec.optimal_xi3
    assert 0 < rec.eta < 1


def test_empty_stream_when_ramp_capped_low():
    ranges = _point_ranges(80.0, 60.0, 50.0, 8.0e9)
    # α = (|ξ3|/2ω0)² stays below 1e-8 up to |ξ3| = 2π·1.6 MHz
    recs = list(search_designs(ranges, xi3_cap=TWO_PI * 1.6e6))
    assert recs == []


def test_deterministic_record_stream():
    ranges = SearchRanges((60.0, 80.0, 20.0), (50.0, 60.0, 10.0), (50.0, 50.0, 1.0),
                          (W8 / 2 * 2, W8, W8), 150.0, W8)
    a = list(search_designs(ranges))
    b = list(search_designs(ranges))
    assert a == b


def test_lexicographic_order():
    ranges = SearchRanges((60.0, 80.0, 10.0), (40.0, 60.0, 10.0), (50.0, 60.0, 10.0),
                          (TWO_PI * 7.9e9, TWO_PI * 8.1e9, TWO_PI * 0.1e9), 150.0, W8)
    recs = list(search_designs(ranges))
    keys = [(r.z_quarter, r.z_half, r.z_nr, r.omega_p_half) for r in recs]
    assert keys == sorted(keys)


def test_grid_refinement_keeps_coarse_records():
    coarse = SearchRanges((60.0, 80.0, 20.0), (60.0, 60.0, 1.0), (50.0, 50.0, 1.0),
                          (TWO_PI * 7.9e9, TWO_PI * 8.1e9, TWO_PI * 0.2e9), 150.0, W8)
    fine = SearchRanges((60.0, 80.0, 10.0), (60.0, 60.0, 1.0), (50.0, 50.0, 1.0),
                        (TWO_PI * 7.9e9, TWO_PI * 8.1e9, TWO_PI * 0.1e9), 150.0, W8)
    coarse_recs = {(r.z_quarter, r.z_half, r.z_nr, r.omega_p_half): r
                   for r in search_designs(coarse)}
    fine_recs = {(r.z_quarter, r.z_half, r.z_nr, r.omega_p_half): r
                 for r in search_designs(fine)}
    for key, rec in coarse_recs.items():
        assert key in fine_recs
        assert fine_recs[key] == rec


def test_aggregate_single_record():
    rec = DesignRecord(80.0, 60.0, 50.0, W8, TWO_PI * 0.4e9, TWO_PI * 2e9, 0.2, W8)
    aggs = aggregate_by_znr([rec])
    assert len(aggs) == 1
    agg = aggs[0]
    assert agg.mean_bandwidth == rec.max_bandwidth
    assert agg.std_bandwidth == 0.0
    assert agg.max_eta == agg.min_eta == 0.2
    assert agg.capacitance == pytest.approx(1.0 / (W8 * 50.0), rel=1e-12)
    assert agg.count == 1


def test_aggregate_groups_and_orders():
    recs = [
        DesignRecord(80, 60, 50, W8, TWO_PI * 0.4e9, TWO_PI * 2e9, 0.20, W8),
        DesignRecord(70, 60, 50, W8, TWO_PI * 0.2e9, TWO_PI * 2e9, 0.10, W8),
        DesignRecord(80, 60, 70, W8, TWO_PI * 0.3e9, TWO_PI * 2e9, 0.15, W8),
    ]
    aggs = aggregate_by_znr(recs)
    assert [a.z_nr for a in aggs] == [50, 70]
    assert aggs[0].count == 2
    assert aggs[0].mean_bandwidth == pytest.approx(TWO_PI * 0.3e9)
    assert aggs[0].max_eta == 0.20 and aggs[0].min_eta == 0.10


def test_aggregate_empty():
    assert aggregate_by_znr([]) == []


def test_required_capacitance():
    recs = [
        DesignRecord(80, 60, 50, W8, 0.06 * W8, TWO_PI * 2e9, 0.2, W8),
        DesignRecord(80, 60, 100, W8, 0.03 * W8, TWO_PI * 2e9, 0.1, W8),
    ]
    aggs = aggregate_by_znr(recs)
    # only the z_nr = 50 bin reaches 6 percent
    assert required_capacitance(aggs, 0.06, W8) == pytest.approx(1.0 / (W8 * 50.0))
    assert required_capacitance(aggs, 0.10, W8) == math.inf


def test_default_ranges_shapes():
    r3 = default_ranges("three-stage")
    assert r3.z_ki == 150.0
    assert r3.z_nr_range == (50.0, 100.0, 10.0)
    assert r3.circuit_kind == "three-stage"
    rc = default_ranges("conventional")
    assert rc.z_ki is None and rc.circuit_kind == "conventional"
    assert rc.z_nr_range[0] >= 2.0 and rc.z_nr_range[1] <= 12.0
    with pytest.raises(InvalidParameter):
        SearchRanges((50, 40, 10), (30, 100, 10), (50, 100, 10),
                     (W8, W8, 1.0), 150.0, W8)
    with pytest.raises(InvalidParameter, match="unknown circuit kind 'banana'"):
        default_ranges("banana")


def test_conventional_single_point_qualifies_at_low_znr():
    ranges = _point_ranges(30.0, 70.0, 5.0, 7.7e9, z_ki=None)
    recs = list(search_designs(ranges))
    assert len(recs) == 1
    assert recs[0].max_bandwidth > TWO_PI * 0.1e9


def test_threaded_search_matches_serial(tmp_path):
    # --threads is accepted and ignored: rows run serially either way
    argv = ["search", "--set", "z14=60ohm:80ohm:10ohm", "--set", "z12=50ohm:60ohm:10ohm",
            "--set", "znr=50ohm:60ohm:10ohm", "--set", "fp2=7.9GHz:8.1GHz:0.1GHz"]
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"threads-{threads}.csv"
        assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
        outputs.append(out.read_text())
    ranges = SearchRanges((60.0, 80.0, 10.0), (50.0, 60.0, 10.0), (50.0, 60.0, 10.0),
                          (TWO_PI * 7.9e9, TWO_PI * 8.1e9, TWO_PI * 0.1e9), 150.0, W8)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 1 + len(list(search_designs(ranges)))


@pytest.mark.parametrize("kind", ["three-stage", "conventional"])
def test_desk_search_matches_reference_records(kind, tmp_path):
    # the full desk search of each kind, byte for byte against the stored records
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
    out = tmp_path / "search.csv"
    assert main(["search", "--set", f"kind={kind}", "--out", str(out)]) == 0
    assert out.read_bytes() == (reference / f"search-{kind}.csv").read_bytes()
