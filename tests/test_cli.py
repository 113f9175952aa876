import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kipa import cli, simulator
from kipa.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    emit_results,
    format_number,
    main,
    parse_config,
    parse_quantity,
    parse_span,
)
from kipa.errors import ConfigError, InvalidParameter
from kipa.material import PumpOperatingPoint, frequency_shift, pump_coefficients
from kipa.presets import NBTIN_NANOWIRE, PAPER_DEVICE_BIAS, design_preset
from kipa.simulator import MAX_GRID_POINTS, PumpDrive, gain_spectrum

TWO_PI = 2 * math.pi


def test_parse_quantity_units():
    assert parse_quantity("8.4GHz") == (8.4e9, "frequency")
    assert parse_quantity("56 ohm") == (56.0, "impedance")
    assert parse_quantity("330fF") == (330e-15, "capacitance")
    assert parse_quantity("0.57mA") == (0.57e-3 if True else 0, "current")
    assert parse_quantity("1.2") == (1.2, "none")
    val, kind = parse_quantity("-29.6dBm")
    assert kind == "power"
    assert val == pytest.approx(10 ** ((-29.6 - 30) / 10))
    val, kind = parse_quantity("20dB")
    assert (val, kind) == (pytest.approx(100.0), "ratio")
    with pytest.raises(InvalidParameter):
        parse_quantity("56 bogus")
    with pytest.raises(InvalidParameter):
        parse_quantity("notanumber")


@pytest.mark.parametrize("text", ["60Ω", "0.06kΩ", "0.06kohm"])
def test_parse_quantity_reads_prefixed_ohm_signs(text):
    assert parse_quantity(text) == (60.0, "impedance")


def test_parse_span():
    assert parse_span("7.9GHz:8.9GHz:1MHz") == (7.9e9, 8.9e9, 1e6)
    with pytest.raises(InvalidParameter):
        parse_span("7.9GHz:8.9GHz")
    with pytest.raises(InvalidParameter):
        parse_span("8.9GHz:7.9GHz:1MHz")


def test_parse_config_minimal_synth_defaults():
    cfg = parse_config("epsilon = 0.0625\nz_nr = 60 ohm\nz_ki = 180 ohm\n",
                       {"epsilon": "none", "z_nr": "impedance", "z_ki": "impedance"})
    assert cfg == {"epsilon": 0.0625, "z_nr": 60.0, "z_ki": 180.0}


def test_parse_config_unknown_key_has_location():
    with pytest.raises(ConfigError) as err:
        parse_config("epsilon = 0.06\nbogus = 1\n", {"epsilon": "none"})
    assert "line 2" in str(err.value)
    assert "bogus" in str(err.value)


def test_parse_config_rejects_negative_impedance():
    with pytest.raises(ConfigError) as err:
        parse_config("z_nr = -5 ohm\n", {"z_nr": "impedance"})
    assert "z_nr" in str(err.value)


def test_parse_config_comments_and_blank_lines():
    text = "# comment line\n\nepsilon = 0.05  # trailing\n"
    cfg = parse_config(text, {"epsilon": "none"})
    assert cfg == {"epsilon": 0.05}


def test_paper_device_preset_values():
    design = design_preset("paper-device")
    assert (design.z_quarter, design.z_half, design.z_ki_quarter) == (80.0, 30.0, 180.0)
    assert design.circuit_kind == "three-stage"
    assert design.c_shunt == pytest.approx(330e-15)
    z_nr = math.sqrt(design.inductance_at_bias(PAPER_DEVICE_BIAS) / design.c_shunt)
    assert z_nr == pytest.approx(56.0, abs=0.1)
    with pytest.raises(InvalidParameter):
        design_preset("unknown-device")


def test_emit_empty_records_header_only():
    assert emit_results({"a": [], "b": np.array([])}, "csv") == "a,b\n"


def test_emit_single_row():
    out = emit_results({"freq_hz": [8.4e9], "gain_db": np.array([17.25])}, "csv")
    assert out == "freq_hz,gain_db\n8400000000,17.25\n"


def test_emit_parse_round_trip_twelve_digits():
    rng = np.random.default_rng(1)
    values = rng.uniform(-1e9, 1e9, 50)
    payload = emit_results({"x": values}, "csv")
    lines = payload.strip().splitlines()[1:]
    assert len(lines) == values.size
    for line, value in zip(lines, values):
        assert float(line) == pytest.approx(value, rel=1e-11)
        # 12-significant-digit serialization re-emits identically
        assert format_number(float(line)) == line


def test_emit_structured_mirrors_csv():
    data = json.loads(emit_results({"a": np.array([1.5]), "b": [2]}, "structured"))
    assert data["columns"] == ["a", "b"]
    assert data["records"] == [{"a": 1.5, "b": 2}]


def test_synth_command_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("epsilon = 0.0625\nz_nr = 60 ohm\nz_ki = 180 ohm\nz0 = 50 ohm\n")
    rc = main(["synth", "--config", str(cfg)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    vals = dict(zip(header.split(","), (float(x) for x in row.split(","))))
    assert vals["z_ref"] == pytest.approx(82.7, abs=0.1)
    assert vals["z_half"] == pytest.approx(33.9, abs=0.2)


def test_synth_command_validation_exit_code(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("epsilon = 0.0625\nz_nr = -5 ohm\nz_ki = 180 ohm\n")
    assert main(["synth", "--config", str(cfg)]) == EXIT_VALIDATION


def test_synth_numerical_exit_code(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("epsilon = 1e-300\nz_nr = 60 ohm\nz_ki = 180 ohm\n")
    assert main(["synth", "--config", str(cfg)]) == EXIT_NUMERICAL


_SYNTH = ["synth", "--set", "z_nr=50ohm"]


# a large z0 synthesizes; the synthesis fails where its arithmetic leaves
# the float range: z_parallel = epsilon·z_ref/g2 underflows to 0 (the
# half-wave quadratic divides by it), or z_quarter² = g3·z_ref·z0 overflows
@pytest.mark.parametrize("argv, rc, out", [
    pytest.param([*_SYNTH, "--set", "epsilon=0.1", "--set", "z_ki=150ohm", "--set", "z0=1e12ohm"],
                 EXIT_OK, "z_ref,z_quarter,z_parallel,z_half,z_nr_primed,r_nr_primed,residual\n"
                 "110.294117647,11044695.2931,47.1342383107,0.00269448274241,450,"
                 "110.294117647,0\n", id="z0-large"),
    pytest.param([*_SYNTH, "--set", "epsilon=1e-300", "--set", "z_ki=150ohm"], EXIT_NUMERICAL,
                 "numerical failure: vanishing bandwidth: z_parallel = epsilon*z_ref/g2 "
                 "underflows to 0 ohm (epsilon = 1e-300, z_ref = 1.103e-297 ohm)\n",
                 id="epsilon-underflow"),
    pytest.param([*_SYNTH, "--set", "epsilon=0.1", "--set", "z_ki=1e100ohm",
                  "--set", "z0=1e300ohm"], EXIT_NUMERICAL, "numerical failure: z_quarter^2 = g3*z_ref*z0 overflows\n",
                 id="z0-overflow"),
])
def test_synth_fails_only_where_its_arithmetic_does(argv, rc, out, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == rc
    captured = capsys.readouterr()
    assert (captured.out if rc == EXIT_OK else captured.err) == out


def test_missing_input_io_exit_code(tmp_path):
    assert main(["fit-ki", "--input", str(tmp_path / "nope.csv")]) == EXIT_IO


def test_unwritable_output_io_exit_code(tmp_path, capsys):
    rc = main(["synth", "--set", "epsilon=0.0625", "--set", "z_nr=60ohm",
               "--set", "z_ki=180ohm", "--out", str(tmp_path)])
    assert rc == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o failure:")


def test_runtime_error_is_numerical_exit_code(monkeypatch, capsys):
    def diverged(cfg):
        raise RuntimeError("solver diverged")

    monkeypatch.setitem(cli._COMMANDS, "synth", cli._COMMANDS["synth"]._replace(run=diverged))
    assert main(["synth"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: solver diverged\n"


# (argv, header, one valid row) of each command that reads a CSV input
_CSV_COMMANDS = {
    "fit-ki": ([], "i_dc_A,dfrac", "0.0001,-1e-06"),
    "fit-qubit": (["--set", "fq=8.4GHz"], "detuning_hz,p_vna_dbm,re_s21,im_s21",
                  "0,-90,0.5,0"),
    "noise": (["--set", "gs=20dB", "--set", "gsys_eff=75dB"],
              "freq_hz,p_on_dbm,p_off_dbm", "8.4e9,-62,-75"),
}


def _faulty_csv(header, row, fault):
    if fault == "empty":
        return ""
    if fault == "header-only":
        return header + "\n"
    if fault == "short-row":
        return f"{header}\n{row}\n{row.rsplit(',', 1)[0]}\n"
    cells = row.split(",")
    cells[-1] = "abc" if fault == "non-numeric" else "nan"
    return f"{header}\n{row}\n{','.join(cells)}\n"


@pytest.mark.parametrize("fault", ["empty", "header-only", "short-row", "non-numeric",
                                   "non-finite"])
@pytest.mark.parametrize("command", sorted(_CSV_COMMANDS))
def test_malformed_csv_is_one_line_validation_error(command, fault, tmp_path, capsys):
    extra, header, row = _CSV_COMMANDS[command]
    data = tmp_path / "input.csv"
    data.write_text(_faulty_csv(header, row, fault))
    rc = main([command, "--input", str(data), *extra])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if fault not in ("empty", "header-only"):
        assert "line 3" in err


# (command, bad data row, exit code, stderr or None for any one-line message):
# faults in a row's values that the table's arithmetic, not the reader, finds
_VALUE_FAULTS = [
    ("noise", "0,-62,-75", EXIT_VALIDATION, "error: omega and bandwidth must be > 0\n"),
    ("noise", "8.4e9,1e6,-75", EXIT_NUMERICAL, None),
    ("fit-qubit", "0,1e6,0.5,0", EXIT_NUMERICAL, None),
]


@pytest.mark.parametrize("command, bad, code, message", _VALUE_FAULTS)
def test_value_fault_exit_code(command, bad, code, message, tmp_path, capsys):
    extra, header, row = _CSV_COMMANDS[command]
    data = tmp_path / "input.csv"
    data.write_text(f"{header}\n{row}\n{bad}\n")
    assert main([command, "--input", str(data), *extra]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    if message is not None:
        assert captured.err == message
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("numerical failure: " if code == EXIT_NUMERICAL else "error: ")


def test_simulate_command_with_preset_and_overrides(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(["simulate", "--preset", "paper-device", "--idc", "0.57mA",
               "--fp", "16.9GHz", "--xi3", "2.0GHz",
               "--span", "8.2GHz:8.6GHz:10MHz", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "freq_hz,re_s11,im_s11,gain_db"
    assert len(lines) == 1 + 40
    first = lines[1].split(",")
    assert float(first[0]) == 8.2e9
    gain = float(first[3])
    re_s11, im_s11 = float(first[1]), float(first[2])
    assert gain == pytest.approx(20 * math.log10(abs(complex(re_s11, im_s11))), abs=1e-6)


def test_simulate_alpha_beyond_one_is_one_line_validation_error(capsys):
    # |ξ3|/2π = 100 GHz puts α = (|ξ3|/2ω0)² far above 1
    rc = main(["simulate", "--preset", "paper-device", "--fp", "16.9GHz", "--xi3", "100GHz"])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: alpha = ")


def test_simulate_byte_identical_runs(tmp_path):
    args = ["simulate", "--preset", "paper-device", "--fp", "16.9GHz",
            "--xi3", "1.5GHz", "--span", "8.3GHz:8.5GHz:20MHz"]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(args + ["--out", str(path)]) == EXIT_OK
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_fit_ki_command(tmp_path, capsys):
    data = tmp_path / "shift.csv"
    lines = ["i_dc_A,dfrac"]
    for i in np.linspace(0.05e-3, 1.1e-3, 20):
        lines.append(f"{i},{frequency_shift(NBTIN_NANOWIRE, i)}")
    data.write_text("\n".join(lines) + "\n")
    rc = main(["fit-ki", "--input", str(data), "--set", "model_kind=quartic",
               "--set", "l_k0=0.8nH", "--set", "l_geo=0.2nH"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["i_star2_a"]) == pytest.approx(3.25e-3, rel=1e-3)
    assert float(vals["i_star4_a"]) == pytest.approx(1.7e-3, rel=1e-3)


def test_fit_ki_clem_flat_data_reports_infinite_scale(tmp_path, capsys):
    data = tmp_path / "shift.csv"
    data.write_text("i_dc_A,dfrac\n" + "".join(f"{k * 1e-4},0\n" for k in range(1, 9)))
    assert main(["fit-ki", "--input", str(data), "--set", "model_kind=clem"]) == EXIT_OK
    assert capsys.readouterr().out == \
        "model_kind,i_star2_a,i_star4_a,i_star_star_a,rms_residual\nclem,inf,nan,inf,0\n"


@pytest.mark.parametrize("kind, row", [("parabolic", "parabolic,inf,nan,nan,0.0273861278753"),
                                       ("quartic", "quartic,inf,inf,nan,0.0273861278753")])
def test_fit_ki_rising_shift_reports_infinite_scales(kind, row, tmp_path, capsys):
    data = tmp_path / "shift.csv"
    data.write_text("i_dc_A,dfrac\n" + "".join(f"{k * 2.5e-4},{0.01 * k}\n" for k in range(1, 5)))
    assert main(["fit-ki", "--input", str(data), "--set", f"model_kind={kind}"]) == EXIT_OK
    assert capsys.readouterr().out == \
        f"model_kind,i_star2_a,i_star4_a,i_star_star_a,rms_residual\n{row}\n"


def test_noise_command(tmp_path, capsys):
    spectra = tmp_path / "spectra.csv"
    spectra.write_text("freq_hz,p_on_dbm,p_off_dbm\n8.4e9,-62.0,-75.0\n")
    rc = main(["noise", "--input", str(spectra), "--set", "gs=20dB",
               "--set", "gsys_eff=75dB"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    vals = dict(zip(header.split(","), (float(x) for x in row.split(","))))
    from scipy.constants import hbar, k as k_B
    w = TWO_PI * 8.4e9
    n4 = 10 ** ((-62.0 - 30) / 10) / (hbar * w * 10.0)
    n4_off = 10 ** ((-75.0 - 30) / 10) / (hbar * w * 10.0)
    assert vals["n4"] == pytest.approx(n4, rel=1e-9)
    expected_na = (n4 - n4_off) / (100.0 * 10 ** 7.5) + 0.5 / 100.0 - 0.5
    assert vals["added_noise"] == pytest.approx(expected_na, rel=1e-9)
    assert vals["t_sys_k"] == pytest.approx(n4_off * hbar * w / (k_B * 10 ** 7.5), rel=1e-9)


def test_fit_qubit_command(tmp_path, capsys):
    from kipa.noise import QubitCalibration, drive_strength, qubit_s21
    gamma_1 = TWO_PI * 3.35e6
    a_in = 10 ** (-82 / 10)
    cal = QubitCalibration(TWO_PI * 8.4e9, gamma_1e=gamma_1, gamma_phi=TWO_PI * 1.06e3)
    rows = ["detuning_hz,p_vna_dbm,re_s21,im_s21"]
    for p_dbm in np.arange(-95.0, -56.0, 4.0):
        p_vna = 10 ** ((p_dbm - 30) / 10)
        om = drive_strength(gamma_1, a_in * p_vna, TWO_PI * 8.4e9)
        for d_hz in np.linspace(-12e6, 12e6, 31):
            s = qubit_s21(cal, TWO_PI * d_hz, om)
            rows.append(f"{d_hz},{p_dbm},{s.real},{s.imag}")
    data = tmp_path / "qubit.csv"
    data.write_text("\n".join(rows) + "\n")
    rc = main(["fit-qubit", "--input", str(data), "--set", "fq=8.4GHz"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    vals = dict(zip(header.split(","), (float(x) for x in row.split(","))))
    assert vals["gamma1_hz"] == pytest.approx(3.35e6, rel=1e-2)
    assert vals["a_in_db"] == pytest.approx(-82.0, abs=0.1)


def test_map_command_small_grid(tmp_path):
    out = tmp_path / "map.csv"
    cfg = tmp_path / "map.cfg"
    cfg.write_text(
        "preset = paper-device\n"
        "fp_span = 16.8GHz:17.0GHz:100MHz\n"
        "idc_start = 0.57mA\nidc_stop = 0.57mA\nidc_step = 0.05mA\n"
        "policy = xi3\nfreq_step = 4MHz\n"
    )
    rc = main(["map", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "fp_hz,idc_a,bandwidth_hz,peaks,ripple_db"
    assert len(lines) == 1 + 3  # inclusive pump grid x one bias


@pytest.mark.parametrize("start, stop, step", [("0.57mA", "0.6mA", "0mA"),
                                               ("0.57mA", "0.6mA", "-0.01mA"),
                                               ("0.6mA", "0.57mA", "0.01mA")])
def test_map_rejects_bad_bias_grid(start, stop, step, capsys):
    rc = main(["map", "--preset", "paper-device",
               "--set", "fp_span=16.9GHz:16.9GHz:10MHz",
               "--set", f"idc_start={start}", "--set", f"idc_stop={stop}",
               "--set", f"idc_step={step}"])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "stop >= start and step > 0" in err


def test_map_rejects_negative_bias_before_any_build(capsys, monkeypatch):
    monkeypatch.setattr(simulator, "ReflectionEngine",
                        lambda *args: pytest.fail("network built for a rejected map"))
    rc = main(["map", "--preset", "paper-device",
               "--set", "fp_span=16.9GHz:16.9GHz:20MHz",
               "--set", "idc_start=-0.5mA", "--set", "idc_stop=0.52mA",
               "--set", "idc_step=20uA"])
    assert rc == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bias current i_dc must be >= 0, got -0.0005 A\n"


def test_map_names_the_pump_frequency_whose_signal_grid_is_empty(capsys):
    # fp/2 ± 1.2 GHz is one float at this pump frequency, so the grid holds no points
    rc = main(["map", "--preset", "paper-device",
               "--set", "fp_span=1e300Hz:1e300Hz:1MHz",
               "--set", "idc_start=0.57mA", "--set", "idc_stop=0.57mA",
               "--set", "idc_step=1uA"])
    assert rc == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: signal grid of pump frequency 1e+300 Hz holds no points: "
                            "its ±1.2-GHz span rounds away in floating point\n")


def test_search_command_single_point(tmp_path):
    out = tmp_path / "search.csv"
    cfg = tmp_path / "search.cfg"
    cfg.write_text(
        "kind = three-stage\n"
        "z14 = 80ohm:80ohm:10ohm\nz12 = 60ohm:60ohm:10ohm\n"
        "znr = 50ohm:50ohm:10ohm\nfp2 = 8.0GHz:8.0GHz:0.25GHz\n"
    )
    rc = main(["search", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "z14,z12,znr,fp2_hz,bandwidth_hz,xi3_hz,eta"
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), (float(x) for x in lines[1].split(","))))
    assert row["eta"] == pytest.approx(row["bandwidth_hz"] / row["xi3_hz"], rel=1e-9)


# ---------------------------------------------------------------- the parser

_HELP = json.loads((Path(__file__).parent / "golden" / "cli_help.json").read_text())


@pytest.mark.parametrize("command", sorted(_HELP))
def test_help_text_is_unchanged(command, monkeypatch, capsys):
    # snapshot of every --help page, written by argparse at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    for _ in range(2):  # once more on the reused parser
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out == _HELP[command]


def test_reused_parser_keeps_no_state_between_calls(monkeypatch, tmp_path, capsys):
    seen = []

    def record(cfg):
        seen.append(cfg)
        return {"n": [len(seen)]}

    monkeypatch.setitem(cli._COMMANDS, "synth", cli._COMMANDS["synth"]._replace(run=record))
    monkeypatch.chdir(tmp_path)
    # --threads is accepted and passed to no handler
    assert main(["synth", "--set", "epsilon=0.25", "--set", "z_nr=60ohm",
                 "--threads", "3", "--format", "structured", "--out", "a.json"]) == EXIT_OK
    assert main(["synth", "--set", "z_ki=180ohm"]) == EXIT_OK
    assert seen == [{"epsilon": 0.25, "z_nr": 60.0}, {"z_ki": 180.0}]
    assert json.loads((tmp_path / "a.json").read_text()) == {"columns": ["n"],
                                                             "records": [{"n": 1}]}
    assert capsys.readouterr().out == "n\n2\n"
    assert cli._PARSER is not None
    assert cli._PARSER.parse_args(["synth"]).set == []


# The long case lists below name each case explicitly, so a case added
# anywhere renames no other; the cases that were named by their position
# (argv0, argv1, ...) keep those names.
@pytest.mark.parametrize("argv", [
    pytest.param(["synth", "--threads", "two"], id="argv0"),
    pytest.param(["synth", "--bogus"], id="argv1"),
    pytest.param([], id="argv2"),
    pytest.param(["transmogrify"], id="argv3"),
    pytest.param(["simulate", "--format", "xml"], id="argv4"),
    pytest.param(["noise", "--input"], id="argv5"),
])
def test_usage_error_is_one_line_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: kipa")


@pytest.mark.parametrize("option", ["--input", "--config"])
def test_non_utf8_file_is_validation_error(option, tmp_path, capsys):
    data = tmp_path / "shift.csv"
    data.write_bytes(b"i_dc_A,dfrac\n0.0001,-1e-06\xff\n")
    assert main(["fit-ki", option, str(data)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: {data}: not UTF-8 text (byte 0xff at offset 26)\n"


def test_non_finite_quantity_is_validation_error(capsys):
    rc = main(["simulate", "--preset", "paper-device", "--fp", "16.9GHz",
               "--span", "1:1e999:1"])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: quantity '1e999' is not finite\n"


def test_arithmetic_overflow_is_numerical_failure(capsys):
    rc = main(["simulate", "--preset", "paper-device", "--fp", "16.9GHz", "--idc", "1e96A",
               "--span", "8.3GHz:8.4GHz:50MHz"])
    assert rc == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure:")


_OVERFLOW_DESIGN = ["--set", "z_half=50ohm", "--set", "c_shunt=330fF", "--set", "f0=8GHz",
                    "--set", "l_k0=1nH"]
_NETWORK_OVERFLOW = "network arrays leave the float range: overflow encountered in multiply"


# finite inputs whose arithmetic overflows: each printed numpy RuntimeWarnings
# and exited 0 with inf or nan columns, or ended in a bare
# "(34, 'Numerical result out of range')"
@pytest.mark.parametrize("argv, message", [
    pytest.param(["simulate", "--set", "z_quarter=1e300ohm", *_OVERFLOW_DESIGN, "--fp", "16GHz",
                  "--xi3", "1GHz", "--span", "8GHz:8.002GHz:1MHz"], _NETWORK_OVERFLOW,
                 id="simulate-line"),
    pytest.param(["map", "--set", "z_quarter=1e300ohm", *_OVERFLOW_DESIGN, "--set", "policy=xi3",
                  "--set", "fp_span=16GHz:16GHz:1GHz", "--set", "idc_start=0uA",
                  "--set", "idc_stop=0uA", "--set", "idc_step=1uA"], _NETWORK_OVERFLOW,
                 id="map-line"),
    pytest.param(["search", "--set", "z_ki=1e200ohm"], _NETWORK_OVERFLOW, id="search-z-ki"),
    pytest.param(["search", "--set", "f0=1e-300Hz"], _NETWORK_OVERFLOW, id="search-f0"),
    pytest.param(["simulate", "--set", "z_quarter=50ohm", "--set", "z_half=50ohm",
                  "--set", "c_shunt=1e200F", "--set", "f0=8GHz", "--set", "l_k0=1e200H",
                  "--fp", "16GHz", "--xi3", "1GHz", "--span", "8GHz:8.002GHz:1MHz"],
                 "l0 = 1e+200 H and c = 1e+200 F give no finite resonance", id="resonance"),
    # the pump current's xi3 needs the resonance too: this read "omega0 must be > 0" (exit 1)
    pytest.param(["simulate", "--set", "z_quarter=50ohm", "--set", "z_half=50ohm",
                  "--set", "c_shunt=1e200F", "--set", "f0=8GHz", "--set", "l_k0=1e200H",
                  "--set", "idc=0.5mA", "--fp", "16GHz", "--set", "ip=0.1mA",
                  "--span", "8GHz:8.002GHz:1MHz"],
                 "l0 = 1e+200 H and c = 1e+200 F give no finite resonance", id="resonance-ip"),
    pytest.param(["synth", "--set", "epsilon=0.1", "--set", "z_nr=50ohm",
                  "--set", "z_ki=1e300ohm"], "z_ki = 1e+300 ohm overflows when squared",
                 id="synth-z-ki"),
    # a subnormal z0 keeps b finite (-3e164), but b² is not
    pytest.param(["synth", "--set", "epsilon=0.1", "--set", "z_nr=50ohm", "--set", "z_ki=150ohm",
                  "--set", "z0=5e-324ohm"], "disc = b^2 - 4*c overflows", id="synth-discriminant"),
    # every network array is finite; the idler denominator of S11 is not
    pytest.param(["simulate", "--preset", "paper-device", "--fp", "2.8e307Hz",
                  "--span", "1e307Hz:1e307Hz:1Hz"],
                 "S11 leaves the float range: overflow encountered in multiply", id="simulate-s11"),
    pytest.param(["noise", "--set", "gs=20dB", "--set", "gsys_eff=1e-320"],
                 "added_noise overflows at freq_hz = 8400000000 (gs = 100, gsys_eff = 1e-320, "
                 "bm = 10 Hz)", id="noise-gsys-eff"),
    pytest.param(["noise", "--set", "gs=20dB", "--set", "gsys_eff=75dB", "--set", "bm=1e-320Hz"],
                 "n4 overflows at freq_hz = 8400000000 (gs = 100, gsys_eff = 3.162e+07, "
                 "bm = 1e-320 Hz)", id="noise-bm"),
    pytest.param(["noise", "--set", "gs=20dB", "--set", "gsys_eff=75dB"],
                 "p_on_dbm = 4000 overflows in watts", id="noise-dbm"),
])
def test_overflow_is_one_line_numerical_failure(argv, message, tmp_path, capsys):
    if argv[0] == "noise":
        data = tmp_path / "noise.csv"
        p_on = 4000 if message.startswith("p_on_dbm") else -62
        data.write_text(f"freq_hz,p_on_dbm,p_off_dbm\n8.4e9,{p_on},-75\n8.5e9,-61,-75\n")
        argv = [*argv, "--input", str(data)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical failure: {message}\n"


_D = ["--set", "z_quarter=50ohm", "--set", "z_half=50ohm", "--set", "z_ki_quarter=150ohm",
      "--set", "f0=8GHz"]
_AXES = ["--set", "fp_span=16GHz:16GHz:1GHz", "--set", "idc_step=1uA", "--set", "freq_step=50MHz"]
_G = [*_AXES, "--set", "policy=xi3", "--set", "idc_start=0A", "--set", "idc_stop=0A"]
_GC = [*_AXES, "--set", "policy=current", "--set", "idc_start=0.5mA", "--set", "idc_stop=0.5mA"]
_MAP_HEADER = "fp_hz,idc_a,bandwidth_hz,peaks,ripple_db\n"
_SEARCH_HEADER = "z14,z12,znr,fp2_hz,bandwidth_hz,xi3_hz,eta\n"
# finite inputs whose inductance, resonance, α, pump ladder or α screen leave the
# float range: each printed numpy RuntimeWarnings before the outcome kept here
OVERFLOW_OUTCOMES = [
    pytest.param(["simulate", "--preset", "paper-device", "--fp", "16.9GHz", "--xi3", "1e300Hz",
                  "--span", "8GHz:8.2GHz:50MHz"],
                 EXIT_VALIDATION, "", "error: alpha = inf outside [0, 1)\n", id="simulate-alpha"),
    pytest.param(["map", *_D, "--set", "c_shunt=1e30fF", "--set", "l_k0=1e300nH", *_G],
                 EXIT_OK, _MAP_HEADER + "16000000000,0,0,0,0\n", "", id="map-ladder-alpha"),
    pytest.param(["map", *_D, "--set", "c_shunt=1e300fF", "--set", "l_k0=1e300nH", *_G],
                 EXIT_NUMERICAL, "", "numerical failure: l0 = 1e+291 H and c = 1e+285 F give "
                 "no finite resonance\n", id="map-resonance"),
    pytest.param(["map", *_D, "--set", "c_shunt=330fF", "--set", "l_k0=1nH",
                  "--set", "i_star2=1e-300A", *_GC],
                 EXIT_NUMERICAL, "", "numerical failure: l0 = inf H and c = 3.3e-13 F give "
                 "no finite resonance\n", id="map-inductance"),
    # no i_star2: I*₂² is inf, so α ≡ 0 and the current ladder is empty
    pytest.param(["map", *_D, "--set", "c_shunt=330fF", *_GC],
                 EXIT_OK, _MAP_HEADER + "16000000000,0.0005,0,0,0\n", "", id="map-ladder-drive"),
    # the same overflows at a float bias, which raised OverflowError: (i/I*₂)² in the
    # inductance and I*₂² in α, both "(34, 'Numerical result out of range')"
    pytest.param(["simulate", "--set", "z_quarter=50ohm", "--set", "z_half=50ohm",
                  "--set", "c_shunt=330fF", "--set", "f0=8GHz", "--set", "i_star2=1e-300A",
                  "--idc", "0.5mA", "--fp", "16GHz", "--xi3", "1GHz",
                  "--span", "8GHz:8.01GHz:5MHz"],
                 EXIT_NUMERICAL, "", "numerical failure: l0 = inf H and c = 3.3e-13 F give "
                 "no finite resonance\n", id="simulate-inductance"),
    pytest.param(["map", "--set", "z_quarter=50ohm", "--set", "z_half=50ohm",
                  "--set", "c_shunt=330fF", "--set", "f0=8GHz", "--set", "i_star2=1e300A",
                  *_GC],
                 EXIT_OK, _MAP_HEADER + "16000000000,0.0005,0,0,0\n", "", id="map-alpha-film"),
    # I*₂² + i_dc² underflows to 0 at zero bias: ξ3 is 0 (the unpumped spectrum),
    # where the ratio 0/0 read "float division by zero"
    pytest.param(["simulate", "--set", "z_quarter=50ohm", "--set", "z_half=50ohm",
                  "--set", "c_shunt=330fF", "--set", "f0=8GHz", "--set", "i_star2=1e-200A",
                  "--idc", "0A", "--set", "ip=1mA", "--fp", "16GHz",
                  "--span", "8GHz:8.01GHz:5MHz"],
                 EXIT_OK, "freq_hz,re_s11,im_s11,gain_db\n"
                 "8000000000,-0.94678154855,-0.321876838752,-1.92865493311e-15\n"
                 "8005000000,-0.949360675794,-0.314188330871,0\n", "", id="simulate-ip-zero-bias"),
    # ω0 = 3e161 rad/s: the Kerr coefficient of the pump current overflows
    pytest.param(["simulate", "--set", "z_quarter=50ohm", "--set", "z_half=50ohm",
                  "--set", "c_shunt=1e-320F", "--set", "f0=8GHz", "--set", "l_geo=0.001H",
                  "--set", "ip=1e-320A", "--fp", "16GHz", "--span", "8GHz:8.004GHz:2MHz"],
                 EXIT_OK, "freq_hz,re_s11,im_s11,gain_db\n"
                 "8000000000,-0.999999999998,-1.98943479958e-06,0\n"
                 "8002000000,-0.999997228859,0.00235420337801,0\n", "", id="simulate-ip-kerr"),
    pytest.param(["search", "--set", "kind=three-stage", "--set", "z14=50ohm:50ohm:10ohm",
                  "--set", "z12=50ohm:50ohm:10ohm", "--set", "znr=1e-100ohm:1e-100ohm:1ohm"],
                 EXIT_OK, _SEARCH_HEADER, "", id="search-screen-three-stage"),
    pytest.param(["search", "--set", "kind=conventional", "--set", "z14=1e-300ohm:1e-300ohm:1ohm",
                  "--set", "z12=50ohm:50ohm:1ohm", "--set", "znr=50ohm:50ohm:1ohm"],
                 EXIT_OK, _SEARCH_HEADER, "", id="search-screen-conventional"),
    pytest.param(["map", *_D, "--set", "z_ki_quarter=1e-30ohm", "--set", "c_shunt=330fF",
                  "--set", "l_k0=1nH", *_G],
                 EXIT_OK, _MAP_HEADER + "16000000000,0,0,0,0\n", "", id="map-screen"),
]


@pytest.mark.parametrize("argv, code, out, err", OVERFLOW_OUTCOMES)
def test_overflow_keeps_its_outcome_without_a_warning(argv, code, out, err, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


@pytest.mark.parametrize("fq", ["0Hz", "-8.4GHz"])
def test_fit_qubit_rejects_non_positive_frequency(fq, tmp_path, capsys):
    data = tmp_path / "qubit.csv"
    data.write_text("detuning_hz,p_vna_dbm,re_s21,im_s21\n" + "".join(
        f"{d},{p},0.5,0\n" for p in (-90, -80) for d in (-2e6, -1e6, 0, 1e6, 2e6)))
    assert main(["fit-qubit", "--input", str(data), "--set", f"fq={fq}"]) == EXIT_VALIDATION
    assert "must be > 0" in capsys.readouterr().err


def test_fit_qubit_underflowing_drive_is_numerical_failure(tmp_path, capsys):
    # no saturation dip in these rows: the fitted drive underflows to zero
    data = tmp_path / "qubit.csv"
    data.write_text("detuning_hz,p_vna_dbm,re_s21,im_s21\n" + "".join(
        f"{d},{p},{0.5 + 0.01 * d / 1e6},{0.02 * p / 90}\n"
        for p in (-90, -80) for d in (-4e6, -2e6, 0.0, 2e6, 4e6))
        + "-4000000.0,-70,0.46,-0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["fit-qubit", "--input", str(data), "--set", "fq=8.4GHz"])
    assert rc == EXIT_NUMERICAL
    assert capsys.readouterr().err == \
        "numerical failure: fitted drive power is zero or not finite\n"
    assert [str(w.message) for w in caught] == []


def test_fit_qubit_without_dip_prints_one_stderr_line(tmp_path):
    # a fresh interpreter, so numpy warnings would reach stderr as they do for users
    data = tmp_path / "qubit.csv"
    data.write_text("detuning_hz,p_vna_dbm,re_s21,im_s21\n" + "".join(
        f"{d},{p},{0.5 + 0.01 * d / 1e6},{0.02 * p / 90}\n"
        for p in (-90, -80) for d in (-4e6, -2e6, 0.0, 2e6, 4e6))
        + "-4000000.0,-70,0.46,-0\n")
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "kipa.cli", "fit-qubit", "--input", str(data),
                           "--set", "fq=8.4GHz"], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stderr == "numerical failure: fitted drive power is zero or not finite\n"


@pytest.mark.parametrize("axis, spec", [
    ("znr", "0ohm:0ohm:1ohm"),
    ("znr", "-5ohm:10ohm:1ohm"),
    ("z14", "0ohm:40ohm:10ohm"),
    ("z12", "-30ohm:-10ohm:10ohm"),
])
def test_non_positive_impedance_axis_is_validation_error(axis, spec, capsys):
    assert main(["search", "--set", f"{axis}={spec}"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {axis} axis must start above 0 ohm")


_INLINE_DESIGN = ["--set", "z_quarter=80ohm", "--set", "z_half=30ohm", "--set", "c_shunt=330fF",
                  "--set", "f0=7.9GHz"]
_SIM = ["--fp", "16.9GHz", "--xi3", "1GHz", "--span", "8.3GHz:8.31GHz:5MHz"]


def _case(name, argv, message):
    """A rejected-input case with the id ``name-message`` wherever it stands."""
    return pytest.param(argv, message, id=f"{name}-{message}")


@pytest.mark.parametrize("argv, message", [
    _case("argv0", ["simulate", *_INLINE_DESIGN, "--set", "l_k0=0nH", "--fp", "16.9GHz",
                    "--xi3", "1GHz", "--span", "8.3GHz:8.31GHz:5MHz"],
          "total inductance l_k0 + l_geo must be > 0"),
    _case("argv1", ["map", *_INLINE_DESIGN, "--set", "l_k0=0nH",
                    "--set", "fp_span=16.9GHz:16.9GHz:10MHz", "--set", "idc_start=0.5mA",
                    "--set", "idc_stop=0.5mA", "--set", "idc_step=1mA", "--set", "policy=xi3"],
          "total inductance l_k0 + l_geo must be > 0"),
    _case("argv2", ["fit-ki", "--set", "l_k0=0nH", "--set", "l_geo=0nH"],
          "l_k0 must be > 0, got 0"),
    _case("argv3", ["fit-ki", "--set", "l_k0=0nH", "--set", "l_geo=0.2nH"],
          "l_k0 must be > 0, got 0"),
    _case("argv4", ["simulate", "--preset", "paper-device", "--fp", "16.9GHz", "--xi3", "2GHz",
                    "--set", "phip=1.234rad"], "unknown key 'phip' for this command"),
    # the port impedance is env_z0; a design has no z0
    _case("argv5", ["simulate", *_INLINE_DESIGN, "--set", "z0=60ohm", *_SIM],
          "unknown key 'z0' for this command"),
    # the kind follows from z_ki_quarter
    _case("argv6", ["map", *_INLINE_DESIGN, "--set", "circuit_kind=banana"],
          "unknown key 'circuit_kind' for this command"),
    _case("argv7", ["search", "--set", "kind=conventional", "--set", "z_ki=150ohm"],
          "the conventional circuit has no z_ki line"),
    _case("argv8", ["simulate", "--preset", "paper-device", "--set", "env=ideal",
                    "--set", "env_z1=5ohm", *_SIM],
          "environment presets take no inline env_* keys, got env_z1"),
    _case("argv9", ["simulate", "--preset", "paper-device", "--set", "env_tau1=1ns", *_SIM],
          "env_tau1 needs its ripple amplitude env_z1"),
    _case("argv10", ["simulate", "--preset", "paper-device", "--set", "env_z1=5ohm",
                     "--set", "env_phi2=1rad", *_SIM],
          "env_phi2 needs its ripple amplitude env_z2"),
    # a negative l_geo used to end in a division by zero (exit 2)
    _case("argv11", ["fit-ki", "--set", "l_k0=1nH", "--set", "l_geo=-1nH"],
          "l_geo must be >= 0, got -1e-09"),
    # finite numbers whose SI value overflows: a NaN spectrum (exit 0), a
    # numerical failure and a vanishing bandwidth (exit 2) before
    _case("fp-overflow", ["simulate", "--preset", "paper-device", "--fp", "1e308GHz"],
          "quantity '1e308GHz' overflows in SI units"),
    _case("gain-overflow", ["noise", "--set", "gs=1e308dB", "--set", "gsys_eff=30dB"],
          "quantity '1e308dB' overflows in SI units"),
    _case("impedance-overflow", ["synth", "--set", "epsilon=0.1", "--set", "z_ki=150ohm",
                                 "--set", "z_nr=1e308kohm"],
          "quantity '1e308kohm' overflows in SI units"),
    # 2π times it overflows: the signal grid's rad/s product printed a numpy warning
    _case("span-rad-overflow", ["simulate", "--preset", "paper-device", "--fp", "16.9GHz",
                                "--span", "1e308Hz:1e308Hz:1Hz"],
          "frequency '1e308Hz' overflows in rad/s"),
    _case("fp-required", ["simulate", "--preset", "paper-device", "--span", "8GHz:8.002GHz:1MHz"],
          "pump frequency 'fp' is required"),
    _case("xi3-and-ip", ["simulate", "--preset", "paper-device", *_SIM, "--set", "ip=0.5mA"],
          "give either xi3 or ip, not both"),
    _case("preset-inline-key", ["simulate", "--preset", "paper-device", "--set", "z_half=30ohm",
                                *_SIM], "preset designs take no inline design keys"),
    _case("unit-mismatch", ["simulate", "--preset", "paper-device", "--fp", "50ohm"],
          "expected frequency, got impedance ('50ohm')"),
    _case("span-mixed-units", ["simulate", "--preset", "paper-device", "--fp", "16.9GHz",
                               "--span", "8GHz:9ohm:1MHz"], "span mixes units: '8GHz:9ohm:1MHz'"),
])
def test_rejected_model_input_is_one_line_validation_error(argv, message, tmp_path, capsys):
    if argv[0] == "fit-ki":
        data = tmp_path / "shift.csv"
        data.write_text("i_dc_A,dfrac\n" + "".join(
            f"{k * 1e-4},{-0.4 * (k * 1e-4 / 3.25e-3) ** 2}\n" for k in range(1, 9)))
        argv = [*argv, "--input", str(data)]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_simulate_at_a_pump_current_is_gain_spectrum_at_its_xi3(monkeypatch):
    emitted = []
    monkeypatch.setattr(cli, "emit_results", lambda columns, fmt: emitted.append(columns) or "")
    assert main(["simulate", "--preset", "paper-device", "--fp", "16.9GHz", "--set", "ip=0.5mA",
                 "--span", "8GHz:8.002GHz:1MHz"]) == EXIT_OK
    design, (fp, _) = design_preset("paper-device"), parse_quantity("16.9GHz")
    coeffs = pump_coefficients(design.ki_model, PumpOperatingPoint(PAPER_DEVICE_BIAS, 0.5e-3),
                               design.resonance_at_bias(PAPER_DEVICE_BIAS))
    profile = gain_spectrum(design, PumpDrive(abs(coeffs.xi3), TWO_PI * fp, PAPER_DEVICE_BIAS),
                            None, TWO_PI * (8e9 + 1e6 * np.arange(2)))
    for name, want in [("freq_hz", profile.freqs / TWO_PI), ("re_s11", profile.s11.real),
                       ("im_s11", profile.s11.imag), ("gain_db", profile.gain_db)]:
        assert emitted[0][name].tobytes() == want.tobytes(), name


def test_any_inline_environment_impedance_builds_the_model(tmp_path):
    def spectrum(*keys):
        out = tmp_path / "s.csv"
        argv = ["simulate", "--preset", "paper-device", "--fp", "16.9GHz", "--xi3", "2GHz",
                "--span", "8.3GHz:8.5GHz:50MHz", "--out", str(out)]
        assert main(argv + [token for key in keys for token in ("--set", key)]) == EXIT_OK
        return out.read_text()

    flat = spectrum()
    # a second ripple term alone is the same one-term model as a first
    second = spectrum("env_z2=14.2ohm", "env_tau2=1.67ns")
    assert second == spectrum("env_z1=14.2ohm", "env_tau1=1.67ns") != flat
    assert spectrum("env_z0=60ohm") != flat


def test_map_axes_stop_at_their_stop(tmp_path):
    # 510 + 3 * 50 uA and 16.8 + 3 * 0.02 GHz lie past their stops
    out = tmp_path / "map.csv"
    assert main(["map", "--preset", "paper-device", "--set", "policy=xi3",
                 "--set", "fp_span=16.8GHz:16.853GHz:20MHz", "--set", "freq_step=20MHz",
                 "--set", "idc_start=510uA", "--set", "idc_stop=640uA",
                 "--set", "idc_step=50uA", "--out", str(out)]) == EXIT_OK
    rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    assert sorted({fp for fp, _ in rows}) == ["16800000000", "16820000000", "16840000000"]
    assert sorted({idc for _, idc in rows}) == ["0.00051", "0.00056", "0.00061"]
    assert len(rows) == 9


@pytest.mark.parametrize("span, last_mhz", [
    ("8GHz:8.0044GHz:1MHz", 8004),   # round(4.4) = 4 points used to drop 8.004 GHz
    ("8GHz:8.0046GHz:1MHz", 8004),
    ("8GHz:8.004GHz:1MHz", 8003),    # the stop is not a point of the span
    ("8GHz:8GHz:1MHz", 8000),        # at least one point
])
def test_span_keeps_every_point_below_its_stop(span, last_mhz, tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["simulate", "--preset", "paper-device", "--fp", "16.9GHz", "--xi3", "1GHz",
                 "--span", span, "--out", str(out)]) == EXIT_OK
    freqs = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert freqs == [f"{mhz}000000" for mhz in range(8000, last_mhz + 1)]


def test_grid_axis_is_the_search_axis_rule():
    # values lo + k*step up to the stop, the stop itself within 1e-9 step
    assert simulator.grid_axis(510e-6, 640e-6, 50e-6, "bias grid") == [
        510e-6 + k * 50e-6 for k in range(3)]
    assert simulator.grid_axis(570e-6, 590e-6, 20e-6, "bias grid") == [570e-6, 570e-6 + 20e-6]
    assert simulator.grid_axis(16.9e9, 16.92e9, 20e6, "pump grid") == [16.9e9, 16.92e9]
    assert simulator.grid_axis(1.0, 1.0, 5.0, "axis") == [1.0]
    with pytest.raises(InvalidParameter, match="^axis 2:1:1 needs stop >= start and step > 0$"):
        simulator.grid_axis(2.0, 1.0, 1.0, "axis")


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--preset", "paper-device", "--fp", "16.9GHz",
                  "--span", "0:1e300:1"], id="argv0"),
    pytest.param(["simulate", "--preset", "paper-device", "--fp", "16.9GHz",
                  "--span", "8GHz:9GHz:1e-3Hz"], id="argv1"),
    pytest.param(["map", "--preset", "paper-device", "--set", "fp_span=16.9GHz:17GHz:1e-3Hz",
                  "--set", "idc_start=0.57mA", "--set", "idc_stop=0.57mA",
                  "--set", "idc_step=1mA"], id="argv2"),
    pytest.param(["map", "--preset", "paper-device", "--set", "fp_span=16.9GHz:16.9GHz:10MHz",
                  "--set", "idc_start=0.5mA", "--set", "idc_stop=0.6mA",
                  "--set", "idc_step=1e-15A"], id="argv3"),
    pytest.param(["map", "--preset", "paper-device", "--set", "fp_span=16.9GHz:16.9GHz:10MHz",
                  "--set", "idc_start=0.57mA", "--set", "idc_stop=0.57mA",
                  "--set", "idc_step=1mA", "--set", "freq_step=1Hz"], id="argv4"),
    pytest.param(["search", "--set", "z14=30ohm:100ohm:1e-9ohm"], id="argv5"),
    pytest.param(["search", "--set", "fp2=7.5GHz:8.5GHz:1Hz"], id="argv6"),
])
def test_oversized_grid_is_validation_error(argv, capsys):
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and f"at most {MAX_GRID_POINTS} are allowed" in err


@pytest.mark.parametrize("span", ["0Hz:0.003GHz:1MHz", "-1GHz:8GHz:1GHz"])
def test_signal_grid_at_or_below_0_hz_is_validation_error(span, capsys):
    # 0 Hz used to be written as a pole: 0,nan,nan,inf
    assert main(["simulate", "--preset", "paper-device", "--fp", "16.9GHz",
                 "--set", f"span={span}"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid reaches 0 Hz: omega_s must stay > 0\n"
