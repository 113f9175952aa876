"""Fuzz the command line: no input file and no argv ends in a traceback.

Every outcome must be one of the documented exit codes (0 success,
1 validation, 2 numerical, 3 I/O), returned by ``main`` or raised as
``SystemExit``, with no traceback on stderr.  Any other exception escapes
and fails the test.

Grids stay small by construction: spans, the map's bias axis and
``freq_step`` and the search axes are fixed on the command line (a later
``--set`` wins over the config file) or drawn from spans of one to three
points, so no example asks for a large grid.
"""
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from kipa import cli

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL, cli.EXIT_IO}

# derandomize: the same examples on every run, so the suite cannot flake
_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])

_MAP_GRID = ["--set", "fp_span=16.9GHz:16.9GHz:10MHz", "--set", "freq_step=20MHz",
             "--set", "idc_start=0.57mA", "--set", "idc_stop=0.57mA",
             "--set", "idc_step=0.05mA"]
_SEARCH_GRID = ["--set", "z14=40ohm:40ohm:10ohm", "--set", "z12=100ohm:100ohm:10ohm",
                "--set", "znr=8ohm:8ohm:1ohm", "--set", "fp2=7.75GHz:7.75GHz:1GHz"]

_QUBIT_CSV = "detuning_hz,p_vna_dbm,re_s21,im_s21\n" + "".join(
    f"{d},{p},{0.5 + 0.01 * d / 1e6},{0.02 * p / 90}\n"
    for p in (-90, -80, -70) for d in (-4e6, -2e6, 0.0, 2e6, 4e6))

# command -> (argv without the file, the option that takes the file, a valid file)
_FILE_CASES = {
    "synth": (["synth"], "--config",
              "epsilon = 0.0625\nz_nr = 60 ohm\nz_ki = 180 ohm\nz0 = 50 ohm\n"),
    "simulate": (["simulate", "--span", "8.3GHz:8.5GHz:50MHz"], "--config",
                 "preset = paper-device\nenv = paper-env\nidc = 0.57mA\n"
                 "fp = 16.9GHz\nxi3 = 2.0GHz\n"),
    "map": (["map", *_MAP_GRID], "--config",
            "preset = paper-device\nenv = paper-env\npolicy = xi3\n"),
    "search": (["search", *_SEARCH_GRID], "--config",
               "kind = three-stage\nz_ki = 150 ohm\nf0 = 8GHz\n"),
    "fit-ki": (["fit-ki", "--set", "model_kind=quartic"], "--input",
               "i_dc_A,dfrac\n" + "".join(f"{k * 1e-4},{-0.4 * (k / 32.5) ** 2}\n"
                                          for k in range(1, 9))),
    "fit-qubit": (["fit-qubit", "--set", "fq=8.4GHz"], "--input", _QUBIT_CSV),
    "noise": (["noise", "--set", "gs=20dB", "--set", "gsys_eff=75dB"], "--input",
              "freq_hz,p_on_dbm,p_off_dbm\n8.4e9,-62.0,-75.0\n8.5e9,-61.0,-74.5\n"),
}


def _run(argv, capsys):
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    err = capsys.readouterr().err
    assert rc in EXIT_CODES, (argv, rc, err)
    assert "Traceback" not in err, (argv, err)
    return rc, err


def _file_contents(valid: bytes):
    def splice(args):
        at, piece = args
        return valid[:at] + piece + valid[at:]

    position = st.integers(0, len(valid))
    return st.one_of(
        st.binary(max_size=120),                                      # random bytes
        position.map(lambda n: valid[:n]),                            # truncated
        st.text(max_size=120).map(lambda s: s.encode("utf-8", "surrogatepass")),  # garbage
        st.tuples(position, st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]))
        .map(splice),                                                 # not UTF-8
        st.tuples(position, st.text(max_size=6).map(str.encode)).map(splice),  # garbled
    )


@pytest.mark.parametrize("command", sorted(_FILE_CASES))
def test_fuzzed_input_file_ends_in_documented_exit_code(command, tmp_path, capsys):
    argv, option, valid = _FILE_CASES[command]
    path = tmp_path / "input"
    full = [*argv, option, str(path), "--out", str(tmp_path / "out")]
    path.write_text(valid)
    assert _run(full, capsys) == (cli.EXIT_OK, "")  # the unfuzzed file is accepted

    @_SETTINGS
    @given(_file_contents(valid.encode()))
    def check(content):
        path.write_bytes(content)
        _run(full, capsys)

    check()


# Keys whose value sets a grid's point count with other keys; they stay fixed.
_GRID_KEYS = {"idc_start", "idc_stop", "idc_step", "freq_step"}
_KEYS = sorted({k for command in cli._COMMANDS.values() for k in command.schema} - _GRID_KEYS)
_OPTIONS = ["--config", "--preset", "--out", "--format", "--threads", "--set", "--idc",
            "--fp", "--xi3", "--span", "--input", "--help", "-h", "--bogus", "--", "-"]
# Spans here give one to three points in any unit; no value parses as a large count.
_VALUES = ["0", "-1", "1", "2", "-0", "1e999", "nan", "inf", "8.4GHz", "16.9GHz", "2.0GHz",
           "56ohm", "-5ohm", "330fF", "0.8nH", "0.57mA", "-29.6dBm", "20dB", "75dB",
           "paper-device", "paper-env", "three-stage", "conventional", "quartic",
           "parabolic", "clem", "xi3", "current", "csv", "structured", "/", ".",
           "8.3GHz:8.35GHz:50MHz", "8.35GHz:8.3GHz:50MHz", "1:2:3", "8GHz:8GHz:0Hz",
           "1:1e999:1", "a:b:c", "1GHz:2ohm:1", "1:2", ""]
# No decimal digits (so no count or thread number), no NUL, no '/', no lone
# surrogates: argv from a shell never holds those last two.
_GARBAGE = st.text(st.characters(blacklist_categories=("Nd", "Cs"),
                                 blacklist_characters="\x00/"), max_size=10)
_VALUE = st.one_of(st.sampled_from(_VALUES), _GARBAGE)
_KEY = st.one_of(st.sampled_from(_KEYS), _GARBAGE.filter(lambda k: k.strip() not in _GRID_KEYS))
_ITEM = st.one_of(
    st.tuples(st.sampled_from(_OPTIONS), _VALUE),
    st.tuples(st.just("--set"), st.builds("{}={}".format, _KEY, _VALUE)),
    st.tuples(st.sampled_from(_OPTIONS)),
    st.tuples(_VALUE),
)
_PREFIX = {"map": _MAP_GRID, "search": _SEARCH_GRID}


@settings(_SETTINGS, max_examples=150)
@given(command=st.one_of(st.sampled_from(sorted(cli._COMMANDS)), _GARBAGE),
       items=st.lists(_ITEM, max_size=8))
@example(command="simulate",
         items=[("--preset", "paper-device"), ("--fp", "16.9GHz"), ("--span", "1:1e999:1")])
@example(command="map", items=[("--preset", "paper-device"), ("--set", "freq_step=0Hz")])
@example(command="synth", items=[("--threads", "two")])
def test_fuzzed_argv_ends_in_documented_exit_code(command, items, tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)  # a fuzzed --out lands here
    argv = [command, *_PREFIX.get(command, []), *(token for item in items for token in item)]
    _run(argv, capsys)
