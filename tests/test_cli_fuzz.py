"""Fuzz the command line: no input file and no argv ends in a traceback.

Every outcome must be one of the documented exit codes (0 success,
1 validation, 2 numerical, 3 I/O), returned by ``main`` or raised as
``SystemExit``, with no traceback on stderr.  Any other exception escapes
and fails the test, and so does a numpy RuntimeWarning, which would reach
a user's stderr.

Grids stay small by construction: spans, the map's bias axis and
``freq_step`` and the search axes are fixed on the command line (a later
``--set`` wins over the config file) or drawn from spans of one to three
points, so no example asks for a large grid.
"""
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from kipa import cli
from test_cli import OVERFLOW_OUTCOMES

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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
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
           "1:1e999:1", "a:b:c", "1GHz:2ohm:1", "1:2", "",
           "1e-300ohm", "1e300ohm", "1e-300fF", "1e300nH", "1e-300A", "1e300Hz"]
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


def _overflow_examples(test):
    """``test`` with each command of ``test_cli.OVERFLOW_OUTCOMES`` as an example.

    Their ``--set`` keys follow the prefix and win over it; a search keeps
    the prefix's one fp2 value.
    """
    for case in OVERFLOW_OUTCOMES:
        command, *tokens = case.values[0]
        test = example(command=command, items=[(token,) for token in tokens])(test)
    return test


@settings(_SETTINGS, max_examples=150)
@given(command=st.one_of(st.sampled_from(sorted(cli._COMMANDS)), _GARBAGE),
       items=st.lists(_ITEM, max_size=8))
@example(command="simulate",
         items=[("--preset", "paper-device"), ("--fp", "16.9GHz"), ("--span", "1:1e999:1")])
@example(command="map", items=[("--preset", "paper-device"), ("--set", "freq_step=0Hz")])
@example(command="synth", items=[("--threads", "two")])
@_overflow_examples
def test_fuzzed_argv_ends_in_documented_exit_code(command, items, tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)  # a fuzzed --out lands here
    argv = [command, *_PREFIX.get(command, []), *(token for item in items for token in item)]
    _run(argv, capsys)


# ---------------------------------------------------------------- the argv reader

_FLAGS = ["--" + opt.name for opt in cli._OPTIONS]
# abbreviations, unique (--se, --pre, --x) and ambiguous (--s, --f, --i), help,
# the end of options and unknown options: the reader leaves all of them to argparse
_ODD_FLAGS = ["--se", "--pre", "--x", "--s", "--f", "--i", "-h", "--help", "--", "-",
              "--bogus", "-x", "--set-", "set", "--SET"]
_READER_VALUES = ["", "-1", "-1GHz", "xml", " 3", "3.0", "1_0", "3", "csv", "structured",
                  "a=1", "z_ki=180ohm", "x y", "--set", "synth", "16.9GHz", "8GHz:9GHz:1GHz"]
_READER_VALUE = st.one_of(st.sampled_from(_READER_VALUES), st.text(max_size=4))
# one token or pair that the reader may refuse, spliced into a well-formed argv
_ODD_ITEM = st.one_of(
    st.tuples(st.sampled_from(_ODD_FLAGS), _READER_VALUE),              # --odd value
    st.builds("{}={}".format, st.sampled_from(_FLAGS + _ODD_FLAGS), _READER_VALUE)
    .map(lambda token: (token,)),                                        # --option=value
    st.tuples(st.sampled_from(_FLAGS + _ODD_FLAGS)),                     # no value
    st.tuples(_READER_VALUE),                                            # positional
)


@settings(_SETTINGS, max_examples=500)
@given(command=st.sampled_from([*sorted(cli._COMMANDS), "", "-h", "--help", "sim", "Synth"]),
       pairs=st.lists(st.tuples(st.sampled_from(_FLAGS), _READER_VALUE), max_size=6),
       odd=st.one_of(st.none(), st.tuples(st.integers(0, 6), _ODD_ITEM)))
@example(command="synth", pairs=[("--threads", " 3"), ("--set", "a=1"), ("--set", "")], odd=None)
@example(command="noise", pairs=[("--format", "structured"), ("--threads", "1_0")], odd=None)
@example(command="search", pairs=[], odd=(0, ("--s", "x")))
def test_argv_reader_returns_what_argparse_returns(command, pairs, odd, capsys):
    """Where the reader returns a namespace, argparse accepts the argv and returns the same."""
    if odd is not None:
        pairs = [*pairs[:odd[0]], odd[1], *pairs[odd[0]:]]
    argv = [command, *(token for item in pairs for token in item)]
    read = cli.read_argv(argv)
    if read is None:
        return
    try:
        parsed = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"the reader accepts {argv}, argparse exits {exc.code}: "
                    f"{capsys.readouterr().err}")
    assert read == parsed, argv


def test_valid_commands_skip_argparse(tmp_path, capsys, monkeypatch):
    def refuse():
        raise AssertionError("build_parser called for a valid command line")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for command, (argv, option, valid) in sorted(_FILE_CASES.items()):
        path = tmp_path / command
        path.write_text(valid)
        assert _run([*argv, option, str(path), "--out", str(tmp_path / "out")],
                    capsys) == (cli.EXIT_OK, "")


@pytest.mark.parametrize("argv, code", [
    (["synth", "--help"], cli.EXIT_OK),
    (["synth", "--bogus", "1"], cli.EXIT_VALIDATION),
    (["simulate", "--format", "xml"], cli.EXIT_VALIDATION),
])
def test_help_and_usage_errors_reach_argparse(argv, code, capsys, monkeypatch):
    build, built = cli.build_parser, []

    def counted():
        built.append(argv)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code and built == [argv]
