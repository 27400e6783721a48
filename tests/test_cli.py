"""Command-line behavior: experiments, sweeps, reports and exit codes."""

import csv
import json
import os
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bubbleforge import cli
from bubbleforge.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_NUMERIC,
    EXIT_OK,
    CSV_HEADER,
    main,
    parse_range,
)


def _run(tmp_path, *argv):
    out = tmp_path / "report.csv"
    code = main([*argv, "--out", str(out)])
    rows = []
    if out.exists():
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
    return code, rows


def test_verify_thm_a_passes(tmp_path):
    code, rows = _run(tmp_path, "verify", "thm-a", "--n", "3",
                      "--lambda1", "0.0099", "--lambda2", "1",
                      "--rho", "1", "--R", "10")
    assert code == EXIT_OK
    by_name = {r["experiment"]: r for r in rows}
    assert float(by_name["thm-a/bound"]["measured"]) == pytest.approx(1.70741183226, rel=1e-9)
    assert float(by_name["thm-a/scan"]["measured"]) >= 5 / 3
    assert all(r["pass"] == "true" for r in rows)


def test_verify_lemma_37(tmp_path):
    code, rows = _run(tmp_path, "verify", "lemma-37", "--n", "3",
                      "--R", "1", "--xi", "0,0,0")
    assert code == EXIT_OK
    assert float(rows[0]["measured"]) == pytest.approx(0.5, abs=1e-6)


def _fake_clock(monkeypatch, name, cost):
    """A clock that only the cli global name advances, by cost per call."""
    clock = [0.0]
    real = getattr(cli, name)

    def slow(*args, **kwargs):
        clock[0] += cost
        return real(*args, **kwargs)

    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(cli, name, slow)


def test_lemma_37_rows_time_their_own_work(tmp_path, monkeypatch):
    # the bound row times the integral, the equality row only its own comparison
    _fake_clock(monkeypatch, "int_absH_ball", 5.0)
    code, rows = _run(tmp_path, "verify", "lemma-37", "--n", "3",
                      "--R", "1", "--xi", "0,0,0")
    assert code == EXIT_OK
    seconds = {r["experiment"]: float(r["seconds"]) for r in rows}
    assert seconds["lemma-37/bound"] == pytest.approx(5.0, abs=1e-3)
    assert seconds["lemma-37/equality"] < 1.0


@pytest.mark.parametrize("command, name, seconds", [
    # a sweep row carries the work behind the rows it drops
    ("sweep lemma-37 --n 3,4 --R 1 --xi 0", "int_absH_ball", [5.0, 5.0]),
    # sub-rows read off the report of the lead row
    ("verify rep-singular --n 3 --nu 0.5", "rep_formula_report", [5.0, 0.0, 0.0]),
    ("blowup --n 3 --mu 1e-3", "detect", [5.0, 0.0, 0.0]),
    # the first C row needs both measurements for its bound
    ("verify glue-insert --n 5 --delta 1e-3", "measure_insert_quality", [10.0, 0.0]),
])
def test_rows_carry_the_work_they_need(tmp_path, monkeypatch, command, name, seconds):
    _fake_clock(monkeypatch, name, 5.0)
    code, rows = _run(tmp_path, *command.split())
    assert code == EXIT_OK
    assert [float(r["seconds"]) for r in rows] == pytest.approx(seconds, abs=1e-3)


def test_verify_example_525(tmp_path):
    code, rows = _run(tmp_path, "verify", "example-525", "--n", "3",
                      "--lambda", "1", "--sep", "4")
    assert code == EXIT_OK
    by_name = {r["experiment"]: r for r in rows}
    assert float(by_name["example-525/midplane"]["measured"]) == pytest.approx(
        0.0625, abs=1e-6)
    assert float(by_name["example-525/sup"]["measured"]) <= 0.9375 + 1e-6
    assert float(by_name["example-525/far-limit"]["measured"]) == pytest.approx(
        0.0625, abs=1e-4)


def test_verify_failing_bound_exits_one(tmp_path):
    code, rows = _run(tmp_path, "verify", "thm-a", "--n", "3",
                      "--lambda1", "1", "--lambda2", "1", "--rho", "1", "--R", "10")
    assert code == EXIT_FAIL
    assert any(r["pass"] == "false" for r in rows)


def test_bad_dimension_exits_config(tmp_path):
    code, _ = _run(tmp_path, "verify", "lemma-37", "--n", "2", "--R", "1")
    assert code == EXIT_CONFIG


def test_missing_parameter_exits_config(tmp_path):
    code, _ = _run(tmp_path, "verify", "thm-a", "--n", "3")
    assert code == EXIT_CONFIG


def test_csv_header_and_float_format(tmp_path):
    out = tmp_path / "r.csv"
    main(["verify", "lemma-37", "--n", "4", "--R", "1", "--out", str(out)])
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert "0.25" in text


def test_reports_are_deterministic_modulo_timing(tmp_path):
    def strip_seconds(path):
        with open(path, newline="") as fh:
            return [row[:-1] for row in csv.reader(fh)]

    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["verify", "thm-a", "--n", "3", "--lambda1", "0.0099",
            "--lambda2", "1", "--rho", "1", "--R", "10"]
    main([*args, "--out", str(a)])
    main([*args, "--out", str(b)])
    assert strip_seconds(a) == strip_seconds(b)


def test_json_report(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "lemma-37", "--n", "3", "--R", "1",
                 "--format", "json", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload[0]["experiment"] == "lemma-37/bound"
    assert payload[0]["pass"] is True


def test_sweep_lemma_37_over_dimensions(tmp_path):
    code, rows = _run(tmp_path, "sweep", "lemma-37", "--n", "3,4,5,6",
                      "--R", "1", "--xi", "0")
    assert code == EXIT_OK
    measured = [float(r["measured"]) for r in rows]
    expected = [1 / (2 * (n - 2)) for n in (3, 4, 5, 6)]
    assert measured == pytest.approx(expected, abs=1e-6)


def test_sweep_thm_a_bound_monotone_below_threshold(tmp_path):
    code, rows = _run(tmp_path, "sweep", "thm-a", "--n", "3",
                      "--lambda1", "log:1e-5:1e-3:5", "--lambda2", "1",
                      "--rho", "1", "--R", "10")
    assert code == EXIT_OK
    measured = [float(r["measured"]) for r in rows]
    # rows come in increasing lambda1 order; the bound decreases with lambda1
    assert all(a > b for a, b in zip(measured[:-1], measured[1:]))


def test_sweep_empty_range_exits_config(tmp_path, capsys):
    # a sweep over no values checks nothing: it used to exit 0 with no rows
    for raw in ("", ",", "lin:1:2:0"):
        code, rows = _run(tmp_path, "sweep", "lemma-37", "--n", "3", "--R", raw, "--xi", "0")
        assert code == EXIT_CONFIG and rows == []
        assert f"range {raw!r} for 'R' is empty" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # np.linspace used to fail on 10^10 values with a MemoryError traceback and exit 1
    (["--n", "3", "--R", "lin:1:2:10000000000"], "10000000000 values exceed the cap of 10000"),
    (["--n", "lin:3:4:10000000000", "--R", "1"], "10000000000 values exceed the cap of 10000"),
    (["--n", "3,4", "--R", "lin:1:2:5001"], "10002 parameter tuples exceed the cap of 10000"),
])
def test_sweep_oversized_range_exits_config(tmp_path, capsys, argv, message):
    code, rows = _run(tmp_path, "sweep", "lemma-37", *argv)
    assert code == EXIT_CONFIG and rows == []
    assert message in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nkind = lemma-37\nn = 3\n\n[params]\nR = 2\n")
    code, rows = _run(tmp_path, "verify", "lemma-37", "--config", str(ini))
    assert code == EXIT_OK
    assert float(rows[0]["measured"]) == pytest.approx(2.0, abs=1e-6)
    code, rows = _run(tmp_path, "verify", "lemma-37", "--config", str(ini),
                      "--R", "1")
    assert float(rows[0]["measured"]) == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("argv, kind", [(["verify", "thm-a"], "thm-a"),
                                        (["sweep", "example-525"], "example-525"),
                                        (["blowup"], "blowup")],
                         ids=["verify", "sweep", "blowup"])
def test_command_line_kind_overrides_config_file_kind(tmp_path, argv, kind):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nkind = lemma-37\n")
    cfg = cli._config_from_args(cli.build_parser().parse_args([*argv, "--config", str(ini)]))
    assert cfg.kind == kind


def test_config_file_kind_does_not_run_in_place_of_the_command(tmp_path, capsys):
    # thm-a without its required parameters, not the file's complete lemma-37
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nkind = lemma-37\n\n[params]\nR = 1\n")
    code, rows = _run(tmp_path, "verify", "thm-a", "--config", str(ini))
    assert code == EXIT_CONFIG and rows == []
    assert "thm-a" in capsys.readouterr().err


def test_unknown_config_file_kind_exits_config(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nkind = lemma-38\n\n[params]\nR = 1\n")
    code, rows = _run(tmp_path, "verify", "lemma-37", "--config", str(ini))
    assert code == EXIT_CONFIG and rows == []
    assert "'lemma-38'" in capsys.readouterr().err


@pytest.mark.parametrize("text", [b"kind = lemma-37\n",  # no section header
                                  b"[experiment]\nkind = lemma-37\n[params]\nR = \xff\n"],
                         ids=["no-section-header", "not-utf-8"])
def test_config_file_syntax_error_exits_config(tmp_path, capsys, text):
    ini = tmp_path / "exp.ini"
    ini.write_bytes(text)
    code, rows = _run(tmp_path, "verify", "lemma-37", "--config", str(ini))
    assert code == EXIT_CONFIG and rows == []
    assert "config error" in capsys.readouterr().err


def test_config_file_experiment_keys_are_the_flag_names(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nkind = lemma-37\ntol = 5\nformat = json\n\n[params]\nR = 1\n")
    cfg = cli._config_from_args(cli.build_parser().parse_args(["verify", "lemma-37",
                                                               "--config", str(ini)]))
    assert (cfg.tol, cfg.format) == (5.0, "json")


@pytest.mark.parametrize("key", ["tolerance", "fmt"])
def test_unknown_experiment_key_exits_config(tmp_path, capsys, key):
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\nkind = lemma-37\n{key} = 5\n\n[params]\nR = 1\n")
    code, rows = _run(tmp_path, "verify", "lemma-37", "--config", str(ini))
    assert code == EXIT_CONFIG and rows == []
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_n_in_params_section_exits_config(tmp_path, capsys, command):
    # n is checked for integrality only in [experiment] or as --n
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nkind = lemma-37\n\n[params]\nR = 1\nn = 3.5\n")
    code, rows = _run(tmp_path, command, "lemma-37", "--config", str(ini))
    assert code == EXIT_CONFIG and rows == []
    assert "'n'" in capsys.readouterr().err


def test_blowup_subcommand(tmp_path):
    code, rows = _run(tmp_path, "blowup", "--n", "3", "--mu", "1e-3")
    assert code == EXIT_OK
    by_name = {r["experiment"]: r for r in rows}
    assert float(by_name["blowup/mu-rel-err"]["measured"]) <= 1e-6


def test_overlapping_balls_exit_numeric(tmp_path):
    code, _ = _run(tmp_path, "verify", "thm-b", "--n", "3",
                   "--lambda1", "0.5", "--lambda2", "1", "--r1", "1",
                   "--a", "1", "--sep", "1")
    assert code == EXIT_NUMERIC


@pytest.mark.parametrize("flag, value", [("--grid", "0"), ("--grid", "1"),
                                         ("--grid", "-4"), ("--threads", "0")])
def test_scan_sizes_below_minimum_exit_config(tmp_path, capsys, monkeypatch, flag, value):
    # --grid 0 used to exit 3 on an empty argmax, --grid 1 to divide by zero
    def no_scan(*args, **kwargs):
        raise AssertionError("scan started before the config was checked")

    monkeypatch.setattr(cli, "sup_scan", no_scan)
    code, rows = _run(tmp_path, "verify", "thm-a", "--n", "3", "--lambda1", "0.0099",
                      "--lambda2", "1", "--rho", "1", "--R", "10", flag, value)
    assert code == EXIT_CONFIG and rows == []
    assert "config error" in capsys.readouterr().err


def _no_run(*args, **kwargs):
    raise AssertionError("an experiment ran before the config was checked")


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_bad_tol_exits_config(tmp_path, capsys, monkeypatch, value):
    # --tol inf used to turn thm-a/bound's measured -84.1 into a PASS
    monkeypatch.setattr(cli, "run", _no_run)
    code, rows = _run(tmp_path, "verify", "thm-a", "--lambda1", "0.5", "--lambda2", "1",
                      "--rho", "1", "--R", "10", "--tol", value)
    assert code == EXIT_CONFIG and rows == []
    assert "config error" in capsys.readouterr().err


def test_bad_tol_from_config_file_exits_config(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run", _no_run)
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nkind = lemma-37\ntol = inf\n\n[params]\nR = 1\n")
    code, rows = _run(tmp_path, "verify", "lemma-37", "--config", str(ini))
    assert code == EXIT_CONFIG and rows == []
    assert "tol" in capsys.readouterr().err


def test_threads_ignore_the_environment(tmp_path, monkeypatch):
    # BUBBLEFORGE_THREADS once set the default thread count; no variable does now
    monkeypatch.setenv("BUBBLEFORGE_THREADS", "two")
    argv = ["verify", "lemma-37", "--R", "1"]
    assert cli._config_from_args(cli.build_parser().parse_args(argv)).threads == 1
    code, _ = _run(tmp_path, *argv)
    assert code == 0


_OPTION_NAMES = [opt.name for opt in cli._OPTIONS]
# any text a flag or an INI value can carry on one line
_ONE_LINE = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n\r"))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(_OPTION_NAMES), value=_ONE_LINE, from_file=st.booleans())
@example(name="n", value="1e400", from_file=True)  # was an OverflowError traceback
@example(name="tol", value="100%", from_file=True)  # INI interpolation syntax
def test_any_option_value_gives_a_config_or_a_config_error(tmp_path_factory, name, value,
                                                           from_file):
    argv = ["verify", "lemma-37", "--R", "1"]
    if from_file:
        ini = tmp_path_factory.mktemp("ini") / "exp.ini"
        ini.write_text(f"[experiment]\n{name} = {value}\n", encoding="utf-8")
        argv += ["--config", str(ini)]
    else:
        argv.append(f"--{name}={value}")
    try:
        cfg = cli._config_from_args(cli.build_parser().parse_args(argv))
    except cli.ConfigError:
        return
    assert isinstance(cfg, cli.ExperimentConfig)


def _from_flag_or_file(tmp_path, source, argv, name, value):
    """argv with --name value, or with a config file that sets name."""
    if source == "flag":
        return [*argv, f"--{name}", value]
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\n{name} = {value}\n")
    return [*argv, "--config", str(ini)]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("argv, name, value", [
    (["verify", "lemma-37", "--R", "1"], "tol", "abc"),  # a flag used to raise SystemExit
    (["verify", "lemma-37", "--R", "1"], "format", "xml"),
    (["verify", "lemma-37", "--R", "1"], "n", "1e400"),  # used to end in an OverflowError
    (["blowup", "--n", "3"], "seed", "-1"),  # used to exit 3 from numpy
    (["verify", "lemma-37", "--R", "1"], "seed", "-1"),
])
def test_bad_option_exits_config_before_any_experiment(tmp_path, capsys, monkeypatch, source,
                                                        argv, name, value):
    monkeypatch.setattr(cli, "run", _no_run)
    code, rows = _run(tmp_path, *_from_flag_or_file(tmp_path, source, argv, name, value))
    assert code == EXIT_CONFIG and rows == []
    assert f"config error: {name}={value}: " in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "file"])
def test_threads_from_flag_or_file_leave_the_environment_unread(tmp_path, monkeypatch, source):
    # the flag and the file set the thread count alone, whatever BUBBLEFORGE_THREADS holds
    monkeypatch.setenv("BUBBLEFORGE_THREADS", "two")
    argv = _from_flag_or_file(tmp_path, source, ["verify", "lemma-37", "--R", "1"], "threads", "2")
    assert cli._config_from_args(cli.build_parser().parse_args(argv)).threads == 2


@pytest.mark.parametrize("argv", [
    ["verify", "lemma-37", "--n", "3", "--R", "1e200"],  # R**2 in the bound
    ["verify", "thm-a", "--n", "3", "--lambda1", "1e200", "--lambda2", "1", "--rho", "1",
     "--R", "10"],
])
def test_float_overflow_exits_numeric(tmp_path, capsys, argv):
    code, rows = _run(tmp_path, *argv)
    assert code == EXIT_NUMERIC and rows == []
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["missing/report.csv", ".", "nul\x00.csv"],
                         ids=["no-directory", "a-directory", "nul-byte"])
def test_unwritable_report_path_exits_config(tmp_path, capsys, out):
    path = str(tmp_path / out)
    code = main(["verify", "lemma-37", "--n", "3", "--R", "1", "--out", path])
    assert code == EXIT_CONFIG
    assert f"config error: cannot write report {path!r}" in capsys.readouterr().err


def test_parse_range_forms():
    assert parse_range("1,2,3") == [1.0, 2.0, 3.0]
    assert parse_range("lin:0:1:3") == [0.0, 0.5, 1.0]
    got = parse_range("log:0.01:1:3")
    assert got == pytest.approx([0.01, 0.1, 1.0])
    assert parse_range("") == []


# --- the experiment table ----------------------------------------------------------

_THM_A = ["--n", "3", "--lambda1", "0.0099", "--lambda2", "1", "--rho", "1", "--R", "10"]


@pytest.mark.parametrize("argv, name", [
    (["verify", "thm-a", *_THM_A, "--sep", "3"], "'sep'"),  # undeclared
    (["sweep", "thm-a", *_THM_A, "--xi", "0"], "'xi'"),
    (["verify", "lemma-37", "--n", "3,4", "--R", "1"], "n=3,4"),  # a range outside sweep
    (["verify", "lemma-37", "--R", "one"], "'R'"),  # not a number
    (["sweep", "lemma-37", "--R", "lin:1:2"], "'R'"),
    (["sweep", "lemma-37", "--n", "4,2", "--R", "1"], ">= 3"),
])
def test_bad_parameters_exit_config(tmp_path, capsys, argv, name):
    code, rows = _run(tmp_path, *argv)
    assert code == EXIT_CONFIG and rows == []
    assert name in capsys.readouterr().err


def test_undeclared_config_file_parameter_exits_config(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nkind = lemma-37\n\n[params]\nR = 1\nsep = 3\n")
    code, rows = _run(tmp_path, "verify", "lemma-37", "--config", str(ini))
    assert code == EXIT_CONFIG and rows == []
    assert "'sep'" in capsys.readouterr().err


def test_every_declared_parameter_has_a_flag():
    args = cli.build_parser().parse_args(["verify", "blowup"])
    flags = {k[len("param_"):] for k in vars(args) if k.startswith("param_")}
    assert flags == {k for spec in cli.EXPERIMENTS.values() for k in spec.params}
    assert len(flags) == 17


def test_defaults_may_depend_on_earlier_parameters():
    p = cli._params(cli.ExperimentConfig("example-525", 3, {"lambda": "2", "lambda2": "3",
                                                            "sep": "4"}),
                    cli.EXPERIMENTS["example-525"])
    assert (p["lambda1"], p["lambda2"]) == (2.0, 3.0)
    p = cli._params(cli.ExperimentConfig("glue-insert", 6), cli.EXPERIMENTS["glue-insert"])
    assert p["alpha"] == 0.5


@dataclass(frozen=True)
class AtMost:
    """A measured cell held to an absolute bound: a residual at roundoff has no stable digits."""

    limit: float


# columns 1-4 of the report of each command under "Command line" in README.md;
# every row passes, and measured and bound are compared to 1e-9 relative, with no
# absolute floor: pytest.approx's default 1e-12 would pass any roundoff cell
README_ROWS = {
    "verify thm-a --n 3 --lambda1 0.0099 --lambda2 1 --rho 1 --R 10": [
        ("thm-a/conditions", "R=10;lambda1=0.0099;lambda2=1;n=3;rho=1", 1, 1),
        ("thm-a/bound", "R=10;lambda1=0.0099;lambda2=1;n=3;rho=1", 1.70741183226, 1.66666666667),
        ("thm-a/scan", "R=10;lambda1=0.0099;lambda2=1;n=3;rho=1", 22886.2772433, 1.66666666667),
    ],
    "verify lemma-37 --n 3 --R 1 --xi 0,0,0": [
        ("lemma-37/bound", "R=1;n=3;xi=0:0:0", 0.5, 0.5),
        ("lemma-37/equality", "R=1;n=3;xi=0:0:0", 0.5, 0.5),
    ],
    "verify example-525 --n 3 --lambda 1 --sep 4": [
        ("example-525/midplane", "lambda1=1;lambda2=1;n=3;sep=4", 0.0625, 0.0625),
        ("example-525/sup", "lambda1=1;lambda2=1;n=3;sep=4", 0.9375, 0.9375),
        ("example-525/far-limit", "lambda1=1;lambda2=1;n=3;sep=4", 0.0625000000025, 0.0625),
    ],
    "verify thm-b --n 3 --lambda1 0.00238 --lambda2 1 --r1 1 --a 1 --sep 2": [
        ("thm-b/condition", "a=1;lambda1=0.00238;lambda2=1;n=3;r1=1;sep=2;sigma=1", 1, 1),
        ("thm-b/chain",
         "a=1;lambda1=0.00238;lambda2=1;n=3;r1=1;sep=2;sigma=1",
         3.65290006705, 0.833333333333),
        ("thm-b/scan",
         "a=1;lambda1=0.00238;lambda2=1;n=3;r1=1;sep=2;sigma=1",
         21157587.4601, 0.833333333333),
    ],
    "verify glue-insert --n 5 --delta 1e-3": [
        ("glue-insert/C", "alpha=0.25;delta=0.001;lambda=1;n=5", 0.215916095737, 0.627909542674),
        ("glue-insert/C", "alpha=0.25;delta=0.0001;lambda=1;n=5", 0.313954771337, 0.431832191475),
    ],
    "verify rep-identity --n 3 --lambda1 0.0099 --lambda2 1 --rho 1 --R 10": [
        ("rep-identity/residual",
         "R=10;lambda1=0.0099;lambda2=1;n=3;rho=1",
         1.16415321827e-10, 1030.41638722),
    ],
    "verify rep-singular --n 3 --nu 0.5": [
        ("rep-singular/extrapolated", "R=1.5;n=3;nu=0.5", AtMost(1e-14), 0.0001),
        ("rep-singular/decreasing", "R=1.5;n=3;nu=0.5", 1, 1),
        ("rep-singular/boundary-scaling", "R=1.5;n=3;nu=0.5", 1, 2),
    ],
    "blowup --n 3 --mu 1e-3": [
        ("blowup/detected",
         "R=5;center-radius=0.3;delta-target=0.01;epsilon=0.1;mu=0.001;n=3;seed=0",
         1, 1),
        ("blowup/mu-rel-err",
         "R=5;center-radius=0.3;delta-target=0.01;epsilon=0.1;mu=0.001;n=3;seed=0",
         1.08420217249e-15, 1e-06),
        ("blowup/delta",
         "R=5;center-radius=0.3;delta-target=0.01;epsilon=0.1;mu=0.001;n=3;seed=0",
         4.20687713019e-14, 0.01),
    ],
    "sweep lemma-37 --n 3,4,5,6 --R 1 --xi 0": [
        ("lemma-37/equality", "R=1;n=3;xi=0:0:0", 0.5, 0.5),
        ("lemma-37/equality", "R=1;n=4;xi=0:0:0:0", 0.25, 0.25),
        ("lemma-37/equality", "R=1;n=5;xi=0:0:0:0:0", 0.166666666667, 0.166666666667),
        ("lemma-37/equality", "R=1;n=6;xi=0:0:0:0:0:0", 0.125, 0.125),
    ],
    "sweep thm-a --n 3 --lambda1 log:1e-5:1e-3:5 --lambda2 1 --rho 1 --R 10": [
        ("thm-a/bound", "R=10;lambda1=1e-05;lambda2=1;n=3;rho=1", 84174999.9983, 1.66666666667),
        ("thm-a/bound",
         "R=10;lambda1=3.16227766017e-05;lambda2=1;n=3;rho=1",
         8417424.24074, 1.66666666667),
        ("thm-a/bound", "R=10;lambda1=0.0001;lambda2=1;n=3;rho=1", 841666.664983, 1.66666666667),
        ("thm-a/bound",
         "R=10;lambda1=0.000316227766017;lambda2=1;n=3;rho=1",
         84090.9074074, 1.66666666667),
        ("thm-a/bound", "R=10;lambda1=0.001;lambda2=1;n=3;rho=1", 8333.33164983, 1.66666666667),
    ],
}

# the rows of "sweep example-525 --n 3,4 --lambda 1,2 --sep 4", likewise
EXAMPLE_525_SWEEP = [
    ("example-525/far-limit", "lambda1=1;lambda2=1;n=3;sep=4", 0.0625000000025, 0.0625),
    ("example-525/far-limit", "lambda1=2;lambda2=2;n=3;sep=4", 0.0625000000006, 0.0625),
    ("example-525/far-limit", "lambda1=1;lambda2=1;n=4;sep=4", 0.250000000012, 0.25),
    ("example-525/far-limit", "lambda1=2;lambda2=2;n=4;sep=4", 0.250000000003, 0.25),
]


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split(maxsplit=1)[1] for line in block.splitlines()
            if line.startswith("bubbleforge ")]


def _assert_rows(rows, expected):
    assert len(rows) == len(expected)
    for row, (name, params, measured, bound) in zip(rows, expected):
        assert (row["experiment"], row["params"], row["pass"]) == (name, params, "true")
        if isinstance(measured, AtMost):
            assert float(row["measured"]) <= measured.limit
        else:
            assert float(row["measured"]) == pytest.approx(measured, rel=1e-9, abs=0)
        assert float(row["bound"]) == pytest.approx(bound, rel=1e-9, abs=0)


def test_readme_lists_the_recorded_commands():
    assert _readme_commands() == list(README_ROWS)


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_reports(tmp_path, command):
    code, rows = _run(tmp_path, *command.split())
    assert code == EXIT_OK
    _assert_rows(rows, README_ROWS[command])


def _cli_process(tmp_path, argv, stdout=subprocess.PIPE, **kwargs):
    """The command line in a child process, writing its report to tmp_path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "bubbleforge.cli", *argv,
                           "--out", str(tmp_path / "report.csv")],
                          env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=120, **kwargs)


def _report_rows(tmp_path):
    with open(tmp_path / "report.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _limit_address_space():
    # runs in the child only, between fork and exec
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("n", ["4", "5"])
def test_rep_singular_runs_in_one_gigabyte(tmp_path, n):
    # the polar rules needed 311 MB at n = 4 and were killed at n = 5
    out = _cli_process(tmp_path, ["verify", "rep-singular", "--n", n],
                       preexec_fn=_limit_address_space)
    assert out.returncode == EXIT_OK, out.stderr
    rows = _report_rows(tmp_path)
    assert len(rows) == 3 and all(r["pass"] == "true" for r in rows)
    assert out.stdout.count("[PASS]") == 3 and "[FAIL]" not in out.stdout


def test_closed_stdout_keeps_the_report_and_exit_code(tmp_path):
    # the reader of stdout is gone before the run prints (a pipe into head)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = _cli_process(tmp_path, "verify thm-a --n 3 --lambda1 0.0099 --lambda2 1 "
                                     "--rho 1 --R 10".split(), stdout=write_end)
    finally:
        os.close(write_end)
    assert out.returncode == EXIT_OK
    assert out.stderr == ""
    command = "verify thm-a --n 3 --lambda1 0.0099 --lambda2 1 --rho 1 --R 10"
    _assert_rows(_report_rows(tmp_path), README_ROWS[command])


def test_sweeps_run_no_scan_they_drop(tmp_path, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a sweep ran a scan whose row it drops")

    monkeypatch.setattr(cli, "sup_scan", no_scan)
    code, rows = _run(tmp_path, *"sweep example-525 --n 3,4 --lambda 1,2 --sep 4".split())
    assert code == EXIT_OK
    _assert_rows(rows, EXAMPLE_525_SWEEP)
    command = "sweep thm-a --n 3 --lambda1 log:1e-5:1e-3:5 --lambda2 1 --rho 1 --R 10"
    code, rows = _run(tmp_path, *command.split())
    assert code == EXIT_OK
    _assert_rows(rows, README_ROWS[command])


def test_thm_a_sweep_row_is_an_implication(tmp_path):
    # at lambda1 = 1 no sufficient condition holds: the bound misses (n+2)/n,
    # which fails verify but leaves the sweep row vacuously true
    code, rows = _run(tmp_path, *"sweep thm-a --n 3 --lambda1 0.001,1 --lambda2 1 --rho 1 "
                                 "--R 10".split())
    assert code == EXIT_OK
    _assert_rows(rows, [
        ("thm-a/bound", "R=10;lambda1=0.001;lambda2=1;n=3;rho=1", 8333.33164983, 5 / 3),
        ("thm-a/bound", "R=10;lambda1=1;lambda2=1;n=3;rho=1", -84.1666666667, 5 / 3),
    ])


def test_readme_parameter_table_matches_the_experiment_table():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {}
    for line in text.splitlines():
        m = re.match(r"\| `([\w-]+)` \| (`.*?) \|", line)
        if m:
            documented[m[1]] = re.findall(r"`([\w-]+)` = ([^,]+)", m[2])
    assert list(documented) == list(cli.EXPERIMENTS)
    for kind, spec in cli.EXPERIMENTS.items():
        assert [name for name, _ in documented[kind]] == list(spec.params)
        for name, value in documented[kind]:
            default = spec.params[name]
            assert (value == "required") == (default is cli.REQUIRED), (kind, name)
            if isinstance(default, float):
                assert float(value) == default, (kind, name)


def test_readme_global_flags_name_every_option():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = text.split("Global flags:", 1)[1].split("\n\n", 1)[0]
    missing = [opt.name for opt in cli._OPTIONS if f"`--{opt.name}" not in paragraph]
    assert not missing, missing
