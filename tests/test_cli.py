"""Command-line behavior: experiments, sweeps, reports and exit codes."""

import csv
import json
import time

import pytest

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


def test_lemma_37_rows_time_their_own_work(tmp_path, monkeypatch):
    # a fake clock that only the integral advances: the bound row times the
    # integral, the equality row only its own comparison
    clock = [0.0]
    integral = cli.int_absH_ball

    def slow_integral(*args, **kwargs):
        clock[0] += 5.0
        return integral(*args, **kwargs)

    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(cli, "int_absH_ball", slow_integral)
    code, rows = _run(tmp_path, "verify", "lemma-37", "--n", "3",
                      "--R", "1", "--xi", "0,0,0")
    assert code == EXIT_OK
    seconds = {r["experiment"]: float(r["seconds"]) for r in rows}
    assert seconds["lemma-37/bound"] == pytest.approx(5.0, abs=1e-3)
    assert seconds["lemma-37/equality"] < 1.0


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


def test_sweep_empty_range_gives_empty_table(tmp_path):
    code, rows = _run(tmp_path, "sweep", "lemma-37", "--n", "3", "--R", "")
    assert code == EXIT_OK
    assert rows == []


def test_config_file_with_flag_override(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nkind = lemma-37\nn = 3\n\n[params]\nR = 2\n")
    code, rows = _run(tmp_path, "verify", "lemma-37", "--config", str(ini))
    assert code == EXIT_OK
    assert float(rows[0]["measured"]) == pytest.approx(2.0, abs=1e-6)
    code, rows = _run(tmp_path, "verify", "lemma-37", "--config", str(ini),
                      "--R", "1")
    assert float(rows[0]["measured"]) == pytest.approx(0.5, abs=1e-6)


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


def test_bad_thread_count_from_environment_exits_config(tmp_path, monkeypatch):
    monkeypatch.setenv("BUBBLEFORGE_THREADS", "0")
    code, _ = _run(tmp_path, "verify", "lemma-37", "--R", "1")
    assert code == EXIT_CONFIG


def test_threads_default_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("BUBBLEFORGE_THREADS", "3")
    from bubbleforge.cli import _config_from_args, build_parser
    args = build_parser().parse_args(["verify", "lemma-37", "--R", "1"])
    assert _config_from_args(args).threads == 3
    monkeypatch.delenv("BUBBLEFORGE_THREADS")
    args = build_parser().parse_args(["verify", "lemma-37", "--R", "1",
                                      "--threads", "2"])
    assert _config_from_args(args).threads == 2


def test_parse_range_forms():
    assert parse_range("1,2,3") == [1.0, 2.0, 3.0]
    assert parse_range("lin:0:1:3") == [0.0, 0.5, 1.0]
    got = parse_range("log:0.01:1:3")
    assert got == pytest.approx([0.01, 0.1, 1.0])
    assert parse_range("") == []
