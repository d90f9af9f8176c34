import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qecwb.cli
from qecwb.cli import main

SUBCOMMANDS = ("bitflip", "ad-fidelity", "enumerate", "fig1", "appendix-a", "certify")


def run_cli_streams(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli(capsys, *argv):
    code, out, _ = run_cli_streams(capsys, *argv)
    return code, out


def run_cli_process(*argv):
    """(exit code, stdout, stderr) of a separate interpreter, so numpy warnings reach stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "qecwb.cli", *argv], env=env, capture_output=True, text=True,
        timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def csv_rows(out):
    lines = [line for line in out.strip().split("\n") if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_bitflip_table_values(capsys):
    code, out = run_cli(capsys, "bitflip", "--grid", "0,0.1,0.5,0.75", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,f_code,f_baseline,p_failure,useful,below_threshold"
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert abs(float(row["f_code"]) - 0.972) <= 1e-12
    assert abs(float(row["f_baseline"]) - 0.81) <= 1e-12
    assert float(row["useful"]) == 1.0 and float(row["below_threshold"]) == 1.0
    first = lines[1].split(",")
    assert float(first[1]) == 1.0 and float(first[2]) == 1.0
    beyond = dict(zip(lines[0].split(","), lines[4].split(",")))
    assert float(beyond["useful"]) == 1.0 and float(beyond["below_threshold"]) == 0.0
    assert any("failure_threshold = 0.5" in line for line in lines)


def test_bitflip_threshold_value(capsys):
    code, out = run_cli(capsys, "bitflip", "--grid", "0,1", "--format", "json")
    payload = json.loads(out)
    assert abs(payload["failure_threshold"] - 0.5) <= 1e-9
    assert payload["coding_useful_range"] == [0.0, 1.0]


def test_ad_fidelity_footers(capsys):
    targets = {"qec": -2.0, "cp": -1.75, "fletcher": -1.5, "fletcher-opt": -1.5}
    for recovery, c2 in targets.items():
        code, out = run_cli(capsys, "ad-fidelity", "--recovery", recovery, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["fit"]["c2"] - c2) <= 1e-2
        assert abs(payload["fit"]["c0"] - 1.0) <= 1e-6
    assert "optima" in payload  # fletcher-opt report
    entry = payload["optima"][0]
    assert abs(entry["f_star_closed"] - entry["f_star_numeric"]) <= 1e-10
    assert entry["delta"] <= 1e-10


def test_enumerate_output(capsys):
    code, out = run_cli(capsys, "enumerate", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["pairs"]) == 28
    assert payload["good_count"] == 3
    good = {tuple(p["indices"]) for p in payload["pairs"] if p["good"]}
    assert good == {(1, 6), (1, 7), (1, 8)}
    by_index = {tuple(p["indices"]): p for p in payload["pairs"]}
    assert by_index[(1, 2)]["witness"] == ["0000", "1000"]
    assert by_index[(7, 8)]["witness"] == ["0010", "0001"]


def test_fig1_values_and_ordering(capsys):
    code, out = run_cli(capsys, "fig1", "--points", "11", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    first = rows[0]
    for column in header[1:]:
        assert abs(float(first[column]) - 1.0) <= 1e-12
    last = rows[-1]
    assert abs(float(last["fletcher_series"]) - (1 - 1.5e-4)) <= 1e-15
    for row in rows[1:]:
        assert float(row["fletcher_series"]) > float(row["cp_series"]) > float(row["qec_series"])
        assert float(row["fletcher_exact"]) > float(row["cp_exact"]) > float(row["qec_exact"])


def test_appendix_a_values(capsys):
    code, out = run_cli(capsys, "appendix-a", "--gamma", "0.1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["eigenvalues"][0] - 0.81) <= 1e-12
    assert abs(payload["eigenvalues"][1] - 0.82805) <= 1e-12
    assert payload["residue_bound_ok"] is True
    corner = payload["pi_matrix"][0][0][0]
    expected = 0.1 / 2 + 0.5 * np.sqrt(0.5 * 0.9**4 + 0.5) - 0.5
    assert abs(corner - expected) <= 1e-12


def test_appendix_a_zero_damping(capsys):
    code, out = run_cli(capsys, "appendix-a", "--gamma", "0.0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    flat = np.array(payload["pi_matrix"], dtype=float)
    assert np.max(np.abs(flat)) <= 1e-12


def test_certify_passes_and_env_override(capsys, monkeypatch):
    code, out = run_cli(capsys, "certify")
    assert code == 0
    assert "overall: pass" in out
    monkeypatch.setenv("QECWB_TOL", "1e-30")
    code, out = run_cli(capsys, "certify")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("value", ["inf", "nan", "-1", "0", "abc"])
def test_invalid_tolerance_rejected(monkeypatch, value):
    monkeypatch.setenv("QECWB_TOL", value)
    with pytest.raises(SystemExit) as excinfo:
        main(["certify"])
    assert excinfo.value.code == (
        "error: QECWB_TOL must be a finite positive number, got '%s'" % value
    )


def test_deterministic_output(capsys):
    _, first = run_cli(capsys, "fig1", "--points", "7", "--format", "csv")
    _, second = run_cli(capsys, "fig1", "--points", "7", "--format", "csv")
    assert first == second
    _, first = run_cli(capsys, "enumerate", "--format", "json")
    _, second = run_cli(capsys, "enumerate", "--format", "json")
    assert first == second


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out = run_cli(capsys, "bitflip", "--grid", "0,0.5,1", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    content = target.read_text()
    assert content.startswith("p,f_code")
    assert content.endswith("\n")


def test_invalid_grid_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["bitflip", "--grid", "0.5,0.1"])
    with pytest.raises(SystemExit):
        main(["bitflip", "--grid", "0,0.5,1.5"])


@pytest.mark.parametrize(
    "argv",
    [
        ["bitflip", "--grid", "0:1:0"],
        ["bitflip", "--grid", ""],
        ["bitflip", "--grid", " "],
        ["bitflip", "--grid", "0:1"],
        ["bitflip", "--grid", "0,nan"],
        ["ad-fidelity", "--grid", "log:1e-4:1e-2:0"],
        ["ad-fidelity", "--grid", "log:1e-4:1e-2"],
        ["fig1", "--points", "0"],
        ["fig1", "--points", "-3"],
    ],
)
def test_empty_or_malformed_grid_rejected(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    message = excinfo.value.code
    assert isinstance(message, str) and message.startswith("error: ")
    assert "\n" not in message


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ad-fidelity", "--grid", "log:0:1e-2:3"], "error: log grid endpoints must be positive"),
        (["ad-fidelity", "--grid", "log:-1e-3:1e-2:3"], "error: log grid endpoints must be positive"),
        (["ad-fidelity", "--grid", "nan"], "error: grid values must be finite"),
        (["ad-fidelity", "--grid", "0.1,nan"], "error: grid values must be finite"),
        (["bitflip", "--grid=-1e308:1e308:3"], "error: grid values must be finite"),
    ],
)
def test_bad_grid_values_fail_with_one_stderr_line(argv, message):
    assert run_cli_process(*argv) == (1, "", message + "\n")


@pytest.mark.parametrize("value", ["inf", "nan", "-0.1", "1"])
def test_bad_gamma_max_fails_with_one_stderr_line(value):
    expected = (1, "", "error: --gamma-max must lie in [0, 1)\n")
    assert run_cli_process("fig1", "--gamma-max=" + value, "--points", "3") == expected


@pytest.mark.parametrize("relative, code", [("missing/table.csv", errno.ENOENT), (".", errno.EISDIR)])
def test_unwritable_out_fails_with_one_error_line(tmp_path, capsys, relative, code):
    target = tmp_path / relative
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--out", str(target)])
    assert excinfo.value.code == "error: cannot write %s: %s" % (target, os.strerror(code))
    assert capsys.readouterr().out == ""


def test_bitflip_evaluates_each_fidelity_once(capsys, monkeypatch):
    original = qecwb.cli.entanglement_fidelity
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(qecwb.cli, "entanglement_fidelity", counted)
    run_cli(capsys, "bitflip", "--format", "csv")
    # the table's 101 points, reused by the threshold scan, then the bisection
    # of the crossing in [0.5, 0.51] down to 1e-10
    assert len(calls) == 101 + int(np.ceil(np.log2(0.01 / 1e-10)))


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_and_format_runs_clean(capsys, command, fmt):
    code, out, err = run_cli_streams(capsys, command, "--format", fmt)
    assert code == 0
    assert err == ""
    assert out.endswith("\n")
    assert all(line == line.rstrip() for line in out.splitlines())
    if fmt == "json":
        json.loads(out)


@pytest.mark.parametrize(
    "argv, n_failed",
    [
        (["fig1", "--points", "3"], 5),
        (["ad-fidelity", "--recovery", "qec", "--grid", "1e-3,2e-3,5e-3"], 3),
        (["ad-fidelity", "--recovery", "fletcher", "--grid", "1e-3,2e-3,5e-3"], 3),
    ],
)
def test_failed_checks_named_on_stderr(capsys, monkeypatch, argv, n_failed):
    code, passing, err = run_cli_streams(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    monkeypatch.setenv("QECWB_TOL", "1e-30")
    code, out, err = run_cli_streams(capsys, *argv, "--format", "csv")
    assert code == 1
    assert out == passing
    lines = err.splitlines()
    assert len(lines) == n_failed
    for line in lines:
        assert line.startswith("check failed: ") and " completeness (deviation " in line


def test_bitflip_failed_checks_named_on_stderr(capsys, monkeypatch):
    argv = ("bitflip", "--grid", "0,0.5,1", "--format", "csv")
    _, passing, _ = run_cli_streams(capsys, *argv)
    # the repetition recovery is complete to exactly 0, so QECWB_TOL cannot fail
    # bitflip; a negative channel tolerance fails every trace-preservation check
    monkeypatch.setenv("QECWB_TOL", "1e-30")
    assert run_cli_streams(capsys, *argv) == (0, passing, "")
    monkeypatch.setattr(qecwb.cli, "CHANNEL_TOL", -1.0)
    code, out, err = run_cli_streams(capsys, *argv)
    assert (code, out) == (1, passing)
    lines = err.splitlines()
    assert [line.split(" (deviation ")[0] for line in lines] == [
        "check failed: bitflip(p=%s) 3-qubit trace preservation" % p for p in ("0", "0.5", "1")
    ]


def test_csv_cells_parse_back_to_json_values(capsys):
    for argv, key in (
        (["bitflip", "--grid", "0,0.1,0.5,0.75"], "rows"),
        (["ad-fidelity", "--recovery", "cp"], "rows"),
        (["fig1", "--points", "11"], "rows"),
    ):
        _, out = run_cli(capsys, *argv, "--format", "csv")
        payload = json.loads(run_cli(capsys, *argv, "--format", "json")[1])
        rows = csv_rows(out)
        assert len(rows) == len(payload[key])
        for row, expected in zip(rows, payload[key]):
            assert row.keys() == expected.keys()
            for column, value in expected.items():
                assert float(row[column]) == float(value)
    _, out = run_cli(capsys, "enumerate", "--format", "csv")
    payload = json.loads(run_cli(capsys, "enumerate", "--format", "json")[1])
    for row, expected in zip(csv_rows(out), payload["pairs"]):
        assert [float(row["i"]), float(row["j"])] == expected["indices"]
        assert row["good"] == str(expected["good"]).lower()
        if expected["slope"] is None:
            assert row["slope"] == ""
        else:
            assert float(row["slope"]) == expected["slope"]


@pytest.mark.parametrize("command", ["enumerate", "fig1", "appendix-a", "certify"])
def test_grid_only_on_sweeping_subcommands(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--grid", "0,1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --grid" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["0.9999991", "1"])
def test_appendix_a_outside_domain_rejected(gamma):
    with pytest.raises(SystemExit) as excinfo:
        main(["appendix-a", "--gamma", gamma])
    message = excinfo.value.code
    assert isinstance(message, str) and message.startswith("error: ")
    assert "\n" not in message
    assert "(1-gamma)^2 above 1e-12" in message


def test_appendix_a_domain_edge_accepted(capsys):
    # (1 - 0.999999)^2 = 1.00000000006e-12 lies inside the domain, although
    # eigvalsh puts that restricted eigenvalue just below 1e-12
    argv = ("appendix-a", "--gamma", "0.999999", "--format", "json")
    code, out, err = run_cli_streams(capsys, *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["residue_bound_ok"] is True
    lam_min, lam_max = payload["eigenvalues"]
    assert abs(lam_min - (1 - 0.999999) ** 2) <= 1e-16 and lam_max > 0.49
