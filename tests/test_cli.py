import json

import numpy as np
import pytest

from qecwb.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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
