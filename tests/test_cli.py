import json

import pytest

from gjmsdet.cli import main
from gjmsdet.zexpr import ZetaExpr


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_logdet_plain(capsys):
    code, out, _ = run(capsys, "logdet", "--d", "5", "--k", "2")
    assert code == 0
    assert "7/32*log2" in out
    assert "0.1046421441" in out


def test_logdet_json_roundtrip(capsys):
    code, out, _ = run(capsys, "logdet", "--d", "3", "--k", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 3 and payload["k"] == 1
    log2_terms = [t for t in payload["terms"] if t["atom"] == "log2"]
    assert log2_terms[0]["coeff"] == "1/4"
    expr = ZetaExpr.from_json_obj(payload["terms"])
    assert json.dumps(expr.to_json_obj(), separators=(",", ":")) == json.dumps(
        payload["terms"], separators=(",", ":")
    )


def test_logdet_latex(capsys):
    code, out, _ = run(capsys, "logdet", "--d", "5", "--k", "2", "--format", "latex")
    assert code == 0
    assert r"\frac{\zeta(3)}{\pi^{2}}" in out


def test_logdet_invalid_inputs_exit_2(capsys):
    for argv in (
        ["logdet", "--d", "4", "--k", "1"],
        ["logdet", "--d", "5", "--k", "3"],
        ["logdet", "--d", "5", "--k", "0"],
        ["quad", "--d", "1101", "--k", "1"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err


def test_out_of_range_flags_exit_2(capsys):
    for flag, argv in (
        ("--digits", ["logdet", "--d", "5", "--k", "2", "--digits", "0"]),
        ("--digits", ["logdet", "--d", "5", "--k", "2", "--digits", "-3"]),
        ("--digits", ["sweep", "--fixed-d", "5", "--digits", "0"]),
        ("--central", ["tables", "--central", "0"]),
        ("--f", ["tables", "--f", "-1"]),
        ("--d-norlund", ["tables", "--d-norlund", "0", "3"]),
        ("--d-norlund", ["tables", "--d-norlund", "3", "-1"]),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and flag in err, (argv, err)


def test_quad_reports_value_error_and_evals(capsys):
    code, out, _ = run(capsys, "quad", "--d", "5", "--k", "2")
    assert code == 0
    assert "0.104642144105" in out
    assert "error estimate" in out and "integrand evaluations" in out


def test_rule_abstract_and_concrete(capsys):
    code, out, _ = run(capsys, "rule", "--k", "5")
    assert code == 0
    assert "P_2(d)^5 * P_2(d-2)^20 * P_2(d-4)^21 * P_2(d-6)^8 * P_2(d-8)" in out
    code, out, _ = run(capsys, "rule", "--k", "2", "--d", "5", "--format", "latex")
    assert code == 0
    assert out.strip() == r"P_{4} \sim P_2^{2}(5)P_2(3)"


def test_crosscheck_small(capsys):
    code, out, _ = run(capsys, "crosscheck", "--d-max", "7")
    assert code == 0
    rows = [line for line in out.splitlines() if line.strip() and line.lstrip()[0].isdigit()]
    assert len(rows) == 6
    assert "OK" in out


def test_crosscheck_smallest(capsys):
    code, out, _ = run(capsys, "crosscheck", "--d-max", "3")
    assert code == 0
    rows = [line for line in out.splitlines() if line.strip() and line.lstrip()[0].isdigit()]
    assert len(rows) == 1


def test_crosscheck_unreachable_tolerance_exits_1(capsys):
    code, out, _ = run(capsys, "crosscheck", "--d-max", "3", "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_sweep_fixed_k_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--fixed-k", "2", "--d-min", "5", "--d-max", "21")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,k,logdet"
    assert len(lines) == 10
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert values[0] > 0 > values[1]


def test_sweep_single_row(capsys):
    code, out, _ = run(capsys, "sweep", "--fixed-k", "1", "--d-min", "3", "--d-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert abs(float(lines[1].split(",")[2]) - 0.1276141094) < 2e-10


def test_sweep_to_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep", "--fixed-d", "11", "--k-min", "1", "--k-max", "5",
        "--out", str(target),
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 6


def test_sweep_deterministic_output(capsys):
    _, out1, _ = run(capsys, "sweep", "--fixed-d", "9", "--k-max", "4")
    _, out2, _ = run(capsys, "sweep", "--fixed-d", "9", "--k-max", "4")
    assert out1 == out2


def test_sweep_invalid_range_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "--fixed-k", "2", "--d-min", "9", "--d-max", "5")
    assert code == 2


def test_tables_d_norlund(capsys):
    code, out, _ = run(capsys, "tables", "--d-norlund", "5", "6")
    assert code == 0
    assert "-2555/33" in out and "62451523/91" in out
    lines = [line for line in out.strip().splitlines() if line.strip()]
    assert len(lines) == 6  # header + 5 rows


def test_tables_f(capsys):
    code, out, _ = run(capsys, "tables", "--f", "9")
    assert code == 0
    assert "f_0 = 1/2" in out
    assert "0.08321740589" in out or "0.0832174059" in out


def test_tables_central(capsys):
    code, out, _ = run(capsys, "tables", "--central", "7", "--format", "csv")
    assert code == 0
    assert "3,1,-1/4" in out
    assert "7,7,1" in out


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GJMSDET_DIGITS", "25")
    code, out, _ = run(capsys, "logdet", "--d", "5", "--k", "2", "--digits", "20")
    assert code == 0
    assert "0.1046421441058079165" in out


def test_env_digits_below_floor_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("GJMSDET_DIGITS", "5")
    code, _, err = run(capsys, "logdet", "--d", "5", "--k", "2")
    assert code == 2
