import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gjmsdet import cli, quadrature
from gjmsdet.cli import main
from gjmsdet.quadrature import QuadratureConfig
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
        ("--digits", ["logdet", "--d", "5", "--k", "2", "--digits", "90"]),
        ("--digits", ["logdet", "--d", "5", "--k", "2", "--digits", "51"]),
        ("--digits", ["sweep", "--fixed-d", "5", "--digits", "80"]),
        ("--central", ["tables", "--central", "0"]),
        ("--f", ["tables", "--f", "-1"]),
        ("--d-norlund", ["tables", "--d-norlund", "0", "3"]),
        ("--d-norlund", ["tables", "--d-norlund", "3", "-1"]),
        ("--tol", ["crosscheck", "--d-max", "3", "--tol", "-1"]),
        ("--tol", ["crosscheck", "--d-max", "3", "--tol", "nan"]),
        ("--tol", ["crosscheck", "--d-max", "3", "--tol", "inf"]),
        ("abs_tol", ["quad", "--d", "5", "--k", "2", "--tol", "nan"]),
        ("abs_tol", ["quad", "--d", "5", "--k", "2", "--tol", "inf"]),
        ("--k", ["rule", "--k", "0"]),
        ("--fixed-k", ["sweep", "--fixed-k", "0", "--d-max", "5"]),
        ("--k-min", ["sweep", "--fixed-d", "5", "--k-min", "0"]),
        ("--k-max", ["sweep", "--fixed-d", "9", "--k-min", "3", "--k-max", "2"]),
        ("--d-max", ["sweep", "--fixed-d", "5", "--d-max", "99"]),
        ("--d-min", ["sweep", "--fixed-d", "5", "--d-min", "3"]),
        ("--k-max", ["sweep", "--fixed-k", "1", "--d-max", "7", "--k-max", "9"]),
        ("--k-min", ["sweep", "--fixed-k", "1", "--d-max", "7", "--k-min", "1"]),
        ("--d-max is required", ["sweep", "--fixed-k", "1", "--d-min", "3"]),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and flag in err, (argv, err)


def test_unwritable_out_exits_2(capsys, tmp_path):
    # a directory or a missing parent is bad input (exit 2), not a traceback
    for argv in (
        ["sweep", "--fixed-d", "5", "--out", str(tmp_path)],
        ["tables", "--f", "3", "--out", str(tmp_path / "missing" / "x.txt")],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: --out: "), (argv, err)
    assert list(tmp_path.iterdir()) == []


def test_logdet_prints_coefficients_past_int_str_limit(capsys, monkeypatch):
    # from d = 1667 exact coefficients exceed Python's default 4300-digit
    # int-to-str limit; the CLI prints them and restores the limit after
    coeff = 10**5000
    monkeypatch.setattr(cli, "logdet_gjms", lambda d, k: ZetaExpr.log2(coeff))
    before = getattr(sys, "get_int_max_str_digits", lambda: None)()
    digits = "1" + "0" * 5000
    for fmt, expected in (
        ("plain", f"= {digits}*log2\n"),
        ("latex", f"{digits}\\,\\log 2\n"),
        ("json", f'"coeff":"{digits}/1"'),
    ):
        code, out, err = run(capsys, "logdet", "--d", "2001", "--k", "1", "--format", fmt)
        assert code == 0, err
        assert expected in out, fmt
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == before


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
    summary = out.splitlines()[-1]
    assert summary.startswith("OK: max deviation ")
    assert ", max relative deviation " in summary


def test_crosscheck_smallest(capsys):
    code, out, _ = run(capsys, "crosscheck", "--d-max", "3")
    assert code == 0
    rows = [line for line in out.splitlines() if line.strip() and line.lstrip()[0].isdigit()]
    assert len(rows) == 1


def test_crosscheck_past_float64_limit_fails_before_any_row(capsys, monkeypatch):
    # the limit lowered so that a regression prints a few rows, not hours' worth
    monkeypatch.setattr(quadrature, "D_MAX_FLOAT64", 7)
    code, out, err = run(capsys, "crosscheck", "--d-max", "9")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --d-max") and "d <= 7, got d=9" in err
    assert err.count("\n") == 1


def test_crosscheck_runs_each_quadrature_once(capsys, monkeypatch):
    # O(K) quadratures per dimension: the factor integrals j < k are summed
    # cumulatively, not re-integrated for every k
    mains, factors = [], []
    main_q, factor_q = cli.logdet_quadrature_result, cli.logdet_factor_quadrature

    def counted_main(d, k, cfg):
        mains.append((d, k))
        return main_q(d, k, cfg)

    def counted_factor(d, j, cfg):
        factors.append((d, j))
        return factor_q(d, j, cfg)

    monkeypatch.setattr(cli, "logdet_quadrature_result", counted_main)
    monkeypatch.setattr(cli, "logdet_factor_quadrature", counted_factor)
    code, out, _ = run(capsys, "crosscheck", "--d-max", "15")
    assert code == 0
    pairs = [(d, k) for d in range(3, 16, 2) for k in range(1, (d - 1) // 2 + 1)]
    assert sorted(mains) == pairs
    assert sorted(factors) == [(d, k - 1) for d, k in pairs]
    rows = out.splitlines()[1:-1]
    assert len(rows) == len(pairs)
    for (d, k), row in zip(pairs, rows):
        fields = row.split()
        assert (int(fields[0]), int(fields[1])) == (d, k)
        want = sum(factor_q(d, j, QuadratureConfig()) for j in range(k))
        assert fields[5] == f"{want:.12e}", (d, k)


def test_crosscheck_unreachable_tolerance_exits_1(capsys):
    code, out, _ = run(capsys, "crosscheck", "--d-max", "3", "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_crosscheck_relative_gate_catches_small_absolute_skew(capsys, monkeypatch):
    # 5e-10 passes the absolute 1e-9 gate but is far above 1e-10 of every
    # value at d = 15
    main_q = cli.logdet_quadrature_result

    def skewed(*args):
        res = main_q(*args)
        return dataclasses.replace(res, value=res.value + 5e-10)

    monkeypatch.setattr(cli, "logdet_quadrature_result", skewed)
    code, out, _ = run(capsys, "crosscheck", "--d-max", "15")
    assert code == 1
    summary = out.splitlines()[-1]
    assert summary.startswith("FAIL: max deviation ")
    assert "within tolerance 1.00e-09" in summary
    assert summary.endswith("exceeds tolerance 1.00e-10")


def test_crosscheck_evaluates_product_only_when_it_differs(capsys, monkeypatch):
    calls = []
    evaluate = cli.evaluate

    def counted(expr, ctx):
        calls.append(expr)
        return evaluate(expr, ctx)

    monkeypatch.setattr(cli, "evaluate", counted)
    code, same, _ = run(capsys, "crosscheck", "--d-max", "27")
    assert code == 0
    rows = same.splitlines()[1:-1]
    assert len(calls) == len(rows)  # the equal product reuses the closed form

    # 2^-64 log 2 is 2.2e-10 of |log det P_2(27)|: only the relative gate sees it
    product = cli.logdet_via_product
    bump = ZetaExpr.log2(Fraction(1, 2**64))
    monkeypatch.setattr(cli, "logdet_via_product", lambda d, k: product(d, k) + bump)
    calls.clear()
    code, bumped, _ = run(capsys, "crosscheck", "--d-max", "27")
    assert code == 1
    assert len(calls) == 2 * len(rows)
    bumped_rows = bumped.splitlines()[1:-1]
    assert [r.split()[4] for r in rows] != [r.split()[4] for r in bumped_rows]
    for row, bumped_row in zip(rows, bumped_rows):
        assert row.split()[:4] == bumped_row.split()[:4]


def test_closed_pipe_exits_141_without_traceback():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gjmsdet.cli", "quad", "--d", "9", "--k", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader leaves before the command writes
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err


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


def test_digits_past_working_precision_name_both_settings(capsys, monkeypatch):
    # digits past the working precision would be printed unchecked
    code, _, err = run(capsys, "logdet", "--d", "5", "--k", "2", "--digits", "90")
    assert code == 2
    assert "--digits" in err and "GJMSDET_DIGITS=50" in err
    code, out, _ = run(capsys, "logdet", "--d", "5", "--k", "2", "--digits", "50")
    assert code == 0 and "~ 0.10464214410580791" in out
    monkeypatch.setenv("GJMSDET_DIGITS", "100")
    code, out100, _ = run(capsys, "logdet", "--d", "5", "--k", "2", "--digits", "90")
    assert code == 0
    monkeypatch.setenv("GJMSDET_DIGITS", "150")
    _, out150, _ = run(capsys, "logdet", "--d", "5", "--k", "2", "--digits", "90")
    assert out100 == out150  # all 90 digits checked (nstr drops a trailing 0)
    assert len(out100.splitlines()[1].split("~ 0.")[1]) >= 85


def test_env_digits_below_floor_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("GJMSDET_DIGITS", "5")
    code, _, err = run(capsys, "logdet", "--d", "5", "--k", "2")
    assert code == 2


def test_invalid_env_digits_name_the_variable(capsys, monkeypatch):
    for raw in ("abc", "1e9", "14"):
        monkeypatch.setenv("GJMSDET_DIGITS", raw)
        for argv in (
            ["logdet", "--d", "5", "--k", "2"],
            ["sweep", "--fixed-k", "2", "--d-max", "9"],
            ["crosscheck", "--d-max", "3"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err == f"error: GJMSDET_DIGITS must be an integer >= 15, got {raw!r}\n"


def test_reused_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    sequence = (
        ("logdet", "--d", "5", "--k", "2", "--digits", "20"),
        ("logdet", "--d", "5", "--k", "2"),
        ("logdet", "--d", "4", "--k", "1"),
        ("sweep", "--fixed-k", "2", "--d-min", "5", "--d-max", "9"),
        ("tables", "--f", "3"),
        ("tables", "--central", "5"),
    )
    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", None)  # a newly built parser
        fresh.append(run(capsys, *argv))
    monkeypatch.setattr(cli, "_PARSER", None)
    shared = [run(capsys, *sequence[0])]
    parser = cli._PARSER
    for argv in sequence[1:]:
        shared.append(run(capsys, *argv))
        assert cli._PARSER is parser  # built once, then reused
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0]
    assert shared[1][1].splitlines()[1] == "  ~ 0.1046421441"  # default 10 digits
    assert "t(5,5)=1" in shared[5][1] and "f_" not in shared[5][1]
