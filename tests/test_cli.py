import dataclasses
import errno
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjmsdet import cli, closed_form, product_rules, quadrature
from gjmsdet.closed_form import evaluate, logdet_gjms
from gjmsdet.cli import main
from gjmsdet.quadrature import QuadratureConfig
from gjmsdet.zexpr import ZetaExpr


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("d, k, digits", [(3, 1, 10), (5, 2, 10), (9, 4, 1), (41, 7, 30), (61, 30, 50)])
def test_logdet_json_is_the_payload_json_dumps_gives(capsys, d, k, digits):
    # the terms are written into the payload as to_json wrote them; the
    # bytes are those of encoding the whole payload at once
    code, out, _ = run(capsys, "logdet", "--d", str(d), "--k", str(k), "--format", "json",
                       "--digits", str(digits))
    assert code == 0
    expr = logdet_gjms(d, k)
    payload = {"d": d, "k": k, "terms": expr.to_json_obj(),
               "value": mp.nstr(evaluate(expr), digits)}
    assert out == json.dumps(payload, separators=(",", ":")) + "\n"
    assert json.loads(out) == payload
    assert ZetaExpr.from_json_obj(json.loads(out)["terms"]) == expr


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
        ("--format", ["tables", "--central", "5", "--format", "latex"]),
        ("--f", ["tables", "--f", "-1"]),
        ("--d-norlund", ["tables", "--d-norlund", "0", "3"]),
        ("--d-norlund", ["tables", "--d-norlund", "3", "-1"]),
        ("--tol", ["crosscheck", "--d-max", "3", "--tol", "-1"]),
        ("--tol", ["crosscheck", "--d-max", "3", "--tol", "nan"]),
        ("--tol", ["crosscheck", "--d-max", "3", "--tol", "inf"]),
        ("--tol must be", ["quad", "--d", "5", "--k", "2", "--tol", "nan"]),
        ("--tol must be", ["quad", "--d", "5", "--k", "2", "--tol", "inf"]),
        ("--tol must be", ["quad", "--d", "5", "--k", "2", "--tol", "0"]),
        ("--tol must be", ["quad", "--d", "5", "--k", "2", "--tol", "-1"]),
        ("--k", ["rule", "--k", "0"]),
        ("--fixed-d", ["sweep", "--fixed-d", "1"]),
        ("--fixed-d", ["sweep", "--fixed-d", "-3"]),
        ("--fixed-k", ["sweep", "--fixed-k", "0", "--d-max", "5"]),
        ("--k-min", ["sweep", "--fixed-d", "5", "--k-min", "0"]),
        ("--k-max", ["sweep", "--fixed-d", "9", "--k-min", "3", "--k-max", "2"]),
        ("--d-max", ["sweep", "--fixed-d", "5", "--d-max", "99"]),
        ("--d-min", ["sweep", "--fixed-d", "5", "--d-min", "3"]),
        ("--k-max", ["sweep", "--fixed-k", "1", "--d-max", "7", "--k-max", "9"]),
        ("--k-min", ["sweep", "--fixed-k", "1", "--d-max", "7", "--k-min", "1"]),
        ("--d-max is required", ["sweep", "--fixed-k", "1", "--d-min", "3"]),
        ("--d-max must be >= 2k+1 = 7", ["sweep", "--fixed-k", "3", "--d-max", "5"]),
        ("--d-min must be >= 2k+1 = 7 with --fixed-k 3, got 3",
         ["sweep", "--fixed-k", "3", "--d-min", "3", "--d-max", "9"]),
        ("--k-max must be <= (d-1)/2 = 3 with --fixed-d 7, got 9",
         ["sweep", "--fixed-d", "7", "--k-max", "9"]),
        ("--k-min must be <= (d-1)/2 = 3 with --fixed-d 7, got 5",
         ["sweep", "--fixed-d", "7", "--k-min", "5"]),
        ("--d-max", ["crosscheck", "--d-max", "4"]),
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_out_write_exits_2(capsys):
    # the file opens, and its write fails: bad input (exit 2), as a failed open
    code, out, err = run(capsys, "sweep", "--fixed-d", "5", "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err == f"error: --out: {os.strerror(errno.ENOSPC)}: /dev/full\n"


@pytest.mark.skipif(not os.path.exists("/proc/self/fd"), reason="needs /proc")
def test_out_to_a_closed_pipe_exits_141():
    # --out names a pipe whose reader has left: a broken pipe, as on stdout
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gjmsdet.cli", "sweep", "--fixed-d", "5",
             "--out", f"/proc/self/fd/{write_end}"],
            pass_fds=(write_end,), capture_output=True, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stdout, proc.stderr) == (141, "", "")


@pytest.mark.parametrize("argv", [
    ["sweep", "--fixed-k", "1", "--d-max", "9", "--out", ""],
    ["tables", "--f", "3", "--out", ""],
])
def test_empty_out_path_fails_like_any_unopenable_path(capsys, argv):
    # an empty --out is a path that cannot be opened, not "no --out"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --out: ") and err.count("\n") == 1, err


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


def test_crosscheck_recomputes_no_record_under_the_bounded_cache(capsys, monkeypatch):
    # each dimension's records come from one pass of _logdet_column, read
    # once, so none is built twice and logdet_gjms's bounded cache (D_MAX_FLOAT64
    # + 1 records, fewer than the 1,275 rows of --d-max 101) is never touched
    cached = closed_form.logdet_gjms
    assert cached.cache_info().maxsize == quadrature.D_MAX_FLOAT64 + 1
    passes, records = [], []
    column = cli._logdet_column

    def counted(d):
        passes.append(d)
        for expr in column(d):
            records.append((d, expr))
            yield expr

    monkeypatch.setattr(cli, "_logdet_column", counted)
    cached.cache_clear()
    code, out, _ = run(capsys, "crosscheck", "--d-max", "101")
    info = cached.cache_info()
    assert code == 0 and (info.hits, info.misses, info.currsize) == (0, 0, 0)
    assert passes == list(range(3, 102, 2))
    assert [d for d, _ in records] == [d for d in passes for _ in range((d - 1) // 2)]
    assert len(records) == 1275
    # the output is that of a run whose closed column is built per row
    monkeypatch.setattr(cli, "_logdet_column",
                        lambda d: (logdet_gjms(d, k) for k in range(1, (d - 1) // 2 + 1)))
    assert run(capsys, "crosscheck", "--d-max", "101") == (0, out, "")
    cached.cache_clear()


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
    quadrature._sphere.cache_clear()
    code, out, _ = run(capsys, "crosscheck", "--d-max", "15")
    assert code == 0
    # and one batched integration per sphere d = 3, 5, ..., 15 feeds them all
    assert quadrature._sphere.cache_info().misses == 7
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
    # to d = 5: at d = 3 the four routes agree to the last bit
    code, out, _ = run(capsys, "crosscheck", "--d-max", "5", "--tol", "1e-30")
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


def bump_product_sums(step, only_d=None):
    """cli._step_sum with 2^-64 log 2 added to every product-route sum, or
    only to those of dimension only_d; below holds the (d-3)/2 records of
    column d - 2."""
    bump = ZetaExpr.log2(Fraction(1, 2**64))

    def sum_plus_bump(below, column):
        fields = step(below, column)
        if only_d is not None and 2 * len(below) + 3 != only_d:
            return fields
        record = ZetaExpr(*fields) + bump
        return record.pi_pow, record.den, record.nums

    return sum_plus_bump


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
    assert len(calls) == len(rows) == 91  # the equal product reuses the closed form

    # 2^-64 log 2 is 2.2e-10 of |log det P_2(27)|: only the relative gate sees it
    monkeypatch.setattr(cli, "_step_sum", bump_product_sums(cli._step_sum))
    calls.clear()
    code, bumped, _ = run(capsys, "crosscheck", "--d-max", "27")
    assert code == 1
    assert len(calls) == 91 + 78  # once more for each row with k >= 2
    bumped_rows = bumped.splitlines()[1:-1]
    assert [r.split()[4] for r in rows] != [r.split()[4] for r in bumped_rows]
    for row, bumped_row in zip(rows, bumped_rows):
        assert row.split()[:4] == bumped_row.split()[:4]


def test_crosscheck_builds_the_product_route_by_its_recurrence(capsys, monkeypatch):
    # O(1) vector operations per row: never the binomial sum of k records,
    # at most one weighted sum of at most three records
    def refused(d, k):
        raise AssertionError(f"logdet_via_product({d}, {k}) called")

    for module in (cli, product_rules):
        monkeypatch.setattr(module, "logdet_via_product", refused)
    sizes = []
    int_sum = ZetaExpr._int_sum

    def counted(pairs):
        pairs = list(pairs)
        sizes.append(len(pairs))
        return int_sum(pairs)

    monkeypatch.setattr(ZetaExpr, "_int_sum", staticmethod(counted))
    reads = []  # the product route reads no record through product_rules
    closed = product_rules.logdet_gjms
    monkeypatch.setattr(product_rules, "logdet_gjms", lambda d, k: reads.append((d, k)) or closed(d, k))
    firsts = {}  # each pass's k = 1 record, by dimension
    column = cli._logdet_column

    def first_kept(d):
        records = column(d)
        firsts[d] = next(records)
        yield firsts[d]
        yield from records

    monkeypatch.setattr(cli, "_logdet_column", first_kept)
    seeds = {}  # each column's k = 1 product record, by dimension
    step = cli._step_sum

    def seen(below, column):
        seeds[2 * len(below) + 3] = column[0]
        return step(below, column)

    monkeypatch.setattr(cli, "_step_sum", seen)
    code, out, _ = run(capsys, "crosscheck", "--d-max", "27")
    rows = out.splitlines()[1:-1]
    assert code == 0 and out.splitlines()[-1].startswith("OK:")
    assert 0 < len(sizes) <= len(rows) and max(sizes) <= 3
    assert reads == []
    # the seed is the row's own closed-form object from the pass, not a copy
    assert sorted(seeds) == list(range(5, 28, 2))
    assert all(seed is firsts[d] and seed == logdet_gjms(d, 1) for d, seed in seeds.items())


def test_crosscheck_chains_the_product_route_on_its_own_records(capsys, monkeypatch):
    # a bump in the product record (5, 2) alone reaches the top row
    # (d, (d-1)/2) of every later column, which the recurrence builds from the
    # top row of the column below, and no other row
    monkeypatch.setattr(cli, "_step_sum", bump_product_sums(cli._step_sum, only_d=5))
    code, out, _ = run(capsys, "crosscheck", "--d-max", "11")
    assert code == 1
    assert out.splitlines()[-1].startswith("FAIL: product route differs from the closed form in 4 rows, ")


def test_crosscheck_fails_when_product_expression_differs(capsys, monkeypatch):
    # 2^-64 log 2 is far below both numeric gates at d <= 11, also where the
    # recurrence has compounded it; only the exact comparison of the product
    # route sees it
    monkeypatch.setattr(cli, "_step_sum", bump_product_sums(cli._step_sum))
    code, out, _ = run(capsys, "crosscheck", "--d-max", "11")
    assert code == 1
    summary = out.splitlines()[-1]
    # every row with k >= 2: 15 rows less the five k = 1 seeds
    assert summary.startswith(
        "FAIL: product route differs from the closed form in 10 rows, max deviation "
    )
    assert "exceeds" not in summary  # the numeric gates alone would pass


def test_agreeing_crosscheck_builds_no_product_record(capsys, monkeypatch):
    # the product route's sums are compared with the closed form as integers:
    # with the closed column supplied ready-made, an agreeing run builds no
    # ZetaExpr
    monkeypatch.delenv(cli.DIGITS_ENV, raising=False)
    columns = {d: list(closed_form._logdet_column(d)) for d in range(3, 28, 2)}
    monkeypatch.setattr(cli, "_logdet_column", lambda d: iter(columns[d]))
    built = []
    canonical = ZetaExpr.__post_init__

    def counted(self):
        built.append(self)
        canonical(self)

    monkeypatch.setattr(ZetaExpr, "__post_init__", counted)
    code, out, _ = run(capsys, "crosscheck", "--d-max", "27")
    assert code == 0 and out.splitlines()[-1].startswith("OK:")
    assert built == []


def test_crosscheck_fails_when_the_closed_column_differs(capsys, monkeypatch):
    # the closed column and the product route's sums (k >= 2) come from
    # different code: a bump of 2^-64 log 2 in the one record (7, 2) the pass
    # yields differs from the product route in that row alone (the product
    # column goes on from its own record), far below both numeric gates
    bump = ZetaExpr.log2(Fraction(1, 2**64))
    column = cli._logdet_column

    def bumped(d):
        for k, expr in enumerate(column(d), 1):
            yield expr + bump if (d, k) == (7, 2) else expr

    monkeypatch.setattr(cli, "_logdet_column", bumped)
    code, out, _ = run(capsys, "crosscheck", "--d-max", "11")
    assert code == 1
    summary = out.splitlines()[-1]
    assert summary.startswith(
        "FAIL: product route differs from the closed form in 1 rows, max deviation "
    )
    assert "exceeds" not in summary


def test_crosscheck_exact_columns_are_the_closed_form_value(capsys, monkeypatch):
    # the closed_form and product columns come from the exact core alone and
    # read the same on every platform; only the quadrature columns use libm
    monkeypatch.delenv(cli.DIGITS_ENV, raising=False)
    code, out, _ = run(capsys, "crosscheck", "--d-max", "41")
    assert code == 0
    rows = [row.split() for row in out.splitlines()[1:-1]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [
        (d, k) for d in range(3, 42, 2) for k in range(1, (d - 1) // 2 + 1)]
    for d, k, closed, _, prod, *_ in rows:
        want = f"{float(evaluate(logdet_gjms(int(d), int(k)))):.12e}"
        assert closed == want and prod == want, (d, k)


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_stdout_write_exits_2_without_traceback():
    # a full device fails the write; that is exit 2, not 1 (a disagreement).
    # argparse writes -h's help itself: buffered, its write fails at the
    # interpreter's last flush; unbuffered, argparse drops the failure
    src = Path(cli.__file__).resolve().parents[1]
    for argv in (["logdet", "--d", "5", "--k", "2"], ["-h"], ["logdet", "-h"]):
        for unbuffered in ("", "1"):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, "-m", "gjmsdet.cli", *argv],
                    stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
                )
            assert proc.returncode == 2, (argv, unbuffered, proc.stderr)
            assert "Traceback" not in proc.stderr, proc.stderr
            assert proc.stderr == f"error: standard output: {os.strerror(errno.ENOSPC)}\n", (
                argv, unbuffered, proc.stderr)


def test_import_leaves_scipy_out():
    # scipy is a test-only dependency; importing it would cost every command
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, gjmsdet, gjmsdet.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout == "[]\n"


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


# SHA-256 of `tables --d-norlund 40 40` in each format, pinned from the
# output of the Bernoulli composition recursion
D_NORLUND_40_SHA256 = {
    "plain": "97aefd2ada63e8d7c4ff1c25fe8f82715c8d148f03a65a6598c281adf75707c9",
    "latex": "4447286fa29a392844e8265f086a91b45dd1c62f6aa364f51008194b5898bc70",
    "csv": "f5348e62c43e7e8556d27fd60937f4af3dc84227bf5495d1dbebcf651747e637",
}


@pytest.mark.parametrize("fmt", sorted(D_NORLUND_40_SHA256))
def test_tables_d_norlund_40_bytes_are_pinned(capsys, fmt):
    code, out, _ = run(capsys, "tables", "--d-norlund", "40", "40", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == D_NORLUND_40_SHA256[fmt]


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


PINNED = {
    "tables --d-norlund 3 3": """\
m\\k         0        1        2        3
  1         1     -1/3     7/15   -31/21
  2         1     -2/3      8/5  -160/21
  3         1       -1     17/5  -457/21
""",
    "tables --d-norlund 3 3 --format csv": """\
m,k=0,k=1,k=2,k=3
1,1,-1/3,7/15,-31/21
2,1,-2/3,8/5,-160/21
3,1,-1,17/5,-457/21
""",
    "tables --d-norlund 3 3 --format latex": r"""$m=1$ & $1$ & $-\frac{1}{3}$ & $\frac{7}{15}$ & $-\frac{31}{21}$ \\
$m=2$ & $1$ & $-\frac{2}{3}$ & $\frac{8}{5}$ & $-\frac{160}{21}$ \\
$m=3$ & $1$ & $-1$ & $\frac{17}{5}$ & $-\frac{457}{21}$ \\
""",
    "tables --f 3": """\
f_0 = 1/2 ~ 0.5
f_1 = log2*pi^-1 ~ 0.2206356002
f_2 = 1/6 ~ 0.1666666667
f_3 = 1/2*log2*pi^-1 + 3/4*zeta(3)*pi^-3 ~ 0.1393939348
""",
    "tables --f 3 --format csv": """\
m,exact,value
0,1/2,0.5
1,log2*pi^-1,0.2206356002
2,1/6,0.1666666667
3,1/2*log2*pi^-1 + 3/4*zeta(3)*pi^-3,0.1393939348
""",
    # log 2 over pi as a fraction: \log 2\pi^{-1} would read as log(2/pi)
    "tables --f 3 --format latex": r"""f_0 = \frac{1}{2} ~ 0.5
f_1 = \frac{\log 2}{\pi} ~ 0.2206356002
f_2 = \frac{1}{6} ~ 0.1666666667
f_3 = \frac{1}{2}\,\frac{\log 2}{\pi}+\frac{3}{4}\,\frac{\zeta(3)}{\pi^{3}} ~ 0.1393939348
""",
    "tables --central 5": """\
t(1,1)=1
t(3,1)=-1/4  t(3,3)=1
t(5,1)=9/16  t(5,3)=-5/2  t(5,5)=1
""",
    "tables --central 5 --format csv": """\
n,k,"t(n,k)"
1,1,1
3,1,-1/4
3,3,1
5,1,9/16
5,3,-5/2
5,5,1
""",
    "tables --central 5 --format latex": None,  # no LaTeX form: exit 2
    "sweep --fixed-d 7": """\
d,k,logdet
7,1,0.00159466155346957
7,2,-0.0082966596163551
7,3,0.0864541633196281
""",
    "sweep --fixed-k 2 --d-max 11": """\
d,k,logdet
5,2,0.104642144105808
7,2,-0.0082966596163551
9,2,0.00107018125734087
11,2,-0.000167620087374777
""",
}


@pytest.mark.parametrize("argv", PINNED)
def test_tables_and_sweep_print_pinned_text(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    expected = PINNED[argv]
    if expected is None:
        assert (code, out) == (2, "") and err.startswith("error: --format latex"), err
    else:
        assert (code, out, err) == (0, expected, "")


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GJMSDET_DIGITS", "25")
    code, out, _ = run(capsys, "logdet", "--d", "5", "--k", "2", "--digits", "20")
    assert code == 0
    assert "0.1046421441058079165" in out


@pytest.mark.parametrize("raw", [None, ""])
def test_precision_without_the_variable_is_the_one_default_context(monkeypatch, raw):
    # unset or empty, no context is built per command: the library's default
    if raw is None:
        monkeypatch.delenv("GJMSDET_DIGITS", raising=False)
    else:
        monkeypatch.setenv("GJMSDET_DIGITS", raw)
    assert cli._precision() is closed_form._DEFAULT_CONTEXT
    assert closed_form._DEFAULT_CONTEXT == closed_form.PrecisionContext()


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


def test_tables_that_evaluate_nothing_ignore_env_digits(capsys, monkeypatch):
    # only --f evaluates, so only --f reads (and rejects) GJMSDET_DIGITS
    argvs = (["tables", "--central", "3"], ["tables", "--d-norlund", "3", "3"])
    monkeypatch.delenv("GJMSDET_DIGITS", raising=False)
    unset = [run(capsys, *argv) for argv in argvs]
    monkeypatch.setenv("GJMSDET_DIGITS", "abc")
    assert [run(capsys, *argv) for argv in argvs] == unset
    assert all(code == 0 and out for code, out, _ in unset)
    assert run(capsys, "tables", "--f", "3") == (
        2, "", "error: GJMSDET_DIGITS must be an integer >= 15, got 'abc'\n")


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


def run_to_exit(capsys, call, argv):
    """Exit code, stdout and stderr of ``call(argv)``, through ``SystemExit``."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["logdet", "-h"],
    "logdet --d x --k 2".split(),
    "logdet --k 2".split(),
    "logdet --d 5 --k 2 --bogus".split(),
    "logdet --bogus --d 5 --k 2".split(),
    "logdet --d 5 --k 2 extra1 extra2".split(),
    "sweep --fixed-d 5 --fixed-k 1".split(),
    "tables --d-norlund 3".split(),
    "rule --k 1 --format json".split(),
    "quad --d 5 --k 2 --tol -1e-9".split(),
    "logdet --d 5 --k 2 --format yaml".split(),
    "logdet --d 5 --k".split(),
])
def test_subcommand_dispatch_prints_what_the_full_parser_prints(capsys, argv):
    # every argv the plain parse declines goes to the full parser, whose
    # usage and error lines main prints unchanged
    full = run_to_exit(capsys, lambda a: cli.build_parser().parse_args(a), argv)
    assert run_to_exit(capsys, main, argv) == full
    assert full[0] in (0, 2) and (full[1] or full[2])


@pytest.mark.parametrize("argv", [
    "logdet --d 5 --k 2",
    "quad --d 5 --k 2",
    "rule --k 3",
    "crosscheck --d-max 5",
    "sweep --fixed-d 9",
    "tables --central 7",
])
def test_unrecognized_argument_is_reported_by_the_top_level_parser(capsys, argv):
    # a valid argv plus an unknown flag: the plain parse declines it, and
    # argparse rejects it with the top-level usage, before any command runs
    code, out, err = run_to_exit(capsys, main, argv.split() + ["--bogus", "1"])
    lines = err.splitlines()
    assert (code, out) == (2, "")
    assert lines[0] == "usage: gjmsdet [-h] {logdet,quad,rule,crosscheck,sweep,tables} ..."
    assert lines[-1] == "gjmsdet: error: unrecognized arguments: --bogus 1"


def test_subcommand_dispatch_parses_valid_argvs_as_the_full_parser(capsys):
    argv = "logdet --form json --d=5 --k=2".split()  # abbreviated flag, '=' values
    args = cli.build_parser().parse_args(argv)
    full = run_to_exit(capsys, args.func, args)
    assert run_to_exit(capsys, main, argv) == full
    assert run_to_exit(capsys, main, "logdet --d 5 --k 2 --format json".split()) == full
    assert full[0] == 0 and json.loads(full[1])["d"] == 5
    # a repeated flag keeps its last value, as argparse does
    for argv, last in (
        ("logdet --d 7 --d 5 --k 2", "logdet --d 5 --k 2"),
        ("sweep --fixed-k 1 --fixed-k 2 --d-max 9", "sweep --fixed-k 2 --d-max 9"),
    ):
        args = cli.build_parser().parse_args(argv.split())
        full = run_to_exit(capsys, args.func, args)
        assert run_to_exit(capsys, main, argv.split()) == full
        assert run_to_exit(capsys, main, last.split()) == full
        assert full[0] == 0 and full[1]
    # a negative value parses; the command's own check rejects it
    argv = "logdet --d -5 --k 2".split()
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ValueError) as exc:
        args.func(args)
    assert run_to_exit(capsys, main, argv) == (2, "", f"error: {exc.value}\n")


SUBPARSERS = cli.build_parser()._commands


def namespace_fields(ns):
    # names, types and reprs: two nan values are the same parse but not equal
    return [(name, type(value), repr(value)) for name, value in vars(ns).items()]


def argvs(sub):
    """Argvs for one subcommand: its option strings and their prefixes,
    --flag=value forms, and values of every kind the flags meet; one shape
    gives each option taking a value at most once, mostly with a value its
    type converts."""
    options = sorted(sub._option_string_actions)
    prefixes = sorted({o[:i] for o in options for i in range(1, len(o))} - set(options))
    choices = sorted({c for a in sub._actions if a.choices for c in a.choices})
    values = st.one_of(
        st.sampled_from(["", "x", "yaml", "csv", "3", "07", " 9", "1_1", "5.0", "1e-9", "-1e-9",
                         "-5", "nan", "inf", "-", "--", "-h", *choices]),
        st.integers(-20, 80).map(str),
        st.text(max_size=3),
    )
    flags = st.sampled_from(options) | st.sampled_from(prefixes) | st.builds(
        "{}={}".format, st.sampled_from(options), values)

    def pair(option):
        action = sub._option_string_actions[option]
        if action.choices:
            typed = st.sampled_from(sorted(action.choices))
        elif action.type in (int, float):
            typed = st.integers(0, 80).map(str)
        else:
            typed = st.text(max_size=3)
        return st.tuples(st.just(option), st.one_of(typed, typed, values))

    takes_values = [o for o in options if sub._option_string_actions[o].nargs != 0]
    pairs = st.permutations(takes_values).flatmap(
        lambda order: st.tuples(*(st.just(()) | pair(o) for o in order))
    ).map(lambda ps: [token for p in ps for token in p])
    return pairs | st.lists(flags | values, max_size=8)


@pytest.mark.parametrize("command", sorted(SUBPARSERS))
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_plain_parse_is_the_namespace_argparse_builds(command, data):
    # wherever the plain parse takes an argv, argparse takes it too, with
    # no extras and no output, and builds the same namespace
    sub = SUBPARSERS[command]
    argv = data.draw(argvs(sub))
    given_argv = list(argv)
    ns = sub._parse_plain(given_argv)
    assert given_argv == argv
    if ns is not None:
        full, extra = sub.parse_known_args(argv)
        assert extra == []
        assert namespace_fields(ns) == namespace_fields(full)


@pytest.mark.parametrize("argv, taken", [
    ("logdet --d 5 --k 2", True),
    ("logdet --k 2 --digits 20 --d 5 --format latex", True),
    ("quad --d 5 --k 2 --tol nan", True),
    ("rule --k 3", True),
    ("crosscheck --d-max 41", True),
    # a parser with a mutually exclusive group is left to argparse
    ("sweep --fixed-k 1 --d-max 9 --out ''", False),
    ("tables --central 7 --format csv", False),
    ("logdet --d 5 --k", False),  # not whole pairs
    ("logdet --d 5 --k 2 extra", False),
    ("logdet --d 5 --k 2 -h 1", False),  # not a single-value store option
    ("logdet --d 5 --kk 2", False),
    ("logdet --d 5 --form json --k 2", False),  # abbreviation
    ("logdet --d=5 --k 2 --format json", False),
    ("tables --d-norlund 3 3", False),
    ("logdet --d -5 --k 2", False),  # a value starting with '-'
    ("logdet --d 7 --d 5 --k 2", False),  # repeated
    ("logdet --d x --k 2", False),  # type conversion fails
    ("logdet --d 5 --k 2 --format yaml", False),  # not among the choices
    ("logdet --d 5", False),  # a required action missing
    ("sweep --fixed-d 9 --fixed-k 1", False),  # two members of a group
    ("sweep --d-max 9", False),  # none of a required group
])
def test_plain_parse_takes_only_whole_plain_pairs(argv, taken):
    command, *rest = [token.strip("'") for token in argv.split()]
    sub = SUBPARSERS[command]
    ns = sub._parse_plain(rest)
    assert (ns is not None) == taken
    if taken:  # each call builds a fresh namespace
        assert sub._parse_plain(rest) is not ns
        assert namespace_fields(ns) == namespace_fields(sub.parse_known_args(rest)[0])


def test_plain_parse_on_actions_no_subcommand_has():
    def parser(add=None, **kwargs):
        p = cli._Parser(prog="p", **kwargs)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--r", choices=("a", "b"), required=True)
        p.add_argument("--s", default="x")  # a string default no type converts
        p.set_defaults(func=len)
        if add is not None:
            add(p)
        return p

    # a group-free parser of store options only, with or without -h: taken
    for plain in (parser(), parser(add_help=False)):
        for argv in (["--r", "a"], ["--n", "4", "--r", "b", "--s", "y"]):
            ns = plain._parse_plain(argv)
            assert namespace_fields(ns) == namespace_fields(plain.parse_known_args(argv)[0])
        assert plain._parse_plain(["--n", "4"]) is None  # the required --r missing
    # a group, a non-store action, a typed string default or a positional:
    # declined for every argv, also one that does not name it
    for add, naming in (
        (lambda p: p.add_mutually_exclusive_group().add_argument("--m", type=int), ["--m", "1"]),
        (lambda p: p.add_argument("--tag", action="append"), ["--tag", "t"]),
        (lambda p: p.add_argument("--m", type=int, default="7"), ["--m", "1"]),
        (lambda p: p.add_argument("m", nargs="?", type=int), ["1"]),
    ):
        declined = parser(add)
        for argv in (["--r", "a"], ["--n", "4", "--r", "b"], ["--r", "a", *naming]):
            assert declined.parse_known_args(argv)[1] == []  # argparse takes it
            assert declined._parse_plain(argv) is None


def test_parse_error_leaves_the_reused_parser_clean(capsys):
    query = ["logdet", "--d", "7", "--k", "2", "--digits", "25"]
    first = run_to_exit(capsys, main, query)
    parser = cli._PARSER
    code, out, err = run_to_exit(capsys, main, ["logdet", "--d", "x", "--k", "2"])
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --d: invalid int value: 'x'\n")
    assert cli._PARSER is parser
    assert run_to_exit(capsys, main, query) == first
    assert cli._PARSER is parser
    assert first[0] == 0 and first[1].startswith("log det P_4(7) = ")


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["gjmsdet", "logdet", "--d", "5", "--k", "2"])
    from_sys_argv = run_to_exit(capsys, lambda _: main(), None)
    assert from_sys_argv == run(capsys, "logdet", "--d", "5", "--k", "2")
    assert from_sys_argv[0] == 0 and from_sys_argv[1].startswith("log det P_4(5) = ")
