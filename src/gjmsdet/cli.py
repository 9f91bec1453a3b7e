"""Command-line interface: exact expressions, quadrature, tables, sweeps.

All numerical logic lives in the library modules; this module only parses
arguments, dispatches and renders.  Exit codes: 0 success, 1 cross-check
failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import mpmath as mp

from .central_factorials import central_t
from .closed_form import (
    PrecisionContext,
    evaluate,
    f_expr,
    logdet_gjms,
)
from .errors import DivergentDeterminantError, InvalidDimensionError
from .norlund import d_norlund
from .product_rules import logdet_via_product, product_rule
from .quadrature import (
    QuadratureConfig,
    logdet_factor_quadrature,
    logdet_quadrature_result,
)

DIGITS_ENV = "GJMSDET_DIGITS"
DEFAULT_SHOWN_DIGITS = 10


def _precision() -> PrecisionContext:
    raw = os.environ.get(DIGITS_ENV)
    if raw:
        return PrecisionContext(decimal_digits=int(raw))
    return PrecisionContext()


def _require(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands -----------------------------------------------------------


def _cmd_logdet(args) -> int:
    _require("--digits", args.digits, 1)
    expr = logdet_gjms(args.d, args.k)
    ctx = _precision()
    value = evaluate(expr, ctx)
    if args.format == "plain":
        print(f"log det P_{2 * args.k}({args.d}) = {expr}")
        print(f"  ~ {mp.nstr(value, args.digits)}")
    elif args.format == "latex":
        print(expr.to_latex())
        print(f"% ~ {mp.nstr(value, args.digits)}")
    else:  # json
        payload = {
            "d": args.d,
            "k": args.k,
            "terms": expr.to_json_obj(),
            "value": mp.nstr(value, args.digits),
        }
        print(json.dumps(payload, separators=(",", ":")))
    return 0


def _cmd_quad(args) -> int:
    res = logdet_quadrature_result(args.d, args.k, QuadratureConfig(abs_tol=args.tol))
    print(f"log det P_{2 * args.k}({args.d}) ~ {res.value!r}")
    print(f"  error estimate: {res.error:.3e}")
    print(f"  integrand evaluations: {res.neval}")
    return 0


def _cmd_rule(args) -> int:
    d = args.d if args.d is not None else 2 * args.k + 1
    rule = product_rule(d, args.k)
    abstract = args.d is None
    if args.format == "latex":
        print(rule.render_latex(abstract=abstract))
    else:
        print(rule.render(abstract=abstract))
    return 0


def _cmd_crosscheck(args) -> int:
    if args.d_max < 3 or args.d_max % 2 == 0:
        raise InvalidDimensionError("--d-max must be an odd integer >= 3")
    ctx = _precision()
    cfg = QuadratureConfig()
    header = f"{'d':>3} {'k':>3} {'closed_form':>18} {'quadrature':>18} {'product':>18} {'factor_sum':>18} {'max_dev':>10}"
    print(header)
    worst = 0.0
    for d in range(3, args.d_max + 1, 2):
        for k in range(1, (d - 1) // 2 + 1):
            closed = float(evaluate(logdet_gjms(d, k), ctx))
            quadv = logdet_quadrature_result(d, k, cfg).value
            prod = float(evaluate(logdet_via_product(d, k), ctx))
            fsum = sum(logdet_factor_quadrature(d, j, cfg) for j in range(k))
            vals = (closed, quadv, prod, fsum)
            dev = max(vals) - min(vals)
            worst = max(worst, dev)
            print(
                f"{d:>3} {k:>3} {closed:>18.12e} {quadv:>18.12e} "
                f"{prod:>18.12e} {fsum:>18.12e} {dev:>10.2e}"
            )
    if worst > args.tol:
        print(f"FAIL: max deviation {worst:.2e} exceeds tolerance {args.tol:.2e}")
        return 1
    print(f"OK: max deviation {worst:.2e} within tolerance {args.tol:.2e}")
    return 0


def _cmd_sweep(args) -> int:
    _require("--digits", args.digits, 1)
    ctx = _precision()
    rows = []
    if args.fixed_d is not None:
        d = args.fixed_d
        k_max = args.k_max if args.k_max is not None else (d - 1) // 2
        if args.k_min < 1 or k_max < args.k_min:
            raise ValueError("invalid k range")
        for k in range(args.k_min, k_max + 1):
            rows.append((d, k))
    else:
        k = args.fixed_k
        d_min = args.d_min if args.d_min is not None else 2 * k + 1
        if d_min % 2 == 0 or args.d_max is None or args.d_max < d_min:
            raise ValueError("invalid d range (need odd --d-min <= --d-max)")
        for d in range(d_min, args.d_max + 1, 2):
            rows.append((d, k))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["d", "k", "logdet"])
    for d, k in rows:
        value = evaluate(logdet_gjms(d, k), ctx)
        writer.writerow([d, k, mp.nstr(value, args.digits)])
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_tables(args) -> int:
    ctx = _precision()
    out = io.StringIO()
    if args.d_norlund:
        m_max, k_max = args.d_norlund
        _require("--d-norlund M_MAX", m_max, 1)
        _require("--d-norlund K_MAX", k_max, 0)
        grid = {
            (m, k): d_norlund(m, k)
            for m in range(1, m_max + 1)
            for k in range(0, k_max + 1)
        }
        if args.format == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["m"] + [f"k={k}" for k in range(k_max + 1)])
            for m in range(1, m_max + 1):
                writer.writerow([m] + [str(grid[m, k]) for k in range(k_max + 1)])
        elif args.format == "latex":
            for m in range(1, m_max + 1):
                cells = [_latex_frac(grid[m, k]) for k in range(k_max + 1)]
                out.write(f"$m={m}$ & " + " & ".join(cells) + r" \\" + "\n")
        else:
            width = max(len(str(v)) for v in grid.values()) + 2
            out.write("m\\k " + "".join(f"{k:>{width}}" for k in range(k_max + 1)) + "\n")
            for m in range(1, m_max + 1):
                out.write(
                    f"{m:>3} "
                    + "".join(f"{str(grid[m, k]):>{width}}" for k in range(k_max + 1))
                    + "\n"
                )
    elif args.f is not None:
        _require("--f", args.f, 0)
        if args.format == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["m", "exact", "value"])
            for m in range(args.f + 1):
                e = f_expr(m)
                writer.writerow([m, str(e), mp.nstr(evaluate(e, ctx), DEFAULT_SHOWN_DIGITS)])
        else:
            for m in range(args.f + 1):
                e = f_expr(m)
                rendered = e.to_latex() if args.format == "latex" else str(e)
                out.write(
                    f"f_{m} = {rendered}"
                    f" ~ {mp.nstr(evaluate(e, ctx), DEFAULT_SHOWN_DIGITS)}\n"
                )
    else:
        n_max = args.central
        _require("--central", n_max, 1)
        if args.format == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["n", "k", "t(n,k)"])
            for n in range(1, n_max + 1, 2):
                for k in range(1, n + 1, 2):
                    writer.writerow([n, k, str(central_t(n, k))])
        else:
            for n in range(1, n_max + 1, 2):
                cells = [
                    f"t({n},{k})={central_t(n, k)}" for k in range(1, n + 1, 2)
                ]
                out.write("  ".join(cells) + "\n")
    _emit(out.getvalue(), args.out)
    return 0


def _latex_frac(q) -> str:
    if q.denominator == 1:
        return f"${q.numerator}$"
    sign = "-" if q < 0 else ""
    return rf"${sign}\frac{{{abs(q.numerator)}}}{{{q.denominator}}}$"


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gjmsdet",
        description="Log-determinants of GJMS operators on odd spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("logdet", help="exact expression and numeric value")
    p.add_argument("--d", type=int, required=True, help="odd sphere dimension")
    p.add_argument("--k", type=int, required=True, help="operator order parameter")
    p.add_argument("--format", choices=("plain", "latex", "json"), default="plain")
    p.add_argument("--digits", type=int, default=DEFAULT_SHOWN_DIGITS)
    p.set_defaults(func=_cmd_logdet)

    p = sub.add_parser("quad", help="direct quadrature evaluation")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_quad)

    p = sub.add_parser("rule", help="determinant product rule")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=None,
                   help="concrete dimension (omit for abstract d)")
    p.add_argument("--format", choices=("plain", "latex"), default="plain")
    p.set_defaults(func=_cmd_rule)

    p = sub.add_parser("crosscheck", help="compare all computation routes")
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("sweep", help="CSV sweep of logdet values")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixed-d", type=int, default=None)
    group.add_argument("--fixed-k", type=int, default=None)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--d-min", type=int, default=None)
    p.add_argument("--d-max", type=int, default=None)
    p.add_argument("--digits", type=int, default=15)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("tables", help="reference tables")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--d-norlund", type=int, nargs=2, metavar=("M_MAX", "K_MAX"))
    group.add_argument("--f", type=int, default=None, metavar="M_MAX")
    group.add_argument("--central", type=int, default=None, metavar="N_MAX")
    p.add_argument("--format", choices=("plain", "latex", "csv"), default="plain")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidDimensionError, DivergentDeterminantError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
