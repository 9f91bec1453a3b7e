"""Command-line interface: exact expressions, quadrature, tables, sweeps.

All numerical logic lives in the library modules; this module only parses
arguments, dispatches and renders.  Exit codes: 0 success, 1 cross-check
failure, 2 invalid input, 141 standard output closed early (a broken pipe).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import mpmath as mp

from . import quadrature
from .central_factorials import central_t
from .closed_form import (
    PrecisionContext,
    evaluate,
    f_expr,
    logdet_gjms,
)
from .errors import DivergentDeterminantError, Float64RangeError, InvalidDimensionError
from .norlund import d_norlund
from .product_rules import logdet_via_product, product_rule
from .quadrature import (
    QuadratureConfig,
    logdet_factor_quadrature,
    logdet_quadrature_result,
)

DIGITS_ENV = "GJMSDET_DIGITS"
DEFAULT_SHOWN_DIGITS = 10
# crosscheck's relative gate, next to the absolute --tol: log det shrinks
# with d (|log det P_2(41)| = 5.7e-15), so an absolute gate alone passes any
# skew below it; a correct run's worst relative deviation to d = 101 is 6e-15
CROSSCHECK_REL_TOL = 1e-10


def _precision() -> PrecisionContext:
    raw = os.environ.get(DIGITS_ENV)
    if not raw:
        return PrecisionContext()
    try:
        return PrecisionContext(decimal_digits=int(raw))
    except ValueError:  # not an integer, or below the floor
        raise ValueError(f"{DIGITS_ENV} must be an integer >= 15, got {raw!r}") from None


def _require(flag: str, value, least) -> None:
    if not least <= value < math.inf:  # also rejects nan
        raise ValueError(f"{flag} must be finite and >= {least}, got {value}")


def _display_precision(digits: int) -> PrecisionContext:
    """Working precision for a command that displays ``digits`` digits.

    Digits past the working precision would be printed unchecked.
    """
    _require("--digits", digits, 1)
    ctx = _precision()
    if digits > ctx.decimal_digits:
        raise ValueError(
            f"--digits {digits} exceeds the working precision "
            f"{DIGITS_ENV}={ctx.decimal_digits}; raise {DIGITS_ENV} to show more"
        )
    return ctx


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except BrokenPipeError:
            raise
        except OSError as exc:  # exit 2 as bad input, not 1 as a disagreement
            raise ValueError(f"--out: {exc.strerror or exc}: {out_path}") from None
    else:
        sys.stdout.write(text)


# -- subcommands -----------------------------------------------------------


def _cmd_logdet(args) -> int:
    ctx = _display_precision(args.digits)
    expr = logdet_gjms(args.d, args.k)
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
    _require("--k", args.k, 1)
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
    if args.d_max > quadrature.D_MAX_FLOAT64:
        # fail before the rows below it, which take hours near the limit
        raise Float64RangeError(
            f"--d-max: quadrature works in float64 and needs d <= "
            f"{quadrature.D_MAX_FLOAT64}, got d={args.d_max}"
        )
    _require("--tol", args.tol, 0)
    ctx = _precision()
    cfg = QuadratureConfig()
    header = f"{'d':>3} {'k':>3} {'closed_form':>18} {'quadrature':>18} {'product':>18} {'factor_sum':>18} {'max_dev':>10}"
    print(header)
    worst = worst_rel = 0.0
    for d in range(3, args.d_max + 1, 2):
        # factor integrals j < k summed cumulatively, each once per d; starting
        # at int 0 as sum() does keeps every row's float additions unchanged
        fsum = 0
        for k in range(1, (d - 1) // 2 + 1):
            expr = logdet_gjms(d, k)
            closed = float(evaluate(expr, ctx))
            quadv = logdet_quadrature_result(d, k, cfg).value
            # exact equality is a stricter check than agreeing floats
            prod_expr = logdet_via_product(d, k)
            prod = closed if prod_expr == expr else float(evaluate(prod_expr, ctx))
            fsum += logdet_factor_quadrature(d, k - 1, cfg)
            vals = (closed, quadv, prod, fsum)
            dev = max(vals) - min(vals)
            worst = max(worst, dev)
            worst_rel = max(worst_rel, dev / abs(closed))
            print(
                f"{d:>3} {k:>3} {closed:>18.12e} {quadv:>18.12e} "
                f"{prod:>18.12e} {fsum:>18.12e} {dev:>10.2e}"
            )
    gates = (
        ("max deviation", worst, args.tol),
        ("max relative deviation", worst_rel, CROSSCHECK_REL_TOL),
    )
    failed = any(value > bound for _, value, bound in gates)
    print(("FAIL: " if failed else "OK: ") + ", ".join(
        f"{name} {value:.2e} {'exceeds' if value > bound else 'within'} tolerance {bound:.2e}"
        for name, value, bound in gates
    ))
    return int(failed)


def _cmd_sweep(args) -> int:
    ctx = _display_precision(args.digits)
    if args.fixed_d is not None:
        fixed, stray = "--fixed-d", {"--d-min": args.d_min, "--d-max": args.d_max}
    else:
        fixed, stray = "--fixed-k", {"--k-min": args.k_min, "--k-max": args.k_max}
    for flag, value in stray.items():
        if value is not None:
            raise ValueError(f"{flag} does not apply with {fixed}")
    rows = []
    if args.fixed_d is not None:
        d = args.fixed_d
        k_min = args.k_min if args.k_min is not None else 1
        _require("--k-min", k_min, 1)
        k_max = args.k_max if args.k_max is not None else (d - 1) // 2
        _require("--k-max", k_max, k_min)
        for k in range(k_min, k_max + 1):
            rows.append((d, k))
    else:
        k = args.fixed_k
        _require("--fixed-k", k, 1)
        if args.d_max is None:
            raise ValueError("--d-max is required with --fixed-k")
        d_min = args.d_min if args.d_min is not None else 2 * k + 1
        if d_min % 2 == 0 or args.d_max < d_min:
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
    p.add_argument("--k-min", type=int, default=None)
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


_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:  # built on first use, then shared by every call
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    # exact coefficients pass Python's int-to-str digit limit (from d = 1667
    # at k = 1); lift it for the output only (argv was parsed under it)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except (InvalidDimensionError, DivergentDeterminantError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left (e.g. `| head`); send the unflushed rest to devnull
        # so the interpreter's final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
