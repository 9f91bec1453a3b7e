"""Command-line interface: exact expressions, quadrature, tables, sweeps.

All numerical logic lives in the library modules; this module only parses
arguments, dispatches and renders.  Exit codes: 0 success, 1 cross-check
failure, 2 invalid input or a failed write to standard output, 141 standard
output closed early (a broken pipe).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import mpmath as mp

from . import quadrature
from .closed_form import (
    _DEFAULT_CONTEXT,
    _DIGITS_FLOOR,
    PrecisionContext,
    _logdet_column,
    evaluate,
    f_expr,
    logdet_gjms,
)
from .errors import _require_int, _require_real, validate_d
from .norlund import central_t, d_norlund
from .product_rules import logdet_via_product  # noqa: F401  (a hook site the benchmark tracer patches)
from .product_rules import _step_sum, product_rule
from .quadrature import (
    QuadratureConfig,
    logdet_factor_quadrature,
    logdet_quadrature_result,
)
from .zexpr import ONE, ZetaExpr, _any_digits

DIGITS_ENV = "GJMSDET_DIGITS"
DEFAULT_SHOWN_DIGITS = 10
# crosscheck's relative gate, next to the absolute --tol: log det shrinks
# with d (|log det P_2(41)| = 5.7e-15), so an absolute gate alone passes any
# skew below it; a correct run's worst relative deviation to d = 101 is 4.12e-15
CROSSCHECK_REL_TOL = 1e-10


def _precision() -> PrecisionContext:
    raw = os.environ.get(DIGITS_ENV)
    if not raw:
        return _DEFAULT_CONTEXT
    try:
        return PrecisionContext(decimal_digits=int(raw))
    except ValueError:  # not an integer, or below the floor
        raise ValueError(f"{DIGITS_ENV} must be an integer >= {_DIGITS_FLOOR}, got {raw!r}") from None


def _display_precision(digits: int) -> PrecisionContext:
    """Working precision for a command that displays ``digits`` digits.

    Digits past the working precision would be printed unchecked.
    """
    _require_int("--digits", digits, 1)
    ctx = _precision()
    if digits > ctx.decimal_digits:
        raise ValueError(
            f"--digits {digits} exceeds the working precision "
            f"{DIGITS_ENV}={ctx.decimal_digits}; raise {DIGITS_ENV} to show more"
        )
    return ctx


def _emit(text: str, out_path: str | None) -> None:
    if out_path is not None:  # an empty path fails to open like any other
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
    else:  # json: the terms go in as to_json wrote them, not re-encoded
        shown = json.dumps(mp.nstr(value, args.digits))
        print(f'{{"d":{args.d},"k":{args.k},"terms":{expr.to_json()},"value":{shown}}}')
    return 0


def _cmd_quad(args) -> int:
    _require_real("--tol", args.tol, quadrature._ABS_TOL_FLOOR)
    res = logdet_quadrature_result(args.d, args.k, QuadratureConfig(abs_tol=args.tol))
    print(f"log det P_{2 * args.k}({args.d}) ~ {res.value!r}")
    print(f"  error estimate: {res.error:.3e}")
    print(f"  integrand evaluations: {res.neval}")
    return 0


def _cmd_rule(args) -> int:
    _require_int("--k", args.k, 1)
    d = args.d if args.d is not None else 2 * args.k + 1
    rule = product_rule(d, args.k)
    abstract = args.d is None
    if args.format == "latex":
        print(rule.render_latex(abstract=abstract))
    else:
        print(rule.render(abstract=abstract))
    return 0


def _cmd_crosscheck(args) -> int:
    validate_d(args.d_max, "--d-max")
    # fail before the rows below it, which take hours near the limit
    quadrature._require_float64(args.d_max, "--d-max: ")
    _require_real("--tol", args.tol, 0)
    ctx = _precision()
    cfg = QuadratureConfig()
    header = f"{'d':>3} {'k':>3} {'closed_form':>18} {'quadrature':>18} {'product':>18} {'factor_sum':>18} {'max_dev':>10}"
    print(header)
    worst = worst_rel = 0.0
    differ = 0  # rows whose product expression is not the closed form's
    below: list[ZetaExpr] = []  # the product route's records of column d - 2
    for d in range(3, args.d_max + 1, 2):
        # factor integrals j < k summed cumulatively, each once per d; starting
        # at int 0 as sum() does keeps every row's float additions unchanged
        fsum = 0
        column: list[ZetaExpr] = []
        # the closed-form records of d from one pass over rows scaled once,
        # each read once: none goes through logdet_gjms's cache
        for k, expr in enumerate(_logdet_column(d), 1):
            closed = float(evaluate(expr, ctx))
            quadv = logdet_quadrature_result(d, k, cfg).value
            # the product route by its recurrence in k, chained on its own
            # records: one sum of at most three per row, compared with the
            # closed form as integers; the exact routes must agree exactly.
            # At k = 1 the rule is P_2(d)^1, so the column starts from the
            # row's own record, with nothing to compare
            if k == 1 or expr._equals_sum(*(prod_sum := _step_sum(below, column))):
                # kept as the closed-form object, the same value without a
                # record of its own
                column.append(expr)
                prod = closed
            else:
                differ += 1
                prod_expr = ZetaExpr(*prod_sum)
                column.append(prod_expr)
                prod = float(evaluate(prod_expr, ctx))
            fsum += logdet_factor_quadrature(d, k - 1, cfg)
            vals = (closed, quadv, prod, fsum)
            dev = max(vals) - min(vals)
            worst = max(worst, dev)
            worst_rel = max(worst_rel, dev / abs(closed))
            print(
                f"{d:>3} {k:>3} {closed:>18.12e} {quadv:>18.12e} "
                f"{prod:>18.12e} {fsum:>18.12e} {dev:>10.2e}"
            )
        below = column
    gates = (
        ("max deviation", worst, args.tol),
        ("max relative deviation", worst_rel, CROSSCHECK_REL_TOL),
    )
    failed = differ > 0 or any(value > bound for _, value, bound in gates)
    product = f"product route differs from the closed form in {differ} rows, " if differ else ""
    print(("FAIL: " if failed else "OK: ") + product + ", ".join(
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
    # a defaulted end is the axis bound, so only an end the user gave can fail
    if args.fixed_d is not None:
        d = args.fixed_d
        validate_d(d, "--fixed-d")
        top = (d - 1) // 2
        k_min = 1 if args.k_min is None else args.k_min
        k_max = top if args.k_max is None else args.k_max
        for flag, k in (("--k-min", k_min), ("--k-max", k_max)):
            _require_int(flag, k, 1)
            if k > top:
                raise ValueError(f"{flag} must be <= (d-1)/2 = {top} with {fixed} {d}, got {k}")
        _require_int("--k-max", k_max, k_min)
        rows = [(d, k) for k in range(k_min, k_max + 1)]
    else:
        k = args.fixed_k
        _require_int("--fixed-k", k, 1)
        if args.d_max is None:
            raise ValueError("--d-max is required with --fixed-k")
        d_min = 2 * k + 1 if args.d_min is None else args.d_min
        for flag, d in (("--d-min", d_min), ("--d-max", args.d_max)):
            if d < 2 * k + 1:
                raise ValueError(f"{flag} must be >= 2k+1 = {2 * k + 1} with {fixed} {k}, got {d}")
        if d_min % 2 == 0 or args.d_max < d_min:
            raise ValueError("invalid d range (need odd --d-min <= --d-max)")
        rows = [(d, k) for d in range(d_min, args.d_max + 1, 2)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["d", "k", "logdet"])
    for d, k in rows:
        value = evaluate(logdet_gjms(d, k), ctx)
        writer.writerow([d, k, mp.nstr(value, args.digits)])
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_tables(args) -> int:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if args.d_norlund:
        m_max, k_max = args.d_norlund
        _require_int("--d-norlund M_MAX", m_max, 1)
        _require_int("--d-norlund K_MAX", k_max, 0)
        rows = [[d_norlund(m, k) for k in range(k_max + 1)] for m in range(1, m_max + 1)]
        if args.format == "csv":
            writer.writerow(["m"] + [f"k={k}" for k in range(k_max + 1)])
        elif args.format == "plain":
            width = max(len(str(q)) for row in rows for q in row) + 2
            out.write("m\\k " + "".join(f"{k:>{width}}" for k in range(k_max + 1)) + "\n")
        for m, row in enumerate(rows, 1):
            if args.format == "csv":
                writer.writerow([m, *row])
            elif args.format == "latex":
                cells = [ZetaExpr.from_terms([(ONE, 0, q)]).to_latex() for q in row]
                out.write(f"$m={m}$ & " + " & ".join(f"${c}$" for c in cells) + r" \\" + "\n")
            else:
                out.write(f"{m:>3} " + "".join(f"{str(q):>{width}}" for q in row) + "\n")
    elif args.f is not None:  # the only table that evaluates
        ctx = _precision()
        _require_int("--f", args.f, 0)
        if args.format == "csv":
            writer.writerow(["m", "exact", "value"])
        for m in range(args.f + 1):
            e = f_expr(m)
            value = mp.nstr(evaluate(e, ctx), DEFAULT_SHOWN_DIGITS)
            if args.format == "csv":
                writer.writerow([m, str(e), value])
            else:
                rendered = e.to_latex() if args.format == "latex" else str(e)
                out.write(f"f_{m} = {rendered} ~ {value}\n")
    else:
        _require_int("--central", args.central, 1)
        if args.format == "latex":
            raise ValueError("--format latex does not apply with --central")
        if args.format == "csv":
            writer.writerow(["n", "k", "t(n,k)"])
        for n in range(1, args.central + 1, 2):
            row = [(k, central_t(n, k)) for k in range(1, n + 1, 2)]
            if args.format == "csv":
                writer.writerows([n, k, t] for k, t in row)
            else:
                out.write("  ".join(f"t({n},{k})={t}" for k, t in row) + "\n")
    _emit(out.getvalue(), args.out)
    return 0


# -- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # what _parse_plain reads of this parser's tables, or False if it takes
    # no argv: built on its first call, once the parser is complete
    _plain_plan = None

    def print_help(self, file=None):
        """Write the help and flush it; argparse's own drops a failed write."""
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()

    def _parse_plain(self, argv: list[str]) -> argparse.Namespace | None:
        """The namespace ``parse_known_args(argv)`` builds, or None to leave
        ``argv`` to argparse (main's parse also sets ``command``, read by no
        command).

        Taken only on a parser of ``-h`` and single-value store options, none
        in a mutually exclusive group or with a string default its type
        converts (not ``sweep`` or ``tables``), and only for whole ``--flag
        value`` pairs, each flag an exact option string given once, each value
        not starting with '-', converting by the action's type and among its
        choices, with every required action given: an argv that argparse
        parses with no extras, no error and no output.
        """
        plan = self._plain_plan
        if plan is None:
            # the namespace argparse starts from: each action's default, then the parser's
            defaults = {}
            for a in self._actions:
                if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS:
                    defaults.setdefault(a.dest, a.default)
            for dest, default in self._defaults.items():
                defaults.setdefault(dest, default)
            actions = self._actions[1:] if self.add_help else self._actions  # argparse adds -h first
            plain = not self._mutually_exclusive_groups and all(
                type(a) is argparse._StoreAction and a.option_strings and a.nargs is None
                and not (isinstance(a.default, str) and a.type is not None) for a in actions)
            plan = self._plain_plan = plain and (defaults, frozenset(a for a in actions if a.required))
        if not plan or len(argv) % 2:
            return None
        defaults, required = plan
        options = self._option_string_actions
        given = {}
        for i in range(0, len(argv), 2):
            action, raw = options.get(argv[i]), argv[i + 1]
            if type(action) is not argparse._StoreAction or action in given or raw.startswith("-"):
                return None
            try:
                given[action] = value = self._get_value(action, raw)
                self._check_value(action, value)
            except argparse.ArgumentError:
                return None
        if not given.keys() >= required:
            return None
        namespace = argparse.Namespace()
        values = vars(namespace)
        values.update(defaults)
        for a, value in given.items():
            values[a.dest] = value
        return namespace


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gjmsdet",
        description="Log-determinants of GJMS operators on odd spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser._commands = sub.choices  # name -> subcommand parser, filled below; main reads it

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
# exact coefficients pass Python's int-to-str digit limit (from d = 1667 at
# k = 1); a command runs with it lifted (argv was parsed under it)
_run = _any_digits(lambda args: args.func(args))


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:  # built on first use, then shared by every call
        _PARSER = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # plain `--flag value` pairs for logdet, quad, rule or crosscheck are read
    # from its action table (_parse_plain); argparse parses any other argv (all
    # of sweep's and tables') and alone writes usage, help and error text
    sub = _PARSER._commands.get(argv[0]) if argv else None
    try:  # -h writes the help while parsing
        if sub is None or (args := sub._parse_plain(argv[1:])) is None:
            args = _PARSER.parse_args(argv)
        code = _run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except ValueError as exc:  # every library error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a write to standard output failed
        # send the unflushed rest to devnull so the interpreter's final flush
        # stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader left (e.g. `| head`)
            return 141
        print(f"error: standard output: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
