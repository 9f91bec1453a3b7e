"""Closed-form log-determinants of GJMS operators on odd spheres.

The central objects are the residue-sum constants

    f_m = integral_0^inf dx / ((x^2 + pi^2) cosh^m(x/2)),

which are rational for even m and rational combinations of log 2 and
zeta(odd)/pi^odd for odd m.  The main formula assembles

    log det P_2k(d) = (-1)^{(d-1)/2+k} pi / 2^{d-2k}
                      * sum_{j=0}^{k-1} C(2k-1-j, j) (-1/4)^j
                        (f_{d+2j-2k} - f_{d+2+2j-2k})

as an exact :class:`~gjmsdet.zexpr.ZetaExpr`, together with high-precision
numeric evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, log
from operator import mul
from typing import Iterator

import mpmath as mp
from mpmath import libmp
from mpmath.libmp.gammazeta import borwein_coefficients

from .errors import _cached_after, _require_int, _require_type, validate_d_k
from .norlund import _central_poly, d_norlund  # noqa: F401  (d_norlund: a hook site the benchmark tracer patches)
from .zexpr import LOG2, ONE, ZetaExpr, _term

__all__ = [
    "PrecisionContext",
    "f_even",
    "f_odd",
    "f_expr",
    "logdet_gjms",
    "zeta_odd",
    "evaluate",
]

_DIGITS_FLOOR = 15  # the least working precision, in decimal digits


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision for numeric evaluation, in decimal digits.

    Every numeric step (zeta(odd), the basis values, evaluate's division)
    runs at the one binary precision _prec, 10 guard digits past
    decimal_digits, rounded to nearest, except zeta(odd) in mpmath's
    Euler-product range (from about 65 digits): that value carries
    _prec + 20 bits, as mp.zeta's does.  _prec takes no part in equality,
    hashing or repr.
    """

    decimal_digits: int = 50
    _prec: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_int("decimal_digits", self.decimal_digits, _DIGITS_FLOOR)
        object.__setattr__(self, "_prec", libmp.dps_to_prec(self.decimal_digits + 10))


# the default working precision, built once: every default argument and the
# CLI without GJMSDET_DIGITS read this one object
_DEFAULT_CONTEXT = PrecisionContext()


def f_even(m: int) -> Fraction:
    """f_{2m} = (-1)^m / (2 (2m)!) * D^(2m)_{2m}, an exact rational, where
    D^(2m)_{2m} = 4^m B^(2m)_{2m}(m) = 4^m int_m^{m+1} (t-1)(t-2)...(t-2m) dt.
    The product is x^[2m+1] / x at x = t - m - 1/2; over |x| <= 1/2 the row
    4^m x^[2m+1] integrates to sum_{n=0}^{m} row[n] / ((2n+1) 4^n)."""
    _require_int("m", m, 0)
    row = _central_poly(2 * m + 1)
    total = sum(Fraction(c, (2 * n + 1) << 2 * n) for n, c in enumerate(row))
    return Fraction((-1) ** m, 2 * factorial(2 * m)) * total


def _pi_f_odd_sum(top: int, weights: list[int]) -> tuple[int, list[int]]:
    """sum_i weights[i] pi f_{2m+1}, m = top - i, over (log 2, zeta(3)/pi^2,
    ..., zeta(2top+1)/pi^2top) as the common denominator (2top)! 16^top and
    the integer numerators over it.

    In pi f_{2m+1} the coefficient of zeta(2n+1)/pi^2n (of log 2 for n = 0)
    is (-1)^{m+n} 4^{m-n} (2n)! t(2m+1, 2n+1) / (2m)!, times 1 - 4^-n for
    n >= 1.  Only (-1)^m (2m)! depends on m: the rows row_m[n] = 4^m
    t(2m+1, 2n+1) are summed with the integer weights (-1)^m (2top)!/(2m)!,
    then slot n is scaled by (-1)^n (2n)! 16^(top-n), times 4^n - 1 for n >= 1.
    """
    acc = [0] * (top + 1)
    c = (-1) ** top  # a running (-1)^m (2top)!/(2m)!
    for m, w in zip(range(top, -1, -1), weights):
        cw = c * w
        for n, t in enumerate(_central_poly(2 * m + 1)):
            acc[n] += cw * t
        c *= -2 * m * (2 * m - 1)
    fact = 1  # a running (-1)^n (2n)!; 16^(top-n) and 4^n are shifts
    acc[0] <<= 4 * top
    for n in range(1, top + 1):
        fact *= (1 - 2 * n) * 2 * n
        a = fact * acc[n]
        acc[n] = (a << 2 * n) - a << 4 * (top - n)
    return abs(fact) << 4 * top, acc


@_cached_after(lambda m: _require_int("m", m, 0))
def f_odd(m: int) -> ZetaExpr:
    """f_{2m+1} as an exact expression over {log 2, zeta(odd)}.

    f_{2m+1} = -sum_{n=0}^{m} (-1)^n / (2n)! * D^(2m+1)_{2n}
               * eta(2m-2n+1) / pi^{2m-2n+1},

    eta(1) = -log 2 and eta(s) = (2^{1-s} - 1) zeta(s) for s > 1.
    """
    den, nums = _pi_f_odd_sum(m, [1])
    return ZetaExpr(-1, den, (0, *nums))


def f_expr(m: int) -> ZetaExpr:
    """f_m for either parity, as a ZetaExpr (even m gives a pure constant)."""
    _require_int("m", m, 0)
    if m % 2 == 0:
        q = f_even(m // 2)
        return ZetaExpr(0, q.denominator, (q.numerator,))
    return f_odd((m - 1) // 2)


def _weights(k: int) -> list[int]:
    """4^k times the f-difference weights C(2k-1-j, j) (-1/4)^j of log det
    P_2k, as the weights of pi f_{2m+1} from m = (d-1)/2 down to m0."""
    weights = [0] * (k + 1)
    for j in range(k):
        c = (-1 if j % 2 else 1) * comb(2 * k - 1 - j, j) << 2 * (k - j)
        weights[k - j] += c
        weights[k - j - 1] -= c
    return weights


# 1024 = quadrature.D_MAX_FLOAT64 + 1 holds every k = 1 record one
# logdet_via_product call reads, and all 465 pairs d <= 61
@_cached_after(validate_d_k, maxsize=1024)
def logdet_gjms(d: int, k: int) -> ZetaExpr:
    """Exact log det P_2k on the round unit d-sphere, d odd, 2k <= d.

    Every f in the formula has odd index d + 2j - 2k = 2(m0 + j) + 1, so the
    sum is one _pi_f_odd_sum of the vectors pi f_{2m+1}, m0 <= m <= m0 + k.
    """
    top = (d - 1) // 2
    den, nums = _pi_f_odd_sum(top, _weights(k))
    # the prefactor's sign and 2^(d-2k), the weights' 4^k
    return ZetaExpr(0, (-1) ** (top + k) * den << d, (0, *nums))


def _logdet_column(d: int) -> Iterator[ZetaExpr]:
    """logdet_gjms(d, k) for k = 1, 2, ..., (d-1)/2 in turn, d valid, past
    logdet_gjms's cache.

    The rows of _pi_f_odd_sum are scaled once for the whole column: entry n
    of row m by its row factor (-1)^m (2top)!/(2m)! and its slot factor.
    Record k is then one integer sum of the k + 1 scaled rows m = top..top-k
    with _weights(k), over logdet_gjms's denominator and sign.  One record
    alone sums first and scales once, which costs less than scaling k + 1 rows.
    """
    top = (d - 1) // 2
    slots = [1 << 4 * top]  # (-1)^n (2n)! (4^n - 1) 16^(top-n); 16^top at n = 0
    fact = 1
    for n in range(1, top + 1):
        fact *= (1 - 2 * n) * 2 * n
        slots.append(fact * ((1 << 2 * n) - 1) << 4 * (top - n))
    rows = []
    c = (-1) ** top  # a running (-1)^m (2top)!/(2m)!
    for m in range(top, -1, -1):
        rows.append([c * s * t for s, t in zip(slots, _central_poly(2 * m + 1))])
        c *= -2 * m * (2 * m - 1)
    den = abs(fact) << 4 * top + d
    for k in range(1, top + 1):
        nums = [0] * (top + 1)
        for w, row in zip(_weights(k), rows):
            for n, v in enumerate(row):
                nums[n] += w * v
        yield ZetaExpr(0, (-1) ** (top + k) * den, (0, *nums))


# -- numeric evaluation ---------------------------------------------------

def _zeta_odd_args(s: int, ctx: PrecisionContext = _DEFAULT_CONTEXT) -> None:
    """zeta_odd's argument checks, run before its cache."""
    _require_int("s", s)
    if s < 3 or s % 2 == 0:
        raise ValueError(f"s must be an odd integer >= 3, got {s}")
    _require_type("ctx", ctx, PrecisionContext)


@_cached_after(_zeta_odd_args)
def zeta_odd(s: int, ctx: PrecisionContext = _DEFAULT_CONTEXT) -> mp.mpf:
    """zeta(s) for odd s >= 3 with relative error <= 10^-decimal_digits.

    The bits a fresh mp.zeta(s) gives at ctx's binary precision prec,
    whatever ran before in the process: mpmath 1.3.0's mpf_zeta_int at
    wp = prec + 20, with no zeta_int_cache.  Rounded to nearest at prec,
    except in the Euler-product range (from about 65 digits), whose value
    carries wp bits, as mp.zeta's does.
    """
    prec, rnd, wp = ctx._prec, libmp.round_nearest, ctx._prec + 20
    if s >= wp:  # 2^-s vanishes
        return mp.make_mpf(libmp.mpf_perturb(libmp.fone, 0, prec, rnd))
    if s >= wp * 0.431:  # 5^-s vanishes
        t = (1 << wp) + (1 << wp - s) + (1 << wp) // 3**s + (1 << max(0, wp - 2 * s))
        return mp.make_mpf(libmp.from_man_exp(t, -wp, prec, rnd))
    m = wp / (s - 1) + 1
    if m < 30 and int(2.0**m + 1) < int(wp / 2.54 + 5) / 10:  # Euler product
        t = libmp.fone
        for p in libmp.list_primes(int(2.0**m + 1)):
            powprec = int(wp - s * log(p, 2))
            if powprec < 2:
                break
            power = libmp.mpf_pow_int(libmp.from_int(p), -s, powprec)
            t = libmp.mpf_mul(t, libmp.mpf_sub(libmp.fone, power, wp), wp)
        return mp.make_mpf(libmp.mpf_div(libmp.fone, t, wp))
    dn, x, last, terms = sweep = _borwein(wp)  # Borwein's series
    if s < last:
        last, terms = 0, x
    terms = [t // k ** (s - last) for k, t in enumerate(terms, 1)]
    sweep[2:] = s, terms
    t = (sum(terms) << wp) // -dn
    t = (t << wp) // ((1 << wp) - (1 << wp + 1 - s))
    return mp.make_mpf(libmp.from_man_exp(t, -2 * wp, prec, rnd))


@lru_cache(maxsize=None)
def _borwein(wp: int) -> list:
    """Borwein's eta series as mpf_zeta_int sums it at working precision wp:
    [d_n, x, s, terms], x_k = ((-1)^k (d_k - d_n)) << wp and terms[k] =
    x_k // (k+1)^s for the last s read (0 before the first).  Since
    floor(floor(x)/b) = floor(x/b), the terms at s' > s are terms[k] //
    (k+1)^(s'-s), mpmath's integers: the next odd s costs one division by
    (k+1)^2 a term.  A smaller s' starts again from x."""
    n = int(wp / 2.54 + 5)
    d = borwein_coefficients(n)
    x = [(-1) ** k * (d[k] - d[n]) << wp for k in range(n)]
    return [d[n], x, 0, x]


@lru_cache(maxsize=None)
def _basis(ctx: PrecisionContext) -> dict:
    """Table record pi power -> row [e, ints] of aligned basis values: slot
    n's term is ints[n] * 2^e exactly, e the least exponent in the row.

    evaluate grows a row once per record that needs more slots: it computes
    _basis_value only for the new slots and, when they hold a new least
    exponent, shifts the ints already there once.  One context hash per
    call, not one per term.
    """
    return {}


def _basis_value(n: int, pi_pow: int, ctx: PrecisionContext) -> tuple[int, int]:
    """Mantissa and exponent of slot n's term, which is positive, in a record
    with power pi_pow: atom * pi^p in libmp, each step rounded to nearest at
    ctx's binary precision, the bits mpmath's arithmetic gives there."""
    atom, pi_pow = _term(n, pi_pow)
    prec, rnd = ctx._prec, libmp.round_nearest
    if atom == ONE:
        base = libmp.fone
    elif atom == LOG2:
        base = libmp.mpf_ln2(prec, rnd)
    else:  # through the module global: the per-precision cache
        base = zeta_odd(atom, ctx)._mpf_
    power = libmp.mpf_pow_int(libmp.mpf_pi(prec, rnd), pi_pow, prec, rnd)
    return libmp.mpf_mul(base, power, prec, rnd)[1:3]


def _round_quotient(total: int, den: int, e: int, prec: int) -> tuple:
    """total / den * 2^e for den > 0, rounded to nearest at prec bits, as
    the mpf tuple mpf_shift(mpf_div(from_int(total), from_int(den), prec,
    round_nearest), e) gives, by mpf_div's own steps in plain integers: a
    quotient of at least prec + 5 bits and a sticky bit for the remainder
    round as the exact quotient does.  2^e goes into the exponent exactly;
    a zero total gives fzero."""
    mag = abs(total)
    extra = max(prec - mag.bit_length() + den.bit_length() + 5, 5)
    q, r = divmod(mag << extra, den)
    q = q << 1 | (r != 0)
    return libmp.normalize1(int(total < 0), q, e - extra - 1, q.bit_length(), prec,
                            libmp.round_nearest)


def evaluate(expr: ZetaExpr, ctx: PrecisionContext = _DEFAULT_CONTEXT) -> mp.mpf:
    """Numeric value of an exact expression at the context's precision.

    With the aligned basis values b_n = ints[n] 2^e, the sum of
    nums[n]/den b_n is 2^e / den times the integer dot product of nums and
    ints.  That product is exact, so the value is rounded once, to nearest
    at ctx's precision, in the final division (_round_quotient, in plain
    integers), after the basis values.  The value is kept on the
    record per working precision and returned from there while it matches.
    """
    _require_type("expr", expr, ZetaExpr)
    _require_type("ctx", ctx, PrecisionContext)
    digits = ctx.decimal_digits
    memo = expr._value
    if memo is not None and memo[0] == digits:
        return memo[1]
    nums = expr.nums
    row = _basis(ctx).setdefault(expr.pi_pow, [0, []])
    e, ints = row
    if len(nums) > len(ints):
        new = [_basis_value(n, expr.pi_pow, ctx) for n in range(len(ints), len(nums))]
        low = min(exp for _, exp in new)
        if not ints or low < e:
            ints[:] = [v << (e - low) for v in ints]
            e = row[0] = low
        ints += [man << (exp - e) for man, exp in new]
    total = sum(map(mul, nums, ints))
    value = mp.make_mpf(_round_quotient(total, expr.den, e, ctx._prec))
    object.__setattr__(expr, "_value", (digits, value))
    return value
