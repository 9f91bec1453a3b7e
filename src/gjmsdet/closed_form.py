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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import mul

import mpmath as mp

from .central_factorials import _central_poly
from .errors import validate_d_k
from .norlund import d_norlund  # noqa: F401  (a hook site the benchmark tracer patches)
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


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision for numeric evaluation, in decimal digits."""

    decimal_digits: int = 50

    def __post_init__(self) -> None:
        if self.decimal_digits < 15:
            raise ValueError("decimal_digits must be >= 15")


def f_even(m: int) -> Fraction:
    """f_{2m} = (-1)^m / (2 (2m)!) * D^(2m)_{2m}, an exact rational, where
    D^(2m)_{2m} = 4^m B^(2m)_{2m}(m) = 4^m int_m^{m+1} (t-1)(t-2)...(t-2m) dt.
    The product is x^[2m+1] / x at x = t - m - 1/2; over |x| <= 1/2 the row
    4^m x^[2m+1] integrates to sum_{n=0}^{m} row[n] / ((2n+1) 4^n)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    row = _central_poly(2 * m + 1)
    total = sum(Fraction(c, (2 * n + 1) << 2 * n) for n, c in enumerate(row))
    return Fraction((-1) ** m, 2 * factorial(2 * m)) * total


@lru_cache(maxsize=None)
def _pi_f_odd(m: int) -> tuple[int, tuple[int, ...]]:
    """pi f_{2m+1} over (log 2, zeta(3)/pi^2, ..., zeta(2m+1)/pi^2m) as the
    common denominator (2m)! 16^m and the integer numerators over it.

    The Norlund numbers D^(2m+1)_{2m-2n} are read off the central factorial
    row x^[2m+1]: the coefficient of zeta(2n+1)/pi^2n (of log 2 for n = 0) is
    (-1)^{m+n} 4^{m-n} (2n)! t(2m+1, 2n+1) / (2m)!, times 1 - 4^-n for n >= 1.
    With the integer row 4^m x^[2m+1], row[n] = 4^m t(2m+1, 2n+1), its
    numerator is (-1)^{m+n} 16^{m-n} (2n)! row[n], times 4^n - 1 for n >= 1.
    """
    fact, out = 1, []  # a running (2n)!; 16^(m-n) and 4^n are shifts
    for n, t in enumerate(_central_poly(2 * m + 1)):
        fact *= (2 * n - 1) * 2 * n if n else 1
        c = (-1) ** (m + n) * fact * t << 4 * (m - n)
        out.append(c * ((1 << 2 * n) - 1) if n else c)
    return fact << 4 * m, tuple(out)


@lru_cache(maxsize=None)
def f_odd(m: int) -> ZetaExpr:
    """f_{2m+1} as an exact expression over {log 2, zeta(odd)}.

    f_{2m+1} = -sum_{n=0}^{m} (-1)^n / (2n)! * D^(2m+1)_{2n}
               * eta(2m-2n+1) / pi^{2m-2n+1},

    eta(1) = -log 2 and eta(s) = (2^{1-s} - 1) zeta(s) for s > 1.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    den, row = _pi_f_odd(m)
    return ZetaExpr(-1, den, (0, *row))


def f_expr(m: int) -> ZetaExpr:
    """f_m for either parity, as a ZetaExpr (even m gives a pure constant)."""
    if m % 2 == 0:
        q = f_even(m // 2)
        return ZetaExpr(0, q.denominator, (q.numerator,))
    return f_odd((m - 1) // 2)


# crosscheck reads each k >= 2 record once and each k = 1 record again at most
# d + 1 records later: 1024 = quadrature.D_MAX_FLOAT64 + 1 keeps every reuse
@lru_cache(maxsize=1024)
def logdet_gjms(d: int, k: int) -> ZetaExpr:
    """Exact log det P_2k on the round unit d-sphere, d odd, 2k <= d.

    Every f in the formula has odd index d + 2j - 2k = 2(m0 + j) + 1, so the
    sum is a weighted sum of the dense vectors pi f_{2m+1}, m0 <= m <= m0 + k.
    It is summed in integers over the top vector's denominator, which every
    lower one divides.
    """
    validate_d_k(d, k)
    m0 = (d - 1) // 2 - k
    # 4^k times the weights C(2k-1-j, j) (-1/4)^j of the f-differences
    weights = [0] * (k + 1)
    for j in range(k):
        c = comb(2 * k - 1 - j, j) * (-1) ** j * 4 ** (k - j)
        weights[j] += c
        weights[j + 1] -= c
    top_den, top = _pi_f_odd(m0 + k)
    acc = [0] * len(top)
    for j, w in enumerate(weights):
        den, row = _pi_f_odd(m0 + j)
        w *= top_den // den
        for n, c in enumerate(row):
            acc[n] += w * c
    # the prefactor's sign and 2^(d-2k), the weights' 4^k
    den = (-1) ** ((d - 1) // 2 + k) * top_den << d
    return ZetaExpr(0, den, (0, *acc))


# -- numeric evaluation ---------------------------------------------------

@lru_cache(maxsize=None)
def zeta_odd(s: int, ctx: PrecisionContext = PrecisionContext()) -> mp.mpf:
    """zeta(s) for odd s >= 3 with relative error <= 10^-decimal_digits."""
    if s < 3 or s % 2 == 0:
        raise ValueError("s must be an odd integer >= 3")
    with mp.workdps(ctx.decimal_digits + 10):
        return mp.zeta(s)


@lru_cache(maxsize=None)
def _basis(ctx: PrecisionContext) -> dict:
    """Table record pi power -> row [e, ints] of aligned basis values: slot
    n's term is ints[n] * 2^e exactly, e the least exponent in the row.

    evaluate grows a row slot by slot as records need more slots: it
    computes _basis_value only for the new slots and, when one has a new
    least exponent, shifts the ints already there.  One context hash per
    call, not one per term.
    """
    return {}


def _basis_value(n: int, pi_pow: int, ctx: PrecisionContext) -> tuple[int, int]:
    """Signed mantissa and exponent of slot n's term in a record with power
    pi_pow, at the working precision evaluate uses for ctx."""
    atom, pi_pow = _term(n, pi_pow)
    with mp.workdps(ctx.decimal_digits + 10):
        base = mp.mpf(1) if atom == ONE else mp.log(2) if atom == LOG2 else zeta_odd(atom, ctx)
        return (base * mp.pi**pi_pow).man_exp


def evaluate(expr: ZetaExpr, ctx: PrecisionContext = PrecisionContext()) -> mp.mpf:
    """Numeric value of an exact expression at the context's precision.

    With the aligned basis values b_n = ints[n] 2^e, the sum of
    nums[n]/den b_n is 2^e / den times the integer dot product of nums and
    ints.  That product is exact, so the value is rounded once, in the
    final division, after the basis values.  The value is kept on the
    record per working precision and returned from there while it matches.
    """
    digits = ctx.decimal_digits
    memo = expr._value
    if memo is not None and memo[0] == digits:
        return memo[1]
    nums = expr.nums
    row = _basis(ctx).setdefault(expr.pi_pow, [0, []])
    e, ints = row
    for n in range(len(ints), len(nums)):
        man, exp = _basis_value(n, expr.pi_pow, ctx)
        if not ints or exp < e:
            ints[:] = [v << (e - exp) for v in ints]
            e = row[0] = exp
        ints.append(man << (exp - e))
    total = sum(map(mul, nums, ints))
    with mp.workdps(digits + 10):
        value = mp.ldexp(mp.fdiv(total, expr.den), e)
    object.__setattr__(expr, "_value", (digits, value))
    return value
