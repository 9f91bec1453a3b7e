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

import mpmath as mp

from .errors import validate_d_k
from .norlund import d_norlund
from .zexpr import LOG2, ONE, ZetaExpr

__all__ = [
    "PrecisionContext",
    "eta_expr",
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


def eta_expr(ell: int) -> ZetaExpr:
    """Alternating zeta value eta(ell) = sum_{n>=1} (-1)^n / n^ell, exactly.

    Sign convention: the sum starts with -1, so eta(1) = -log 2 and
    eta(ell) = (2^{1-ell} - 1) zeta(ell) for ell > 1 (negative for odd ell).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell == 1:
        return ZetaExpr.log2(-1)
    return ZetaExpr.zeta(ell, Fraction(2) ** (1 - ell) - 1)


def f_even(m: int) -> Fraction:
    """f_{2m}, an exact rational: (1/2) (-1)^m / (2m)! * D^(2m)_{2m}."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        # empty-data edge case of the general formula
        return Fraction(1, 2)
    return Fraction((-1) ** m, 2 * factorial(2 * m)) * d_norlund(2 * m, m)


@lru_cache(maxsize=None)
def f_odd(m: int) -> ZetaExpr:
    """f_{2m+1} as an exact expression over {log 2, zeta(odd)}.

    f_{2m+1} = -sum_{n=0}^{m} (-1)^n / (2n)! * D^(2m+1)_{2n}
               * eta(2m-2n+1) / pi^{2m-2n+1}
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    expr = ZetaExpr.zero()
    for n in range(m + 1):
        ell = 2 * m - 2 * n + 1
        coeff = -Fraction((-1) ** n, factorial(2 * n)) * d_norlund(2 * m + 1, n)
        expr = expr + (coeff * eta_expr(ell)).mul_pi(-ell)
    return expr


def f_expr(m: int) -> ZetaExpr:
    """f_m for either parity, as a ZetaExpr (even m gives a pure constant)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m % 2 == 0:
        return ZetaExpr.const(f_even(m // 2))
    return f_odd((m - 1) // 2)


@lru_cache(maxsize=None)
def logdet_gjms(d: int, k: int) -> ZetaExpr:
    """Exact log det P_2k on the round unit d-sphere, d odd, 2k <= d."""
    validate_d_k(d, k)
    acc = ZetaExpr.zero()
    for j in range(k):
        c = comb(2 * k - 1 - j, j) * Fraction(-1, 4) ** j
        acc = acc + c * (f_expr(d + 2 * j - 2 * k) - f_expr(d + 2 + 2 * j - 2 * k))
    prefactor = Fraction((-1) ** ((d - 1) // 2 + k), 2 ** (d - 2 * k))
    return (prefactor * acc).mul_pi(1)


# -- numeric evaluation ---------------------------------------------------

@lru_cache(maxsize=None)
def zeta_odd(s: int, ctx: PrecisionContext = PrecisionContext()) -> mp.mpf:
    """zeta(s) for odd s >= 3 with relative error <= 10^-decimal_digits."""
    if s < 3 or s % 2 == 0:
        raise ValueError("s must be an odd integer >= 3")
    with mp.workdps(ctx.decimal_digits + 10):
        return mp.zeta(s)


def evaluate(expr: ZetaExpr, ctx: PrecisionContext = PrecisionContext()) -> mp.mpf:
    """Numeric value of an exact expression at the context's precision."""
    with mp.workdps(ctx.decimal_digits + 10):
        total = mp.mpf(0)
        for atom, pi_pow, coeff in expr.terms():
            if atom == ONE:
                base = mp.mpf(1)
            elif atom == LOG2:
                base = mp.log(2)
            else:
                base = zeta_odd(atom, ctx)
            total += mp.mpf(coeff.numerator) / coeff.denominator * base * mp.pi**pi_pow
        return +total
