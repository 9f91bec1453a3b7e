"""Test oracle: exact log det P_2k(S^d) from the Gamma integral.

Giombi and Klebanov ("Interpolating between a and F", arXiv:1409.1937) write
the sphere free energy of a free scalar of dimension d/2 - k as

    F = 1/d! * int_0^k u sin(pi u) Gamma(d/2 + u) Gamma(d/2 - u) du,

and log det P_2k(S^d) = 2 (-1)^((d+1)/2) F.  With d = 2n + 1,
Gamma(n+1/2+u) Gamma(n+1/2-u) = pi Q_n(u) / cos(pi u), where

    Q_n(u) = prod_(i=1..n) ((i-1/2)^2 - u^2) = sum_j q_j u^(2j).

The zeros of Q_n cancel the poles of tan(pi u) below u = k, and integrating
each u^(2j+1) tan(pi u) by parts leaves no boundary term at integer k:

    log det = 2 (-1)^(n+1) / d! * sum_j q_j (2j+1) J_2j(k),
    J_p(k) = int_0^k u^p log|cos pi u| du
           = -log 2 k^(p+1)/(p+1)
             + sum_(i<p/2) (-1)^i p!/(p-2i-1)! k^(p-2i-1) eta(2i+3)/(2 pi)^(2i+2),

from log|cos pi u| = -log 2 - sum_(r>=1) (-1)^r cos(2 pi r u)/r, with
eta(s) = (1 - 2^(1-s)) zeta(s).  That is the package's basis
{log 2, zeta(3)/pi^2, ..., zeta(d)/pi^(d-1)}.

The oracle uses plain integers and Fractions, and of the package only
``ZetaExpr.from_terms``: it shares no code with the Norlund closed form or
the product rules.
"""

from fractions import Fraction
from math import factorial

from gjmsdet.zexpr import LOG2, ZetaExpr


def q_coefficients(n: int) -> list[Fraction]:
    """[q_0, ..., q_n]: Q_n(u) = sum_j q_j u^(2j), by its product over i."""
    q = [Fraction(1)]
    for i in range(1, n + 1):
        a = Fraction(2 * i - 1, 2) ** 2
        # (a - u^2) Q: coefficient j is a q_j - q_(j-1)
        q = [a * c - prev for c, prev in zip([*q, 0], [0, *q])]
    return q


def j_terms(p: int, k: int):
    """J_p(k), p even, as (atom, own pi power, coefficient) terms."""
    yield LOG2, 0, Fraction(-k ** (p + 1), p + 1)
    for i in range(p // 2):
        s = 2 * i + 3  # eta(s) / (2 pi)^(s-1)
        weight = (-1) ** i * factorial(p) // factorial(p - 2 * i - 1) * k ** (p - 2 * i - 1)
        yield s, 1 - s, weight * (1 - Fraction(1, 2 ** (s - 1))) / 2 ** (s - 1)


def logdet_gamma(d: int, k: int) -> ZetaExpr:
    """Exact log det P_2k(S^d), d odd, 1 <= k <= (d-1)/2, from the Gamma integral."""
    n = (d - 1) // 2
    scale = Fraction(2 * (-1) ** (n + 1), factorial(d))
    return ZetaExpr.from_terms(
        (atom, p, scale * q * (2 * j + 1) * c)
        for j, q in enumerate(q_coefficients(n))
        for atom, p, c in j_terms(2 * j, k)
    )
