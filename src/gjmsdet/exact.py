"""Bernoulli numbers as exact rationals.

Everything here is computed over arbitrary-precision integers and
``fractions.Fraction``; no floating point enters at any stage.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import _require_int

__all__ = ["bernoulli"]

_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n as an exact Fraction, convention B_1 = -1/2, by the
    defining recursion sum_{j=0}^{m} C(m+1, j) B_j = 0 (m >= 1), memoized up to
    the largest index requested.  Public only: no package module calls it."""
    _require_int("n", n, 0)
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        acc = sum(
            (Fraction(comb(m + 1, j)) * _BERNOULLI[j] for j in range(m)),
            Fraction(0),
        )
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]
