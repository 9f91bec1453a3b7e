"""Norlund numbers D^(m)_{2n}, the coefficients of (t cosec t)^m.

These are scaled higher Bernoulli polynomial values,
D^(m)_{2n} = 2^{2n} B^(m)_{2n}(m/2), and satisfy

    (t / sin t)^m = sum_{n >= 0} (-1)^n D^(m)_{2n} / (2n)! * t^{2n}.

They are built by a composition recursion with the m = 1 series.  The
closed form reads its Norlund numbers off central factorial rows instead;
this module serves ``tables --d-norlund`` and the tests' oracles.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import _require_int
from .exact import bernoulli

__all__ = ["d_norlund"]


# typed, so a bool or float index misses the cache and is rejected, not
# served an int's value
@lru_cache(maxsize=None, typed=True)
def d_norlund(m: int, n: int) -> Fraction:
    """D^(m)_{2n} by composition with the m = 1 series.

    D^(m)_{2n} = (1/n) sum_{j=1}^{n} C(2n, 2j) ((m+1)j - n) (2 - 4^j)
                 B_{2j} D^(m)_{2n-2j},   D^(m)_0 = 1.
    """
    _require_int("m", m)
    _require_int("n", n)
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(1, n + 1):
        acc += (
            comb(2 * n, 2 * j)
            * ((m + 1) * j - n)
            * (2 - 4**j)
            * bernoulli(2 * j)
            * d_norlund(m, n - j)
        )
    return acc / n
