"""Norlund numbers D^(m)_{2n} = 2^{2n} B^(m)_{2n}(m/2), the coefficients of

    (t / sin t)^m = sum_{n >= 0} (-1)^n D^(m)_{2n} / (2n)! * t^{2n},

read off the central factorial rows: D^(m)_{2n} = 4^n t(m, m-2n) / C(m-1, 2n)
for m >= 2n+1, and for fixed n it is a polynomial of degree n in m, so its
forward differences at m = 2n+1 .. 3n+1 give every m.  The composition
recursion with the m = 1 series is the oracle in ``tests/norlund_oracle.py``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .central_factorials import _central_poly
from .errors import _cached_after, _require_int

__all__ = ["d_norlund"]


@lru_cache(maxsize=None)
def _newton(n: int) -> tuple[tuple[int, ...], int]:
    """Forward differences 0..n of m -> D^(m)_{2n} at m = 2n+1, over one common
    denominator; the point m reads 4^(m//2) t(m, m-2n), n entries from the top."""
    points = [Fraction(_central_poly(m)[-1 - n], comb(m - 1, 2 * n) << 2 * (m // 2 - n))
              for m in range(2 * n + 1, 3 * n + 2)]
    den = lcm(*(p.denominator for p in points))
    diffs = [p.numerator * (den // p.denominator) for p in points]
    for i in range(1, n + 1):  # diffs[j] becomes the j-th difference
        for j in range(n, i - 1, -1):
            diffs[j] -= diffs[j - 1]
    return tuple(diffs), den


@_cached_after(lambda m, n: (_require_int("m", m, 1), _require_int("n", n, 0)))
def d_norlund(m: int, n: int) -> Fraction:
    """D^(m)_{2n} by the Newton sum sum_{i=0}^{n} C(m-2n-1, i) Delta^i over
    _newton(n); the generalised binomial C(h, i) is an integer for h < 0 too."""
    diffs, den = _newton(n)
    h, c, acc = m - 2 * n - 1, 1, 0
    for i, delta in enumerate(diffs):
        acc += c * delta
        c = c * (h - i) // (i + 1)
    return Fraction(acc, den)
