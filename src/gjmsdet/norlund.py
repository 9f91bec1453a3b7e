"""Central factorial rows and the Norlund numbers read off them.

The central factorial polynomial is

    x^[n] = x * prod_{i=1}^{n-1} (x + n/2 - i) = sum_k t(n, k) x^k,

and its monomial coefficients t(n, k) are the central factorial
coefficients of the first kind ("central differentials of nothing" are the
rescaling D^k 0^[n] = k! * t(n, k)).  x^[n] has the parity of n, so the
integer rows 4^(n//2) x^[n] keep only the coefficients of x^(n%2),
x^(n%2+2), ..., x^n; central_t alone maps k to a slot.  Besides the
readers here, closed_form's f_even and _pi_f_odd_sum read the rows.

The Norlund numbers D^(m)_{2n} = 2^{2n} B^(m)_{2n}(m/2) are the coefficients of

    (t / sin t)^m = sum_{n >= 0} (-1)^n D^(m)_{2n} / (2n)! * t^{2n},

and the rows give them as D^(m)_{2n} = 4^n t(m, m-2n) / C(m-1, 2n) for
m >= 2n+1.  For fixed n that is a polynomial of degree n in m, so its
forward differences at m = 2n+1 .. 3n+1 give every m.  The composition
recursion with the m = 1 series is the oracle in ``tests/norlund_oracle.py``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .errors import _cached_after, _require_int

__all__ = ["central_t", "d_norlund"]


# rows 4^(n//2) x^[n], seeded with x^[0] = 1 and x^[1] = x; on them
# x^[r+2] = x^[r] (x^2 - r^2/4) reads row[i] = 4 last[i-1] - r^2 last[i]
_CENTRAL: tuple[list[tuple[int, ...]], ...] = ([(1,)], [(1,)])


def _central_poly(n: int) -> tuple[int, ...]:
    """Coefficients of x^(n%2), x^(n%2+2), ..., x^n in 4^(n//2) x^[n],
    memoized up to the largest n."""
    rows = _CENTRAL[n % 2]
    while len(rows) <= n // 2:
        last = rows[-1]
        r2 = (2 * len(rows) - 2 + n % 2) ** 2  # last is 4^(r//2) x^[r]
        rows.append(tuple(4 * a - r2 * b for a, b in zip((0, *last), (*last, 0))))
    return rows[n // 2]


def central_t(n: int, k: int) -> Fraction:
    """Coefficient t(n, k) of x^k in x^[n]; 0 outside 1 <= k <= n or when
    n - k is odd."""
    _require_int("n", n, 1)
    _require_int("k", k, 0)
    if k > n or (n - k) % 2:
        return Fraction(0)
    return Fraction(_central_poly(n)[k // 2], 4 ** (n // 2))


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
