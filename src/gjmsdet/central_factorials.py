"""Central factorial coefficients of the first kind, as exact integer rows.

The central factorial polynomial is

    x^[n] = x * prod_{i=1}^{n-1} (x + n/2 - i) = sum_k t(n, k) x^k,

and its monomial coefficients t(n, k) are the central factorial
coefficients of the first kind.  The classical "central differentials of
nothing" are the rescaling D^k 0^[n] = k! * t(n, k).

The t(*, *) are tied to the Norlund numbers by (m >= 2n+1)

    t(m, m-2n) = 4^{-n} C(m-1, 2n) D^(m)_{2n},

and D^(2m)_{2m} is an integral of x^[2m+1] / x.  Through these the rows
supply every residue constant f_m and every Norlund number; the tests check
the identity against the Bernoulli composition recursion.

x^[n] has the parity of n, so the integer rows 4^(n//2) x^[n] keep only the
coefficients of x^(n%2), x^(n%2+2), ..., x^n; central_t alone maps k to a slot.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import _require_int

__all__ = ["central_t"]


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
