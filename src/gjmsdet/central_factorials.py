"""Central factorial coefficients of the first kind, as exact integer rows.

The central factorial polynomial is

    x^[n] = x * prod_{i=1}^{n-1} (x + n/2 - i) = sum_k t(n, k) x^k,

and its monomial coefficients t(n, k) are the central factorial
coefficients of the first kind.  The classical "central differentials of
nothing" are the rescaling D^k 0^[n] = k! * t(n, k).

For odd arguments the t(*, *) are tied to the Norlund numbers by

    t(2m+1, 2n+1) = 2^{2(n-m)} C(2m, 2n) D^(2m+1)_{2m-2n},

and D^(2m)_{2m} is an integral of x^[2m+1] / x.  Through these the rows of
x^[2m+1] supply every residue constant f_m (see :mod:`gjmsdet.closed_form`);
the tests check the identity against the Norlund recursion.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["central_t"]


# rows 4^(n//2) x^[n] as ascending integer monomial coefficients, one growing
# list per parity, seeded with x^[0] = 1 and x^[1] = x and extended by
# x^[r+2] = x^[r] (x^2 - r^2/4), which on the scaled rows reads
# row[p] = 4 last[p-2] - r^2 last[p]
_CENTRAL: tuple[list[tuple[int, ...]], ...] = ([(1,)], [(0, 1)])


def _central_poly(n: int) -> tuple[int, ...]:
    """Ascending monomial coefficients of 4^(n//2) x^[n], memoized up to the
    largest n."""
    rows = _CENTRAL[n % 2]
    while len(rows) <= n // 2:
        last = rows[-1]
        r = 2 * len(rows) - 2 + n % 2  # last is 4^(r//2) x^[r]
        r2 = r * r
        row = [0, 0, *(4 * c for c in last)]
        for p, c in enumerate(last):
            row[p] -= r2 * c
        rows.append(tuple(row))
    return rows[n // 2]


def central_t(n: int, k: int) -> Fraction:
    """Coefficient t(n, k) of x^k in x^[n]; 0 outside 1 <= k <= n or when
    n - k is odd."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > n:
        return Fraction(0)
    return Fraction(_central_poly(n)[k], 4 ** (n // 2))
