"""Test oracles built on the Norlund numbers.

* ``d_norlund_recursion``: the Norlund numbers by the Bernoulli composition
  recursion with the m = 1 series.  The production ``norlund.d_norlund``
  reads them off central factorial rows instead, so the two share no
  arithmetic.
* ``f_odd_norlund`` and ``logdet_paper_formula``: the residue sum for the
  odd constants f_{2m+1} over Norlund numbers from
  ``d_norlund_recursion``.  The production ``closed_form.f_odd`` reads the same Norlund
  numbers off central factorial rows instead and stores dense records; the
  oracle sums sparse term dicts (``sparse_terms``), so the two share no
  arithmetic and are compared through ``sparse(expr) == oracle``.
* ``d_norlund_series_oracle``: the Norlund numbers by powering the exact
  Taylor series of t / sin t, sharing no code with either construction.
* ``verify_central_norlund_identity``: the central factorial rows against
  ``d_norlund_recursion``.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from gjmsdet.errors import _require_int
from gjmsdet.exact import bernoulli
from gjmsdet.norlund import central_t
from gjmsdet.zexpr import LOG2
from sparse_terms import add, scale, shift_pi, term


# typed, so a bool or float index misses the cache and is rejected, not
# served an int's value
@lru_cache(maxsize=None, typed=True)
def d_norlund_recursion(m: int, n: int) -> Fraction:
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
            * d_norlund_recursion(m, n - j)
        )
    return acc / n


def eta_expr(ell):
    """eta(ell) = sum_{n>=1} (-1)^n / n^ell: -log 2 at ell = 1, else
    (2^{1-ell} - 1) zeta(ell)."""
    if ell == 1:
        return term(LOG2, -1)
    return term(ell, Fraction(2) ** (1 - ell) - 1)


@lru_cache(maxsize=None)
def f_odd_norlund(m):
    """f_{2m+1} = -sum_{n=0}^{m} (-1)^n / (2n)! * D^(2m+1)_{2n}
                  * eta(2m-2n+1) / pi^{2m-2n+1}."""
    expr = {}
    for n in range(m + 1):
        ell = 2 * m - 2 * n + 1
        coeff = -Fraction((-1) ** n, factorial(2 * n)) * d_norlund_recursion(2 * m + 1, n)
        expr = add(expr, shift_pi(scale(coeff, eta_expr(ell)), -ell))
    return expr


def logdet_paper_formula(d, k):
    """(-1)^{(d-1)/2+k} pi / 2^{d-2k} sum_{j<k} C(2k-1-j, j) (-1/4)^j
    (f_{d+2j-2k} - f_{d+2+2j-2k}), in sparse term dicts on the oracle f."""
    acc = {}
    for j in range(k):
        m = (d - 1) // 2 + j - k  # f_{d+2j-2k} = f_{2m+1}
        c = comb(2 * k - 1 - j, j) * Fraction(-1, 4) ** j
        acc = add(acc, scale(c, add(f_odd_norlund(m), scale(-1, f_odd_norlund(m + 1)))))
    return shift_pi(scale(Fraction((-1) ** ((d - 1) // 2 + k), 2 ** (d - 2 * k)), acc), 1)


def d_norlund_series_oracle(m: int, n_max: int) -> list[Fraction]:
    """[D^(m)_0, ..., D^(m)_{2*n_max}] by exact truncated series powering.

    Builds t / sin t by inverting the Taylor series of sin(t)/t over exact
    rationals, raises it to the m-th power by repeated truncated
    multiplication, and reads off coefficients.  Deliberately shares no
    code with either Norlund construction.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    # series in the variable u = t^2
    sinc = [Fraction((-1) ** k, factorial(2 * k + 1)) for k in range(n_max + 1)]
    inv = [Fraction(1)]
    for k in range(1, n_max + 1):
        inv.append(-sum(sinc[j] * inv[k - j] for j in range(1, k + 1)))
    power = [Fraction(1)] + [Fraction(0)] * n_max
    for _ in range(m):
        power = [
            sum(power[j] * inv[k - j] for j in range(k + 1))
            for k in range(n_max + 1)
        ]
    return [(-1) ** k * factorial(2 * k) * power[k] for k in range(n_max + 1)]


@dataclass(frozen=True)
class IdentityCheck:
    m: int
    n: int
    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def verify_central_norlund_identity(
    m_max: int, superscript: str = "corrected"
) -> list[IdentityCheck]:
    """Check t(2m+1, 2n+1) = 2^{2(n-m)} C(2m, 2n) D^(M)_{2m-2n} exactly
    for all 0 <= n <= m <= m_max.

    ``superscript`` selects the upper index M of the Norlund number:
    "corrected" uses M = 2m+1 (which holds identically); "printed" uses
    M = m as it appears in the source relation, which already fails at
    (m, n) = (1, 0).  Failures are reported, never raised.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if superscript not in ("corrected", "printed"):
        raise ValueError("superscript must be 'corrected' or 'printed'")
    out = []
    for m in range(m_max + 1):
        for n in range(m + 1):
            lhs = central_t(2 * m + 1, 2 * n + 1)
            upper = 2 * m + 1 if superscript == "corrected" else m
            if upper < 1:
                continue
            rhs = (
                Fraction(4) ** (n - m)
                * comb(2 * m, 2 * n)
                * d_norlund_recursion(upper, m - n)
            )
            out.append(IdentityCheck(m, n, lhs, rhs))
    return out
