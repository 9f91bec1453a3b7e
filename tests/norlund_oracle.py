"""Test oracle for the odd residue constants f_{2m+1}: the residue sum over
Norlund numbers from the composition recursion.

The production ``closed_form.f_odd`` reads the same Norlund numbers off
central factorial rows instead and stores dense records; this oracle sums
sparse term dicts (``sparse_terms``), so the two share no arithmetic and
are compared through ``sparse(expr) == oracle``.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from gjmsdet.norlund import d_norlund
from gjmsdet.zexpr import LOG2
from sparse_terms import add, scale, shift_pi, term


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
        coeff = -Fraction((-1) ** n, factorial(2 * n)) * d_norlund(2 * m + 1, n)
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
