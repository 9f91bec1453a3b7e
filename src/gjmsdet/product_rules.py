"""Determinant product rules: det P_2k(d) as a product of det P_2 powers.

Expanding sinh(kx)/sinh(x/2) = U_{2k-1}(cosh(x/2)) in the determinant
integral turns the order-2k determinant into a product of conformal
Laplacian determinants over dimensions d, d-2, ..., d-2k+2, with binomial
integer exponents.  :func:`logdet_via_product` sums one rule; a whole column
of records follows from its k = 1 record, which the caller supplies, and the
column below by the rule's three-term recurrence in k (``_step_sum``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .closed_form import logdet_gjms
from .errors import _require_int, validate_d_k
from .zexpr import ZetaExpr

# the closed form's own cache, bound at import: a tracer may rebind logdet_gjms here
_logdet_lru = logdet_gjms._lru

__all__ = [
    "ProductRule",
    "rule_exponents",
    "product_rule",
    "logdet_via_product",
]


def rule_exponents(k: int) -> list[int]:
    """Exponents [v_0, ..., v_{k-1}] attached to dimensions d, d-2, ...

    v_j = C(k+j, k-1-j), the square array of binomial coefficients read by
    anti-diagonals.  These are the Chebyshev split: with U_{2k-1}(x) =
    x (u_0 + u_1 x^2 + ... + u_{k-1} x^{2k-2}), v_j = (-1)^{k-1+j} u_j / 2^{2j+1}.
    """
    _require_int("k", k, 1)
    return [comb(k + j, k - 1 - j) for j in range(k)]


@dataclass(frozen=True)
class ProductRule:
    """det P_2k(d) ~ prod over (dimension, exponent) of det P_2 powers."""

    k: int
    factors: tuple[tuple[int, int], ...]

    def _args(self, abstract: bool) -> list[tuple[str, int]]:
        """(argument, exponent) per factor; abstract arguments are d, d-2, ..."""
        return [
            (("d" if idx == 0 else f"d-{2 * idx}") if abstract else str(dim), exp)
            for idx, (dim, exp) in enumerate(self.factors)
        ]

    def render(self, abstract: bool = False) -> str:
        pieces = (f"P_2({a})" if e == 1 else f"P_2({a})^{e}" for a, e in self._args(abstract))
        return f"P_{2 * self.k} ~ " + " * ".join(pieces)

    def render_latex(self, abstract: bool = False) -> str:
        pieces = (f"P_2({a})" if e == 1 else f"P_2^{{{e}}}({a})" for a, e in self._args(abstract))
        return f"P_{{{2 * self.k}}} \\sim " + "".join(pieces)


def product_rule(d: int, k: int) -> ProductRule:
    """The product rule for det P_2k(d); dimensions d, d-2, ..., d-2k+2."""
    validate_d_k(d, k)
    exponents = rule_exponents(k)
    return ProductRule(
        k=k, factors=tuple((d - 2 * j, v) for j, v in enumerate(exponents))
    )


def logdet_via_product(d: int, k: int) -> ZetaExpr:
    """Exact log det P_2k(d) summed from conformal-Laplacian factors.  Once
    (d, k) is valid, so is every (d - 2j, 1): read from the cache unchecked."""
    validate_d_k(d, k)
    return ZetaExpr._weighted_sum(
        (exp, _logdet_lru(d - 2 * j, 1)) for j, exp in enumerate(rule_exponents(k))
    )


def _step_sum(below: list[ZetaExpr], column: list[ZetaExpr]) -> tuple:
    """The product route's next record of column d, L(d, k+1) for k =
    len(column) >= 1, as the fields (pi_pow, den, nums) of its sum before the
    canonical form (ZetaExpr._int_sum).

    ``column`` holds L(d, 1..k) and ``below`` L(d-2, 1..) of the same route.
    In the determinant integral sinh((k+1)x) + sinh((k-1)x) = 2 sinh(kx)
    (2 cosh^2(x/2) - 1), and one cosh^2(x/2) lowers d by 2, so
    L(d, k+1) = L(d-2, k) + 2 L(d, k) - L(d, k-1), with L(d, 0) = 0.  The
    product rule is the solution seeded with the k = 1 column, which the
    caller passes in: each record costs one sum of at most three records,
    not k.  The caller keeps (d, k+1) valid, 2k + 2 <= d.
    """
    k = len(column)
    terms = [(1, below[k - 1]), (2, column[k - 1])]
    if k > 1:
        terms.append((-1, column[k - 2]))
    return ZetaExpr._int_sum(terms)
