"""Determinant product rules: det P_2k(d) as a product of det P_2 powers.

Expanding sinh(kx)/sinh(x/2) = U_{2k-1}(cosh(x/2)) in the determinant
integral turns the order-2k determinant into a product of conformal
Laplacian determinants over dimensions d, d-2, ..., d-2k+2.  The integer
exponents are computed by two independent routes (Chebyshev coefficients
and a binomial closed form) which must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .closed_form import logdet_gjms
from .errors import validate_d_k
from .zexpr import ZetaExpr

__all__ = [
    "chebyshev_u_coeffs",
    "ProductRule",
    "rule_exponents",
    "product_rule",
    "logdet_via_product",
]


def chebyshev_u_coeffs(n: int) -> list[int]:
    """Monomial coefficients of the Chebyshev polynomial U_n, ascending.

    U_n(x) = sum_{j=0}^{floor(n/2)} (-1)^j C(n-j, j) (2x)^{n-2j};
    the returned list has length n + 1 and includes the zero entries.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = [0] * (n + 1)
    for j in range(n // 2 + 1):
        coeffs[n - 2 * j] = (-1) ** j * comb(n - j, j) * 2 ** (n - 2 * j)
    return coeffs


def _u_split(k: int) -> list[int]:
    """[u_0, ..., u_{k-1}] with U_{2k-1}(x) = x (u_0 + u_1 x^2 + ...)."""
    full = chebyshev_u_coeffs(2 * k - 1)
    return [full[2 * j + 1] for j in range(k)]


def rule_exponents(k: int) -> list[int]:
    """Exponents [v_0, ..., v_{k-1}] attached to dimensions d, d-2, ...

    Computed both as v_j = (-1)^{k-1+j} u_j / 2^{2j+1} and as the binomial
    closed form C(k+j, k-1-j); the two must agree (they are the square
    array of binomial coefficients read by anti-diagonals).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    u = _u_split(k)
    from_u = []
    for j in range(k):
        num = (-1) ** (k - 1 + j) * u[j]
        den = 2 ** (2 * j + 1)
        if num % den:
            raise AssertionError(f"non-integer exponent at k={k}, j={j}")
        from_u.append(num // den)
    from_binom = [comb(k + j, k - 1 - j) for j in range(k)]
    if from_u != from_binom:
        raise AssertionError(
            f"exponent constructions disagree at k={k}: {from_u} vs {from_binom}"
        )
    return from_u


@dataclass(frozen=True)
class ProductRule:
    """det P_2k(d) ~ prod over (dimension, exponent) of det P_2 powers."""

    k: int
    factors: tuple[tuple[int, int], ...]

    def render(self, abstract: bool = False) -> str:
        pieces = []
        for idx, (dim, exp) in enumerate(self.factors):
            arg = ("d" if idx == 0 else f"d-{2 * idx}") if abstract else str(dim)
            name = f"P_2({arg})"
            pieces.append(name if exp == 1 else f"{name}^{exp}")
        return f"P_{2 * self.k} ~ " + " * ".join(pieces)

    def render_latex(self, abstract: bool = False) -> str:
        pieces = []
        for idx, (dim, exp) in enumerate(self.factors):
            arg = ("d" if idx == 0 else f"d-{2 * idx}") if abstract else str(dim)
            sup = "" if exp == 1 else f"^{{{exp}}}"
            pieces.append(f"P_2{sup}({arg})")
        return f"P_{{{2 * self.k}}} \\sim " + "".join(pieces)


def product_rule(d: int, k: int) -> ProductRule:
    """The product rule for det P_2k(d); dimensions d, d-2, ..., d-2k+2."""
    validate_d_k(d, k)
    exponents = rule_exponents(k)
    return ProductRule(
        k=k, factors=tuple((d - 2 * j, v) for j, v in enumerate(exponents))
    )


def logdet_via_product(d: int, k: int) -> ZetaExpr:
    """Exact log det P_2k(d) summed from conformal-Laplacian factors."""
    rule = product_rule(d, k)
    acc = ZetaExpr.zero()
    for dim, exp in rule.factors:
        acc = acc + exp * logdet_gjms(dim, 1)
    return acc
