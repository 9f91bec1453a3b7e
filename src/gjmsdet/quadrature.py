"""Direct numerical evaluation of the determinant integrals.

The log-determinant of P_2k on the odd d-sphere is, for 2k <= d,

    logdet = (-1)^{(d-1)/2+k} / 2^{d-1}
             * integral_0^inf pi/(x^2+pi^2)
               * sinh(x/2) sinh(kx) / cosh^{d+1}(x/2) dx,

and each conformal-Laplacian factor det(B^2 - alpha_j^2), alpha_j = j+1/2,
has an analogous integral.  Integrands are evaluated in exponentially
scaled form (a decaying exponential times a bounded rational function of
e^{-x}), so nothing overflows for x up to 1e4; the semi-infinite domain is
truncated where a closed-form geometric tail bound drops below tolerance,
and the rest is integrated by adaptive Gauss-Kronrod (QUADPACK).  The
scale 2^{d-1} must be a finite double, which limits d to D_MAX_FLOAT64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _gk_quad

from .errors import Float64RangeError, validate_d_k

__all__ = [
    "QuadratureConfig",
    "QuadResult",
    "integrand_main",
    "integrand_factor",
    "logdet_quadrature",
    "logdet_quadrature_result",
    "logdet_factor_quadrature",
]

# largest d with 2^(d-1) <= 2^1023, the largest power of two a double holds
D_MAX_FLOAT64 = 1023

_PI2 = math.pi**2
_GK_LIMIT = 9523  # QUADPACK subinterval limit


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute tolerance for the integrals."""

    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.abs_tol < 1e-14:
            raise ValueError("abs_tol below the double-precision floor 1e-14")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    neval: int


def integrand_main(x, d: int, k: int):
    """Integrand pi/(x^2+pi^2) sinh(x/2) sinh(kx) / cosh^{d+1}(x/2).

    Written as 2^{d-1} e^{(k-d/2)x} (1-e^{-x})(1-e^{-2kx}) / (1+e^{-x})^{d+1}
    times the Lorentzian factor; accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    t = np.exp(-x)
    grow = np.exp((k - d / 2) * x)
    num = (-np.expm1(-x)) * (-np.expm1(-2 * k * x))
    return (np.pi / (x * x + _PI2)) * 2.0 ** (d - 1) * grow * num / (1.0 + t) ** (d + 1)


def integrand_factor(x, d: int, j: int):
    """Integrand (-1)^j pi/(x^2+pi^2) sinh(x/2) sinh(a_j x) / cosh^d(x/2),
    a_j = j + 1/2, in exponentially scaled form."""
    x = np.asarray(x, dtype=float)
    t = np.exp(-x)
    alpha = j + 0.5
    grow = np.exp((alpha + 0.5 - d / 2) * x)
    num = (-np.expm1(-x)) * (-np.expm1(-2 * alpha * x))
    return (
        (-1) ** j
        * (np.pi / (x * x + _PI2))
        * 2.0 ** (d - 2)
        * grow
        * num
        / (1.0 + t) ** d
    )


def _integrate(
    f, d: int, k: int, scale_exp: int, sign: int, cfg: QuadratureConfig | None
) -> QuadResult:
    """sign / 2^scale_exp * integral_0^inf f, for an integrand f of order
    k on the d-sphere bounded by 2^scale_exp / pi * e^{-(d/2-k) x}."""
    validate_d_k(d, k)
    if d > D_MAX_FLOAT64:
        raise Float64RangeError(
            f"quadrature works in float64 and needs d <= {D_MAX_FLOAT64}, got d={d}"
        )
    cfg = cfg or QuadratureConfig()
    # upper limit X with integral_X^inf amplitude*e^{-rate*x} dx < abs_tol/10
    rate = d / 2 - k
    amplitude = 2.0**scale_exp / math.pi
    upper = max(40.0, math.log(10.0 * amplitude / (rate * cfg.abs_tol)) / rate)
    value, err, info = _gk_quad(
        f, 0.0, upper, epsabs=cfg.abs_tol / 4, epsrel=1e-13,
        limit=_GK_LIMIT, full_output=True,
    )[:3]
    prefactor = sign / 2.0**scale_exp
    return QuadResult(
        value=prefactor * value,
        error=abs(prefactor) * err + cfg.abs_tol / 10,
        neval=info["neval"],
    )


def logdet_quadrature_result(
    d: int, k: int, cfg: QuadratureConfig | None = None
) -> QuadResult:
    """logdet P_2k(d) by quadrature, with error estimate and eval count."""
    return _integrate(
        lambda x: integrand_main(x, d, k), d, k, d - 1,
        (-1) ** ((d - 1) // 2 + k), cfg,
    )


def logdet_quadrature(d: int, k: int, cfg: QuadratureConfig | None = None) -> float:
    """Numeric logdet P_2k(d) with absolute error <= cfg.abs_tol."""
    return logdet_quadrature_result(d, k, cfg).value


def logdet_factor_quadrature(
    d: int, j: int, cfg: QuadratureConfig | None = None
) -> float:
    """Numeric log det(B^2 - alpha_j^2) on the d-sphere, alpha_j = j + 1/2."""
    # factor j converges exactly where P_2k does with k = j + 1
    return _integrate(
        lambda x: integrand_factor(x, d, j), d, j + 1, d - 2,
        (-1) ** ((d + 1) // 2), cfg,
    ).value
