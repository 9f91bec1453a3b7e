"""Log-determinants of scalar GJMS operators on odd-dimensional spheres.

Three mutually cross-checking routes:

* :mod:`gjmsdet.quadrature` -- direct numerical integration;
* :mod:`gjmsdet.product_rules` -- reduction to products of conformal
  Laplacian determinants;
* :mod:`gjmsdet.closed_form` -- an exact closed form over the basis
  {1, log 2, zeta(odd)/pi^even}.
"""

from .central_factorials import central_t, f_odd_central, verify_central_norlund_identity
from .closed_form import (
    PrecisionContext,
    eta_expr,
    evaluate,
    f_even,
    f_expr,
    f_odd,
    logdet_gjms,
    zeta_odd,
)
from .errors import DivergentDeterminantError, Float64RangeError, InvalidDimensionError
from .exact import bernoulli, binomial
from .norlund import d_norlund, d_norlund_series_oracle
from .product_rules import (
    ProductRule,
    chebyshev_u_coeffs,
    logdet_via_product,
    product_rule,
    rule_exponents,
)
from .quadrature import (
    QuadratureConfig,
    QuadResult,
    integrand_factor,
    integrand_main,
    logdet_factor_quadrature,
    logdet_quadrature,
    logdet_quadrature_result,
)
from .zexpr import LOG2, ONE, ZetaExpr

__version__ = "0.1.0"

__all__ = [
    "bernoulli",
    "binomial",
    "d_norlund",
    "d_norlund_series_oracle",
    "central_t",
    "verify_central_norlund_identity",
    "f_odd_central",
    "ZetaExpr",
    "ONE",
    "LOG2",
    "PrecisionContext",
    "eta_expr",
    "f_even",
    "f_odd",
    "f_expr",
    "logdet_gjms",
    "zeta_odd",
    "evaluate",
    "QuadratureConfig",
    "QuadResult",
    "integrand_main",
    "integrand_factor",
    "logdet_quadrature",
    "logdet_quadrature_result",
    "logdet_factor_quadrature",
    "chebyshev_u_coeffs",
    "ProductRule",
    "rule_exponents",
    "product_rule",
    "logdet_via_product",
    "InvalidDimensionError",
    "DivergentDeterminantError",
    "Float64RangeError",
    "__version__",
]
