"""Direct numerical evaluation of the determinant integrals.

The log-determinant of P_2k on the odd d-sphere is, for 2k <= d,

    logdet = (-1)^{(d-1)/2+k} / 2^{d-1}
             * integral_0^inf pi/(x^2+pi^2)
               * sinh(x/2) sinh(kx) / cosh^{d+1}(x/2) dx,

and each conformal-Laplacian factor det(B^2 - alpha_j^2), alpha_j = j+1/2,
integrates (-1)^j times the main integrand of S^{d-1} at k = alpha_j.  The
integrand is evaluated in exponentially scaled form (a decaying exponential
times a bounded rational function of e^{-x}), so nothing overflows for x up
to 1e4; the semi-infinite domain is truncated where a closed-form geometric
tail bound drops below tolerance.  The d-1 integrals of one sphere form
one table of (dimension, k) pairs, d for the mains and d-1 for the factors,
and are integrated together: one adaptive Gauss-Kronrod pass (QUADPACK's
21-point rule, one main-integrand call per dimension vectorised over the
abscissae and that dimension's rows) on panels they share.  The scale
2^{d-1} must be a finite double, which limits d to D_MAX_FLOAT64.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DivergentDeterminantError,
    Float64RangeError,
    _require_int,
    _require_type,
    validate_d,
    validate_d_k,
)

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

# QUADPACK's qk21 (Piessens et al. 1983): the 21 Kronrod nodes on [-1, 1],
# their weights, and the 10-point Gauss weights, zero at the Kronrod-only nodes
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745938087, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.zeros(11)
_WG[1::2] = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_NODES = np.concatenate([-_XK, _XK[-2::-1]])
_KRONROD = np.concatenate([_WK, _WK[-2::-1]])
_GAUSS = np.concatenate([_WG, _WG[-2::-1]])
_EPS = np.finfo(float).eps
_START_PANELS = 16
# most panels one sphere may share; at the cap the errors reached are returned
_PANEL_LIMIT = 2000
# most integrand values one call holds (16 MB of doubles)
_CHUNK_VALUES = 1 << 21
# least abs_tol: the double-precision floor
_ABS_TOL_FLOOR = 1e-14


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute tolerance for the integrals."""

    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        # a bool is no tolerance (True would integrate at 1.0); a str or None
        # would fail the range check below with a TypeError
        if isinstance(self.abs_tol, bool) or not isinstance(self.abs_tol, numbers.Real):
            raise ValueError(f"abs_tol must be a number, got {self.abs_tol!r}")
        if not _ABS_TOL_FLOOR <= self.abs_tol < math.inf:  # also rejects nan
            raise ValueError(
                f"abs_tol must be finite and >= {_ABS_TOL_FLOOR} (the double-precision "
                f"floor), got {self.abs_tol}"
            )


@dataclass(frozen=True)
class QuadResult:
    """A value with its error estimate; ``neval`` counts the abscissae, which
    the d-1 integrals of one sphere share."""

    value: float
    error: float
    neval: int


def integrand_main(x, d: int, k):
    """Integrand pi/(x^2+pi^2) sinh(x/2) sinh(kx) / cosh^{d+1}(x/2).

    Written as the Lorentzian factor times 2^{d-1} e^{(k-d/2)x}
    (1-e^{-x})(1-e^{-2kx}) / (1+e^{-x})^{d+1}, as a float array (a float x
    gives a float); d and k may be arrays that broadcast against x.
    Raising 1+e^{-x} to -(d+1) rather than dividing by its power, which
    reaches 2^1024 at d = 1023, keeps x near 0 from overflowing.
    """
    x = np.asarray(x, dtype=float)
    # the k-free factors, shaped as x and d; (1-e^-x)(1-e^-2kx) is the
    # product of the two expm1 values, whose signs cancel
    fixed = (math.pi / (x * x + _PI2)) * 2.0 ** (d - 1) * np.expm1(-x)
    fixed = fixed * (1.0 + np.exp(-x)) ** -(d + 1)
    return fixed * np.exp((k - d / 2) * x) * np.expm1(-2 * k * x)


def integrand_factor(x, d: int, j):
    """Integrand (-1)^j pi/(x^2+pi^2) sinh(x/2) sinh(a_j x) / cosh^d(x/2),
    a_j = j + 1/2: the main integrand one dimension down, at k = a_j."""
    return (-1) ** j * integrand_main(x, d - 1, j + 0.5)


def _gk21(f, halfw):
    """QUADPACK's qk21 on each panel, from values f of shape (C, P, 21) at
    the panels' nodes: the integrals and their error estimates, (C, P) each."""
    resk = f @ _KRONROD
    diff = np.abs(resk - f @ _GAUSS) * halfw
    resabs = np.abs(f) @ _KRONROD * halfw
    resasc = np.abs(f - resk[..., None] / 2) @ _KRONROD * halfw
    ratio = np.divide(200 * diff, resasc, out=np.ones_like(resasc), where=resasc > 0)
    err = np.where(resasc > 0, resasc * np.minimum(1.0, ratio**1.5), diff)
    return resk * halfw, np.maximum(err, 50 * _EPS * resabs)  # round-off floor


def _evaluate(centre, halfw, dims: np.ndarray, ks: np.ndarray):
    """qk21 of the main integrands at (dims, ks) on the panels (centre,
    halfw).  The rows of one dimension are contiguous (a sphere's table has
    two dimensions), and each is one integrand call with a scalar d, so 1+e^-x
    is raised to its power once per dimension, not once per row.  All panels
    go in one pass unless that holds more than _CHUNK_VALUES values, which
    bounds the memory whatever the panel count."""
    step = max(1, _CHUNK_VALUES // (dims.size * _NODES.size))
    ends = [*(np.flatnonzero(np.diff(dims)) + 1).tolist(), dims.size]
    groups = [(int(dims[a]), ks[a:b, None, None]) for a, b in zip([0, *ends], ends)]
    parts = []
    for i in range(0, centre.size, step):
        x = centre[i:i + step, None] + halfw[i:i + step, None] * _NODES
        f = np.concatenate([integrand_main(x, dim, k) for dim, k in groups])
        parts.append(_gk21(f, halfw[i:i + step]))
    return tuple(np.concatenate(part, axis=1) for part in zip(*parts))


@lru_cache(maxsize=64)
def _sphere(d: int, cfg: QuadratureConfig) -> tuple[QuadResult, ...]:
    """Every integral of the d-sphere from one adaptive Gauss-Kronrod pass:
    the main integrals k = 1..K, then the factor integrals j = 0..K-1, with
    K = (d-1)/2.

    The components share panels on [0, X], starting from equal ones.  Each
    round evaluates the new panels' nodes for every unfinished component
    at once.  A component is finished when its summed error is at most
    max(abs_tol/4, 1e-13 |value|); a panel is bisected when some unfinished
    component's error on it exceeds that tolerance over the panel count.
    Refinement stops at _PANEL_LIMIT panels with the errors reached.
    Raises Float64RangeError past D_MAX_FLOAT64.
    """
    if d > D_MAX_FLOAT64:
        raise Float64RangeError(
            f"quadrature works in float64 and needs d <= {D_MAX_FLOAT64}, got d={d}"
        )
    k = np.arange(1, (d + 1) // 2)
    # one column per integral, each the main integrand at (dims, ks): main k
    # on S^d, then factor j = k - 1 on S^(d-1) at k - 1/2
    dims = np.repeat([d, d - 1], k.size)
    ks = np.concatenate([k, k - 0.5])
    rate, scale_exp = dims / 2 - ks, dims - 1
    # factor j = k - 1 has the sign (-1)^((d+1)/2) (-1)^j of main k
    sign = np.tile((-1.0) ** ((d - 1) // 2 + k), 2)
    # X with integral_X^inf 2^s/pi e^{-rate x} dx < abs_tol/10 for every
    # component, in logs (2^s / abs_tol overflows a double from d = 983); pi
    # abs_tol is clamped to the largest double, past which every X is below 40
    log_tail = math.log(10 / min(math.pi * cfg.abs_tol, np.finfo(float).max))
    upper = max(40.0, float(np.max((log_tail + scale_exp * math.log(2) - np.log(rate)) / rate)))
    halfw = np.full(_START_PANELS, upper / (2 * _START_PANELS))
    centre = (2 * np.arange(_START_PANELS) + 1) * halfw
    active = np.arange(dims.size)
    vals, errs = _evaluate(centre, halfw, dims, ks)
    neval = _START_PANELS * _NODES.size
    value, error = np.empty(dims.size), np.empty(dims.size)
    while True:
        value[active], error[active] = vals.sum(axis=1), errs.sum(axis=1)
        tol = np.maximum(cfg.abs_tol / 4, 1e-13 * np.abs(value[active]))
        open_ = error[active] > tol
        active, vals, errs, tol = active[open_], vals[open_], errs[open_], tol[open_]
        split = (errs > tol[:, None] / centre.size).any(axis=0)
        # nothing left to refine, or no room: return the errors reached
        if not split.any() or centre.size + np.count_nonzero(split) > _PANEL_LIMIT:
            break
        h = halfw[split] / 2
        new_centre = np.concatenate([centre[split] - h, centre[split] + h])
        new_halfw = np.concatenate([h, h])
        new_vals, new_errs = _evaluate(new_centre, new_halfw, dims[active], ks[active])
        neval += new_centre.size * _NODES.size
        centre = np.concatenate([centre[~split], new_centre])
        halfw = np.concatenate([halfw[~split], new_halfw])
        vals = np.concatenate([vals[:, ~split], new_vals], axis=1)
        errs = np.concatenate([errs[:, ~split], new_errs], axis=1)
    # the summed estimate plus the tail bound, both mapped to the returned value
    prefactor = sign / 2.0**scale_exp
    return tuple(
        QuadResult(value=p * v, error=abs(p) * (e + cfg.abs_tol / 10), neval=neval)
        for p, v, e in zip(prefactor.tolist(), value.tolist(), error.tolist())
    )


def logdet_quadrature_result(
    d: int, k: int, cfg: QuadratureConfig | None = None
) -> QuadResult:
    """logdet P_2k(d) by quadrature, with error estimate and eval count."""
    validate_d_k(d, k)
    cfg = QuadratureConfig() if cfg is None else cfg  # only None is the default
    _require_type("cfg", cfg, QuadratureConfig)
    return _sphere(d, cfg)[k - 1]


def logdet_quadrature(d: int, k: int, cfg: QuadratureConfig | None = None) -> float:
    """Numeric logdet P_2k(d) with absolute error <= cfg.abs_tol."""
    return logdet_quadrature_result(d, k, cfg).value


def logdet_factor_quadrature(
    d: int, j: int, cfg: QuadratureConfig | None = None
) -> float:
    """Numeric log det(B^2 - alpha_j^2) on the d-sphere, alpha_j = j + 1/2."""
    validate_d(d)
    _require_int("j", j, 0)
    if 2 * (j + 1) > d:
        raise DivergentDeterminantError(
            f"factor integral diverges for 2(j+1) > d (d={d}, j={j})"
        )
    cfg = QuadratureConfig() if cfg is None else cfg
    _require_type("cfg", cfg, QuadratureConfig)
    return _sphere(d, cfg)[(d - 1) // 2 + j].value
