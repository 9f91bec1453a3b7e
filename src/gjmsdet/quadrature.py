"""Direct numerical evaluation of the determinant integrals.

The log-determinant of P_2k on the odd d-sphere is, for 2k <= d,

    logdet = (-1)^{(d-1)/2+k} / 2^{d-1}
             * integral_0^inf pi/(x^2+pi^2)
               * sinh(x/2) sinh(kx) / cosh^{d+1}(x/2) dx,

and each conformal-Laplacian factor det(B^2 - alpha_j^2), alpha_j = j+1/2,
integrates (-1)^j times the main integrand of S^{d-1} at k = alpha_j.  The
integrand is evaluated in exponentially scaled form (a decaying exponential
times a bounded rational function of e^{-x}), so nothing overflows for x up
to 1e4.  Each integrand is even, positive and analytic in the strip
|Im x| < pi, so the trapezoidal rule converges exponentially as its step
shrinks (Trefethen and Weideman, SIAM Review 56, 2014).  The d-1 integrals
of one sphere form one table of (dimension, k) pairs, d for the mains and
d-1 for the factors, and are integrated together (see _sphere).  The scale
2^{d-1} must be a finite double, which limits d to D_MAX_FLOAT64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DivergentDeterminantError,
    Float64RangeError,
    _require_int,
    _require_real,
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

# the first grid's step is _FIRST_STEP / sqrt(d+1), as the integrands'
# peak cosh^-(d+1)(x/2) ~ exp(-(d+1) x^2/8) narrows as 1/sqrt(d+1)
_FIRST_STEP = 1.25
# an integral's first grid grows in blocks ending near x = _FIRST_END 8^b
_FIRST_END = 16.0
# most halvings of the step; at the cap the errors reached are returned
_HALVINGS = 6
# most integrand values one call holds (16 MB of doubles)
_CHUNK_VALUES = 1 << 21
# least abs_tol: the double-precision floor
_ABS_TOL_FLOOR = 1e-14


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute tolerance for the integrals."""

    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        # a bool is no tolerance (True would integrate at 1.0)
        _require_real("abs_tol", self.abs_tol, _ABS_TOL_FLOOR)
        object.__setattr__(self, "abs_tol", float(self.abs_tol))  # a numpy operand


@dataclass(frozen=True)
class QuadResult:
    """A value with its error estimate; ``neval`` counts the nodes of the
    integral's final grid."""

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


def _sums(dims, ks, start: int, stops, stride: int, step: float) -> np.ndarray:
    """Per row i, the sum of integrand_main(j step, dims[i], ks[i]) over
    j = start, start + stride, ... < stops[i].  Rows of one dimension and stop
    share a call with a scalar d, so (1+e^-x)^-(d+1) is taken once per call;
    a call holds at most _CHUNK_VALUES values."""
    out = np.zeros(dims.size)
    for dim, stop in sorted(set(zip(dims.tolist(), stops.tolist()))):
        rows = (dims == dim) & (stops == stop)
        k, x = ks[rows, None], np.arange(start, stop, stride) * step
        chunk = max(1, _CHUNK_VALUES // k.size)
        out[rows] = sum(integrand_main(x[i:i + chunk], dim, k).sum(axis=1)
                        for i in range(0, x.size, chunk))
    return out


def _require_float64(d: int, prefix: str = "") -> None:
    """Reject d past D_MAX_FLOAT64; the message starts with prefix."""
    if d > D_MAX_FLOAT64:
        raise Float64RangeError(
            f"{prefix}quadrature works in float64 and needs d <= {D_MAX_FLOAT64}, got d={d}"
        )


@lru_cache(maxsize=64)
def _sphere(d: int, cfg: QuadratureConfig) -> tuple[QuadResult, ...]:
    """Every integral of the d-sphere by the trapezoidal rule on the nodes
    x = n h, n >= 1: the main integrals k = 1..K, then the factor integrals
    j = 0..K-1, with K = (d-1)/2.

    The integrands are positive, so h times a sum is a lower bound on the
    integral.  Each integral's grid, at h = _FIRST_STEP / sqrt(d+1), grows
    block by block until the bound 2^s e^{-rate X} / (pi rate) on the tail
    past its last node X is at most a tenth of its tolerance
    max(abs_tol/4, 1e-13 h |sum|).  Then, at most _HALVINGS times, h is
    halved for the integrals whose rules at h and 2h differ by more than
    that tolerance, less the tail bound; a halving evaluates only the
    midpoints up to each one's X.  The error is that difference, the tail
    bound and a rounding term.
    Raises Float64RangeError past D_MAX_FLOAT64.
    """
    _require_float64(d)
    k = np.arange(1, (d + 1) // 2)
    # one column per integral, each the main integrand at (dims, ks): main k
    # on S^d, then factor j = k - 1 on S^(d-1) at k - 1/2
    dims = np.repeat([d, d - 1], k.size)
    ks = np.concatenate([k, k - 0.5])
    rate, scale_exp = dims / 2 - ks, dims - 1
    # factor j = k - 1 has the sign (-1)^((d+1)/2) (-1)^j of main k
    sign = np.tile((-1.0) ** ((d - 1) // 2 + k), 2)
    step = _FIRST_STEP / math.sqrt(d + 1)
    # each column's sum on the first grid and its nodes; the tail bound is
    # taken in logs, as 2^s / tolerance overflows a double from d = 983
    total, nodes, log_tail = np.zeros(dims.size), np.zeros(dims.size, int), np.zeros(dims.size)
    grow, start, end = np.arange(dims.size), 1, int(_FIRST_END / step)
    while grow.size:
        total[grow] += _sums(dims[grow], ks[grow], start, np.full(grow.size, end + 1), 1, step)
        nodes[grow] = end
        log_tail[grow] = (scale_exp[grow] * math.log(2) - rate[grow] * end * step
                          - np.log(math.pi * rate[grow]))
        tol = np.maximum(cfg.abs_tol / 4, 1e-13 * step * total[grow])
        grow, start, end = grow[log_tail[grow] > np.log(tol / 10)], end + 1, 8 * end
    value, diff, tail = step * total, np.full(dims.size, np.inf), np.exp(log_tail)
    for _ in range(_HALVINGS):
        tol = np.maximum(cfg.abs_tol / 4, 1e-13 * value)
        # halving shrinks the difference, not the tail bound or the rounding
        open_ = np.flatnonzero(diff + tail > tol)
        if not open_.size:
            break
        step /= 2
        nodes[open_] *= 2
        half = value[open_] / 2 + step * _sums(dims[open_], ks[open_], 1, nodes[open_], 2, step)
        diff[open_], value[open_] = np.abs(half - value[open_]), half
    # rounding: each value inherits the rounding of 1+e^-x times its power
    # d+1, and numpy's pairwise sum rounds it about log2(n) + 20 times
    rounding = (dims + 1 + np.log2(nodes) + 20) * math.ulp(1.0) * value
    prefactor = sign / 2.0**scale_exp
    value = prefactor * value
    # the estimate mapped to the returned value, which is itself rounded: by
    # half an ulp, a whole one for a subnormal, whose half ulp is no double
    error = np.maximum(np.abs(prefactor) * (diff + tail + rounding), np.abs(np.spacing(value)))
    return tuple(map(QuadResult, value.tolist(), error.tolist(), nodes.tolist()))


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
