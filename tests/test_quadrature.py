import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad, tanhsinh

from gjmsdet.closed_form import evaluate, logdet_gjms
from gjmsdet.errors import (
    DivergentDeterminantError,
    Float64RangeError,
    InvalidDimensionError,
)
from gjmsdet.quadrature import (
    D_MAX_FLOAT64,
    QuadratureConfig,
    integrand_factor,
    integrand_main,
    logdet_factor_quadrature,
    logdet_quadrature,
    logdet_quadrature_result,
)


def integrand_naive(x, d, k):
    """Oracle: the hyperbolic formula written literally (small x only)."""
    return (
        math.pi
        / (x * x + math.pi**2)
        * math.sinh(x / 2)
        * math.sinh(k * x)
        / math.cosh(x / 2) ** (d + 1)
    )


def integrand_main_chebyshev(x, d, k):
    """Oracle: the same integrand through sinh(kx) = sinh(x/2) U_{2k-1}(cosh(x/2)).

    The Chebyshev polynomial is evaluated by its three-term recurrence in
    the rescaled variables u_n = U_n(cosh(x/2)) e^{-nx/2}, which satisfy
    u_{n+1} = (1 + e^{-x}) u_n - e^{-x} u_{n-1}: every quantity stays
    bounded (no overflow) and positive (no cancellation).
    """
    x = np.asarray(x, dtype=float)
    t = np.exp(-x)
    u_prev = np.ones_like(x)  # u_0
    u_cur = 1.0 + t  # u_1
    for _ in range(2 * k - 2):
        u_prev, u_cur = u_cur, (1.0 + t) * u_cur - t * u_prev
    sinh_sq_scaled = (-np.expm1(-x)) ** 2 / 4.0
    return (
        (np.pi / (x * x + math.pi**2))
        * 2.0 ** (d - 1)
        * sinh_sq_scaled
        * u_cur
        * np.exp((k - d / 2) * x)
        * 4.0
        / (1.0 + t) ** (d + 1)
    )


def prefactor(d, k):
    """The sign and 2^{1-d} scale that turn the main integral into logdet."""
    return (-1) ** ((d - 1) // 2 + k) / 2.0 ** (d - 1)


def all_valid_pairs(d_max):
    return [(d, k) for d in range(3, d_max + 1, 2) for k in range(1, (d - 1) // 2 + 1)]


def test_integrand_value_at_one():
    value = float(integrand_main(1.0, 3, 1))
    expected = (
        math.pi / (1 + math.pi**2) * math.sinh(0.5) * math.sinh(1.0)
        / math.cosh(0.5) ** 4
    )
    assert abs(value - expected) < 1e-15
    assert abs(value - 0.1094725536) < 5e-11


def test_integrand_matches_naive_formula_at_moderate_x():
    for d, k in ((3, 1), (7, 2), (13, 5)):
        for x in (1e-6, 0.01, 0.5, 1.0, 5.0, 30.0):
            scaled = float(integrand_main(x, d, k))
            naive = integrand_naive(x, d, k)
            assert abs(scaled - naive) <= 1e-13 * max(abs(naive), 1e-300), (d, k, x)


def test_integrand_vanishes_quadratically_at_origin():
    d, k = 5, 2
    xs = np.array([1e-4, 1e-5, 1e-6])
    vals = integrand_main(xs, d, k)
    # f(x) ~ (k/(2 pi)) x^2 near 0
    ratio = vals / xs**2
    assert np.allclose(ratio, k / (2 * math.pi), rtol=1e-3)
    assert float(integrand_main(0.0, d, k)) == 0.0


def test_integrand_no_overflow_at_huge_x():
    for x in (700.0, 2000.0, 1e4):
        v = float(integrand_main(x, 9, 4))
        assert math.isfinite(v)
        assert v >= 0.0
    assert math.isfinite(float(integrand_factor(1e4, 9, 3)))
    assert math.isfinite(float(integrand_main_chebyshev(1e4, 9, 4)))


def test_integrand_tail_bounded_by_exponential_order():
    d, k = 9, 2
    rate = d / 2 - k
    for x in (20.0, 40.0, 80.0):
        bound = 2 ** (d - 1) / math.pi * math.exp(-rate * x)
        assert float(integrand_main(x, d, k)) <= bound


def test_chebyshev_form_agrees_pointwise():
    xs = np.geomspace(1e-3, 50.0, 300)
    for d, k in all_valid_pairs(13):
        a = integrand_main(xs, d, k)
        b = integrand_main_chebyshev(xs, d, k)
        scale = np.maximum(np.abs(a), 1e-300)
        assert np.max(np.abs(a - b) / scale) < 1e-13, (d, k)


def test_logdet_reference_values():
    assert abs(logdet_quadrature(3, 1) - 0.1276141094) < 2e-10
    assert abs(logdet_quadrature(7, 2) - (-0.008297)) < 5e-7
    assert abs(logdet_quadrature(9, 3) - (-0.005894056955)) < 2e-12


def test_quadrature_matches_closed_form():
    for d, k in all_valid_pairs(13):
        closed = float(evaluate(logdet_gjms(d, k)))
        assert abs(logdet_quadrature(d, k) - closed) <= 1e-9, (d, k)


def test_quadrature_matches_closed_form_relative_d_le_41():
    # relative, so that the tiny values at large d cannot pass trivially
    for d, k in all_valid_pairs(41):
        closed = float(evaluate(logdet_gjms(d, k)))
        assert abs(logdet_quadrature(d, k) - closed) <= 1e-10 * abs(closed), (d, k)


def test_chebyshev_form_integrates_to_same_value():
    cfg = QuadratureConfig()
    for d, k in ((3, 1), (7, 3), (11, 4)):
        cheb = prefactor(d, k) * quad(
            integrand_main_chebyshev, 0.0, 200.0, args=(d, k),
            epsabs=1e-13, epsrel=1e-13, limit=200,
        )[0]
        assert abs(logdet_quadrature(d, k, cfg) - cheb) <= 2 * cfg.abs_tol, (d, k)


def test_schemes_agree():
    # tanh-sinh on the same integrand, independent of the production GK path
    cfg = QuadratureConfig()
    for d, k in all_valid_pairs(9):
        res = tanhsinh(integrand_main, 0.0, np.inf, args=(d, k), atol=0, rtol=1e-13)
        assert res.success, (d, k)
        ts = prefactor(d, k) * float(res.integral)
        assert abs(logdet_quadrature(d, k, cfg) - ts) <= 2 * cfg.abs_tol, (d, k)


def test_factor_single_factor_equals_k1():
    assert abs(logdet_factor_quadrature(3, 0) - logdet_quadrature(3, 1)) < 3e-12
    assert abs(logdet_factor_quadrature(3, 0) - 0.1276141094) < 2e-10


def test_factor_sum_identity():
    cfg = QuadratureConfig()
    for d, k in all_valid_pairs(13):
        total = sum(logdet_factor_quadrature(d, j, cfg) for j in range(k))
        main = logdet_quadrature(d, k, cfg)
        assert abs(total - main) <= 3 * cfg.abs_tol * k, (d, k)


def test_factor_pair_reproduces_paneitz_5():
    total = logdet_factor_quadrature(5, 0) + logdet_factor_quadrature(5, 1)
    assert abs(total - 0.104642) < 5e-7


def test_result_reports_error_and_evals():
    res = logdet_quadrature_result(7, 2)
    assert res.error < 1e-11
    assert res.neval > 0
    assert abs(res.value - logdet_quadrature(7, 2)) < 1e-13


def test_divergence_and_validation_guards():
    with pytest.raises(DivergentDeterminantError):
        logdet_quadrature(5, 3)
    with pytest.raises(InvalidDimensionError):
        logdet_quadrature(6, 1)
    with pytest.raises(DivergentDeterminantError):
        logdet_factor_quadrature(5, 2)
    with pytest.raises(InvalidDimensionError):
        logdet_factor_quadrature(4, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=1e-15)


def test_explicit_truncation_point_respected():
    # a generous manual truncation at x = 200 reproduces the production value
    manual = prefactor(7, 2) * quad(
        integrand_main, 0.0, 200.0, args=(7, 2), epsabs=1e-13, epsrel=1e-13, limit=200
    )[0]
    assert abs(manual - logdet_quadrature(7, 2)) < 1e-11


def test_float64_range_limit():
    # the largest accepted d still agrees with a 30-digit oracle of the
    # literal integral, though its value (~1e-312) is a subnormal double
    d, k = D_MAX_FLOAT64, 1
    with mp.workdps(30):
        f = lambda x: (
            mp.pi / (x * x + mp.pi**2) * mp.sinh(x / 2) * mp.sinh(k * x)
            / mp.cosh(x / 2) ** (d + 1)
        )
        w = 40 / mp.sqrt(d)
        oracle = prefactor(d, k) * mp.quad(f, [0, w / 4, w, 4 * w, mp.inf])
    assert abs(logdet_quadrature(d, k) - oracle) <= 1e-10 * abs(oracle)
    for d in (D_MAX_FLOAT64 + 2, 1101):
        with pytest.raises(Float64RangeError, match="float64"):
            logdet_quadrature(d, 1)
        with pytest.raises(Float64RangeError, match="float64"):
            logdet_factor_quadrature(d, 0)
