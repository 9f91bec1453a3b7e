import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad, tanhsinh

from gjmsdet import quadrature
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
    # the factor integrand against its own formula, not through integrand_main
    for d, j in ((3, 0), (7, 2), (13, 5), (13, 4)):
        for x in (1e-6, 0.01, 0.5, 1.0, 5.0, 30.0):
            scaled = float(integrand_factor(x, d, j))
            naive = ((-1) ** j * math.pi / (x * x + math.pi**2) * math.sinh(x / 2)
                     * math.sinh((j + 0.5) * x) / math.cosh(x / 2) ** d)
            assert abs(scaled - naive) <= 1e-13 * max(abs(naive), 1e-300), (d, j, x)


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


def test_float_input_matches_the_array_path():
    # one float gives a float; numpy's scalar and array exp may differ in
    # the last bit (seen at x = 2.5e-4, d = 3), and (1+e^{-x})^power
    # multiplies that by up to power, so the bound is 1e-15 plus one unit in
    # the last place of 1+e^{-x} per unit of power
    xs = np.concatenate([np.geomspace(1e-300, 1e4, 601), np.linspace(1e-3, 60.0, 601)])
    for f, d, order, power in (
        (integrand_main, 3, 1, 4),
        (integrand_main, 41, 1, 42),
        (integrand_main, 41, 20, 42),
        (integrand_main, 1023, 1, 1024),
        (integrand_main, 1023, 511, 1024),
        (integrand_factor, 3, 0, 3),
        (integrand_factor, 41, 19, 41),
        (integrand_factor, 1023, 0, 1023),
        (integrand_factor, 1023, 510, 1023),
    ):
        tol = 1e-15 + power * 2.0**-52
        arr = f(xs, d, order)
        for x, a in zip(xs.tolist(), arr.tolist()):
            s = f(x, d, order)
            assert isinstance(s, float)
            assert (s == a == 0.0) or abs(s - a) <= tol * max(abs(s), abs(a)), (
                f.__name__, d, order, x, s, a)


def test_dimension_table_rows_match_one_dimension_calls():
    # integrand_main on a (dimension, k) table, as _sphere's table: the
    # mains on S^d at k = 1..K, then the factors on S^(d-1) at k - 1/2; each
    # row must be the one-dimension call, within the bound of
    # test_float_input_matches_the_array_path
    xs = np.concatenate([np.geomspace(1e-300, 1e4, 601), np.linspace(1e-3, 60.0, 601)])
    for d in (3, 41, 1023):
        k = np.arange(1, (d - 1) // 2 + 1)
        dims = np.repeat([d, d - 1], k.size)
        ks = np.concatenate([k, k - 0.5])
        table = integrand_main(xs, dims[:, None], ks[:, None])
        assert table.shape == (dims.size, xs.size)
        for d_i, k_i, row in zip(dims.tolist(), ks.tolist(), table):
            one = integrand_main(xs, d_i, k_i)
            tol = 1e-15 + (d_i + 1) * 2.0**-52
            assert np.all(np.abs(row - one) <= tol * np.maximum(np.abs(row), np.abs(one))), (
                d, d_i, k_i)


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


def test_error_estimate_bounds_deviation_d_le_41():
    # the reported error covers the actual deviation from the closed form and
    # is itself small relative to the value, down to values near 1e-14
    for d, k in all_valid_pairs(41):
        res = logdet_quadrature_result(d, k)
        closed = float(evaluate(logdet_gjms(d, k)))
        assert abs(res.value - closed) <= res.error, (d, k)
        assert res.error <= 3e-11 * abs(res.value), (d, k)


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
    with pytest.raises(DivergentDeterminantError, match=r"2\(j\+1\) > d \(d=5, j=2\)"):
        logdet_factor_quadrature(5, 2)
    with pytest.raises(ValueError, match="j must be >= 0, got -1"):
        logdet_factor_quadrature(5, -1)
    with pytest.raises(InvalidDimensionError):
        logdet_factor_quadrature(4, 0)
    # d, k and j must be ints, bools excluded
    with pytest.raises(InvalidDimensionError, match="d must be an integer, got 5.0"):
        logdet_quadrature(5.0, 1)
    with pytest.raises(ValueError, match="k must be an integer, got True"):
        logdet_quadrature(5, True)
    with pytest.raises(InvalidDimensionError, match="d must be an integer, got 5.0"):
        logdet_factor_quadrature(5.0, 0)
    for j in (1.0, False):
        with pytest.raises(ValueError, match=f"j must be an integer, got {j}"):
            logdet_factor_quadrature(5, j)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=1e-15)
    # a bool is no tolerance (True would integrate at 1.0), nor a str or None
    for bad in (True, False, "1e-9", None):
        with pytest.raises(ValueError, match=f"abs_tol must be a number, got {bad!r}"):
            QuadratureConfig(abs_tol=bad)
    assert QuadratureConfig(abs_tol=1).abs_tol == 1
    # any Real is stored as the float the integrals compute with; one past the
    # largest double is out of range, not an overflow later
    cfg = QuadratureConfig(abs_tol=Fraction(1, 10**12))
    assert logdet_quadrature(9, 3, cfg) == logdet_quadrature(9, 3, QuadratureConfig(abs_tol=1e-12))
    assert type(cfg.abs_tol) is float and cfg == QuadratureConfig(abs_tol=1e-12)
    for big in (10**400, Fraction(10**400, 3)):
        with pytest.raises(ValueError, match="abs_tol must be finite and >= "):
            QuadratureConfig(abs_tol=big)
    # at the largest tolerances, where pi abs_tol overflows a double, the d = 3
    # grid stops after its first block (25 nodes, x <= 16) and one halving, as
    # at 1e300: both take 50 evaluations to the same value
    huge = logdet_quadrature_result(3, 1, QuadratureConfig(abs_tol=1e308))
    loose = logdet_quadrature_result(3, 1, QuadratureConfig(abs_tol=1e300))
    assert (huge.value, huge.neval) == (loose.value, loose.neval)


def test_explicit_truncation_point_respected():
    # a generous manual truncation at x = 200 reproduces the production value
    manual = prefactor(7, 2) * quad(
        integrand_main, 0.0, 200.0, args=(7, 2), epsabs=1e-13, epsrel=1e-13, limit=200
    )[0]
    assert abs(manual - logdet_quadrature(7, 2)) < 1e-11


def test_float64_range_limit():
    # the largest accepted d still agrees with a 30-digit oracle of the
    # literal integral, at k = 1, whose value (~1e-312) is a subnormal double,
    # and at the largest k, whose tail bound 2^1022/pi / (rate abs_tol)
    # overflows a double unless it is taken in logs
    d = D_MAX_FLOAT64
    for k in (1, (d - 1) // 2):
        with mp.workdps(30):
            f = lambda x: (
                mp.pi / (x * x + mp.pi**2) * mp.sinh(x / 2) * mp.sinh(k * x)
                / mp.cosh(x / 2) ** (d + 1)
            )
            w = 40 / mp.sqrt(d)
            oracle = prefactor(d, k) * mp.quad(f, [0, w / 4, w, 4 * w, mp.inf])
        assert abs(logdet_quadrature(d, k) - oracle) <= 1e-10 * abs(oracle), k
    for d in (D_MAX_FLOAT64 + 2, 1101):
        with pytest.raises(Float64RangeError, match="float64"):
            logdet_quadrature(d, 1)
        with pytest.raises(Float64RangeError, match="float64"):
            logdet_factor_quadrature(d, 0)


def truncation_point(d, abs_tol):
    """The upper limit the sphere's integrals share: the largest X at which a
    component's tail bound 2^s/(pi rate) e^{-rate X} falls to abs_tol/10."""
    return max(
        40.0,
        *(math.log(10 * 2.0**s / (math.pi * (d / 2 - k) * abs_tol)) / (d / 2 - k)
          for s in (d - 1, d - 2) for k in range(1, (d - 1) // 2 + 1)),
    )


def test_batch_matches_quadpack_d_le_41():
    # scipy's QUADPACK on each integrand and the same truncation point: an
    # independent check of every main and factor integral of the batch
    cfg = QuadratureConfig()
    for d in range(3, 42, 2):
        upper = truncation_point(d, cfg.abs_tol)

        def quadpack(f, order):
            return quad(f, 0.0, upper, args=(d, order), epsabs=cfg.abs_tol / 4,
                        epsrel=1e-13, limit=9523)[0]

        for k in range(1, (d - 1) // 2 + 1):
            want = prefactor(d, k) * quadpack(integrand_main, k)
            assert abs(logdet_quadrature(d, k, cfg) - want) <= 1e-12 * abs(want), (d, k)
        for j in range((d - 1) // 2):
            want = (-1) ** ((d + 1) // 2) / 2.0 ** (d - 2) * quadpack(integrand_factor, j)
            assert abs(logdet_factor_quadrature(d, j, cfg) - want) <= 1e-12 * abs(want), (d, j)


def test_error_estimate_bounds_deviation_past_d_41():
    # seeded pairs up to d = 601, and both ends of the float64 wall: the
    # reported error covers the deviation from the closed form, is small
    # relative to the value, and never underflows, even where the value
    # (~1e-312 at k = 1) is a subnormal double
    rng = random.Random(26)
    pairs = [(d, rng.randint(1, (d - 1) // 2)) for d in rng.sample(range(101, 602, 2), 8)]
    for d, k in pairs + [(D_MAX_FLOAT64, 1), (D_MAX_FLOAT64, (D_MAX_FLOAT64 - 1) // 2)]:
        res = logdet_quadrature_result(d, k)
        closed = float(evaluate(logdet_gjms(d, k)))
        assert abs(res.value - closed) <= res.error <= 3e-11 * abs(res.value), (d, k)
        assert res.error >= math.ulp(res.value) / 2 and res.error > 0, (d, k)


def test_halving_cap_returns_the_error_reached(monkeypatch):
    # with one halving allowed, the pass stops at its first nested estimate
    # and reports the error it reached, above the tolerance it could not meet
    full = quadrature._sphere.__wrapped__(3, QuadratureConfig())[0]
    monkeypatch.setattr(quadrature, "_HALVINGS", 1)
    quadrature._sphere.cache_clear()
    try:
        res = logdet_quadrature_result(3, 1)
    finally:
        quadrature._sphere.cache_clear()
    cfg = QuadratureConfig()
    scale = 2.0**2  # the main integral is 2^(d-1) |log det|
    tol = max(cfg.abs_tol / 4, 1e-13 * abs(res.value) * scale) / scale
    assert res.neval < full.neval
    assert res.error > tol
    assert abs(res.value - float(evaluate(logdet_gjms(3, 1)))) <= res.error


def test_sphere_calls_the_integrand_with_one_dimension_per_call(monkeypatch):
    # the mains on S^d and the factors on S^(d-1) go in separate calls, each
    # with a scalar d, so (1+e^-x)^-(d+1) is taken per call, not per row
    seen = []

    def spy(x, d, k):
        seen.append(d)
        return integrand_main(x, d, k)

    monkeypatch.setattr(quadrature, "integrand_main", spy)
    quadrature._sphere.__wrapped__(15, QuadratureConfig())
    assert {14, 15} <= set(seen)
    assert all(type(d) is int and d in (14, 15) for d in seen)


def test_chunked_evaluation_matches_one_call(monkeypatch):
    # one node per integrand call, as a sphere too large for one call uses:
    # the same grids, and sums that differ only in the order of their
    # additions, so within the rounding term each error carries
    whole = quadrature._sphere.__wrapped__(15, QuadratureConfig())
    monkeypatch.setattr(quadrature, "_CHUNK_VALUES", 1)
    chunked = quadrature._sphere.__wrapped__(15, QuadratureConfig())
    for a, b in zip(whole, chunked, strict=True):
        rounding = (16 + math.log2(a.neval) + 20) * 2.0**-52 * abs(a.value)
        assert a.neval == b.neval
        assert abs(a.value - b.value) <= rounding
        assert abs(a.error - b.error) <= rounding
