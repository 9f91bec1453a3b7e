"""Argument checks: every lower bound, and a misused config, context or
expression, raise a ValueError naming the argument and the value given."""

import pytest

from gjmsdet import (
    PrecisionContext,
    QuadratureConfig,
    bernoulli,
    central_t,
    d_norlund,
    evaluate,
    f_even,
    f_expr,
    f_odd,
    logdet_factor_quadrature,
    logdet_gjms,
    logdet_quadrature,
    logdet_quadrature_result,
    logdet_via_product,
    rule_exponents,
    zeta_odd,
)
from gjmsdet.cli import main
from gjmsdet.errors import DivergentDeterminantError, InvalidDimensionError


@pytest.mark.parametrize("call, message", [
    (lambda: PrecisionContext(14), "decimal_digits must be >= 15, got 14"),
    (lambda: f_even(-1), "m must be >= 0, got -1"),
    (lambda: f_odd(-1), "m must be >= 0, got -1"),
    (lambda: f_expr(-2), "m must be >= 0, got -2"),
    (lambda: central_t(0, 1), "n must be >= 1, got 0"),
    (lambda: central_t(3, -1), "k must be >= 0, got -1"),
    (lambda: d_norlund(0, 1), "m must be >= 1, got 0"),
    (lambda: d_norlund(3, -1), "n must be >= 0, got -1"),
    (lambda: bernoulli(-1), "n must be >= 0, got -1"),
    (lambda: rule_exponents(0), "k must be >= 1, got 0"),
    (lambda: logdet_gjms(5, 0), "k must be >= 1, got 0"),
    (lambda: logdet_via_product(5, 0), "k must be >= 1, got 0"),
    (lambda: logdet_factor_quadrature(5, -1), "j must be >= 0, got -1"),
    (lambda: zeta_odd(4), "s must be an odd integer >= 3, got 4"),
], ids=["PrecisionContext", "f_even", "f_odd", "f_expr", "central_t-n", "central_t-k",
        "d_norlund-m", "d_norlund-n", "bernoulli", "rule_exponents", "validate_d_k-k",
        "logdet_via_product-k", "logdet_factor_quadrature-j", "zeta_odd-s"])
def test_bounds_name_the_argument_and_value(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


@pytest.mark.parametrize("d, k, error, message", [
    (5, 3, DivergentDeterminantError, "determinant diverges for 2k > d (d=5, k=3)"),
    (4, 1, InvalidDimensionError, "d must be an odd integer >= 3, got 4"),
    ([5], 1, InvalidDimensionError, "d must be an integer, got [5]"),
    (True, 1, InvalidDimensionError, "d must be an integer, got True"),
    (5, True, ValueError, "k must be an integer, got True"),
], ids=["diverges", "even-d", "list-d", "bool-d", "bool-k"])
def test_product_route_checks_d_and_k_before_the_cache(d, k, error, message):
    # its k = 1 reads skip the check, so (d, k) itself must be checked first
    with pytest.raises(ValueError) as exc:
        logdet_via_product(d, k)
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize("call, message", [
    # 0 is no config: it is not read as "use the default"
    (lambda: logdet_factor_quadrature(5, 0, 0), "cfg must be a QuadratureConfig, got 0"),
    (lambda: logdet_quadrature(5, 2, 1e-10), "cfg must be a QuadratureConfig, got 1e-10"),
    (lambda: logdet_quadrature_result(5, 2, 0), "cfg must be a QuadratureConfig, got 0"),
    (lambda: evaluate(logdet_gjms(5, 2), 30), "ctx must be a PrecisionContext, got 30"),
    (lambda: zeta_odd(3, 30), "ctx must be a PrecisionContext, got 30"),
    (lambda: evaluate(f_even(1)), "expr must be a ZetaExpr, got Fraction(1, 6)"),
], ids=["factor-cfg", "quadrature-cfg", "result-cfg", "evaluate-ctx", "zeta_odd-ctx",
        "evaluate-expr"])
def test_misused_config_context_or_expression_raises_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_none_is_the_default_config():
    assert logdet_quadrature_result(5, 2, None) == logdet_quadrature_result(5, 2)
    assert logdet_quadrature_result(5, 2, None) == logdet_quadrature_result(5, 2, QuadratureConfig())
    assert logdet_factor_quadrature(5, 1, None) == logdet_factor_quadrature(5, 1)


@pytest.mark.parametrize("d_max", ["4", "1", "-3"])
def test_crosscheck_names_an_invalid_d_max_and_its_value(capsys, d_max):
    assert main(["crosscheck", "--d-max", d_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --d-max must be an odd integer >= 3, got {d_max}\n"
