import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjmsdet.closed_form import logdet_gjms
from gjmsdet.errors import DivergentDeterminantError, InvalidDimensionError
from gjmsdet.product_rules import (
    _step_sum,
    logdet_via_product,
    product_rule,
    rule_exponents,
)
from gjmsdet.zexpr import ZetaExpr
from gamma_oracle import logdet_gamma
from sparse_terms import add, dense, scale, sparse


def chebyshev_u_recurrence_oracle(n):
    """Independent oracle: U_{n+1} = 2x U_n - U_{n-1}."""
    prev, cur = [1], [0, 2]
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def test_u_coeff_examples():
    assert chebyshev_u_recurrence_oracle(1) == [0, 2]
    assert chebyshev_u_recurrence_oracle(3) == [0, -4, 0, 8]
    assert chebyshev_u_recurrence_oracle(7) == [0, -8, 0, 80, 0, -192, 0, 128]


def test_exponent_tables_k_le_5():
    assert rule_exponents(1) == [1]
    assert rule_exponents(2) == [2, 1]
    assert rule_exponents(3) == [3, 4, 1]
    assert rule_exponents(4) == [4, 10, 6, 1]
    assert rule_exponents(5) == [5, 20, 21, 8, 1]


def chebyshev_split_oracle(k):
    """The odd-power coefficients u_j of U_{2k-1}(x) = x (u_0 + u_1 x^2 + ...)."""
    return chebyshev_u_recurrence_oracle(2 * k - 1)[1::2]


def test_exponents_positive_and_dual_route_up_to_16():
    # (-1)^{k-1+j} u_j / 2^{2j+1} is the exponent of dimension d - 2j: the
    # Chebyshev construction must divide exactly and give the binomials
    for k in range(1, 17):
        v = rule_exponents(k)
        assert all(e > 0 for e in v)
        assert v[0] == k and v[-1] == 1
        split = []
        for j, c in enumerate(chebyshev_split_oracle(k)):
            q, r = divmod((-1) ** (k - 1 + j) * c, 2 ** (2 * j + 1))
            assert r == 0, (k, j)
            split.append(q)
        assert v == split, k


def test_u_split_alternates_in_sign():
    for k in range(1, 17):
        u = chebyshev_split_oracle(k)
        assert all(a * b < 0 for a, b in zip(u, u[1:])), k


def test_product_rule_structure():
    rule = product_rule(11, 4)
    assert rule.factors == ((11, 4), (9, 10), (7, 6), (5, 1))
    assert product_rule(3, 1).factors == ((3, 1),)
    assert min(dim for dim, _ in product_rule(9, 4).factors) == 3


def test_product_rule_validation():
    with pytest.raises(InvalidDimensionError):
        product_rule(8, 2)
    with pytest.raises(DivergentDeterminantError):
        product_rule(5, 3)
    with pytest.raises(ValueError):
        product_rule(5, 0)
    with pytest.raises(InvalidDimensionError, match="d must be an integer, got 5.0"):
        product_rule(5.0, 2)
    with pytest.raises(ValueError, match="k must be an integer, got 2.0"):
        product_rule(5, 2.0)
    with pytest.raises(ValueError):
        rule_exponents(0)
    for k in (True, 2.0):
        with pytest.raises(ValueError, match=f"k must be an integer, got {k}"):
            rule_exponents(k)


def test_rendering():
    rule = product_rule(5, 2)
    assert rule.render() == "P_4 ~ P_2(5)^2 * P_2(3)"
    assert rule.render(abstract=True) == "P_4 ~ P_2(d)^2 * P_2(d-2)"
    assert rule.render_latex(abstract=True) == r"P_{4} \sim P_2^{2}(d)P_2(d-2)"


def test_via_product_exact_small_case():
    # summed in sparse term dicts, not by the _weighted_sum the route uses
    combined = dense(add(scale(2, sparse(logdet_gjms(5, 1))), sparse(logdet_gjms(3, 1))))
    assert logdet_via_product(5, 2) == combined
    assert logdet_via_product(3, 1) == logdet_gjms(3, 1)


def test_via_product_shares_the_closed_form_cache():
    # the k = 1 records come from logdet_gjms's one cache, not a copy
    logdet_gjms.cache_clear()
    first = logdet_via_product(41, 20)
    info = logdet_gjms.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 20, 20)
    second = logdet_via_product(41, 20)
    info = logdet_gjms.cache_info()
    assert (info.hits, info.misses, info.currsize) == (20, 20, 20)
    assert first == second == logdet_gjms(41, 20)


def test_via_product_equals_closed_form_everywhere():
    for d in range(3, 22, 2):
        for k in range(1, (d - 1) // 2 + 1):
            assert logdet_via_product(d, k) == logdet_gjms(d, k), (d, k)


pairs_d_le_201 = st.integers(1, 100).flatmap(
    lambda h: st.tuples(st.just(2 * h + 1), st.integers(1, h))
)


@settings(deadline=None, max_examples=40)
@given(pairs_d_le_201)
def test_via_product_equals_closed_form_up_to_201(pair):
    d, k = pair
    assert logdet_via_product(d, k) == logdet_gjms(d, k)


def test_step_sum_columns_from_gamma_seeds_equal_both_routes_up_to_101():
    # every column d <= 101 chained on its own records from the Gamma
    # integral's k = 1 records, which share no code with the closed form: all
    # 1,275 pairs against the binomial sum and the closed form
    below, checked = [], 0
    for d in range(3, 102, 2):
        column = [logdet_gamma(d, 1)]
        for k in range(1, (d - 1) // 2 + 1):
            if k > 1:
                column.append(ZetaExpr(*_step_sum(below, column)))
            assert column[-1] == logdet_via_product(d, k) == logdet_gjms(d, k), (d, k)
            checked += 1
        below = column
    assert checked == 1275
