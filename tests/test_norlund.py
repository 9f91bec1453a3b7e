import sys
from fractions import Fraction

import mpmath as mp
import pytest

from gjmsdet import norlund
from gjmsdet.norlund import _central_poly, d_norlund
from norlund_oracle import d_norlund_recursion, d_norlund_series_oracle

# Reference grid for m = 1..5, n = 0..6.  The (4, 2) entry is printed as
# 88/5 in the source table, but the recursion, the series oracle, and the
# source's own f_4 = 11/90 all give 88/15; see test_printed_m4_n2_variant.
REFERENCE_TABLE = {
    1: ["1", "-1/3", "7/15", "-31/21", "127/15", "-2555/33", "1414477/1365"],
    2: ["1", "-2/3", "8/5", "-160/21", "896/15", "-7680/11", "15566848/1365"],
    3: ["1", "-1", "17/5", "-457/21", "3287/15", "-34851/11", "16954277/273"],
    4: ["1", "-4/3", "88/15", "-992/21", "5248/9", "-111104/11", "21157888/91"],
    5: ["1", "-5/3", "9", "-1835/21", "11513/9", "-284685/11", "62451523/91"],
}


def test_reference_table():
    for m, row in REFERENCE_TABLE.items():
        for n, printed in enumerate(row):
            assert d_norlund(m, n) == Fraction(printed), (m, n)


def test_printed_m4_n2_variant_is_inconsistent():
    # the misprinted value 88/5 contradicts both independent constructions
    assert d_norlund(4, 2) != Fraction(88, 5)
    assert d_norlund_series_oracle(4, 2)[2] != Fraction(88, 5)
    assert d_norlund(4, 2) == Fraction(88, 15)


def test_spec_examples():
    assert d_norlund(1, 2) == Fraction(7, 15)
    assert d_norlund(3, 2) == Fraction(17, 5)
    assert d_norlund(5, 6) == Fraction(62451523, 91)
    assert d_norlund(2, 3) == Fraction(-160, 21)
    for m in (1, 2, 7, 20):
        assert d_norlund(m, 0) == 1


def test_series_oracle_examples():
    assert d_norlund_series_oracle(1, 1) == [1, Fraction(-1, 3)]
    assert d_norlund_series_oracle(4, 2) == [1, Fraction(-4, 3), Fraction(88, 15)]
    assert d_norlund_series_oracle(2, 0) == [1]


def test_recursion_matches_series_oracle():
    for m in range(1, 13):
        oracle = d_norlund_series_oracle(m, 12)
        for n in range(13):
            assert d_norlund(m, n) == oracle[n], (m, n)


def test_rows_match_recursion_oracle():
    # production reads the central factorial rows; the oracle is the
    # Bernoulli composition recursion
    for m in range(1, 61):
        for n in range(61):
            assert d_norlund(m, n) == d_norlund_recursion(m, n), (m, n)
    assert d_norlund(10**6, 3) == d_norlund_recursion(10**6, 3)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_cold_large_n_needs_no_deep_stack():
    # n = 150 costs one Newton table, not a recursion 150 calls deep
    d_norlund.cache_clear()
    norlund._newton.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        value = d_norlund(3, 150)
    finally:
        sys.setrecursionlimit(limit)
    assert value == d_norlund_series_oracle(3, 150)[150]


def test_large_m_reads_no_row_past_3n_plus_1(monkeypatch):
    read = []
    monkeypatch.setattr(norlund, "_central_poly", lambda m: read.append(m) or _central_poly(m))
    d_norlund.cache_clear()
    norlund._newton.cache_clear()
    assert d_norlund(1000, 3) == d_norlund_recursion(1000, 3)
    assert read == [7, 8, 9, 10]


def test_sign_alternation():
    for m in range(1, 17):
        for n in range(17):
            value = d_norlund(m, n)
            assert (value > 0) if n % 2 == 0 else (value < 0), (m, n)


def test_validation():
    with pytest.raises(ValueError):
        d_norlund(0, 1)
    with pytest.raises(ValueError):
        d_norlund(1, -1)
    with pytest.raises(ValueError):
        d_norlund_series_oracle(0, 3)


def test_indices_must_be_ints():
    # cold, then with the int values cached: a bool or float index must be
    # rejected, not served an int's value from the cache
    d_norlund.cache_clear()
    for warm in (False, True):
        if warm:
            d_norlund(1, 1), d_norlund(2, 1)
        with pytest.raises(ValueError, match="m must be an integer, got 2.0"):
            d_norlund(2.0, 1)
        with pytest.raises(ValueError, match="m must be an integer, got True"):
            d_norlund(True, 1)
        with pytest.raises(ValueError, match="n must be an integer, got True"):
            d_norlund(2, True)
        with pytest.raises(ValueError, match="n must be an integer, got 1.0"):
            d_norlund(2, 1.0)
    assert d_norlund(2, 1) == Fraction(-2, 3)


def test_sech_laurent_series_consistency():
    """The Laurent expansion of sech^m(z/2) at z = pi*i built from
    D^(m)_{2k} reproduces the function numerically near the pole."""
    mp.mp.dps = 30
    center = mp.pi * 1j
    order = 20
    for m in range(1, 6):
        coeffs = d_norlund_series_oracle(m, order)
        for w in (mp.mpf("0.5"), mp.mpc(0.2, 0.3), mp.mpc(-0.31, 0.17)):
            z = center + w
            series = mp.mpc(0)
            for k in range(order + 1):
                d = coeffs[k]
                term = (
                    (-1) ** k
                    * (1j / 2) ** (2 * k - m)
                    * mp.mpf(d.numerator)
                    / d.denominator
                    / mp.factorial(2 * k)
                    * w ** (2 * k - m)
                )
                series += term
            direct = 1 / mp.cosh(z / 2) ** m
            assert abs(series - direct) < mp.mpf("1e-10"), (m, w)
