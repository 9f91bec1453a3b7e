from fractions import Fraction

import pytest

from gjmsdet import norlund
from gjmsdet.norlund import _central_poly, central_t
from gjmsdet.closed_form import f_odd
from norlund_oracle import f_odd_norlund, verify_central_norlund_identity
from sparse_terms import sparse


def expand_central_poly(n):
    """Brute-force oracle: multiply out x * prod_{i=1}^{n-1} (x + n/2 - i)."""
    coeffs = [Fraction(0), Fraction(1)]
    for i in range(1, n):
        shift = Fraction(n, 2) - i
        coeffs = [Fraction(0)] + coeffs
        for p in range(len(coeffs) - 1):
            coeffs[p] += coeffs[p + 1] * shift
    return coeffs


def test_central_t_small_values():
    assert central_t(3, 1) == Fraction(-1, 4)
    assert central_t(3, 3) == 1
    for n in range(1, 12):
        assert central_t(n, n) == 1
    # x^[5] = x^5 - (5/2) x^3 + (9/16) x
    assert central_t(5, 1) == Fraction(9, 16)
    assert central_t(5, 3) == Fraction(-5, 2)


def test_central_t_against_expansion_oracle():
    for n in range(1, 16):
        oracle = expand_central_poly(n)
        for k in range(n + 1):
            expected = oracle[k] if k < len(oracle) else Fraction(0)
            assert central_t(n, k) == expected, (n, k)


def test_integer_rows_are_scaled_expansions():
    # the memoized rows are 4^(n//2) x^[n] in integers, for both parities,
    # holding the coefficients of x^(n%2), x^(n%2+2), ..., x^n; every other
    # coefficient of x^[n] is 0
    for n in range(1, 31):
        row, oracle = _central_poly(n), expand_central_poly(n)
        assert all(type(c) is int for c in row), n
        assert list(row) == [4 ** (n // 2) * c for c in oracle[n % 2::2]], n
        assert not any(oracle[1 - n % 2::2]), n


def test_central_t_vanishing_pattern():
    for n in range(1, 14):
        for k in range(n + 3):
            if k > n or (n - k) % 2 == 1:
                assert central_t(n, k) == 0, (n, k)


def test_central_t_validation():
    with pytest.raises(ValueError):
        central_t(0, 1)
    with pytest.raises(ValueError):
        central_t(3, -1)


def test_central_t_indices_must_be_ints(monkeypatch):
    # cold (only the seed rows), then warm: a bool or float index must be
    # rejected, not read as an int's row or slot
    monkeypatch.setattr(norlund, "_CENTRAL", ([(1,)], [(1,)]))
    for warm in (False, True):
        if warm:
            central_t(1, 1), central_t(3, 1)
        with pytest.raises(ValueError, match="n must be an integer, got True"):
            central_t(True, 1)
        with pytest.raises(ValueError, match="n must be an integer, got 3.0"):
            central_t(3.0, 1)
        with pytest.raises(ValueError, match="k must be an integer, got True"):
            central_t(3, True)
        with pytest.raises(ValueError, match="k must be an integer, got 1.0"):
            central_t(3, 1.0)
    assert central_t(3, 1) == Fraction(-1, 4)


def test_recurrence_shift_by_two():
    # x^[n+2] = x^[n] (x^2 - n^2/4)
    for n in range(1, 31):
        for k in range(n + 3):
            lhs = central_t(n + 2, k)
            rhs = (central_t(n, k - 2) if k >= 2 else Fraction(0)) - Fraction(
                n**2, 4
            ) * central_t(n, k)
            assert lhs == rhs, (n, k)


def test_identity_corrected_superscript_holds():
    checks = verify_central_norlund_identity(10, superscript="corrected")
    assert len(checks) == sum(m + 1 for m in range(11))
    assert all(c.passed for c in checks)


def test_identity_m1_values():
    checks = {(c.m, c.n): c for c in verify_central_norlund_identity(1)}
    c10 = checks[(1, 0)]
    assert c10.lhs == Fraction(-1, 4) and c10.rhs == Fraction(-1, 4)
    c11 = checks[(1, 1)]
    assert c11.lhs == 1 and c11.rhs == 1


def test_identity_printed_superscript_fails():
    checks = {(c.m, c.n): c for c in verify_central_norlund_identity(3, superscript="printed")}
    bad = checks[(1, 0)]
    # printed form uses D^(1)_2 = -1/3, which does not reproduce t(3,1) = -1/4
    assert not bad.passed
    assert bad.rhs == Fraction(-1, 12)


def test_identity_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_central_norlund_identity(0)
    with pytest.raises(ValueError):
        verify_central_norlund_identity(3, superscript="other")


def test_f_odd_central_matches_residue_route():
    # production f_odd reads central factorial rows; the oracle sums Norlund
    # numbers from the composition recursion
    for m in range(41):
        assert sparse(f_odd(m)) == f_odd_norlund(m), m
