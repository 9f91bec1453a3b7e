import random
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjmsdet.central_factorials import _central_poly
from gjmsdet.closed_form import (
    PrecisionContext,
    _basis,
    _pi_f_odd,
    evaluate,
    f_even,
    f_expr,
    f_odd,
    logdet_gjms,
    zeta_odd,
)
from gjmsdet.errors import DivergentDeterminantError, InvalidDimensionError
from gjmsdet.exact import bernoulli
from gjmsdet.zexpr import LOG2, ONE, ZetaExpr
from norlund_oracle import logdet_paper_formula
from sparse_terms import add, record, scale, shift_pi, sparse
from test_zexpr import coeffs, pi_pows


def zeta_euler_maclaurin_oracle(s, digits):
    """Independent oracle: direct summation plus Euler-Maclaurin tail."""
    with mp.workdps(digits + 15):
        s = mp.mpf(s)
        N, J = 50, 20
        total = mp.fsum(mp.mpf(n) ** -s for n in range(1, N + 1))
        total += mp.mpf(N) ** (1 - s) / (s - 1)
        total -= mp.mpf(N) ** -s / 2
        rising = s  # s(s+1)...(s+2j-2), starting at j = 1
        for j in range(1, J + 1):
            b = bernoulli(2 * j)
            total += (
                mp.mpf(b.numerator)
                / b.denominator
                / mp.factorial(2 * j)
                * rising
                * mp.mpf(N) ** (-s - 2 * j + 1)
            )
            rising *= (s + 2 * j - 1) * (s + 2 * j)
        return +total


def test_f_even_values():
    assert f_even(0) == Fraction(1, 2)
    assert f_even(1) == Fraction(1, 6)
    assert f_even(2) == Fraction(11, 90)
    assert f_even(3) == Fraction(191, 1890)
    assert f_even(4) == Fraction(2497, 28350)


def test_f_odd_values():
    assert f_odd(0) == ZetaExpr.log2(1, -1)
    assert f_odd(1) == ZetaExpr(-1, 4, (0, 2, 3))
    assert sparse(f_odd(3)) == {
        (7, -7): Fraction(63, 64),
        (5, -5): Fraction(35, 32),
        (3, -3): Fraction(259, 480),
        (LOG2, -1): Fraction(5, 16),
    }
    assert sparse(f_odd(4)) == {
        (9, -9): Fraction(255, 256),
        (7, -7): Fraction(189, 128),
        (5, -5): Fraction(141, 128),
        (3, -3): Fraction(3229, 6720),
        (LOG2, -1): Fraction(35, 128),
    }


def test_pi_f_odd_running_products_match_per_entry_formula():
    # the running (2n)!, 16^(m-n) and 4^n give what the per-entry formula
    # (-1)^(m+n) 16^(m-n) (2n)! row[2n+1] (4^n - 1 for n >= 1) gives
    for m in range(61):
        row = _central_poly(2 * m + 1)
        out = []
        for n in range(m + 1):
            c = (-1) ** (m + n) * 16 ** (m - n) * factorial(2 * n) * row[2 * n + 1]
            out.append(c * (4**n - 1) if n else c)
        assert _pi_f_odd(m) == (factorial(2 * m) * 16**m, tuple(out)), m


pairs_d_le_81 = st.integers(1, 40).flatmap(
    lambda h: st.tuples(st.just(2 * h + 1), st.integers(1, h))
)


@settings(deadline=None, max_examples=40)
@given(pairs_d_le_81)
def test_logdet_matches_paper_formula_on_oracle_f(pair):
    d, k = pair
    assert sparse(logdet_gjms(d, k)) == logdet_paper_formula(d, k)


def test_f_monotone_decreasing_over_odd_indices():
    values = [float(evaluate(f_expr(m))) for m in (1, 3, 5, 7, 9)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_logdet_small_cases_exact():
    assert logdet_gjms(3, 1) == ZetaExpr(0, 8, (0, 2, -3))
    assert sparse(logdet_gjms(5, 2)) == {
        (LOG2, 0): Fraction(7, 32),
        (3, -2): Fraction(-13, 32),
        (5, -4): Fraction(15, 64),
    }


def test_logdet_k1_reduces_to_f_difference():
    for d in range(3, 22, 2):
        direct = logdet_gjms(d, 1)
        prefactor = Fraction((-1) ** ((d + 1) // 2), 2 ** (d - 2))
        diff = add(sparse(f_expr(d - 2)), scale(-1, sparse(f_expr(d))))
        assert sparse(direct) == shift_pi(scale(prefactor, diff), 1), d


def test_logdet_k2_two_term_formula():
    for d in range(5, 15, 2):
        direct = logdet_gjms(d, 2)
        t1 = scale(
            Fraction((-1) ** ((d - 1) // 2), 2 ** (d - 4)),
            add(sparse(f_expr(d - 4)), scale(-1, sparse(f_expr(d - 2)))),
        )
        t2 = scale(
            Fraction((-1) ** ((d + 1) // 2), 2 ** (d - 3)),
            add(sparse(f_expr(d - 2)), scale(-1, sparse(f_expr(d)))),
        )
        assert sparse(direct) == shift_pi(add(t1, t2), 1), d


def test_logdet_validation():
    with pytest.raises(InvalidDimensionError):
        logdet_gjms(4, 1)
    with pytest.raises(InvalidDimensionError):
        logdet_gjms(1, 1)
    with pytest.raises(DivergentDeterminantError):
        logdet_gjms(5, 3)
    with pytest.raises(ValueError):
        logdet_gjms(5, 0)


def test_logdet_atoms_have_expected_pi_powers():
    for d, k in ((5, 2), (9, 3), (13, 6)):
        for atom, pi_pow, _ in logdet_gjms(d, k).terms():
            if atom == LOG2:
                assert pi_pow == 0
            else:
                assert pi_pow == -(atom - 1)


def test_zeta_odd_against_euler_maclaurin_oracle():
    for s in (3, 5, 7, 9, 13, 21):
        ctx = PrecisionContext(decimal_digits=30)
        mine = zeta_odd(s, ctx)
        oracle = zeta_euler_maclaurin_oracle(s, 30)
        assert abs(mine - oracle) < mp.mpf("1e-30") * oracle, s


def test_zeta_odd_frozen_digits():
    with mp.workdps(40):
        v3 = zeta_odd(3, PrecisionContext(decimal_digits=30))
        assert abs(v3 - mp.mpf("1.202056903159594285399738161511")) < mp.mpf("1e-29")
        v9 = zeta_odd(9, PrecisionContext(decimal_digits=15))
        assert abs(v9 - mp.mpf("1.00200839282608")) < mp.mpf("1e-14")


def test_zeta_odd_tends_to_one_from_above():
    prev = zeta_odd(3)
    for s in range(5, 40, 2):
        cur = zeta_odd(s)
        assert 1 < cur < prev
        prev = cur


def test_zeta_odd_validation():
    with pytest.raises(ValueError):
        zeta_odd(4)
    with pytest.raises(ValueError):
        zeta_odd(1)


def test_precision_context_floor():
    with pytest.raises(ValueError):
        PrecisionContext(decimal_digits=10)


def test_evaluate_spot_values():
    assert abs(float(evaluate(logdet_gjms(5, 2))) - 0.104642) < 5e-7
    assert abs(float(evaluate(f_odd(4))) - 0.08321740587) < 5e-11
    assert abs(float(evaluate(logdet_gjms(13, 3))) - (-0.0001001554942)) < 5e-13


def test_evaluate_precision_scales_with_context():
    expr = logdet_gjms(7, 3)
    lo = evaluate(expr, PrecisionContext(decimal_digits=20))
    hi = evaluate(expr, PrecisionContext(decimal_digits=60))
    assert abs(lo - hi) < mp.mpf("1e-19")


def test_cached_basis_values_follow_the_context():
    # atom * pi^p is cached per context: switching precision back and forth
    # must give what a run from empty caches gives at each precision (a cache
    # filled at 20 digits and read at 60 would be off from the 31st digit);
    # one expression per power of pi
    exprs = (logdet_gjms(21, 4), f_odd(6), ZetaExpr(2, 7, (3,)))
    digits = (20, 60, 20, 60)
    _basis.cache_clear()
    cached = [[evaluate(e, PrecisionContext(n)) for e in exprs] for n in digits]
    for n, values in zip(digits, cached):
        for e, value in zip(exprs, values):
            _basis.cache_clear()
            zeta_odd.cache_clear()
            fresh = evaluate(e, PrecisionContext(n))
            assert fresh == value and repr(fresh) == repr(value), (n, e)
    for lo, hi in zip(cached[0], cached[1]):
        assert abs(lo - hi) < mp.mpf("1e-19") and lo != hi


def test_evaluate_matches_direct_high_precision_sum():
    rng = random.Random(2014)
    for _ in range(20):
        d = rng.randrange(3, 202, 2)
        k = rng.randint(1, (d - 1) // 2)
        expr = logdet_gjms(d, k)
        with mp.workdps(150):
            direct = mp.mpf(0)
            for atom, pi_pow, c in expr.terms():
                base = mp.mpf(1) if atom == ONE else mp.log(2) if atom == LOG2 else mp.zeta(atom)
                direct += mp.mpf(c.numerator) / c.denominator * base * mp.pi**pi_pow
            value = evaluate(expr, PrecisionContext(60))
            assert abs(value - direct) <= mp.mpf("1e-60") * abs(direct), (d, k)


def _direct_sums(expr):
    """sum_i c_i b_i and sum_i |c_i b_i| over the terms c_i * atom * pi^p of
    expr, b_i = atom * pi^p, at 150 digits."""
    with mp.workdps(150):
        terms = [
            mp.mpf(c.numerator) / c.denominator
            * (mp.mpf(1) if atom == ONE else mp.log(2) if atom == LOG2 else mp.zeta(atom))
            * mp.pi**pi_pow
            for atom, pi_pow, c in expr.terms()
        ]
        return mp.fsum(terms), mp.fsum(abs(t) for t in terms)


# slot coefficients, some scaled by 10^-300 ... 10^300
scaled_slot_lists = st.lists(
    st.tuples(coeffs, st.one_of(st.just(0), st.integers(-300, 300))).map(
        lambda t: t[0] * Fraction(10) ** t[1]
    ),
    max_size=8,
)


@settings(deadline=None)
@given(pi_pows, scaled_slot_lists, st.integers(1, 80))
def test_evaluate_matches_direct_sum_on_arbitrary_expressions(pi_pow, slots, cancel):
    # every atom, pi powers of both signs, huge and tiny coefficients, and a
    # slot-0 constant that cancels the value down to about 10^-cancel of
    # itself: evaluate errs by at most a few units in the last place of its
    # working precision (digits + 10) relative to sum_i |c_i b_i| + |value|
    slots = slots or [Fraction(0)]
    value, _ = _direct_sums(record(0, slots))
    with mp.workdps(150):
        slots[0] -= Fraction(mp.nstr(value, cancel))
        expr = record(pi_pow, slots)
        direct, magnitude = _direct_sums(expr)
        for digits in (20, 60):
            got = evaluate(expr, PrecisionContext(digits))
            bound = mp.mpf(10) ** -(digits + 9) * (magnitude + abs(direct))
            assert abs(got - direct) <= bound, (digits, got, direct)


def test_evaluate_zero_is_exactly_zero():
    for digits in (20, 60):
        value = evaluate(ZetaExpr(3, 1, (0, 0)), PrecisionContext(digits))
        assert isinstance(value, mp.mpf) and value == 0


def test_paneitz_magnitude_decreasing_in_dimension():
    values = [evaluate(logdet_gjms(d, 2)) for d in range(5, 22, 2)]
    mags = [abs(v) for v in values]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    signs = [mp.sign(v) for v in values]
    assert all(a == -b for a, b in zip(signs, signs[1:]))
