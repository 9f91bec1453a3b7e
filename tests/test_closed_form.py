import ast
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from pathlib import Path

import mpmath as mp
from mpmath import libmp
from mpmath.libmp import gammazeta, round_nearest
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjmsdet import closed_form
from gjmsdet.closed_form import (
    PrecisionContext,
    _basis,
    _basis_value,
    _logdet_column,
    _pi_f_odd_sum,
    evaluate,
    f_even,
    f_expr,
    f_odd,
    logdet_gjms,
    zeta_odd,
)
from gjmsdet.errors import DivergentDeterminantError, InvalidDimensionError
from gjmsdet.exact import bernoulli
from gjmsdet.norlund import _central_poly, d_norlund
from gjmsdet.zexpr import LOG2, ONE, ZetaExpr
import gamma_oracle
from norlund_oracle import d_norlund_recursion, logdet_paper_formula
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


def test_f_even_matches_norlund_recursion():
    # production reads D^(2m)_{2m} off the row 4^m x^[2m+1]; the oracle is
    # the Bernoulli composition recursion
    for m in range(1, 61):
        want = Fraction((-1) ** m, 2 * factorial(2 * m)) * d_norlund_recursion(2 * m, m)
        assert f_even(m) == want, m


def test_f_expr_even_is_the_validated_constant():
    for m in range(41):
        assert f_expr(2 * m) == ZetaExpr.from_terms([(ONE, 0, f_even(m))]), m


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


@lru_cache(maxsize=None)
def pi_f_odd_per_entry(m):
    """pi f_{2m+1} as the denominator (2m)! 16^m and the numerators
    (-1)^(m+n) 16^(m-n) (2n)! row[n] (times 4^n - 1 for n >= 1), row[n] the
    coefficient of x^(2n+1) in 4^m x^[2m+1]: each vector scaled on its own."""
    out = []
    for n, t in enumerate(_central_poly(2 * m + 1)):
        c = (-1) ** (m + n) * 16 ** (m - n) * factorial(2 * n) * t
        out.append(c * (4**n - 1) if n else c)
    return factorial(2 * m) * 16**m, out


def logdet_scaled_vectors(d, k):
    """log det P_2k(d) as the weighted sum of the vectors pi f_{2m+1}, each
    brought to the top vector's denominator by the exact quotient."""
    m0 = (d - 1) // 2 - k
    weights = [0] * (k + 1)
    for j in range(k):
        c = comb(2 * k - 1 - j, j) * (-1) ** j * 4 ** (k - j)
        weights[j] += c
        weights[j + 1] -= c
    top_den, top = pi_f_odd_per_entry(m0 + k)
    acc = [0] * len(top)
    for j, w in enumerate(weights):
        den, row = pi_f_odd_per_entry(m0 + j)
        w *= top_den // den
        for n, v in enumerate(row):
            acc[n] += w * v
    return ZetaExpr(0, (-1) ** ((d - 1) // 2 + k) * top_den << d, (0, *acc))


def test_pi_f_odd_running_products_match_per_entry_formula():
    # one weight: the running (2top)!/(2m)!, (2n)!, 16^(top-n) and 4^n give
    # what the per-entry formula gives
    for m in range(61):
        assert _pi_f_odd_sum(m, [1]) == pi_f_odd_per_entry(m), m


def test_logdet_matches_sum_of_scaled_vectors():
    # rows summed first and scaled once equal the vectors scaled first and
    # summed over the top denominator
    pairs = [(d, k) for d in range(3, 62, 2) for k in range(1, (d - 1) // 2 + 1)]
    rng = random.Random(18)
    for _ in range(10):
        d = rng.randrange(201, 602, 2)
        pairs.append((d, rng.randrange(1, (d - 1) // 2 + 1)))
    for d, k in pairs:
        assert logdet_gjms(d, k) == logdet_scaled_vectors(d, k), (d, k)


def test_logdet_column_is_the_per_record_closed_form():
    # rows scaled once per dimension and summed per record equal each record
    # summed first and scaled once: every pair d <= 61, and the whole column
    # d = 201
    for d in [*range(3, 62, 2), 201]:
        want = [logdet_gjms(d, k) for k in range(1, (d - 1) // 2 + 1)]
        assert list(_logdet_column(d)) == want, d


def test_logdet_is_the_gamma_integral_for_d_le_61():
    # the Gamma integral's exact form, built from its own product Q_n and
    # eta values with ZetaExpr.from_terms alone: no code shared with the
    # Norlund rows, equal on all 465 pairs d <= 61
    tree = ast.parse(Path(gamma_oracle.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    assert {m for m in imported if m.startswith("gjmsdet")} == {"gjmsdet.zexpr"}
    pairs = [(d, k) for d in range(3, 62, 2) for k in range(1, (d - 1) // 2 + 1)]
    assert len(pairs) == 465
    for d, k in pairs:
        assert gamma_oracle.logdet_gamma(d, k) == logdet_gjms(d, k), (d, k)


def test_logdet_three_term_recurrence_in_k():
    # sinh((k+1)x) + sinh((k-1)x) = 2 sinh(kx) (2 cosh^2(x/2) - 1), and one
    # cosh^2(x/2) lowers d by 2: L(d, k+1) = L(d-2, k) + 2 L(d, k) - L(d, k-1)
    # with L(d, 0) = 0, on all 1,225 identities with d <= 101
    zero = ZetaExpr(0, 1, ())
    checked = 0
    for d in range(5, 102, 2):
        for k in range(1, (d - 1) // 2):
            below = logdet_gjms(d, k - 1) if k > 1 else zero
            terms = ((1, logdet_gjms(d - 2, k)), (2, logdet_gjms(d, k)), (-1, below))
            assert logdet_gjms(d, k + 1) == ZetaExpr._weighted_sum(terms), (d, k)
            checked += 1
    assert checked == 1225


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
    # d and k must be ints, bools excluded; the cache is typed, so a float
    # is rejected alike before and after the int pair is cached
    logdet_gjms.cache_clear()
    for _ in range(2):
        with pytest.raises(InvalidDimensionError, match="d must be an integer, got 5.0"):
            logdet_gjms(5.0, 2)
        with pytest.raises(ValueError, match="k must be an integer, got 2.0"):
            logdet_gjms(5, 2.0)
        logdet_gjms(5, 2)
    with pytest.raises(InvalidDimensionError, match="d must be an integer, got True"):
        logdet_gjms(True, 1)
    with pytest.raises(ValueError, match="k must be an integer, got True"):
        logdet_gjms(3, True)
    with pytest.raises(ValueError):
        f_odd(-1)
    with pytest.raises(ValueError):
        f_even(-1)


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


def basis_value_oracle(n, pi_pow, digits):
    """Slot n's (mantissa, exponent) in a record with power pi_pow, computed
    in an mpmath context at digits + 10: 1, log 2 or zeta(2n-1), times pi to
    the slot's own power."""
    with mp.workdps(digits + 10):
        if n < 2:
            base = mp.log(2) if n else mp.mpf(1)
        else:
            gammazeta.zeta_int_cache.clear()  # a fresh mp.zeta, as in the test below
            base, pi_pow = mp.zeta(2 * n - 1), pi_pow - 2 * n + 2
        return (base * mp.pi**pi_pow).man_exp


def test_libmp_values_match_the_mpmath_context_oracle():
    # zeta(odd) and the basis values are computed in libmp at one binary
    # precision; they must be bit for bit what mpmath's context gives
    # (mpmath serves zeta(s) from a cache filled at any higher precision, so
    # each oracle call starts from an empty one)
    zeta_odd.cache_clear()
    for digits in (15, 50, 100):
        ctx = PrecisionContext(digits)
        with mp.workdps(digits + 10):
            for s in range(3, 402, 2):
                gammazeta.zeta_int_cache.clear()
                assert zeta_odd(s, ctx)._mpf_ == mp.zeta(s)._mpf_, (digits, s)
        for n in range(120):
            for pi_pow in (-3, 0, 1):
                want = basis_value_oracle(n, pi_pow, digits)
                assert _basis_value(n, pi_pow, ctx) == want, (digits, n, pi_pow)


def fresh_zeta_int(s, prec):
    """mpmath's integer zeta at prec, from an empty zeta_int_cache."""
    gammazeta.zeta_int_cache.clear()
    return gammazeta.mpf_zeta_int(s, prec, round_nearest)


def test_zeta_odd_is_a_fresh_mpf_zeta_int_in_any_order():
    # one Borwein sweep per precision serves every s; whatever order the
    # values are asked in, each is the fresh mpf_zeta_int bits, and mpmath's
    # cache is neither read nor written
    for digits in (15, 50, 66, 100, 300):
        ctx = PrecisionContext(digits)
        want = {s: fresh_zeta_int(s, ctx._prec) for s in range(3, 802, 2)}
        shuffled = list(want)
        random.Random(23).shuffle(shuffled)
        for order in (list(want), list(want)[::-1], shuffled):
            zeta_odd.cache_clear()
            closed_form._borwein.cache_clear()
            gammazeta.zeta_int_cache.clear()
            got = {s: zeta_odd(s, ctx)._mpf_ for s in order}
            assert not gammazeta.zeta_int_cache, digits
            assert got == want, (digits, order[:3])


def test_zeta_odd_bits_ignore_what_ran_before():
    # at 66 digits zeta(115) is in the Euler-product range, where a fresh
    # mp.zeta carries prec + 20 = 276 bits; a value mpmath cached at 400
    # digits is rounded to 255 instead, and must not be what zeta_odd gives
    ctx = PrecisionContext(66)
    fresh = fresh_zeta_int(115, ctx._prec)
    assert fresh[3] == 276
    e = logdet_gjms(231, 1)
    _basis.cache_clear()
    zeta_odd.cache_clear()
    # a new equal record, whose value memo is empty
    evaluate(ZetaExpr(e.pi_pow, e.den, e.nums), PrecisionContext(400))
    assert zeta_odd(115, ctx)._mpf_ == fresh
    zeta_odd.cache_clear()
    with mp.workdps(400):  # another mpmath user, at a higher precision
        mp.zeta(115)
    assert gammazeta.zeta_int_cache
    assert zeta_odd(115, ctx)._mpf_ == fresh
    gammazeta.zeta_int_cache.clear()


def test_values_ignore_mpmath_working_precision():
    # the numeric layer reads only its PrecisionContext, never mpmath's own
    exprs = (logdet_gjms(41, 7), f_odd(9), ZetaExpr(-3, 11, (1, -2, 5)))
    ctx = PrecisionContext(50)
    got = []
    for dps in (15, 300):
        _basis.cache_clear()
        zeta_odd.cache_clear()
        with mp.workdps(dps):
            # new equal records, whose value memos are empty
            values = [evaluate(ZetaExpr(e.pi_pow, e.den, e.nums), ctx) for e in exprs]
            zetas = [zeta_odd(s, ctx) for s in (3, 5, 41)]
        got.append([v._mpf_ for v in values + zetas])
    assert got[0] == got[1]


def test_f_and_zeta_indices_must_be_ints():
    # each int record is cached first: a bool or float index must be
    # rejected, not served that record from the cache
    f_odd(1), f_even(1), f_expr(3), zeta_odd(3)
    with pytest.raises(ValueError, match="m must be an integer, got True"):
        f_odd(True)
    with pytest.raises(ValueError, match="m must be an integer, got 2.0"):
        f_odd(2.0)
    with pytest.raises(ValueError, match="m must be an integer, got 2.0"):
        f_even(2.0)
    with pytest.raises(ValueError, match="m must be an integer, got True"):
        f_even(True)
    with pytest.raises(ValueError, match="m must be an integer, got 3.0"):
        f_expr(3.0)
    with pytest.raises(ValueError, match="m must be an integer, got True"):
        f_expr(True)
    with pytest.raises(ValueError, match="s must be an integer, got 3.0"):
        zeta_odd(3.0)
    with pytest.raises(ValueError, match="s must be an integer, got True"):
        zeta_odd(True)


def test_precision_context_floor():
    with pytest.raises(ValueError):
        PrecisionContext(decimal_digits=10)
    for digits in (20.5, 30.0, True):
        with pytest.raises(ValueError, match="decimal_digits must be an integer"):
            PrecisionContext(decimal_digits=digits)


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
            # a new equal record, whose value memo is empty
            fresh = evaluate(ZetaExpr(e.pi_pow, e.den, e.nums), PrecisionContext(n))
            assert fresh == value and repr(fresh) == repr(value), (n, e)
    for lo, hi in zip(cached[0], cached[1]):
        assert abs(lo - hi) < mp.mpf("1e-19") and lo != hi


def test_value_memo_follows_the_context():
    # a record keeps one value, for the last precision it was evaluated at;
    # switching back must not return the value of the other precision
    e = ZetaExpr(0, 3**40, tuple(range(-7, 30, 3)))
    for n in (20, 60, 20):
        got = evaluate(e, PrecisionContext(n))
        want = evaluate(ZetaExpr(e.pi_pow, e.den, e.nums), PrecisionContext(n))
        assert got._mpf_ == want._mpf_ and repr(got) == repr(want), n


def test_memos_leave_equality_hash_and_repr_alone():
    used = logdet_gjms(15, 3)
    untouched = ZetaExpr(used.pi_pow, used.den, used.nums)
    evaluate(used, PrecisionContext(30))
    str(used), used.to_latex(), used.to_json(), used.terms()
    assert used._value is not None and used._lowest is not None
    assert untouched._value is None and untouched._lowest is None
    assert used == untouched and hash(used) == hash(untouched)
    assert repr(used) == repr(untouched)


def test_basis_rows_grow_one_slot_at_a_time(monkeypatch):
    # ascending d grows the pi^0 row by one slot per item: each basis value
    # is computed once, and shifting the row to a new least exponent changes
    # no value against a row built from empty for that record alone
    calls = Counter()

    def counted(n, pi_pow, ctx):
        calls[n, pi_pow] += 1
        return basis_value(n, pi_pow, ctx)

    basis_value = closed_form._basis_value
    monkeypatch.setattr(closed_form, "_basis_value", counted)
    exprs = [logdet_gjms(d, 1) for d in range(3, 252, 2)]
    exprs = [ZetaExpr(e.pi_pow, e.den, e.nums) for e in exprs]
    _basis.cache_clear()
    grown = [evaluate(e) for e in exprs]
    assert calls == Counter({(n, 0): 1 for n in range(len(exprs[-1].nums))})
    for e, value in zip(exprs, grown):
        _basis.cache_clear()
        fresh = evaluate(ZetaExpr(e.pi_pow, e.den, e.nums))
        assert fresh._mpf_ == value._mpf_ and repr(fresh) == repr(value), e
        # the same sum aligned per record, without a shared row
        basis = [basis_value(n, 0, PrecisionContext()) for n in range(len(e.nums))]
        e_min = min(exp for _, exp in basis)
        total = sum(c * man << (exp - e_min) for c, (man, exp) in zip(e.nums, basis))
        with mp.workdps(60):
            assert mp.ldexp(mp.fdiv(total, e.den), e_min)._mpf_ == value._mpf_, e


def round_quotient_oracle(total, den, e, prec):
    """libmp's own division of the two ints, shifted by e."""
    quotient = libmp.mpf_div(libmp.from_int(total), libmp.from_int(den), prec, round_nearest)
    return libmp.mpf_shift(quotient, e)


def test_round_quotient_is_libmp_division_and_shift():
    # evaluate's one rounding in plain integers gives libmp's tuple, types
    # included, on seeded random operands of 1 to 3,000 bits, and on the
    # cases a wrong sticky bit or guard width would round differently
    rng = random.Random(33)
    for digits in (15, 50, 300):
        prec = PrecisionContext(digits)._prec
        cases = []
        for _ in range(1500):
            den = rng.getrandbits(rng.choice((1, 2, 8, 64, 200, 1000, 3000))) or 1
            total = rng.getrandbits(rng.choice((1, 2, 8, 64, 200, 1000, 3000)))
            cases.append((rng.choice((1, -1)) * total, den))
        for den in (1, 2, 3, 2**70, 3**50, rng.getrandbits(3000) | 1):
            # zero; a 1-bit total; exact quotients of every size around prec
            cases += [(0, den), (1, den), (-1, den)]
            for bits in (1, prec - 1, prec, prec + 1, prec + 7, 3000):
                q = rng.getrandbits(bits) | 1 << (bits - 1)
                cases += [(q * den, den), (-q * den, den)]
            # exact ties at the rounding bit, to even up and down: prec + 1 bits
            # whose last is the half, over an even and an odd kept part
            for kept in (1 << prec - 1, (1 << prec - 1) + 1, (1 << prec) - 1):
                cases += [((2 * kept + 1) * den, den), (-(2 * kept + 1) * den << 40, den)]
            # a hair off a tie: the remainder alone decides
            half = ((1 << prec - 1) + 1) * 2 + 1
            cases += [(half * den + 1, den), (half * den - 1, den)]
        for total, den in cases:
            e = rng.randrange(-5000, 5000)
            got = closed_form._round_quotient(total, den, e, prec)
            want = round_quotient_oracle(total, den, e, prec)
            assert got == want and list(map(type, got)) == list(map(type, want)), (digits, total, den, e)


def test_evaluate_rounds_as_context_fdiv_and_ldexp():
    # the oracle divides the aligned integer sum by mpmath's context
    # arithmetic at digits + 10 and scales it by ldexp; evaluate's one libmp
    # division must give the same mpf bits, for every pair d <= 61 and f_m
    exprs = [logdet_gjms(d, k) for d in range(3, 62, 2) for k in range(1, (d - 1) // 2 + 1)]
    exprs += [f_expr(m) for m in range(61)]
    for digits in (15, 50, 100):
        ctx = PrecisionContext(digits)
        basis = {}  # record pi power -> [(mantissa, exponent)] per slot
        for e in exprs:
            row = basis.setdefault(e.pi_pow, [])
            row += [closed_form._basis_value(n, e.pi_pow, ctx) for n in range(len(row), len(e.nums))]
            e_min = min(exp for _, exp in row[:len(e.nums)])
            total = sum(c * man << (exp - e_min) for c, (man, exp) in zip(e.nums, row))
            with mp.workdps(digits + 10):
                want = mp.ldexp(mp.fdiv(total, e.den), e_min)
            got = evaluate(ZetaExpr(e.pi_pow, e.den, e.nums), ctx)
            assert got._mpf_ == want._mpf_, (digits, e)


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


@pytest.mark.parametrize("call, message", [
    (lambda: logdet_gjms([5], 1), "d must be an integer, got [5]"),
    (lambda: f_odd([1]), "m must be an integer, got [1]"),
    (lambda: d_norlund([3], 1), "m must be an integer, got [3]"),
    (lambda: zeta_odd([3]), "s must be an integer, got [3]"),
], ids=["logdet_gjms", "f_odd", "d_norlund", "zeta_odd"])
def test_cached_functions_check_arguments_before_the_cache(call, message):
    # a list cannot be hashed: the check must run before the cache sees it
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
