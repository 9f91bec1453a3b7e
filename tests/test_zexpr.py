from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gjmsdet.zexpr import LOG2, ONE, ZetaExpr


def test_normalization_merges_and_drops_zeros():
    e = ZetaExpr([(LOG2, 0, Fraction(1, 2)), (LOG2, 0, Fraction(1, 2))])
    assert e == ZetaExpr.log2(1)
    z = ZetaExpr([(3, -2, Fraction(1)), (3, -2, Fraction(-1))])
    assert z.is_zero()
    assert z == ZetaExpr.zero()


def test_invalid_atoms_rejected():
    with pytest.raises(ValueError):
        ZetaExpr([(4, 0, Fraction(1))])  # even zeta argument
    with pytest.raises(ValueError):
        ZetaExpr([(1, 0, Fraction(1))])  # zeta(1) is not an atom
    with pytest.raises(ValueError):
        ZetaExpr([("pi", 0, Fraction(1))])


def test_arithmetic():
    a = ZetaExpr.log2(Fraction(1, 4)) + ZetaExpr.zeta(3, Fraction(-3, 8), -2)
    b = a * 2
    assert b.coeff(LOG2, 0) == Fraction(1, 2)
    assert b.coeff(3, -2) == Fraction(-3, 4)
    assert (a - a).is_zero()
    assert (-a) + a == ZetaExpr.zero()
    shifted = a.mul_pi(2)
    assert shifted.coeff(LOG2, 2) == Fraction(1, 4)
    assert shifted.coeff(3, 0) == Fraction(-3, 8)


def test_canonical_term_order():
    e = (
        ZetaExpr.zeta(5, 1, -4)
        + ZetaExpr.const(Fraction(1, 2))
        + ZetaExpr.zeta(3, 1, -2)
        + ZetaExpr.log2(1)
    )
    atoms = [atom for atom, _, _ in e.terms()]
    assert atoms == [ONE, LOG2, 3, 5]


def test_plain_rendering():
    e = ZetaExpr.log2(Fraction(7, 32)) + ZetaExpr.zeta(3, Fraction(-13, 32), -2)
    assert str(e) == "7/32*log2 - 13/32*zeta(3)*pi^-2"
    assert str(ZetaExpr.zero()) == "0"


def test_latex_rendering_mentions_all_pieces():
    e = ZetaExpr.log2(Fraction(7, 32)) + ZetaExpr.zeta(3, Fraction(-13, 32), -2)
    tex = e.to_latex()
    assert r"\log 2" in tex and r"\frac{\zeta(3)}{\pi^{2}}" in tex
    assert r"\frac{7}{32}" in tex and r"\frac{13}{32}" in tex


def test_json_roundtrip_is_byte_stable():
    e = (
        ZetaExpr.log2(Fraction(7, 32))
        + ZetaExpr.zeta(3, Fraction(-13, 32), -2)
        + ZetaExpr.zeta(5, Fraction(15, 64), -4)
    )
    text = e.to_json()
    again = ZetaExpr.from_json(text)
    assert again == e
    assert again.to_json() == text


coeffs = st.fractions(min_value=-100, max_value=100, max_denominator=1000)
atoms = st.one_of(
    st.just(ONE), st.just(LOG2), st.integers(1, 6).map(lambda j: 2 * j + 1)
)
term_lists = st.lists(
    st.tuples(atoms, st.integers(-8, 8), coeffs), max_size=8
)


@given(term_lists, term_lists)
def test_addition_commutes_and_roundtrips(t1, t2):
    a, b = ZetaExpr(t1), ZetaExpr(t2)
    assert a + b == b + a
    assert (a + b) - b == a
    assert ZetaExpr.from_json((a + b).to_json()) == a + b


def _stored(expr):
    """Stored terms; each coefficient a nonzero Fraction in lowest terms."""
    terms = expr.terms()
    for _, _, c in terms:
        assert type(c) is Fraction and c != 0 and c.denominator > 0
    return terms


@given(term_lists, term_lists, coeffs, st.integers(-8, 8))
def test_fast_algebra_matches_validating_constructor(t1, t2, q, p):
    # + - * mul_pi merge normalized operands without the constructor's
    # validation; each must give what the constructor gives from the
    # combined or scaled term lists, hash alike and store no zeros
    a, b = ZetaExpr(t1), ZetaExpr(t2)
    neg_t2 = [(x, pp, -c) for x, pp, c in t2]
    cases = (
        (a + b, t1 + t2),
        (a - b, t1 + neg_t2),
        (q * a, [(x, pp, q * c) for x, pp, c in t1]),
        (a * q, [(x, pp, c * q) for x, pp, c in t1]),
        (a.mul_pi(p), [(x, pp + p, c) for x, pp, c in t1]),
    )
    for fast, term_list in cases:
        slow = ZetaExpr(term_list)
        assert _stored(fast) == _stored(slow)
        assert fast == slow and hash(fast) == hash(slow)
    assert (a + b) - b == a
    assert (a * 0).is_zero() and (0 * a) == ZetaExpr.zero()
    assert (a * Fraction(0)).is_zero()


weighted_terms = st.lists(st.tuples(st.integers(-6, 6), term_lists), max_size=6)


@given(weighted_terms, st.integers(-6, 6), term_lists)
def test_weighted_sum_matches_fold(pairs, w, t):
    # the integer common-denominator sum equals the + / * fold of the same
    # terms; a term added with w and -w cancels to nothing
    pairs = [(weight, ZetaExpr(ts)) for weight, ts in pairs]
    pairs += [(w, ZetaExpr(t)), (-w, ZetaExpr(t))]
    fold = ZetaExpr.zero()
    for weight, e in pairs:
        fold = fold + weight * e
    fast = ZetaExpr._weighted_sum(pairs)
    assert _stored(fast) == _stored(fold)
    assert fast == fold and hash(fast) == hash(fold)
    assert ZetaExpr._weighted_sum([(w, ZetaExpr(t)), (-w, ZetaExpr(t))]).is_zero()
    assert ZetaExpr._weighted_sum([]).is_zero()
