import json
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gjmsdet.zexpr import LOG2, ONE, ZetaExpr
from sparse_terms import add, dense, record, scale, shift_pi, sparse, term


def test_normalization_merges_and_drops_zeros():
    e = ZetaExpr.from_terms([(LOG2, 0, Fraction(1, 2)), (LOG2, 0, Fraction(1, 2))])
    assert e == ZetaExpr.log2(1) == ZetaExpr(0, 1, (0, 1))
    z = ZetaExpr.from_terms([(3, -2, Fraction(1)), (3, -2, Fraction(-1))])
    assert z.is_zero()
    assert z == ZetaExpr(0, 1, ())
    # trailing zero slots are dropped; interior ones stay
    assert ZetaExpr(2, 1, (1, 0, 3, 0, 0)).nums == (1, 0, 3)
    assert ZetaExpr(5, 1, (0, 0)) == ZetaExpr(0, 1, ()) and ZetaExpr(5, 1, (0, 0)).pi_pow == 0
    # the zero expression is (0, 1, ()) whatever the denominator
    assert (ZetaExpr(5, -7, (0, 0)).pi_pow, ZetaExpr(5, -7, (0, 0)).den) == (0, 1)
    # one gcd reduction and a positive denominator
    assert ZetaExpr(2, -6, (2, 0, -4, 0)) == ZetaExpr(2, 3, (-1, 0, 2))
    assert ZetaExpr(2, -6, (2, 0, -4, 0)).nums == (-1, 0, 2)
    with pytest.raises(ValueError):
        ZetaExpr(0, 0, (1,))


def test_invalid_atoms_rejected():
    with pytest.raises(ValueError):
        ZetaExpr.from_terms([(4, 0, Fraction(1))])  # even zeta argument
    with pytest.raises(ValueError):
        ZetaExpr.from_terms([(1, 0, Fraction(1))])  # zeta(1) is not an atom
    with pytest.raises(ValueError):
        ZetaExpr.from_terms([("pi", 0, Fraction(1))])


def test_arithmetic():
    a = ZetaExpr.from_terms([(LOG2, 0, Fraction(1, 4)), (3, -2, Fraction(-3, 8))])
    assert a == ZetaExpr(0, 8, (0, 2, -3))
    assert a + a == ZetaExpr(0, 4, (0, 2, -3))
    assert a + ZetaExpr(0, 1, ()) == a == ZetaExpr(7, 1, ()) + a
    # the sparse algebra of the test oracles
    b = scale(2, sparse(a))
    assert b == {(LOG2, 0): Fraction(1, 2), (3, -2): Fraction(-3, 4)}
    assert add(sparse(a), scale(-1, sparse(a))) == {}
    assert add(scale(-1, sparse(a)), sparse(a)) == sparse(ZetaExpr(0, 1, ()))
    shifted = shift_pi(sparse(a), 2)
    assert shifted == {(LOG2, 2): Fraction(1, 4), (3, 0): Fraction(-3, 8)}
    assert dense(shifted) == ZetaExpr(2, 8, (0, 2, -3))
    with pytest.raises(ValueError):
        a + ZetaExpr.log2(1, 2)


def test_canonical_term_order():
    e = ZetaExpr.from_terms(
        [(5, -4, 1), (ONE, 0, Fraction(1, 2)), (3, -2, 1), (LOG2, 0, 1)]
    )
    atoms = [atom for atom, _, _ in e.terms()]
    assert atoms == [ONE, LOG2, 3, 5]
    assert [p for _, p, _ in e.terms()] == [0, 0, -2, -4]


def test_plain_rendering():
    e = ZetaExpr(0, 32, (0, 7, -13))
    assert str(e) == "7/32*log2 - 13/32*zeta(3)*pi^-2"
    assert str(ZetaExpr(0, 1, ())) == "0"
    # each slot reduced on its own: 16/64 prints as 1/4
    assert str(ZetaExpr(0, 64, (0, 16, -13))) == "1/4*log2 - 13/64*zeta(3)*pi^-2"


def test_latex_rendering_mentions_all_pieces():
    e = ZetaExpr(0, 32, (0, 7, -13))
    tex = e.to_latex()
    assert r"\log 2" in tex and r"\frac{\zeta(3)}{\pi^{2}}" in tex
    assert r"\frac{7}{32}" in tex and r"\frac{13}{32}" in tex


def test_json_roundtrip_is_byte_stable():
    e = ZetaExpr(0, 64, (0, 14, -26, 15))
    text = e.to_json()
    again = ZetaExpr.from_json(text)
    assert again == e
    assert again.to_json() == text


def _json_term(**changes):
    entry = {"atom": {"zeta": 3}, "pi_pow": -2, "coeff": "1/2"}
    entry.update(changes)
    return [entry]


@pytest.mark.parametrize(
    "obj",
    [
        _json_term(atom={"zeta": 3.5}),
        _json_term(atom={"zeta": "5"}),
        _json_term(atom={"zeta": True}),
        _json_term(atom={"zeta": 4}),
        _json_term(atom={}),
        _json_term(atom="pi"),
        _json_term(pi_pow=2.7),
        _json_term(pi_pow=True),
        _json_term(pi_pow="-2"),
        _json_term(coeff=0.1),
        _json_term(coeff=1),
        _json_term(coeff="1/0"),
        _json_term(coeff="half"),
        [{"atom": "log2", "pi_pow": 0}],
        [{"pi_pow": 0, "coeff": "1/2"}],
        [{"atom": "log2", "pi_pow": 0, "coeff": "1/2", "extra": 1}],
        ["log2"],
        {"atom": "log2", "pi_pow": 0, "coeff": "1/2"},
        "7/32",
        3,
        # log 2 at pi^0 and zeta(3) at pi^0 need record powers 0 and 2
        [
            {"atom": "log2", "pi_pow": 0, "coeff": "1/2"},
            {"atom": {"zeta": 3}, "pi_pow": 0, "coeff": "1/2"},
        ],
    ],
)
def test_from_json_rejects_malformed_input(obj):
    with pytest.raises(ValueError):
        ZetaExpr.from_json(json.dumps(obj))


coeffs = st.fractions(min_value=-100, max_value=100, max_denominator=1000)
# slot coefficients with interior zeros
slot_lists = st.lists(st.one_of(st.just(Fraction(0)), coeffs), max_size=8)
pi_pows = st.integers(-8, 8)
records = st.builds(record, pi_pows, slot_lists)
atoms = st.one_of(
    st.just(ONE), st.just(LOG2), st.integers(1, 6).map(lambda j: 2 * j + 1)
)


def layout_terms(pi_pow):
    """Term lists (atom, own pi power, coeff) that fit the record power
    pi_pow, atoms repeated and in any order."""
    return st.lists(
        st.tuples(atoms, coeffs).map(
            lambda t: (t[0], pi_pow - (t[0] - 1 if isinstance(t[0], int) else 0), t[1])
        ),
        max_size=8,
    )


def _stored(expr):
    """Stored terms; each coefficient a nonzero Fraction in lowest terms,
    no trailing zero slot, and the record in canonical form."""
    terms = expr.terms()
    for _, _, c in terms:
        assert type(c) is Fraction and c != 0 and c.denominator > 0
    assert not expr.nums or expr.nums[-1] != 0
    assert expr.den > 0 and gcd(expr.den, *expr.nums) == 1
    return terms


@given(records, slot_lists)
def test_addition_commutes_and_roundtrips(a, slots):
    b = record(a.pi_pow, slots)
    assert a + b == b + a
    assert sparse(a + b) == add(sparse(a), sparse(b))
    assert add(sparse(a + b), scale(-1, sparse(b))) == sparse(a)
    assert ZetaExpr.from_json((a + b).to_json()) == a + b


@given(pi_pows.flatmap(lambda p: st.tuples(layout_terms(p), layout_terms(p))))
def test_fast_algebra_matches_validating_constructor(lists):
    # + merges records without from_terms' validation; it must give what
    # from_terms gives from the combined term lists, hash alike and store
    # no zeros
    t1, t2 = lists
    a, b = ZetaExpr.from_terms(t1), ZetaExpr.from_terms(t2)
    neg_t2 = [(x, pp, -c) for x, pp, c in t2]
    cases = (
        (a + b, t1 + t2),
        (a + dense(scale(-1, sparse(b))), t1 + neg_t2),
    )
    for fast, term_list in cases:
        slow = ZetaExpr.from_terms(term_list)
        assert _stored(fast) == _stored(slow)
        assert fast == slow and hash(fast) == hash(slow)
    assert sparse(a) == add(*(term(x, c, pp) for x, pp, c in t1))


@given(records, pi_pows, pi_pows, st.lists(coeffs, min_size=1, max_size=8))
def test_record_roundtrips_and_zero_equality(e, p, q, slots):
    assert ZetaExpr.from_terms(e.terms()) == e
    assert ZetaExpr.from_json(e.to_json()) == e
    # zero expressions of any power are one value
    zp, zq = record(p, [Fraction(0)] * len(slots)), ZetaExpr(q, 1, ())
    assert zp == zq and hash(zp) == hash(zq) and zp.is_zero()
    assert e + zp == e == zq + e
    # nonzero operands at two different powers do not add
    nonzero = slots[:-1] + [slots[-1] or Fraction(1)]
    if p != q:
        with pytest.raises(ValueError):
            record(p, nonzero) + record(q, nonzero)


weighted_slots = st.lists(st.tuples(st.integers(-6, 6), slot_lists), max_size=6)


@given(pi_pows, weighted_slots, st.integers(-6, 6), slot_lists)
def test_weighted_sum_matches_fold(p, pairs, w, slots):
    # the integer common-denominator sum equals the sparse fold of the same
    # terms; a term added with w and -w cancels to nothing
    pairs = [(weight, record(p, s)) for weight, s in pairs]
    pairs += [(w, record(p, slots)), (-w, record(p, slots))]
    fold = add(*(scale(weight, sparse(e)) for weight, e in pairs))
    fast = ZetaExpr._weighted_sum(pairs)
    assert _stored(fast) == _stored(dense(fold))
    assert sparse(fast) == fold
    assert fast == dense(fold) and hash(fast) == hash(dense(fold))
    t = record(p, slots)
    assert ZetaExpr._weighted_sum([(w, t), (-w, t)]).is_zero()
    assert ZetaExpr._weighted_sum([]).is_zero()


@given(records, pi_pows, st.integers(-(10**30), 10**30).filter(bool),
       st.integers(0, 3), st.integers(-6, 6))
def test_canonical_form_under_scaling(e, p, s, pad, w):
    # (den, nums) scaled by any nonzero int, negative included, and padded
    # with trailing zero slots is the same record; a zero record may come at
    # any power
    scaled = ZetaExpr(e.pi_pow if e.nums else p, s * e.den, [s * c for c in e.nums] + [0] * pad)
    assert (scaled.pi_pow, scaled.den, scaled.nums) == (e.pi_pow, e.den, e.nums)
    assert scaled == e and hash(scaled) == hash(e)
    assert scaled.den > 0 and gcd(scaled.den, *scaled.nums) == 1
    assert ZetaExpr.from_terms(scaled.terms()) == e
    fold = add(scale(w, sparse(e)), scale(s, sparse(e)))
    assert ZetaExpr._weighted_sum([(w, scaled), (s, e)]) == dense(fold)


def test_log2_rejects_inexact_coefficients():
    assert ZetaExpr.log2(Fraction(1, 2**64)) == ZetaExpr(0, 2**64, (0, 1))
    assert ZetaExpr.log2(-3, 2) == ZetaExpr(2, 1, (0, -3))
    for coeff in (0.1, 0.5, Decimal("0.1"), True, "1/2", 1j):
        with pytest.raises(ValueError):
            ZetaExpr.log2(coeff)
    with pytest.raises(ValueError):
        ZetaExpr.log2(1, 1.0)
