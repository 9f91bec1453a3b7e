import json
import sys
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import render_oracle
from gjmsdet import zexpr
from gjmsdet.closed_form import f_expr, logdet_gjms
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
    # a non-ZetaExpr operand is NotImplemented, which Python turns into TypeError
    with pytest.raises(TypeError):
        a + 1


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


def test_latex_log2_keeps_pi_out_of_the_logarithm():
    # \log 2\pi^{-1} would read as log(2/pi): a negative power is a
    # denominator, a positive one follows a thin space
    for coeff, pi_pow, tex in (
        (1, 0, r"\log 2"),
        (1, -1, r"\frac{\log 2}{\pi}"),
        (Fraction(-3, 4), -3, r"-\frac{3}{4}\,\frac{\log 2}{\pi^{3}}"),
        (5, 2, r"5\,\log 2\,\pi^{2}"),
    ):
        assert ZetaExpr.log2(coeff, pi_pow).to_latex() == tex
    f_3 = ZetaExpr.from_terms([(LOG2, -1, Fraction(1, 2)), (3, -3, Fraction(3, 4))])
    assert f_3.to_latex() == r"\frac{1}{2}\,\frac{\log 2}{\pi}+\frac{3}{4}\,\frac{\zeta(3)}{\pi^{3}}"


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


def layout_terms(pi_pow, coeffs=coeffs, atoms=atoms):
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


@given(records, weighted_slots, st.integers(1, 10**30), st.integers(0, 3))
def test_equals_sum_is_equality_with_the_record_built(e, pairs, s, pad):
    # any unreduced fields (pi_pow, den > 0, nums), as a list or a tuple,
    # compare with a record as the record they build does: e's own fields
    # scaled and padded, an integer sum of records, and fields a hair off e's
    pairs = [(weight, record(e.pi_pow, slots)) for weight, slots in pairs]
    scaled = [s * c for c in e.nums]
    cases = [
        (e.pi_pow, s * e.den, scaled + [0] * pad),
        ZetaExpr._int_sum(pairs),
        ZetaExpr._int_sum([(s, e)] + pairs),
        (e.pi_pow, s * e.den + 1, scaled),  # a den e's does not divide, mostly
        (e.pi_pow, s * e.den, scaled[:-1] + [scaled[-1] + 1] if scaled else [1]),
        (e.pi_pow, s * e.den, scaled + [0] * pad + [s]),  # one more nonzero slot
        (e.pi_pow + 1, s * e.den, scaled),  # another power of pi, unless zero
    ]
    for pi_pow, den, nums in cases:
        want = ZetaExpr(pi_pow, den, nums) == e
        assert e._equals_sum(pi_pow, den, nums) == want
        assert e._equals_sum(pi_pow, den, tuple(nums)) == want
    assert ZetaExpr._weighted_sum(pairs) == ZetaExpr(*ZetaExpr._int_sum(pairs))


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


def _gcd_reduced(den, nums):
    """The plain canonical reduction, kept as the oracle of the constructor's
    shifts and odd gcd: trailing zeros dropped, then one division by
    gcd(den, *nums) carrying den's sign."""
    nums = list(nums)
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    return den // g, tuple(c // g for c in nums)


@given(st.integers(-(10**12), 10**12).filter(bool),
       st.one_of(st.lists(st.integers(-(10**12), 10**12), max_size=8),
                 st.lists(st.just(0), max_size=4)),
       st.integers(-(10**20), 10**20).map(lambda v: 2 * v + 1), st.integers(0, 2000))
def test_canonical_form_matches_plain_gcd_reduction(den, nums, odd, t):
    # records scaled by odd * 2^t, negative denominators and all-zero
    # numerators included, reduce to the gcd oracle's (den, nums)
    scale_ = odd << t
    raw_den, raw_nums = scale_ * den, [scale_ * c for c in nums]
    e = ZetaExpr(3, raw_den, raw_nums)
    assert (e.den, e.nums) == _gcd_reduced(raw_den, raw_nums)
    assert e.pi_pow == (3 if e.nums else 0)


_FIRST_CALLS = {
    "terms": ZetaExpr.terms,
    "str": str,
    "to_latex": ZetaExpr.to_latex,
    "to_json": ZetaExpr.to_json,
    "repr": repr,
}


@pytest.mark.parametrize("first", sorted(_FIRST_CALLS))
def test_renderers_and_from_json_pass_the_int_str_digit_limit(first):
    # a 5,001-digit numerator passes Python's default 4,300-digit int/str
    # limit; every renderer and from_json lift it for the call only, and
    # whichever call reaches the fresh record first fills its digits under
    # the lift
    e = ZetaExpr(0, 3, (10**5000 + 1,))
    digits = "1" + "0" * 4999 + "1"
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    before = get_limit() if get_limit else None
    if get_limit:
        sys.set_int_max_str_digits(4300)
    try:
        _FIRST_CALLS[first](e)
        if get_limit:
            assert get_limit() == 4300
        assert e.terms() == [(ONE, 0, Fraction(10**5000 + 1, 3))]
        text = e.to_json()
        assert text == f'[{{"atom":"one","pi_pow":0,"coeff":"{digits}/3"}}]'
        assert str(e) == f"{digits}/3"
        assert e.to_latex() == rf"\frac{{{digits}}}{{3}}"
        assert repr(e) == f"ZetaExpr(pi_pow=0, den=3, nums=({digits},))"
        assert e.to_json_obj() == [{"atom": "one", "pi_pow": 0, "coeff": f"{digits}/3"}]
        assert ZetaExpr.from_json(text) == e
        assert ZetaExpr.from_json_obj(json.loads(text)) == e
        if get_limit:
            assert get_limit() == 4300
    finally:
        if get_limit:
            sys.set_int_max_str_digits(before)


def test_digits_are_written_once_per_record(monkeypatch):
    # a second render reads the record's memo: no atom text lookup, no gcd
    # and no int to str conversion
    e = logdet_gjms(61, 30)
    first = (str(e), e.to_latex(), e.to_json())

    def forbidden(*args):
        raise AssertionError("a warm render reduced or looked up a slot again")

    monkeypatch.setattr(zexpr, "_atom_text", forbidden)
    monkeypatch.setattr(zexpr, "gcd", forbidden)
    again = (str(e), e.to_latex(), e.to_json())
    assert again == first == (render_oracle.plain(e), render_oracle.latex(e), render_oracle.json_text(e))


def test_log2_rejects_inexact_coefficients():
    assert ZetaExpr.log2(Fraction(1, 2**64)) == ZetaExpr(0, 2**64, (0, 1))
    assert ZetaExpr.log2(-3, 2) == ZetaExpr(2, 1, (0, -3))
    assert ZetaExpr.log2(0) == ZetaExpr.log2(0, 5) == ZetaExpr(0, 1, ())
    for coeff in (0.1, 0.5, Decimal("0.1"), True, "1/2", 1j):
        with pytest.raises(ValueError):
            ZetaExpr.log2(coeff)
    with pytest.raises(ValueError):
        ZetaExpr.log2(1, 1.0)


def test_only_the_value_fields_compare():
    # the private memos are not part of the value
    assert {f.name for f in fields(ZetaExpr) if f.compare} == {"pi_pow", "den", "nums"}
    e = ZetaExpr(2, 6, (3, 0, -4))
    assert repr(e) == "ZetaExpr(pi_pow=2, den=6, nums=(3, 0, -4))"


def _renders_as_oracle(e):
    assert str(e) == render_oracle.plain(e)
    assert e.to_latex() == render_oracle.latex(e)
    assert e.to_json() == render_oracle.json_text(e)
    assert e.to_json_obj() == render_oracle.json_obj(e)


# every atom up to zeta(25), coefficients 1, -1, 0, integers and fractions
# of either sign; with record powers -6..6 each atom's own power of pi takes
# both signs, 0 and 1
render_coeffs = st.one_of(
    st.sampled_from([1, -1, 0]),
    st.integers(-(10**12), 10**12),
    st.fractions(max_denominator=10**6),
)
render_atoms = st.one_of(st.just(ONE), st.just(LOG2), st.integers(1, 12).map(lambda j: 2 * j + 1))


@given(st.integers(-6, 6).flatmap(lambda p: layout_terms(p, render_coeffs, render_atoms)))
def test_renderers_match_the_oracle(terms):
    _renders_as_oracle(ZetaExpr.from_terms(terms))


def test_renderers_match_the_oracle_on_every_logdet_and_f():
    for d in range(3, 62, 2):
        for k in range(1, (d - 1) // 2 + 1):
            _renders_as_oracle(logdet_gjms(d, k))
    for m in range(80):
        _renders_as_oracle(f_expr(m))
    _renders_as_oracle(ZetaExpr(0, 1, ()))


def test_json_obj_is_a_fresh_parse_of_the_json_text():
    e = ZetaExpr(0, 64, (0, 14, -26, 15))
    obj = e.to_json_obj()
    assert json.dumps(obj, separators=(",", ":")) == e.to_json()
    obj[0]["coeff"] = "0/1"
    obj.pop()
    assert e.to_json_obj() == render_oracle.json_obj(e) and e.to_json_obj() is not e.to_json_obj()
