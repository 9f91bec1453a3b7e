from fractions import Fraction
from math import comb

import pytest

from gjmsdet import exact
from gjmsdet.exact import bernoulli


def bernoulli_bruteforce(n_max):
    """Independent oracle: solve the defining recursion directly."""
    out = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * out[j]
        out.append(-acc / comb(m + 1, m))
    return out


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_matches_bruteforce_oracle():
    oracle = bernoulli_bruteforce(40)
    for n in range(41):
        assert bernoulli(n) == oracle[n]


def test_bernoulli_defining_recursion_holds():
    for n in range(1, 41):
        assert sum(comb(n + 1, j) * bernoulli(j) for j in range(n + 1)) == 0


def test_odd_bernoulli_vanish():
    for n in range(3, 41, 2):
        assert bernoulli(n) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_index_must_be_an_int(monkeypatch):
    # cold (a table holding only B_0), then warm: a bool or float index must
    # be rejected, not read as an int's entry
    monkeypatch.setattr(exact, "_BERNOULLI", [Fraction(1)])
    for warm in (False, True):
        if warm:
            bernoulli(2)
        with pytest.raises(ValueError, match="n must be an integer, got True"):
            bernoulli(True)
        with pytest.raises(ValueError, match="n must be an integer, got 2.0"):
            bernoulli(2.0)
    assert bernoulli(2) == Fraction(1, 6)

