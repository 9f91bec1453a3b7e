"""Exact linear combinations over the basis {1, log 2, zeta(odd s >= 3)}.

A :class:`ZetaExpr` is the dense record ``(pi_pow, den, nums)`` standing for

    pi^pi_pow * sum_n nums[n]/den * b_n,   b = (1, log 2, zeta(3)/pi^2, zeta(5)/pi^4, ...),

with integer numerators over one denominator: slot ``n >= 2`` holds
zeta(2n-1)/pi^(2n-2).
All odd-sphere GJMS log-determinants live in this space, at ``pi_pow = 0``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce, wraps
from itertools import repeat
from math import gcd, lcm
from operator import mul, or_
from typing import Iterable, Iterator, Union

from .errors import _is_int, _require_int

__all__ = ["Atom", "ONE", "LOG2", "ZetaExpr"]

# an atom is the string "one", the string "log2", or an odd integer s >= 3
# standing for zeta(s)
Atom = Union[str, int]

ONE: Atom = "one"
LOG2: Atom = "log2"


def _slot(atom: Atom, pi_pow: int) -> tuple[int, int]:
    """(slot, record pi power) of the term atom * pi^pi_pow."""
    if atom == ONE or atom == LOG2:
        return (0 if atom == ONE else 1), pi_pow
    if _is_int(atom) and atom >= 3 and atom % 2 == 1:
        return (atom + 1) // 2, pi_pow + atom - 1
    raise ValueError(f"invalid atom: {atom!r}")


def _term(n: int, pi_pow: int) -> tuple[Atom, int]:
    """(atom, own pi power) of slot n in a record with power pi_pow."""
    if n < 2:
        return (LOG2 if n else ONE), pi_pow
    return 2 * n - 1, pi_pow - 2 * n + 2


def _exact(pi_pow, coeff) -> Fraction:
    """coeff as a Fraction, once pi_pow is an int and coeff an int or Fraction."""
    _require_int("pi power", pi_pow)
    if not (_is_int(coeff) or isinstance(coeff, Fraction)):
        raise ValueError(f"coefficient must be exact, got {coeff!r}")
    return Fraction(coeff)


# Python's int/str digit limit (0: none), absent before 3.10.7
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _any_digits(convert):
    """convert, run with Python's int/str digit limit lifted for the call.

    Exact coefficients pass the default limit of 4,300 digits (from d = 1667
    at k = 1).  One lift per record whose digits are written or parsed, not
    one per slot; the limit is process-wide, so other threads see it lifted
    meanwhile.  A limit already lifted (as by the CLI), or absent, is left
    alone.
    """

    @wraps(convert)
    def lifted(*args):
        limit = _digit_limit()
        if not limit:
            return convert(*args)
        sys.set_int_max_str_digits(0)
        try:
            return convert(*args)
        finally:
            sys.set_int_max_str_digits(limit)

    return lifted


@lru_cache(maxsize=4096)  # bounded: from_json records may carry any power of pi
def _atom_text(n: int, pi_pow: int) -> tuple[str, str, str]:
    r"""Slot n's atom and own pi power in a record of power pi_pow as (plain,
    LaTeX, JSON) text: ``zeta(3)*pi^-2``, ``\frac{\zeta(3)}{\pi^{2}}`` and the
    JSON term up to its coefficient's opening quote; 1 at pi^0 is ``""``."""
    atom, p = _term(n, pi_pow)
    plain = [] if atom == ONE else ["log2" if atom == LOG2 else f"zeta({atom})"]
    if p:
        plain.append(f"pi^{p}" if p != 1 else "pi")
    if isinstance(atom, int) and p < 0:
        tex = rf"\frac{{\zeta({atom})}}{{\pi^{{{-p}}}}}"
    else:
        q = abs(p) if atom == LOG2 else p
        pi = "" if not q else r"\pi" if q == 1 else rf"\pi^{{{q}}}"
        if atom != LOG2:
            tex = ("" if atom == ONE else rf"\zeta({atom})") + pi
        elif p < 0:  # \log 2\pi^{-1} would read as log(2/pi)
            tex = rf"\frac{{\log 2}}{{{pi}}}"
        else:
            tex = r"\log 2" + (pi and rf"\,{pi}")
    js = f'{{"zeta":{atom}}}' if isinstance(atom, int) else f'"{atom}"'
    return "*".join(plain), tex, f'{{"atom":{js},"pi_pow":{p},"coeff":"'


@dataclass(frozen=True, slots=True)
class ZetaExpr:
    """Immutable dense expression ``pi^pi_pow * sum_n nums[n]/den * b_n``.

    The form is canonical: ``den > 0``, ``gcd(den, *nums) == 1``, trailing
    zero slots dropped, and the zero expression is ``(0, 1, ())``; so
    equality and hashing compare the fields.  Use :meth:`from_terms`,
    :meth:`log2` or :meth:`from_json` to build one from outside input.
    Two private memos, filled on first use, are not part of the value:
    equality, hashing and ``repr`` see only ``pi_pow, den, nums``.
    """

    pi_pow: int
    den: int
    nums: tuple
    # (decimal digits, value), set by closed_form.evaluate
    _value: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # per nonzero slot: atom text, sign, reduced |num| and den digits; see _reduced
    _lowest: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.den:
            raise ValueError("denominator must be nonzero")
        den, nums = self.den, list(self.nums)
        while nums and not nums[-1]:
            nums.pop()
        # the common factor's power of two is the lowest set bit of the OR of
        # all fields, taken out by shifts; gcd and division see only the odd rest
        low = reduce(or_, nums, den)
        shift = (low & -low).bit_length() - 1
        if shift:
            den >>= shift
            nums = [c >> shift for c in nums]
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [c // g for c in nums]
        object.__setattr__(self, "pi_pow", self.pi_pow if nums else 0)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", tuple(nums))

    # -- constructors -------------------------------------------------

    @classmethod
    def log2(cls, coeff, pi_pow: int = 0) -> "ZetaExpr":
        return cls.from_terms([(LOG2, pi_pow, coeff)])

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Atom, int, Fraction]]) -> "ZetaExpr":
        """Validated sum of ``coeff * atom * pi^pi_pow`` triples; every term
        with a nonzero coefficient must fit one record power."""
        slots: dict[int, Fraction] = {}
        record_pow = None
        for atom, pi_pow, coeff in terms:
            coeff = _exact(pi_pow, coeff)
            n, p = _slot(atom, pi_pow)
            if coeff:
                if record_pow is not None and p != record_pow:
                    raise ValueError("terms do not share one power of pi")
                record_pow = p
                slots[n] = slots.get(n, 0) + coeff
        den = lcm(*[c.denominator for c in slots.values()])
        size = max(slots, default=-1) + 1
        nums = [int(slots.get(n, 0) * den) for n in range(size)]
        return cls(record_pow or 0, den, nums)

    # -- inspection ---------------------------------------------------

    def _reduced(self) -> Iterator[tuple[tuple[str, str, str], str, str, str]]:
        """Nonzero slots in slot order as (atom text, sign, num digits, den
        digits): the slot's shared _atom_text triple, "-" or "", and the
        decimal digits of |num| and den, num/den in lowest terms.  Written
        once per record, by its first render, and read by every renderer."""
        lowest = self._lowest
        if lowest is None:
            lowest = self._write_digits()
        slots = iter(lowest)
        return zip(slots, slots, slots, slots)

    @_any_digits
    def _write_digits(self) -> tuple:
        """Fill the memo _reduced reads; the one step that converts ints to text."""
        den, flat = self.den, []
        for n, c in enumerate(self.nums):
            if c:
                g = gcd(c, den)
                flat += (_atom_text(n, self.pi_pow), "-" if c < 0 else "",
                         str(abs(c) // g), str(den // g))
        lowest = tuple(flat)
        object.__setattr__(self, "_lowest", lowest)
        return lowest

    def terms(self) -> list[tuple[Atom, int, Fraction]]:
        """Nonzero terms (atom, own pi power, coeff) in the canonical order
        1, log 2, zeta(3), zeta(5), ..., which is slot order; each coeff is
        reduced from the record's fields, not read from the rendering memo."""
        den = self.den
        return [(*_term(n, self.pi_pow), Fraction(c, den)) for n, c in enumerate(self.nums) if c]

    def is_zero(self) -> bool:
        return not self.nums

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "ZetaExpr") -> "ZetaExpr":
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return ZetaExpr._weighted_sum(((1, self), (1, other)))

    @classmethod
    def _weighted_sum(cls, pairs: Iterable[tuple[int, "ZetaExpr"]]) -> "ZetaExpr":
        """Sum of weight * expr over (int weight, expr) pairs, as a record."""
        return cls(*cls._int_sum(pairs))

    @staticmethod
    def _int_sum(pairs: Iterable[tuple[int, "ZetaExpr"]]) -> tuple[int, int, list[int]]:
        """Sum of weight * expr over (int weight, expr) pairs as the fields
        (pi_pow, den, nums) before the canonical form: integers over den, the
        lcm of the operands' denominators, trailing zeros kept.  Nonzero
        operands must share one pi power."""
        pairs = [(w, e) for w, e in pairs if w and e.nums]
        if not pairs:
            return 0, 1, []
        pi_pow = pairs[0][1].pi_pow
        if any(e.pi_pow != pi_pow for _, e in pairs):
            raise ValueError("cannot add expressions with different powers of pi")
        den = lcm(*[e.den for _, e in pairs])
        acc = [0] * max(len(e.nums) for _, e in pairs)
        for w, e in pairs:
            w *= den // e.den
            for n, c in enumerate(e.nums):
                acc[n] += w * c
        return pi_pow, den, acc

    def _equals_sum(self, pi_pow: int, den: int, nums) -> bool:
        """Whether this record is the value of the fields (pi_pow, den, nums),
        den > 0, before their canonical form.  A record in lowest terms has a
        den that divides the den of any equal fields, so the test is nums ==
        (den / self.den) * self.nums past trailing zeros: one product per
        slot, no gcd."""
        f, r = divmod(den, self.den)
        mine = self.nums
        size = len(mine)
        return (not r and (not size or pi_pow == self.pi_pow) and not any(nums[size:])
                and list(map(mul, mine, repeat(f))) == list(nums[:size]))

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for (atom, _, _), sign, num, den in self._reduced():
            mag = num if den == "1" else f"{num}/{den}"
            piece = atom if mag == "1" and atom else f"{mag}*{atom}" if atom else mag
            parts += (" - " if sign else " + ", piece)
        out = "".join(parts)
        return "0" if not out else out[3:] if out[1] == "+" else "-" + out[3:]

    def to_latex(self) -> str:
        """LaTeX rendering, zeta terms written as fractions over pi powers."""
        parts = []
        for (_, atom, _), sign, num, den in self._reduced():
            cs = num if den == "1" else rf"\frac{{{num}}}{{{den}}}"
            piece = cs if not atom else atom if cs == "1" else rf"{cs}\,{atom}"
            parts += (sign or "+", piece)
        out = "".join(parts)
        return "0" if not out else out[1:] if out[0] == "+" else out

    def to_json_obj(self) -> list[dict]:
        """The terms as fresh JSON objects, parsed from :meth:`to_json`."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """Deterministic JSON, written as ``json.dumps`` with separators ``,`` and ``:``."""
        terms = [f'{text[2]}{sign}{num}/{den}"}}' for text, sign, num, den in self._reduced()]
        return "[" + ",".join(terms) + "]"

    @classmethod
    @_any_digits
    def from_json_obj(cls, obj: list[dict]) -> "ZetaExpr":
        """Inverse of :meth:`to_json_obj`: coefficients must be strings such
        as ``"p/q"``; any malformed term raises ``ValueError``."""
        if not isinstance(obj, list):
            raise ValueError(f"expected a list of terms, got {type(obj).__name__}")
        terms = []
        for entry in obj:
            if not isinstance(entry, dict) or entry.keys() != {"atom", "pi_pow", "coeff"}:
                raise ValueError(f"a term needs exactly atom, pi_pow and coeff: {entry!r}")
            atom, coeff = entry["atom"], entry["coeff"]
            if isinstance(atom, dict) and atom.keys() == {"zeta"} and _is_int(atom["zeta"]):
                atom = atom["zeta"]
            elif atom not in (ONE, LOG2):
                raise ValueError(f"invalid atom: {atom!r}")
            if not isinstance(coeff, str):
                raise ValueError(f"coefficient must be a string 'p/q', got {coeff!r}")
            try:
                coeff = Fraction(coeff)
            except ZeroDivisionError:
                raise ValueError(f"coefficient has a zero denominator: {coeff!r}") from None
            terms.append((atom, entry["pi_pow"], coeff))
        return cls.from_terms(terms)

    @classmethod
    def from_json(cls, text: str) -> "ZetaExpr":
        return cls.from_json_obj(json.loads(text))


# the dataclass's own repr, under the same lift as the renderers
ZetaExpr.__repr__ = _any_digits(ZetaExpr.__repr__)
