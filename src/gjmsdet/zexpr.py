"""Exact linear combinations over the basis {1, log 2, zeta(odd s >= 3)}.

A :class:`ZetaExpr` is the dense record ``(pi_pow, den, nums)`` standing for

    pi^pi_pow * sum_n nums[n]/den * b_n,   b = (1, log 2, zeta(3)/pi^2, zeta(5)/pi^4, ...),

with integer numerators over one denominator: slot ``n >= 2`` holds
zeta(2n-1)/pi^(2n-2).
All odd-sphere GJMS log-determinants live in this space, at ``pi_pow = 0``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

__all__ = ["Atom", "ONE", "LOG2", "ZetaExpr"]

# an atom is the string "one", the string "log2", or an odd integer s >= 3
# standing for zeta(s)
Atom = Union[str, int]

ONE: Atom = "one"
LOG2: Atom = "log2"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
    if not _is_int(pi_pow):
        raise ValueError(f"pi power must be an integer, got {pi_pow!r}")
    if not (_is_int(coeff) or isinstance(coeff, Fraction)):
        raise ValueError(f"coefficient must be exact, got {coeff!r}")
    return Fraction(coeff)


@dataclass(frozen=True, slots=True)
class ZetaExpr:
    """Immutable dense expression ``pi^pi_pow * sum_n nums[n]/den * b_n``.

    The form is canonical: ``den > 0``, ``gcd(den, *nums) == 1``, trailing
    zero slots dropped, and the zero expression is ``(0, 1, ())``; so
    equality and hashing compare the fields.  Use :meth:`from_terms`,
    :meth:`log2` or :meth:`from_json` to build one from outside input.
    """

    pi_pow: int
    den: int
    nums: tuple

    def __post_init__(self) -> None:
        if not self.den:
            raise ValueError("denominator must be nonzero")
        nums = list(self.nums)
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(self.den, *nums) if self.den > 0 else -gcd(self.den, *nums)
        object.__setattr__(self, "pi_pow", self.pi_pow if nums else 0)
        object.__setattr__(self, "den", self.den // g)
        object.__setattr__(self, "nums", tuple([c // g for c in nums]))

    # -- constructors -------------------------------------------------

    @classmethod
    def log2(cls, coeff, pi_pow: int = 0) -> "ZetaExpr":
        c = _exact(pi_pow, coeff)
        return cls(pi_pow, c.denominator, (0, c.numerator))

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

    def _reduced(self) -> Iterable[tuple[Atom, int, int, int]]:
        """Nonzero terms (atom, own pi power, num, den), each coefficient
        num/den in lowest terms, in slot order."""
        den = self.den
        for n, c in enumerate(self.nums):
            if c:
                g = gcd(c, den)
                yield (*_term(n, self.pi_pow), c // g, den // g)

    def terms(self) -> list[tuple[Atom, int, Fraction]]:
        """Nonzero terms (atom, own pi power, coeff) in the canonical order
        1, log 2, zeta(3), zeta(5), ..., which is slot order."""
        return [(a, p, Fraction(c, q)) for a, p, c, q in self._reduced()]

    def is_zero(self) -> bool:
        return not self.nums

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "ZetaExpr") -> "ZetaExpr":
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return ZetaExpr._weighted_sum(((1, self), (1, other)))

    @classmethod
    def _weighted_sum(cls, pairs: Iterable[tuple[int, "ZetaExpr"]]) -> "ZetaExpr":
        """Sum of weight * expr over (int weight, expr) pairs, in integers
        over the lcm of the operands' denominators.  Nonzero operands must
        share one pi power."""
        pairs = [(w, e) for w, e in pairs if w and e.nums]
        if not pairs:
            return cls(0, 1, ())
        pi_pow = pairs[0][1].pi_pow
        if any(e.pi_pow != pi_pow for _, e in pairs):
            raise ValueError("cannot add expressions with different powers of pi")
        den = lcm(*[e.den for _, e in pairs])
        acc = [0] * max(len(e.nums) for _, e in pairs)
        for w, e in pairs:
            w *= den // e.den
            for n, c in enumerate(e.nums):
                acc[n] += w * c
        return cls(pi_pow, den, acc)

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        out = ""
        for atom, pi_pow, num, den in self._reduced():
            factors = [] if atom == ONE else ["log2" if atom == LOG2 else f"zeta({atom})"]
            if pi_pow:
                factors.append(f"pi^{pi_pow}" if pi_pow != 1 else "pi")
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            piece = "*".join(factors if mag == "1" and factors else [mag, *factors])
            out += (" - " if num < 0 else " + ") + piece
        return "0" if not out else out[3:] if out[1] == "+" else "-" + out[3:]

    def to_latex(self) -> str:
        """LaTeX rendering, zeta terms written as fractions over pi powers."""
        out = ""
        for atom, pi_pow, num, den in self._reduced():
            cs = str(abs(num)) if den == 1 else rf"\frac{{{abs(num)}}}{{{den}}}"
            if isinstance(atom, int) and pi_pow < 0:
                body = rf"\frac{{\zeta({atom})}}{{\pi^{{{-pi_pow}}}}}"
            else:
                pi = "" if not pi_pow else r"\pi" if pi_pow == 1 else rf"\pi^{{{pi_pow}}}"
                body = ("" if atom == ONE else r"\log 2" if atom == LOG2 else rf"\zeta({atom})") + pi
            piece = cs if body == "" else (rf"{cs}\,{body}" if cs != "1" else body)
            out += ("-" if num < 0 else "+") + piece
        return "0" if not out else out[1:] if out[0] == "+" else out

    def to_json_obj(self) -> list[dict]:
        out = []
        for atom, pi_pow, num, den in self._reduced():
            a = {"zeta": atom} if isinstance(atom, int) else atom
            out.append({"atom": a, "pi_pow": pi_pow, "coeff": f"{num}/{den}"})
        return out

    def to_json(self) -> str:
        """Deterministic JSON rendering; byte-stable for equal expressions."""
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
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
