"""Exact linear combinations over the basis {1, log 2, zeta(odd s >= 3)}.

A :class:`ZetaExpr` is the dense record ``(pi_pow, coeffs)`` standing for

    pi^pi_pow * sum_n coeffs[n] * b_n,   b = (1, log 2, zeta(3)/pi^2, zeta(5)/pi^4, ...),

with exact rational coefficients: slot ``n >= 2`` holds zeta(2n-1)/pi^(2n-2).
All odd-sphere GJMS log-determinants live in this space, at ``pi_pow = 0``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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


@dataclass(frozen=True, slots=True)
class ZetaExpr:
    """Immutable dense expression ``pi^pi_pow * sum_n coeffs[n] * b_n``.

    ``coeffs`` holds exact rationals (``int`` or ``Fraction``).  Trailing
    zero slots are dropped and the zero expression has ``pi_pow = 0``, so
    equality and hashing compare the two fields.  Use :meth:`from_terms` or
    :meth:`from_json` to build one from outside input.
    """

    pi_pow: int
    coeffs: tuple

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        object.__setattr__(self, "coeffs", coeffs[:n])
        if not n:
            object.__setattr__(self, "pi_pow", 0)

    # -- constructors -------------------------------------------------

    @classmethod
    def log2(cls, coeff, pi_pow: int = 0) -> "ZetaExpr":
        return cls(pi_pow, (0, Fraction(coeff)))

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Atom, int, Fraction]]) -> "ZetaExpr":
        """Validated sum of ``coeff * atom * pi^pi_pow`` triples; every term
        with a nonzero coefficient must fit one record power."""
        slots: dict[int, Fraction] = {}
        record_pow = None
        for atom, pi_pow, coeff in terms:
            if not _is_int(pi_pow):
                raise ValueError(f"pi power must be an integer, got {pi_pow!r}")
            if not (_is_int(coeff) or isinstance(coeff, Fraction)):
                raise ValueError(f"coefficient must be exact, got {coeff!r}")
            n, p = _slot(atom, pi_pow)
            if coeff:
                if record_pow is not None and p != record_pow:
                    raise ValueError("terms do not share one power of pi")
                record_pow = p
                slots[n] = slots.get(n, 0) + Fraction(coeff)
        size = max(slots, default=-1) + 1
        return cls(record_pow or 0, [slots.get(n, Fraction(0)) for n in range(size)])

    # -- inspection ---------------------------------------------------

    def terms(self) -> list[tuple[Atom, int, Fraction]]:
        """Nonzero terms (atom, own pi power, coeff) in the canonical order
        1, log 2, zeta(3), zeta(5), ..., which is slot order."""
        return [(*_term(n, self.pi_pow), c) for n, c in enumerate(self.coeffs) if c]

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "ZetaExpr") -> "ZetaExpr":
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return ZetaExpr._weighted_sum(((1, self), (1, other)))

    @classmethod
    def _weighted_sum(cls, pairs: Iterable[tuple[int, "ZetaExpr"]]) -> "ZetaExpr":
        """Sum of weight * expr over (int weight, expr) pairs, in integers:
        each slot sums numerators over the lcm of every denominator and
        becomes one Fraction at the end.  Nonzero operands must share one
        pi power."""
        pairs = [(w, e) for w, e in pairs if w and e.coeffs]
        if not pairs:
            return cls(0, ())
        pi_pow = pairs[0][1].pi_pow
        if any(e.pi_pow != pi_pow for _, e in pairs):
            raise ValueError("cannot add expressions with different powers of pi")
        den = lcm(*[c.denominator for _, e in pairs for c in e.coeffs])
        acc = [0] * max(len(e.coeffs) for _, e in pairs)
        for w, e in pairs:
            for n, c in enumerate(e.coeffs):
                acc[n] += w * c.numerator * (den // c.denominator)
        return cls(pi_pow, [Fraction(a, den) for a in acc])

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for atom, pi_pow, coeff in self.terms():
            factors = []
            if atom == LOG2:
                factors.append("log2")
            elif atom != ONE:
                factors.append(f"zeta({atom})")
            if pi_pow:
                factors.append(f"pi^{pi_pow}" if pi_pow != 1 else "pi")
            body = "*".join(factors)
            num, den = coeff.numerator, coeff.denominator
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if body:
                piece = body if mag == "1" else f"{mag}*{body}"
            else:
                piece = mag
            sign = "-" if num < 0 else "+"
            parts.append((sign, piece))
        first_sign, first = parts[0]
        out = (first if first_sign == "+" else "-" + first)
        for sign, piece in parts[1:]:
            out += f" {sign} {piece}"
        return out

    def to_latex(self) -> str:
        """LaTeX rendering, zeta terms written as fractions over pi powers."""
        if self.is_zero():
            return "0"
        out = ""
        for atom, pi_pow, coeff in self.terms():
            num, den = coeff.numerator, coeff.denominator
            sign = "-" if num < 0 else "+"
            cs = str(abs(num)) if den == 1 else rf"\frac{{{abs(num)}}}{{{den}}}"
            if atom == ONE:
                body = _pi_factor_latex(pi_pow)
            elif atom == LOG2:
                body = r"\log 2" + _pi_factor_latex(pi_pow)
            else:
                if pi_pow < 0:
                    body = rf"\frac{{\zeta({atom})}}{{\pi^{{{-pi_pow}}}}}"
                else:
                    body = rf"\zeta({atom})" + _pi_factor_latex(pi_pow)
            piece = cs if body == "" else (rf"{cs}\,{body}" if cs != "1" else body)
            if out == "":
                out = piece if sign == "+" else "-" + piece
            else:
                out += sign + piece
        return out

    def to_json_obj(self) -> list[dict]:
        out = []
        for atom, pi_pow, coeff in self.terms():
            a = {"zeta": atom} if isinstance(atom, int) else atom
            out.append(
                {
                    "atom": a,
                    "pi_pow": pi_pow,
                    "coeff": f"{coeff.numerator}/{coeff.denominator}",
                }
            )
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


def _pi_factor_latex(pi_pow: int) -> str:
    if pi_pow == 0:
        return ""
    if pi_pow == 1:
        return r"\pi"
    return rf"\pi^{{{pi_pow}}}"
