"""Exact linear combinations over the basis {1, log 2, zeta(odd s >= 3)}.

A :class:`ZetaExpr` is a normalized sum of terms ``coeff * atom * pi^p``
where the atom is the constant 1, log 2, or a Riemann zeta value at an odd
integer >= 3, ``p`` is an integer power of pi, and the coefficient is an
exact rational.  All odd-sphere GJMS log-determinants live in this space.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Union

__all__ = ["Atom", "ONE", "LOG2", "ZetaExpr"]

# an atom is the string "one", the string "log2", or an odd integer s >= 3
# standing for zeta(s)
Atom = Union[str, int]

ONE: Atom = "one"
LOG2: Atom = "log2"


def _check_atom(atom: Atom) -> Atom:
    if atom in (ONE, LOG2):
        return atom
    if isinstance(atom, int) and atom >= 3 and atom % 2 == 1:
        return atom
    raise ValueError(f"invalid atom: {atom!r}")


def _atom_order(atom: Atom) -> tuple[int, int]:
    if atom == ONE:
        return (0, 0)
    if atom == LOG2:
        return (1, 0)
    return (2, atom)


class ZetaExpr:
    """Immutable normalized linear combination of basis atoms.

    Normalization: at most one term per (atom, pi power) pair and no zero
    coefficients.  Addition, subtraction, scalar multiplication by exact
    rationals, and multiplication by integer powers of pi are exact.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Atom, int, Fraction]] = ()) -> None:
        acc: dict[tuple[Atom, int], Fraction] = {}
        for atom, pi_pow, coeff in terms:
            atom = _check_atom(atom)
            key = (atom, int(pi_pow))
            acc[key] = acc.get(key, Fraction(0)) + Fraction(coeff)
        object.__setattr__(
            self,
            "_terms",
            {k: v for k, v in acc.items() if v != 0},
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "ZetaExpr":
        return cls()

    @classmethod
    def const(cls, coeff, pi_pow: int = 0) -> "ZetaExpr":
        return cls([(ONE, pi_pow, Fraction(coeff))])

    @classmethod
    def log2(cls, coeff, pi_pow: int = 0) -> "ZetaExpr":
        return cls([(LOG2, pi_pow, Fraction(coeff))])

    @classmethod
    def zeta(cls, s: int, coeff=1, pi_pow: int = 0) -> "ZetaExpr":
        return cls([(s, pi_pow, Fraction(coeff))])

    # -- inspection ---------------------------------------------------

    def terms(self) -> list[tuple[Atom, int, Fraction]]:
        """Terms in canonical order: 1, log 2, zeta(3), zeta(5), ...;
        ties broken by ascending pi power."""
        keys = sorted(self._terms, key=lambda k: (_atom_order(k[0]), k[1]))
        return [(a, p, self._terms[(a, p)]) for a, p in keys]

    def coeff(self, atom: Atom, pi_pow: int) -> Fraction:
        return self._terms.get((_check_atom(atom), pi_pow), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "ZetaExpr") -> "ZetaExpr":
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return ZetaExpr(
            [(a, p, c) for (a, p), c in self._terms.items()]
            + [(a, p, c) for (a, p), c in other._terms.items()]
        )

    def __sub__(self, other: "ZetaExpr") -> "ZetaExpr":
        return self + (-other)

    def __neg__(self) -> "ZetaExpr":
        return self * Fraction(-1)

    def __mul__(self, scalar) -> "ZetaExpr":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        scalar = Fraction(scalar)
        return ZetaExpr([(a, p, c * scalar) for (a, p), c in self._terms.items()])

    __rmul__ = __mul__

    def mul_pi(self, pi_pow: int) -> "ZetaExpr":
        """Multiply by an integer power of pi (shift every term's exponent)."""
        return ZetaExpr([(a, p + pi_pow, c) for (a, p), c in self._terms.items()])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

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
            mag = abs(coeff)
            if body:
                piece = body if mag == 1 else f"{mag}*{body}"
            else:
                piece = str(mag)
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, piece))
        first_sign, first = parts[0]
        out = (first if first_sign == "+" else "-" + first)
        for sign, piece in parts[1:]:
            out += f" {sign} {piece}"
        return out

    def __repr__(self) -> str:
        return f"ZetaExpr({self.terms()!r})"

    def to_latex(self) -> str:
        """LaTeX rendering, zeta terms written as fractions over pi powers."""
        if self.is_zero():
            return "0"
        out = ""
        for atom, pi_pow, coeff in self.terms():
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            cs = (
                str(mag.numerator)
                if mag.denominator == 1
                else rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
            )
            if atom == ONE:
                body = _pi_factor_latex(pi_pow)
            elif atom == LOG2:
                body = r"\log 2" + _pi_factor_latex(pi_pow)
            else:
                if pi_pow < 0:
                    body = rf"\frac{{\zeta({atom})}}{{\pi^{{{-pi_pow}}}}}"
                else:
                    body = rf"\zeta({atom})" + _pi_factor_latex(pi_pow)
            piece = cs if body == "" else (rf"{cs}\,{body}" if mag != 1 else body)
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
        terms = []
        for entry in obj:
            a = entry["atom"]
            if isinstance(a, dict):
                a = int(a["zeta"])
            terms.append((a, int(entry["pi_pow"]), Fraction(entry["coeff"])))
        return cls(terms)

    @classmethod
    def from_json(cls, text: str) -> "ZetaExpr":
        return cls.from_json_obj(json.loads(text))


def _pi_factor_latex(pi_pow: int) -> str:
    if pi_pow == 0:
        return ""
    if pi_pow == 1:
        return r"\pi"
    return rf"\pi^{{{pi_pow}}}"
