"""The renderers of ``ZetaExpr`` written term by term: the oracle for the
per-slot atom text that ``gjmsdet.zexpr`` renders from.

Each function reads only the record's fields ``(pi_pow, den, nums)``: it
reduces every nonzero slot's coefficient with ``Fraction`` and branches on
the atom and its own power of pi for every term.
"""

import json
from fractions import Fraction


def terms(e) -> list:
    """(atom, own pi power, num, den) of each nonzero slot, in slot order."""
    out = []
    for n, c in enumerate(e.nums):
        if c:
            q = Fraction(c, e.den)
            if n < 2:
                atom, pi_pow = ("log2" if n else "one"), e.pi_pow
            else:
                atom, pi_pow = 2 * n - 1, e.pi_pow - 2 * n + 2
            out.append((atom, pi_pow, q.numerator, q.denominator))
    return out


def plain(e) -> str:
    out = ""
    for atom, pi_pow, num, den in terms(e):
        factors = [] if atom == "one" else ["log2" if atom == "log2" else f"zeta({atom})"]
        if pi_pow:
            factors.append(f"pi^{pi_pow}" if pi_pow != 1 else "pi")
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        piece = "*".join(factors if mag == "1" and factors else [mag, *factors])
        out += (" - " if num < 0 else " + ") + piece
    return "0" if not out else out[3:] if out[1] == "+" else "-" + out[3:]


def latex(e) -> str:
    out = ""
    for atom, pi_pow, num, den in terms(e):
        cs = str(abs(num)) if den == 1 else rf"\frac{{{abs(num)}}}{{{den}}}"
        if isinstance(atom, int) and pi_pow < 0:
            body = rf"\frac{{\zeta({atom})}}{{\pi^{{{-pi_pow}}}}}"
        else:
            p = abs(pi_pow) if atom == "log2" else pi_pow
            pi = "" if not p else r"\pi" if p == 1 else rf"\pi^{{{p}}}"
            if atom != "log2":
                body = ("" if atom == "one" else rf"\zeta({atom})") + pi
            elif pi_pow < 0:
                body = rf"\frac{{\log 2}}{{{pi}}}"
            else:
                body = r"\log 2" + (pi and rf"\,{pi}")
        piece = cs if body == "" else (rf"{cs}\,{body}" if cs != "1" else body)
        out += ("-" if num < 0 else "+") + piece
    return "0" if not out else out[1:] if out[0] == "+" else out


def json_obj(e) -> list:
    out = []
    for atom, pi_pow, num, den in terms(e):
        a = {"zeta": atom} if isinstance(atom, int) else atom
        out.append({"atom": a, "pi_pow": pi_pow, "coeff": f"{num}/{den}"})
    return out


def json_text(e) -> str:
    return json.dumps(json_obj(e), separators=(",", ":"))
