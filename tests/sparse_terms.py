"""Sparse term algebra for the test oracles.

An expression here is a plain dict ``{(atom, pi_pow): Fraction}`` with no
zero values: one entry per term ``coeff * atom * pi^pi_pow``.  Nothing in it
knows the dense slots of ``ZetaExpr``: ``sparse`` reads ``terms()`` and
``dense`` goes through ``from_terms``, so a comparison made through them
also checks the slot-to-atom mapping.
"""

from fractions import Fraction

from gjmsdet.zexpr import ZetaExpr


def term(atom, coeff=1, pi_pow=0):
    return {(atom, pi_pow): Fraction(coeff)} if coeff else {}


def sparse(expr):
    return {(atom, pi_pow): c for atom, pi_pow, c in expr.terms()}


def dense(terms):
    return ZetaExpr.from_terms((atom, p, c) for (atom, p), c in terms.items())


def add(*exprs):
    out = {}
    for expr in exprs:
        for key, c in expr.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def scale(q, expr):
    return {key: q * c for key, c in expr.items()} if q else {}


def shift_pi(expr, p):
    return {(atom, pi_pow + p): c for (atom, pi_pow), c in expr.items()}
