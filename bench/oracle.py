"""Independent exact arithmetic for checking the program's answers.

Polynomials over Q are tuples of Fractions, lowest degree first, with no
trailing zeros.  A rational function is an unreduced pair (num, den) of
such polynomials; two of them are equal when their cross products are.
Nothing here imports katzcyclic, so a check built on this module shares
no code with the arithmetic it checks.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

ONE = (Fraction(1),)


def trim(coeffs) -> tuple:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def padd(f, g):
    n = max(len(f), len(g))
    return trim(
        (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)
    )


def pneg(f):
    return tuple(-c for c in f)


def pmul(f, g):
    if not f or not g:
        return ()
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out)


def pderiv(f):
    return trim(i * f[i] for i in range(1, len(f)))


def rf(poly):
    """A polynomial as a rational function."""
    return (trim(poly), ONE)


def radd(a, b):
    return (padd(pmul(a[0], b[1]), pmul(b[0], a[1])), pmul(a[1], b[1]))


def rmul(a, b):
    return (pmul(a[0], b[0]), pmul(a[1], b[1]))


def rderiv(a):
    num = padd(pmul(pderiv(a[0]), a[1]), pneg(pmul(a[0], pderiv(a[1]))))
    return (num, pmul(a[1], a[1]))


def req(a, b) -> bool:
    return pmul(a[0], b[1]) == pmul(b[0], a[1])


def riszero(a) -> bool:
    return not a[0]


def nabla(v, g1):
    """nabla(v) = d(v) + v * G1 for a row v of rational functions and a
    connection matrix G1 of rational functions (row convention)."""
    n = len(v)
    out = []
    for j in range(n):
        acc = rderiv(v[j])
        for i in range(n):
            acc = radd(acc, rmul(v[i], g1[i][j]))
        out.append(acc)
    return out


def det(rows):
    """Leibniz expansion; the checks only use it up to rank 3."""
    n = len(rows)
    total = ((), ONE)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = ((Fraction(-1 if inversions % 2 else 1),), ONE)
        for i in range(n):
            term = rmul(term, rows[i][perm[i]])
        total = radd(total, term)
    return total


_SPLIT = re.compile(r" ([+-]) ")
_NUMBER = r"\d+(?:/\d+)?"


def parse_poly(text: str, var: str):
    """Read the canonical printed form: descending distinct powers,
    ' + '/' - ' between terms, 'c*x^k', 'x^k', 'c*x', 'x' or 'c'."""
    if text == "0":
        return ()
    term_re = re.compile(
        rf"(?:({_NUMBER})\*)?{re.escape(var)}(?:\^(\d+))?|({_NUMBER})"
    )
    pieces = _SPLIT.split(text)
    signs = [-1 if pieces[0].startswith("-") else 1]
    terms = [pieces[0][1:] if signs[0] < 0 else pieces[0]]
    for k in range(1, len(pieces), 2):
        signs.append(-1 if pieces[k] == "-" else 1)
        terms.append(pieces[k + 1])
    coeffs = {}
    last = None
    for sign, term in zip(signs, terms):
        m = term_re.fullmatch(term)
        if m is None:
            raise ValueError(f"not a canonical term: {term!r}")
        if m.group(3) is not None:
            c, e = Fraction(m.group(3)), 0
        else:
            c = Fraction(m.group(1)) if m.group(1) is not None else Fraction(1)
            e = int(m.group(2)) if m.group(2) is not None else 1
        if c == 0 or (last is not None and e >= last):
            raise ValueError(f"not in canonical order: {text!r}")
        last = e
        coeffs[e] = sign * c
    return trim(coeffs.get(i, 0) for i in range(max(coeffs) + 1))


def parse_rf(text: str, var: str):
    """Read 'p' or '(p)/(q)' in canonical form."""
    if text.startswith("("):
        cut = text.find(")/(")
        if cut < 0 or not text.endswith(")"):
            raise ValueError(f"not a canonical quotient: {text!r}")
        den = parse_poly(text[cut + 3 : -1], var)
        if not den:
            raise ValueError(f"zero denominator: {text!r}")
        return (parse_poly(text[1:cut], var), den)
    return (parse_poly(text, var), ONE)
