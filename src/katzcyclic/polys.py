"""Dense univariate polynomial arithmetic, the one implementation in the
package.

It sits between the coefficient rings and the rings built from them:
ZZ, QQ, F_p (:mod:`katzcyclic.fields`) -> polys -> F_{p^e}
(:class:`~katzcyclic.fields.FiniteField`, whose products are taken
modulo an irreducible over F_p), F_q[x], Q(x) and Q[t]
(:mod:`katzcyclic.rings`), and B[X] (:mod:`katzcyclic.xpoly`).

Polynomials are tuples of coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  Every function
takes the coefficient protocol object as first argument: a field from
:mod:`katzcyclic.fields` for K[x], :data:`~katzcyclic.fields.ZZ` for the
integer polynomials of Q(x) and Q[t], or any ring for the B[X] of
:mod:`katzcyclic.xpoly`.  Over ZZ, ``add``, ``sub``, ``neg``, ``mul``,
``derive``, ``scale``, ``divmod_`` and ``to_str`` take one branch on
plain ints, with no method call per coefficient (``to_str`` prints each
int by ``str``, as ``QQ.to_str`` prints the equal Fraction); every
other K takes the generic path through K's methods.  ``mul`` by a factor of length 1, over
any K, is ``scale``.  ``add_mul`` is ``mul``'s loop over ZZ,
adding c f g into a list of ints in place, so that a sum of such
products takes one list and one ``normalize``; ``add_scaled`` is
c f + d g in Z[x] in one pass.  ``divmod_`` needs a field, or over ZZ an
exact quotient: each step divides the top coefficient by the divisor's
leading one, and raises PreconditionError when that leaves a remainder.
``gcd`` is the gcd of Z[x] only, with its cofactors: GCDHEU (Char,
Geddes & Gonnet) takes it from one integer gcd of the inputs packed at
x = 2^k, and the exact divisions that check it give the cofactors.
``pack`` and ``unpack`` are Kronecker substitution for Z[x]:
``pack(f, k)`` is the int f(2^k), and ``unpack(v, k)`` (k >= 2) reads
the coefficients back as v's balanced base-2^k digits, which is exact
when every coefficient lies in [-2^(k-1), 2^(k-1)).  ``gcd`` uses them
at one level, for Z[x]; the matrix routines of Q(x) and Q[t] that use
them are listed in :mod:`katzcyclic.rings`.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Sequence, Tuple

from .errors import NotInvertibleError, PreconditionError, UnsupportedOperationError
from .fields import ZZ

Poly = Tuple


def normalize(K, coeffs: Sequence) -> Poly:
    coeffs = list(coeffs)
    while coeffs and K.is_zero(coeffs[-1]):
        coeffs.pop()
    return tuple(coeffs)


def const(K, c) -> Poly:
    return normalize(K, [c])


def degree(f: Poly) -> int:
    """Degree, with deg 0 = -1."""
    return len(f) - 1


def is_zero(f: Poly) -> bool:
    return len(f) == 0


def add(K, f: Poly, g: Poly) -> Poly:
    if K is ZZ:
        if len(f) < len(g):
            f, g = g, f
        out = [a + b for a, b in zip(f, g)]
        out += f[len(g):]
        return normalize(ZZ, out)
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else K.zero
        b = g[i] if i < len(g) else K.zero
        out.append(K.add(a, b))
    return normalize(K, out)


def neg(K, f: Poly) -> Poly:
    if K is ZZ:
        return tuple([-c for c in f])
    return tuple(K.neg(c) for c in f)


def sub(K, f: Poly, g: Poly) -> Poly:
    if K is ZZ:
        out = [a - b for a, b in zip(f, g)]
        out += f[len(g):] if len(f) > len(g) else [-b for b in g[len(f):]]
        return normalize(ZZ, out)
    return add(K, f, neg(K, g))


def mul(K, f: Poly, g: Poly) -> Poly:
    """f g.  A factor of length 1 only scales the other, with no
    schoolbook loop and no ``K.add`` onto zeros."""
    if not f or not g:
        return ()
    if len(f) == 1:
        return scale(K, f[0], g)
    if len(g) == 1:
        return scale(K, g[0], f)
    if K is ZZ:
        out = [0] * (len(f) + len(g) - 1)
        add_mul(out, 1, f, g)
        return normalize(ZZ, out)
    out = [K.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if K.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = K.add(out[i + j], K.mul(a, b))
    return normalize(K, out)


def add_mul(acc: list, c: int, f: Poly, g: Poly) -> None:
    """acc += c f g in Z[x], in place, on a list of at least
    len(f) + len(g) - 1 ints, which it leaves unnormalized: the schoolbook
    loop of :func:`mul` over ZZ, and of each term of a sum of products
    (:meth:`katzcyclic.rings._IntegerCoreRing.dot` and the rows of
    :meth:`katzcyclic.rings.GaussPolynomialRing.lemma_norms`).  It skips
    f's zero coefficients, so c t^d g costs one pass over g."""
    for i, a in enumerate(f):
        if a:
            a *= c
            for j, b in enumerate(g, i):
                acc[j] += a * b


def add_scaled(c: int, f: Poly, d: int, g: Poly) -> Poly:
    """c f + d g in Z[x], in one pass over the ints."""
    if len(f) < len(g):
        c, f, d, g = d, g, c, f
    out = [c * a + d * b for a, b in zip(f, g)]
    out += [c * a for a in f[len(g):]]
    return normalize(ZZ, out)


def scale(K, c, f: Poly) -> Poly:
    if K is ZZ:
        if c == 1:
            return tuple(f)
        return tuple([c * a for a in f]) if c else ()
    return normalize(K, [K.mul(c, a) for a in f])


def divmod_(K, f: Poly, g: Poly):
    """Euclidean division; g must be nonzero.  Over ZZ every step must
    divide exactly, else PreconditionError."""
    if not g:
        raise NotInvertibleError("polynomial division by zero")
    q = [K.zero] * max(0, len(f) - len(g) + 1)
    r = list(f)
    lead = g[-1]
    if K is ZZ:
        low = g[:-1]
        while len(r) >= len(g):
            c, rem = divmod(r[-1], lead)
            if rem:
                raise PreconditionError(
                    "inexact polynomial division: the divisor's leading coefficient"
                    " does not divide the dividend's"
                )
            shift = len(r) - len(g)
            q[shift] = c
            for i, gc in enumerate(low, shift):
                r[i] -= c * gc
            r.pop()  # r[-1] - c * lead, which is zero
            while r and not r[-1]:
                r.pop()
        return tuple(q), tuple(r)
    while len(r) >= len(g) and r:
        c = K.div(r[-1], lead)
        shift = len(r) - len(g)
        q[shift] = c
        for i, gc in enumerate(g):
            r[shift + i] = K.sub(r[shift + i], K.mul(c, gc))
        r.pop()  # zero over a field
        while r and K.is_zero(r[-1]):
            r.pop()
    return normalize(K, q), normalize(K, r)


def gcd(K, f: Poly, g: Poly) -> Tuple[Poly, Poly, Poly]:
    """(h, f/h, g/h) for f, g in Z[x] (K = ZZ), h the primitive gcd with a
    positive leading coefficient; the gcd of two zeros is ((), (), ()).

    GCDHEU (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989; Geddes,
    Czapor & Labahn, *Algorithms for Computer Algebra*, ch. 7): for
    primitive a, b and xi = 2^k >= 2 min(|a|, |b|) + 2 (max-norms), the
    primitive part h of the balanced base-xi digits of gcd(a(xi), b(xi))
    is gcd(a, b) if it divides both (their theorem).  Doubling k ends:
    with a = G A, b = G B and G = gcd(a, b), gcd(a(xi), b(xi)) = |G(xi)| r
    with r dividing Res(A, B), which does not depend on xi, so once
    xi > 2 |Res(A, B)| |G| the digits spell +-r G and h = G.  The exact
    divisions that check h are the cofactors; a candidate h = 1 divides
    both without a division, and f and g are then its cofactors.
    """
    if K is not ZZ:
        raise TypeError(f"gcd works in Z[x] only, not over {K!r}")
    if not f or not g:
        c, h = primitive(f or g)
        return h, (c,) if f else (), (c,) if g else ()
    if len(f) == 1 or len(g) == 1:
        return (1,), f, g
    (ca, a), (cb, b) = primitive(f), primitive(g)
    # 2^k >= 4 max(|a|, |b|) + 4 >= 2 min(|a|, |b|) + 2, CGG's bound
    k = max(map(abs, (*a, *b))).bit_length() + 2
    while True:
        h = primitive(unpack(math.gcd(pack(a, k), pack(b, k)), k))[1]
        if h == (1,):  # divides both, so it is the gcd, and f, g are the cofactors
            return h, f, g
        if (qa := _exact_quotient(a, h)) and (qb := _exact_quotient(b, h)):
            return h, scale(ZZ, ca, qa), scale(ZZ, cb, qb)
        k *= 2


def _exact_quotient(f: Poly, h: Poly) -> Optional[Poly]:
    """f/h in Z[x] if h divides f, else None."""
    try:
        q, r = divmod_(ZZ, f, h)
    except PreconditionError:
        return None
    return None if r else q


def clear_denominators(f: Poly):
    """(den, g) for f in Q[x]: den is the lcm of the denominators of f's
    coefficients and g = den * f, with int coefficients."""
    den = math.lcm(*(c.denominator for c in f))
    return den, tuple(c.numerator * (den // c.denominator) for c in f)


def primitive(f: Sequence[int]):
    """(content, part) of f in Z[x]: f = content * part, with part
    primitive and its leading coefficient positive; zero is (0, f)."""
    content = math.gcd(*f)
    if f and f[-1] < 0:
        content = -content
    if content in (0, 1):
        return content, f
    # tuple() of a list, not of a generator: a generator's tuple is
    # allocated at a guessed size and shrunk, which leaves its memory on
    # the interpreter's free list for the smaller size, so that hot loops
    # grow the process's memory
    return content, tuple([c // content for c in f])


def pack(f: Sequence[int], k: int) -> int:
    """f(2^k) for f in Z[x]: Kronecker substitution x -> 2^k."""
    v = 0
    for c in reversed(f):
        v = (v << k) + c
    return v


def unpack(v: int, k: int) -> Poly:
    """The f in Z[x] with f(2^k) = v whose coefficients all lie in
    [-2^(k-1), 2^(k-1)): v's balanced base-2^k digits, lowest first.

    k >= 2: with k = 1 the digits -1, 0 spell no positive v.
    """
    if k < 2:
        raise PreconditionError(f"balanced digits need k >= 2 bits, got {k}")
    mask, half = (1 << k) - 1, 1 << (k - 1)
    out = []
    while v:
        c = v & mask
        if c >= half:
            c -= 1 << k
        out.append(c)
        v = (v - c) >> k
    return tuple(out)


def derive(K, f: Poly) -> Poly:
    if K is ZZ:
        return tuple([i * f[i] for i in range(1, len(f))])
    out = [K.mul(K.from_int(i), f[i]) for i in range(1, len(f))]
    return normalize(K, out)


def eq(K, f: Poly, g: Poly) -> bool:
    return len(f) == len(g) and all(K.eq(a, b) for a, b in zip(f, g))


def to_str(K, f: Poly, var: str) -> str:
    """Canonical printer: descending degree, explicit signs, no spaces
    around '*' or '^'.  Inverse of the expression grammar.  Over ZZ the
    ints print by ``str``, as ``QQ.to_str`` prints the equal Fraction."""
    if not f:
        return "0"
    if K is ZZ:  # ints, printed by str with no method call per coefficient
        parts = []
        try:
            for i in range(len(f) - 1, -1, -1):
                c = f[i]
                if not c:
                    continue
                if c < 0:
                    sign = " - " if parts else "-"
                    c = -c
                else:
                    sign = " + " if parts else ""
                if i == 0:
                    parts.append(f"{sign}{c}")
                elif c == 1:
                    parts.append(f"{sign}{var}" if i == 1 else f"{sign}{var}^{i}")
                else:
                    parts.append(f"{sign}{c}*{var}" if i == 1 else f"{sign}{c}*{var}^{i}")
        except ValueError:  # an int past the interpreter's limit for str()
            raise _unprintable() from None
        return "".join(parts)
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if K.is_zero(c):
            continue
        try:
            s = K.to_str(c)
        except ValueError:  # an int past the interpreter's limit for str()
            raise _unprintable() from None
        negative = s.startswith("-")
        if negative:
            s = s[1:]
        if i == 0:
            term = s
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            if "+" in s:  # a sum, such as 1+g in F_{p^e}, multiplies as a whole
                s = f"({s})"
            term = xpow if s == "1" else f"{s}*{xpow}"
        if not parts:
            parts.append(("-" if negative else "") + term)
        else:
            parts.append((" - " if negative else " + ") + term)
    return "".join(parts)


def _unprintable() -> UnsupportedOperationError:
    return UnsupportedOperationError(
        f"a coefficient has more than {sys.get_int_max_str_digits()} digits"
        " and cannot be printed"
    )

