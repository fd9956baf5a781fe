"""Coefficient rings: the rationals Q, the integers Z, and the finite
fields F_p and F_{p^e}.

QQ and FiniteField expose the same small protocol (zero, one, add, sub,
mul, neg, div, inv, is_zero, from_int, characteristic, to_str) so that
the dense polynomial helpers in :mod:`katzcyclic.polys` stay generic.
ZZ holds only the ring part that :mod:`katzcyclic.linalg` reads:
``polys`` runs Z[x] on plain ints, with ZZ as the tag of that branch.
Each of the three also has the ``dot`` that :mod:`katzcyclic.linalg`
takes every sum of products by: :func:`dot`, the loop over ``add`` and
``mul``, for F_{p^e}, and the builtin ``sum`` of the products for ZZ
and QQ.

The layers run ZZ, QQ, F_p -> :mod:`katzcyclic.polys` -> F_{p^e}, F_q[x],
Q(x), Q[t].  F_p is the private ``_IntegersModP``; :class:`FiniteField`
with e > 1 multiplies, and searches for its irreducible modulus, with
``polys`` over it.  :func:`power` is the package's one
square-and-multiply loop, and :func:`dot` its one loop of sums of
products.

Rational elements are :class:`fractions.Fraction`; integers are Python
ints; finite-field elements are tuples of e ints in [0, p), coordinates
with respect to the power basis of a fixed irreducible modulus.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Tuple

from .errors import InternalConsistencyError, NotInvertibleError, PreconditionError


def power(mul, one, a, k: int):
    """a^k for k >= 0 by square-and-multiply with the product ``mul``;
    PreconditionError for k < 0."""
    if k < 0:
        raise PreconditionError(f"negative exponent {k}")
    out = one
    while k:
        if k & 1:
            out = mul(out, a)
        k >>= 1
        if k:
            a = mul(a, a)
    return out


def dot(ring, u, v, start=None):
    """start + sum_i u_i v_i over ``ring``, one ``add`` per ``mul``, with
    ``start`` zero by default.  The ``dot`` of every ring protocol object
    that has no faster one."""
    acc = ring.zero if start is None else start
    for a, b in zip(u, v):
        acc = ring.add(acc, ring.mul(a, b))
    return acc


class RationalField:
    """The field Q on fractions.Fraction, written like ZZ; only inv and
    div are methods, because they raise NotInvertibleError on zero."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)
    add = operator.add
    sub = operator.sub
    mul = operator.mul
    neg = operator.neg
    is_zero = operator.not_
    from_int = Fraction
    from_fraction = Fraction
    to_str = str

    @staticmethod
    def dot(u, v, start=None):
        return sum(map(operator.mul, u, v), Fraction(0) if start is None else start)

    @staticmethod
    def inv(a):
        if a == 0:
            raise NotInvertibleError("0 is not invertible")
        return 1 / a

    @staticmethod
    def div(a, b):
        if b == 0:
            raise NotInvertibleError("division by zero")
        return a / b


QQ = RationalField()


class IntegerRing:
    """The ring Z on Python ints; its methods are the builtin operators.

    It is the coefficient ring of the primitive numerators and
    denominators of Q(x) and Q[t].  The :mod:`katzcyclic.polys` helpers
    take Z[x] on plain ints when passed ZZ, so it carries only what
    :func:`~katzcyclic.linalg.det` and :func:`~katzcyclic.linalg.mat_mul`
    read of a ring (``is_zero``, ``neg`` and ``dot``), for the packed
    ints of :mod:`katzcyclic.rings`, and the ``zero``, ``add``, ``sub``
    and ``mul`` that ``dot`` stands for.
    """

    zero = 0
    add = operator.add
    sub = operator.sub
    mul = operator.mul
    neg = operator.neg
    is_zero = operator.not_

    @staticmethod
    def dot(u, v, start=None):
        return sum(map(operator.mul, u, v), 0 if start is None else start)


ZZ = IntegerRing()

GFElem = Tuple[int, ...]

# polys imports ZZ above; F_{p^e} below is built on polys.
from . import polys  # noqa: E402


class _IntegersModP:
    """The ring F_p on Python ints, in the style of ZZ: an int stands for
    its residue mod p, so add, sub, mul and neg are the builtin
    operators, and is_zero compares mod p.  It is the coefficient
    ring of the :mod:`katzcyclic.polys` helpers behind F_{p^e}.
    """

    zero = 0
    one = 1
    add = operator.add
    sub = operator.sub
    mul = operator.mul
    neg = operator.neg
    from_int = int

    def __init__(self, p: int):
        self.p = p

    def div(self, a: int, b: int) -> int:
        return a * pow(b, -1, self.p) % self.p

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0


def _mulmod(Fp: _IntegersModP, a, b, m) -> Tuple[int, ...]:
    """a * b mod m over F_p, for m monic, with coefficients in [0, p)."""
    r = polys.divmod_(Fp, polys.mul(Fp, a, b), m)[1]
    return tuple([c % Fp.p for c in r])


def _find_irreducible(p: int, e: int) -> Tuple[int, ...]:
    """Smallest monic irreducible of degree e over F_p, lexicographically
    (constant coefficient least significant).

    Each candidate f passes Ben-Or's test: f is irreducible iff
    gcd(x^(p^i) - x, f) = 1 for i = 1..e//2, since a reducible f has a
    factor of degree i <= e/2, which divides x^(p^i) - x.  x^(p^i) mod f
    is taken as the p-th power of x^(p^(i-1)), and most reducible
    candidates fail at a small i.
    """
    Fp = _IntegersModP(p)
    x = (0, 1)
    for code in range(p ** e):
        coeffs = []
        c = code
        for _ in range(e):
            coeffs.append(c % p)
            c //= p
        f = tuple(coeffs) + (1,)
        h = x
        for _ in range(e // 2):
            h = power(lambda a, b: _mulmod(Fp, a, b, f), (1,), h, p)
            a, b = f, polys.sub(Fp, h, x)
            while b:
                a, b = b, polys.divmod_(Fp, a, b)[1]
            if len(a) != 1:
                break
        else:
            return f
    raise InternalConsistencyError(f"no irreducible of degree {e} over F_{p}")


# Miller-Rabin witnesses: the primes up to 37 decide primality of every
# n < 3.18 * 10^23 (Sorenson & Webster 2015), far beyond MAX_PRIME.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_PRIME = 2 ** 64


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n <= MAX_PRIME.

    Larger n raise PreconditionError rather than be tested.
    """
    if n > MAX_PRIME:
        raise PreconditionError(f"p = {n} exceeds the supported maximum 2^64")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FiniteField:
    """F_q with q = p^e, elements as coefficient tuples of length e."""

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise PreconditionError(f"p = {p} is not prime")
        if e < 1:
            raise PreconditionError("e must be >= 1")
        # p >= 2, so e > 64 alone puts q past the bound; test it before p ** e
        if e > 64 or p ** e > MAX_PRIME:
            raise PreconditionError(f"q = {p}^{e} exceeds the supported maximum 2^64")
        self.p = p
        self.e = e
        self.q = p ** e
        self.characteristic = p
        self._Fp = _IntegersModP(p)
        self.modulus = _find_irreducible(p, e) if e > 1 else None
        self.zero: GFElem = (0,) * e
        self.one: GFElem = (1,) + (0,) * (e - 1)

    def add(self, a: GFElem, b: GFElem) -> GFElem:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a: GFElem, b: GFElem) -> GFElem:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a: GFElem) -> GFElem:
        return tuple((-x) % self.p for x in a)

    def mul(self, a: GFElem, b: GFElem) -> GFElem:
        if self.e == 1:
            return ((a[0] * b[0]) % self.p,)
        red = _mulmod(self._Fp, a, b, self.modulus)
        return red + (0,) * (self.e - len(red))

    def inv(self, a: GFElem) -> GFElem:
        if self.is_zero(a):
            raise NotInvertibleError("0 is not invertible")
        p = self.p
        if self.e == 1:
            return (pow(a[0], -1, p),)
        # Extended Euclid over F_p: s * a = r mod the modulus, until r is
        # a nonzero constant (the modulus is irreducible); at most e steps.
        Fp = self._Fp
        r0, r1 = self.modulus, polys.normalize(Fp, a)
        s0, s1 = (), (1,)
        while len(r1) > 1:
            q, r = polys.divmod_(Fp, r0, r1)
            s = polys.sub(Fp, s0, polys.mul(Fp, q, s1))
            r0, r1 = r1, tuple([c % p for c in r])
            s0, s1 = s1, tuple([c % p for c in s])
        c = pow(r1[0], -1, p)
        return tuple([x * c % p for x in s1]) + (0,) * (self.e - len(s1))

    def div(self, a: GFElem, b: GFElem) -> GFElem:
        return self.mul(a, self.inv(b))

    def dot(self, u, v, start=None) -> GFElem:
        return dot(self, u, v, start)

    def is_zero(self, a: GFElem) -> bool:
        return all(x == 0 for x in a)

    def from_int(self, n: int) -> GFElem:
        return (n % self.p,) + (0,) * (self.e - 1)

    def from_fraction(self, q: Fraction) -> GFElem:
        den = q.denominator % self.p
        if den == 0:
            raise NotInvertibleError(f"denominator {q.denominator} vanishes in F_{self.q}")
        return self.div(self.from_int(q.numerator), self.from_int(q.denominator))

    def to_str(self, a: GFElem) -> str:
        if self.e == 1:
            return str(a[0])
        terms = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                terms.append(f"{head}g" if i == 1 else f"{head}g^{i}")
        return "+".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"FiniteField({self.p}, {self.e})"
