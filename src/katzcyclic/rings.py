"""Exact coefficient rings with a derivation and (optionally) an ultrametric norm.

Three concrete kinds are provided:

* ``rational_function`` -- the field Q(x) with d = d/dx,
* ``gauss_padic``       -- dense polynomials Q[t] with d = d/dt, normed by
  the p-adic Gauss norm with |t| = p^(-r) (a Tate-algebra model; every
  operation in this package stays polynomial, so no completion or
  truncation is ever needed),
* ``finite_field_poly`` -- F_q[x] with d = d/dx, q = p^e (characteristic p,
  no norm).

Q(x) and Q[t] share one representation, :class:`RatFunc`: an element is
(p/q) * N/D, a rational scale held as a reduced pair of ints p, q times
coprime primitive integer polynomials N and D with positive leading
coefficients, and an element of Q[t] is one with D = (1,).  The form is
unique, so equality is structural, and all work runs on plain ints:
the scale by integer gcds, the polynomials in Z[x] through the
:data:`~katzcyclic.fields.ZZ` branches of :mod:`katzcyclic.polys`.
Values cross into the form at three places: a parsed entry that is a
sum of integer monomials is read into Z[x] by :mod:`katzcyclic.parser`
and enters by ``from_integer_poly`` (any other by the ring's
operations), a rational constant enters by
``from_fraction``, and a matrix cleared into Z[x] comes back by one
canonical form per entry.  A Fraction is built only where a value
leaves the ring, in ``num`` and ``den``.  One arithmetic in a private
base serves both kinds.  Each reduction takes one ``polys.gcd``, whose
cofactors are the reduced numerator and denominator.  Its branch for
constant denominators takes no gcd of polynomials (by Gauss's lemma a
product of primitive polynomials is primitive), so neither Q[t] nor a
polynomial element of Q(x) takes one.  A sum of products, ``dot``,
takes one canonical form, where the loop of ``add`` would take one per
partial sum.

This module decides which matrix routines run on integers.  Two clear
their input into Z[x] by one helper, :func:`_clear`, and take the rest
on Kronecker-packed ints: the iterated matrices of a polynomial G_1
(``integer_iterates``, one packed product :func:`_zx_mat_mul` per step;
any other G_1 takes :meth:`Ring.iterated_matrices`) and the determinant
of a matrix over ring[X] (``xdet``), which packs x alone, evaluates X at
e + 1 small integers, takes one ``linalg.det`` over the vectors of
values (:class:`_Values`) and interpolates exactly by an integer
Lagrange table (:func:`_interpolation`).  A rescaled ring takes its
base's ``xdet``; F_q[x], whose field may have fewer than e + 1 points,
takes :meth:`Ring.xdet` over ring[X].  Q[t] has two more, which read the
integer iterates without packing: the norms of Lemma 2.1
(``lemma_norms``, whose factors have one monomial per entry, which a
packed product would spend its time packing and unpacking) and the
witness routine ``katz_vector_at_t``, Katz's candidate c(e, t).
Every other matrix product, over any ring, is
:func:`katzcyclic.linalg.mat_mul`, one ``dot`` per entry.

F_q[x] stores dense coefficient tuples over
:class:`~katzcyclic.fields.FiniteField` and runs on the
:mod:`katzcyclic.polys` helpers.

Every ring carries a distinguished element ``t`` with d(t) = 1 and exposes
arithmetic through methods; elements themselves are plain data that no
operation mutates (coefficient tuples, or :class:`RatFunc`), each in
its ring's unique canonical form, so that equality in every ring is ``==``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Optional, Tuple

from . import linalg, polys
from .errors import NotInvertibleError, PreconditionError, UnsupportedOperationError
from .fields import QQ, ZZ, FiniteField, dot, is_prime, power
from .normvalue import NormValue, padic_valuation
from .parser import parse_element


class Ring:
    """Common interface; see concrete subclasses.  Elements are canonical
    and hashable: equal in the ring exactly when equal as Python values,
    so ``eq`` and ``is_zero`` below serve every subclass."""

    kind: str
    variable: str
    characteristic: int
    is_banach: bool = False
    is_field: bool = False
    prime: Optional[int] = None
    # In F_{p^e}[x], e > 1: the constant g, F_{p^e} = F_p[g], printed and parsed as g
    generator = None

    # -- arithmetic -----------------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def pow(self, a, k: int):
        """a^k for k >= 0; PreconditionError for k < 0."""
        return power(self.mul, self.one, a, k)

    def dot(self, u, v, start=None):
        """start + sum_i u_i v_i for two sequences of equal length, with
        ``start`` zero by default: every sum of products of
        :mod:`katzcyclic.linalg`, and each coordinate of a nabla step,
        which starts at d(v_j) and so saves Q(x) the canonical form of
        one more ``add``."""
        return dot(self, u, v, start)

    def is_zero(self, a) -> bool:
        return a == self.zero

    def eq(self, a, b) -> bool:
        return a == b

    def from_int(self, n: int):
        raise NotImplementedError

    def from_fraction(self, q: Fraction):
        raise NotImplementedError

    def from_integer_poly(self, coeffs):
        """The element with the integer coefficients ``coeffs`` (lowest
        degree first, no trailing zeros), reduced in characteristic p;
        the parser reads a sum of integer monomials into Z[x] and hands
        it over here."""
        raise NotImplementedError

    def is_invertible(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_constant(self, a) -> bool:
        return self.is_zero(self.derive(a))

    def degree(self, a) -> int:
        """Degree in the variable; -1 for zero."""
        raise NotImplementedError

    def xdet(self, h):
        """det h for a square matrix h over ring[X], its entries
        :mod:`katzcyclic.xpoly` tuples: the elimination over ring[X],
        which F_q[x] takes.  Q(x) and Q[t] take theirs on integers, and a
        rescaled ring its base's."""
        from .xpoly import XPolyRing

        return linalg.det(XPolyRing(self), h)

    # -- derivation -----------------------------------------------------
    def derive(self, a):
        raise NotImplementedError

    def iterated_matrices(self, g1, s_max: int):
        """[G_0, ..., G_{s_max}] for s_max >= 0, with G_0 = Id, G_1 = g1 and
        G_{s+1} = d(G_s) + G_s G_1: row k of G_s holds the coordinates of
        nabla^s(e_k), so each row of G_{s+1} is one nabla step on that row
        of G_s, each coordinate one ``dot`` started at d(x)."""
        out = [linalg.identity(self, len(g1))]
        if s_max:
            out.append(linalg.freeze(g1))
        cols = tuple(zip(*g1))
        for _ in range(s_max - 1):
            out.append(tuple(
                tuple(self.dot(row, col, self.derive(x)) for x, col in zip(row, cols))
                for row in out[-1]
            ))
        return out

    def antiderivative(self, a):
        """An element F with d(F) = a, or None if none exists in the ring."""
        return None

    # -- norm -----------------------------------------------------------
    def norm(self, a) -> NormValue:
        raise UnsupportedOperationError(f"ring kind '{self.kind}' carries no norm")

    def derivation_norm(self) -> NormValue:
        raise UnsupportedOperationError(f"ring kind '{self.kind}' carries no norm")

    # -- presentation ---------------------------------------------------
    def to_str(self, a) -> str:
        raise NotImplementedError

    def parse(self, text: str):
        return parse_element(text, self)

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.descriptor()}>"


class RatFunc:
    """An element (p/q) * N/D of Q(x) or Q[t] in its unique canonical form.

    ``p`` and ``q`` are ints with q > 0 and gcd(p, q) = 1, p nonzero;
    ``N`` and ``D`` are coprime primitive integer coefficient tuples
    (lowest degree first) with positive leading coefficients.  Zero is
    (p, q, N, D) = (0, 1, (), (1,)).  An element of Q[t] is one with
    D = (1,).  As the form is unique, elements compare structurally.

    ``RatFunc(num, den)`` builds an element of Q(x) from Fraction
    coefficient tuples, and ``num``/``den`` give it back as the reduced
    fraction with a monic denominator.
    """

    __slots__ = ("p", "q", "N", "D")

    def __init__(self, num, den):
        num, den = polys.normalize(QQ, num), polys.normalize(QQ, den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        dn, N = polys.clear_denominators(num)
        dd, D = polys.clear_denominators(den)
        a = _canonical(dd, dn, N, D)
        self.p, self.q, self.N, self.D = a.p, a.q, a.N, a.D

    @property
    def num(self) -> Tuple[Fraction, ...]:
        q = self.q * self.D[-1]
        return tuple([Fraction(self.p * n, q) for n in self.N])

    @property
    def den(self) -> Tuple[Fraction, ...]:
        lead = self.D[-1]
        return tuple([Fraction(d, lead) for d in self.D])

    def __eq__(self, other):
        if type(other) is not RatFunc:
            return NotImplemented
        return (
            self.p == other.p and self.q == other.q and self.N == other.N
            and self.D == other.D
        )

    def __hash__(self):
        return hash((self.p, self.q, self.N, self.D))

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"


_ONE = (1,)


def _ratfunc(p: int, q: int, N, D) -> RatFunc:
    """The element (p/q) * N/D, with (p, q, N, D) already canonical."""
    a = object.__new__(RatFunc)
    a.p, a.q, a.N, a.D = p, q, N, D
    return a


_ZERO = _ratfunc(0, 1, (), _ONE)


def _canonical(p: int, q: int, N, D) -> RatFunc:
    """The element (p/q) * N/D for ints p and q > 0 and N, D in Z[x], D
    nonzero."""
    if not p or not N:
        return _ZERO
    cn, N = polys.primitive(N)
    cd, D = polys.primitive(D)
    _, N, D = polys.gcd(ZZ, N, D)
    p, q = p * cn, q * cd
    if q < 0:  # D's leading coefficient was negative
        p, q = -p, -q
    g = math.gcd(p, q)
    return _ratfunc(p // g, q // g, N, D)


def _scaled(p: int, q: int, N: Tuple[int, ...], D: Tuple[int, ...] = _ONE) -> RatFunc:
    """The element (p/q) * N/D for ints p and q > 0, N in Z[x] with no
    trailing zeros, and D primitive, prime to N, with a positive leading
    coefficient.

    Only N's content is taken out; with N prime to D there is nothing to
    cancel, so no gcd of polynomials is due.
    """
    if not p or not N:
        return _ZERO
    cn, N = polys.primitive(N)
    p *= cn
    g = math.gcd(p, q)
    return _ratfunc(p // g, q // g, N, D)


def _clear(elements) -> Tuple[int, Tuple[int, ...], list]:
    """(m, L, [m L a for a in elements]) for a sequence of elements: m is
    the lcm of their scales' denominators and L the lcm of their
    denominators D, so that every m L a lies in Z[x].  With every D =
    (1,), L = (1,) and no gcd of polynomials is taken."""
    qs = [a.q for a in elements]
    m = math.lcm(*qs)
    dens = {a.D for a in elements}
    L = _ONE
    for D in dens - {_ONE}:
        L = polys.mul(ZZ, L, polys.gcd(ZZ, L, D)[2])  # lcm(L, D) = L (D/g)
    cofactor = {D: polys.divmod_(ZZ, L, D)[0] for D in dens if D != L}
    out = []
    for a, q in zip(elements, qs):
        N = polys.scale(ZZ, m // q * a.p, a.N)
        out.append(polys.mul(ZZ, N, cofactor[a.D]) if a.D != L else N)
    return m, L, out


def _zx_mat_mul(a, b):
    """a * b for matrices over Z[x], as one product of integer matrices
    by Kronecker substitution (von zur Gathen & Gerhard, *Modern
    Computer Algebra*, 8.4): the product A_s A of each step of
    :meth:`_IntegerCoreRing.integer_iterates`.

    Every coefficient of sum_l a_il b_lj is at most max_i sum_l |a_il|_1
    * max_lj |b_lj|_1 =: B in absolute value, so with k = bitlen(B) + 1
    the packing x -> 2^k is exact, and each entry of the product of the
    packed ints, taken by ``linalg.mat_mul`` over ZZ, unpacks into the
    entry of a * b.
    """
    row_sum = max(sum(sum(map(abs, f)) for f in row) for row in a)
    bound = row_sum * max(sum(map(abs, f)) for row in b for f in row)
    if not bound:
        return [[() for _ in b[0]] for _ in a]
    k = bound.bit_length() + 1
    prod = linalg.mat_mul(
        ZZ,
        tuple(tuple(polys.pack(f, k) for f in row) for row in a),
        tuple(tuple(polys.pack(f, k) for f in row) for row in b),
    )
    return [[polys.unpack(v, k) for v in row] for row in prod]


class _Values:
    """Z^size with pointwise arithmetic: polynomials in X of degree below
    ``size`` by their values at the points x_t = 0, 1, -1, 2, -2, ...
    It has what ``linalg.det`` reads of a ring, and ``at``, which takes an
    entry to its values."""

    def __init__(self, size: int):
        self.zero = (0,) * size
        self.points = tuple((i + 1) // 2 * (1 if i % 2 else -1) for i in range(size))

    @staticmethod
    def is_zero(v) -> bool:
        return not any(v)

    @staticmethod
    def neg(v):
        return tuple(map(operator.neg, v))

    def dot(self, u, v):
        if not u:
            return self.zero
        acc = map(operator.mul, u[0], v[0])
        for i in range(1, len(u)):
            acc = map(operator.add, acc, map(operator.mul, u[i], v[i]))
        return tuple(acc)

    def at(self, f):
        """The values of sum_l f_l X^l for ints f_l, by Horner's rule."""
        if not f:
            return self.zero
        acc = (f[-1],) * len(self.zero)
        for c in f[-2::-1]:
            acc = map(operator.add, map(operator.mul, acc, self.points), itertools.repeat(c))
        return tuple(acc)


@functools.cache
def _interpolation(e: int):
    """(values, W, L) for the e + 1 points of ``values = _Values(e + 1)``:
    an integer Lagrange table (W, L) such that every f in Z[X] of degree
    at most e has L f_l = sum_t W[l][t] f(x_t).

    W[l][t] is (L / D_t) times the X^l coefficient of N / (X - x_t), with
    N = prod_t (X - x_t), D_t = prod_(s != t) (x_t - x_s) and L the lcm of
    the D_t.
    """
    values = _Values(e + 1)
    N = _ONE
    for x in values.points:
        N = polys.mul(ZZ, N, (-x, 1))
    quotients, ds = [], []
    for x in values.points:
        quotients.append(polys.divmod_(ZZ, N, (-x, 1))[0])
        d = 1
        for s in values.points:
            if s != x:
                d *= x - s
        ds.append(d)
    lcm = math.lcm(*ds)
    weights = tuple(
        tuple(lcm // d * q[l] for q, d in zip(quotients, ds)) for l in range(e + 1)
    )
    return values, weights, lcm


class _IntegerCoreRing(Ring):
    """The arithmetic of Q(x) and Q[t]: elements are :class:`RatFunc`,
    all polynomial work is in Z[x] with :data:`~katzcyclic.fields.ZZ` as
    the coefficient ring of the :mod:`katzcyclic.polys` helpers, and the
    scale is the reduced int pair p/q.  Each operation has one branch for
    D = (1,), which takes no gcd, and the iterates of a polynomial G_1 run
    on integers (``integer_iterates``); the subclasses add their units,
    norms and descriptors, and Q[t] its two routines on those iterates,
    ``lemma_norms`` and the witness routine ``katz_vector_at_t``."""

    characteristic = 0

    def __init__(self, variable: str = "x"):
        self.variable = variable
        self.zero = _ZERO
        self.one = _ratfunc(1, 1, _ONE, _ONE)
        self.t = _ratfunc(1, 1, (0, 1), _ONE)
        self.var_element = self.t

    def neg(self, a: RatFunc) -> RatFunc:
        return _ratfunc(-a.p, a.q, a.N, a.D)

    def pow(self, a: RatFunc, k: int) -> RatFunc:
        # Powers of coprime primitive polynomials are again coprime and
        # primitive, so a^k needs no gcd at all.
        if k < 0:
            raise PreconditionError(f"negative exponent {k}")
        if not a.p:
            return self.one if k == 0 else self.zero
        zmul = functools.partial(polys.mul, ZZ)
        D = a.D if len(a.D) == 1 else power(zmul, _ONE, a.D, k)
        return _ratfunc(a.p ** k, a.q ** k, power(zmul, _ONE, a.N, k), D)

    def is_zero(self, a: RatFunc) -> bool:
        return not a.p

    def add(self, a: RatFunc, b: RatFunc) -> RatFunc:
        """a + b.  Over a shared denominator D the numerators are summed in
        one pass over the ints (``polys.add_scaled``), and with D = (1,)
        no gcd of polynomials is taken; otherwise the denominators
        cross-cancel first (Henrici), so that only the part they share is
        reduced."""
        if not a.p:
            return b
        if not b.p:
            return a
        # a + b = (ma aN/aD + mb bN/bD) / q, q the lcm of the scales' q
        g = math.gcd(a.q, b.q)
        q = a.q // g * b.q
        ma, mb = a.p * (b.q // g), b.p * (a.q // g)
        if a.D == b.D:
            num = polys.add_scaled(ma, a.N, mb, b.N)
            return _scaled(1, q, num) if len(a.D) == 1 else _canonical(1, q, num, a.D)
        # Henrici (Knuth TAOCP 2, 4.5.1): aD = d1 a1, bD = d1 b1, and t is prime
        # to a1 b1, so only t/d1 is reduced; t != 0, as a + b = 0 makes aD = bD
        d1, a1, b1 = polys.gcd(ZZ, a.D, b.D)
        t = polys.add_scaled(ma, polys.mul(ZZ, a.N, b1), mb, polys.mul(ZZ, b.N, a1))
        s = _canonical(1, q, t, d1)
        return _ratfunc(s.p, s.q, s.N, polys.mul(ZZ, s.D, polys.mul(ZZ, a1, b1)))

    def mul(self, a: RatFunc, b: RatFunc) -> RatFunc:
        """a * b.  A rational constant (N = D = (1,)) only rescales the
        other factor, whose N and D are kept.  Polynomial operands need no
        gcd: N_a N_b is primitive by Gauss's lemma.  Otherwise the factors
        cross-cancel first (Henrici; Knuth TAOCP 2, 4.5.1); with a and b
        canonical the cross-cancelled products are again coprime and
        primitive, so no gcd of the product is due."""
        if not a.p or not b.p:
            return self.zero
        # the scales cross-cancel the same way, on ints
        g, h = math.gcd(a.p, b.q), math.gcd(b.p, a.q)
        p, q = (a.p // g) * (b.p // h), (a.q // h) * (b.q // g)
        if len(a.N) == len(a.D) == 1:  # a rational constant only rescales b
            return _ratfunc(p, q, b.N, b.D)
        if len(b.N) == len(b.D) == 1:
            return _ratfunc(p, q, a.N, a.D)
        if len(a.D) == len(b.D) == 1:
            return _ratfunc(p, q, polys.mul(ZZ, a.N, b.N), _ONE)
        _, a_num, b_den = polys.gcd(ZZ, a.N, b.D)
        _, b_num, a_den = polys.gcd(ZZ, b.N, a.D)
        return _ratfunc(p, q, polys.mul(ZZ, a_num, b_num), polys.mul(ZZ, a_den, b_den))

    def dot(self, u, v, start: Optional[RatFunc] = None) -> RatFunc:
        """start + sum_i u_i v_i, with start counting as the term start * 1.

        When every nonzero term has D = (1,), the products are summed in
        Z[x] over Q, the lcm of the terms' q_a q_b, by ``polys.add_mul``
        into one list, and the sum takes one canonical form and no gcd of
        polynomials.  Otherwise, with three or more nonzero terms, each
        product is (p_a p_b/q_a q_b) N_a N_b/(D_a D_b), not cross-cancelled;
        :func:`_clear` puts them over one denominator, the lcm of the
        D_a D_b (with cofactors by exact division), and their numerators'
        sum takes one canonical form, where the loop would reduce every
        partial sum.  One or two terms take the loop over ``add`` and
        ``mul``: its one ``add`` reduces by the gcd of the two
        denominators only, which costs less than reducing by their lcm."""
        terms = [(a, b) for a, b in zip(u, v) if a.p and b.p]
        if start is not None and start.p:
            terms.append((start, self.one))
        if any(len(a.D) > 1 or len(b.D) > 1 for a, b in terms):
            if len(terms) < 3:  # at most one add, which reduces by gcd(D_1, D_2) only
                return dot(self, u, v, start)
            m, L, nums = _clear([
                _ratfunc(a.p * b.p, a.q * b.q, polys.mul(ZZ, a.N, b.N), polys.mul(ZZ, a.D, b.D))
                for a, b in terms
            ])
            return _canonical(1, m, functools.reduce(functools.partial(polys.add, ZZ), nums), L)
        Q = math.lcm(*[a.q * b.q for a, b in terms])
        acc = []
        for a, b in terms:
            top = len(a.N) + len(b.N) - 1
            if len(acc) < top:
                acc.extend([0] * (top - len(acc)))
            polys.add_mul(acc, Q // (a.q * b.q) * a.p * b.p, a.N, b.N)
        return _scaled(1, Q, polys.normalize(ZZ, acc))

    def inv(self, a: RatFunc) -> RatFunc:
        if not self.is_invertible(a):
            raise NotInvertibleError(f"not a unit in {self.kind}")
        if a.p < 0:
            return _ratfunc(-a.q, -a.p, a.D, a.N)
        return _ratfunc(a.q, a.p, a.D, a.N)

    def derive(self, a: RatFunc) -> RatFunc:
        """d(a).  With (h, D1, E) = gcd(D, D'), so that D = h D1 and
        D' = h E, d(c N/D) = c (N' D1 - N E)/(D1 D), which in
        characteristic 0 is already reduced: a prime factor of D divides
        D1 once and divides neither N nor E.  D1 D is primitive by Gauss's
        lemma, so only the numerator's content is left to take out."""
        if len(a.D) == 1:
            return _scaled(a.p, a.q, polys.derive(ZZ, a.N))
        _, D1, E = polys.gcd(ZZ, a.D, polys.derive(ZZ, a.D))
        num = polys.sub(
            ZZ, polys.mul(ZZ, polys.derive(ZZ, a.N), D1), polys.mul(ZZ, a.N, E)
        )
        return _scaled(a.p, a.q, num, polys.mul(ZZ, D1, a.D))

    def from_int(self, n: int) -> RatFunc:
        return _ratfunc(n, 1, _ONE, _ONE) if n else self.zero

    def from_fraction(self, q: Fraction) -> RatFunc:
        if not q:
            return self.zero
        return _ratfunc(q.numerator, q.denominator, _ONE, _ONE)

    def from_integer_poly(self, coeffs) -> RatFunc:
        return _scaled(1, 1, coeffs)

    def integer_iterates(self, g1, s_max: int):
        """(m, [A_1, ..., A_{s_max}]) for a polynomial g1 (every entry with
        D = (1,)): the iterated matrices of G_{s+1} = d(G_s) + G_s G_1
        written as G_s = A_s/m^s, every A_s over Z[x].

        :func:`_clear` writes G_1 once as A/m with A over Z[x].  Then
        A_1 = A and A_{s+1} = m A_s' + A_s A, since d(A_s/m^s) = A_s'/m^s.
        Each step takes one packed product A_s A (:func:`_zx_mat_mul`),
        and each entry m A_s' + (A_s A) is taken in one pass over its
        ints.  A g1 with a denominator is refused: its iterates carry
        powers of that denominator, which this recurrence does not.
        """
        n = len(g1)
        m, L, flat = _clear([x for row in g1 for x in row])
        if L != _ONE:
            raise PreconditionError("integer iterates need a polynomial connection matrix")
        A = [flat[i * n:(i + 1) * n] for i in range(n)]

        def step(f, p):
            """m f' + p: an entry of A_{s+1} from A_s and A_s A, in one pass over f."""
            acc = list(p)
            acc += [0] * (len(f) - 1 - len(acc))
            for i in range(1, len(f)):
                acc[i - 1] += m * i * f[i]
            return polys.normalize(ZZ, acc)

        out = [A] if s_max else []
        for _ in range(1, s_max):
            prod = _zx_mat_mul(out[-1], A)
            out.append([[step(f, p) for f, p in zip(row, prow)]
                        for row, prow in zip(out[-1], prod)])
        return m, out

    def iterated_matrices(self, g1, s_max: int):
        """[G_0, ..., G_{s_max}] as :meth:`Ring.iterated_matrices` gives them.
        A polynomial g1 with s_max >= 2 takes :meth:`integer_iterates` and
        one scaled form per entry; s_max < 2, or a g1 with a denominator,
        takes the nabla loop of :class:`Ring`."""
        if s_max < 2 or any(len(x.D) > 1 for row in g1 for x in row):
            return super().iterated_matrices(g1, s_max)
        m, As = self.integer_iterates(g1, s_max)
        out = [linalg.identity(self, len(g1)), linalg.freeze(g1)]
        for s, A_s in enumerate(As[1:], 2):
            out.append(tuple(tuple(_scaled(1, m ** s, f) for f in row) for row in A_s))
        return out

    def xdet(self, h):
        """det h for a square matrix h over ring[X]: x is packed into
        integers by Kronecker substitution (von zur Gathen & Gerhard,
        *Modern Computer Algebra*, 8.4), and X is evaluated at e + 1
        small integers and interpolated exactly (ibid., ch. 5).

        :func:`_clear` multiplies row i by m_i L_i, the lcm m_i of its
        scales' denominators times the lcm L_i of its denominators D, so
        that its entries lie in Z[x][X].  B = prod_i sum_j |h_ij|_1
        bounds every coefficient of det, each of whose n! terms is a
        product of one entry per row, so with k = bitlen(B) + 1 the
        packing x -> 2^k is exact.  e = sum_i max_j deg_X h_ij bounds
        deg_X det, so det is fixed by its values y_t at the points of
        :func:`_interpolation`: one ``linalg.det`` over the vectors of
        each entry's packed values (:class:`_Values`), and the table's
        exact division by L gives each X^l coefficient at x = 2^k.
        Over prod_i m_i L_i that is det h: one canonical form per
        coefficient, and no gcd during the elimination.

        Packing X as well, at X -> 2^(k (deg_x det + 1)), made at rank 5
        one determinant of integers of ~10,000 bits with a value of
        ~60,000; the values make e + 1 = 21 determinants of integers of
        ~800 bits with values of ~2,400, which take a quarter of the time.
        """
        scale, den = 1, _ONE
        bound, e = 1, 0
        cleared = []
        for row in h:
            m, L, flat = _clear([a for f in row for a in f])
            bound *= sum(map(abs, itertools.chain.from_iterable(flat)))
            e += max(map(len, row)) - 1
            scale *= m
            if L != _ONE:
                den = polys.mul(ZZ, den, L)
            cleared.append((row, flat))
        if not bound:  # a zero row
            return ()
        k = bound.bit_length() + 1
        values, weights, lcm = _interpolation(e)
        rows = []
        for row, flat in cleared:
            packed = iter([polys.pack(N, k) for N in flat])
            rows.append([values.at(list(itertools.islice(packed, len(f)))) for f in row])
        y = linalg.det(values, rows)
        coeffs = [sum(map(operator.mul, w, y)) // lcm for w in weights]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(_canonical(1, scale, polys.unpack(v, k), den) for v in coeffs)

    def antiderivative(self, a: RatFunc):
        if len(a.D) > 1:
            return None  # no rational antiderivative in general
        # c * sum N_i t^(i+1)/(i+1) = (c/m) * sum N_i (m/(i+1)) t^(i+1)
        m = math.lcm(*range(1, len(a.N) + 1))
        num = (0,) + tuple(n * (m // (i + 1)) for i, n in enumerate(a.N))
        return _scaled(a.p, a.q * m, num)

    def is_constant(self, a: RatFunc) -> bool:
        return len(a.N) <= 1 and len(a.D) == 1

    def degree(self, a: RatFunc) -> int:
        """The larger of the numerator's and the denominator's degree."""
        return -1 if not a.p else max(len(a.N), len(a.D)) - 1

    def to_str(self, a: RatFunc) -> str:
        """The canonical string.  With integer coefficients (q D[-1] = 1)
        the numerator prints from the ints p N_i, and a monic denominator
        from D itself, both through the ZZ branch of ``polys.to_str``,
        with no Fraction built; QQ prints only Fraction coefficients."""
        lead = a.D[-1]
        if a.q * lead == 1:
            num = polys.to_str(ZZ, a.N if a.p == 1 else [a.p * c for c in a.N], self.variable)
        else:
            num = polys.to_str(QQ, a.num, self.variable)
        if len(a.D) == 1:
            return num
        if lead == 1:
            den = polys.to_str(ZZ, a.D, self.variable)
        else:
            den = polys.to_str(QQ, a.den, self.variable)
        return f"({num})/({den})"


class RationalFunctionField(_IntegerCoreRing):
    """Q(x) with d = d/dx; the distinguished element t is x itself, and
    every nonzero element is a unit."""

    kind = "rational_function"
    is_field = True

    def is_invertible(self, a: RatFunc) -> bool:
        return not self.is_zero(a)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "variable": self.variable}


class GaussPolynomialRing(_IntegerCoreRing):
    """Q[t] with the p-adic Gauss norm |sum a_i t^i| = max |a_i|_p p^(-r i).

    Models a Tate algebra of radius p^(-r); the norm is multiplicative.
    Units are the nonzero rational constants.  An element is c * N with
    N primitive in Z[t] (a :class:`RatFunc` with D = (1,)), so every
    operation takes the constant-denominator branch of the shared
    arithmetic, and none takes a gcd of polynomials.  The witness routine
    :meth:`katz_vector_at_t` and :meth:`lemma_norms` are Q[t]'s own: they
    read the integer iterates, which every G_1 over Q[t] has.
    """

    kind = "gauss_padic"
    is_banach = True

    def __init__(self, p: int, radius_exp: int = 0, variable: str = "t"):
        if radius_exp < 0:
            raise PreconditionError("radius exponent must be >= 0")
        if not is_prime(p):
            raise PreconditionError(f"p = {p} is not prime")
        super().__init__(variable)
        self.prime = p
        self.radius_exp = radius_exp

    def is_invertible(self, a: RatFunc) -> bool:
        return len(a.N) == 1

    def norm(self, a: RatFunc) -> NormValue:
        # |c N| = |c|_p |N| for the scale c = a.p/a.q; N is primitive, so
        # at r = 0 its norm is 1
        p = self.prime
        if not a.p:
            return NormValue.zero(p)
        exp = padic_valuation(a.q, p) - padic_valuation(a.p, p)
        if self.radius_exp:
            exp += self._scan_exp(a.N)
        return NormValue(p, exp)

    def _scan_exp(self, N, g: int = 1) -> int:
        """The exponent of |N/g| = max_i |N_i/g|_p p^(-r i) for r > 0, a
        nonzero N in Z[t] and g dividing every N_i.  The term at i is at
        most -r i, so the scan stops once that is no larger than the best
        term so far."""
        p, r = self.prime, self.radius_exp
        best = None
        for i, n in enumerate(N):
            if best is not None and -r * i <= best:
                break
            if n:
                term = -padic_valuation(n // g, p) - r * i
                if best is None or term > best:
                    best = term
        return best

    def lemma_norms(self, g1, factors, k: int):
        """([|F_1 G_1|, ..., |F_S G_S|], iterates) for the S matrices F_s
        of ``factors``, with |a| = max_ij |a_ij| p^(k (j - i)), G_s the
        iterated matrices of g1 and iterates = ``integer_iterates(g1, S)``,
        which :meth:`katz_vector_at_t` reads for Katz's candidate.

        Row i of F_s has entries (p_l/q_l) N_l; with m_i the lcm of their
        q_l and G_s = A_s/m^s,

            (F_s G_s)_ij = sum_l (m_i/q_l) p_l N_l A_s[l][j] / (m_i m^s),

        and the integer numerator is summed by ``polys.add_mul`` into one
        list of ints, which skips N_l's zero coefficients, so a monomial
        factor costs one pass over A_s[l][j].  Each entry's exponent is
        that of the numerator plus v_p(m_i) + s v_p(m) + k (j - i), and
        no G_s, product entry or norm is put in canonical form.
        """
        p, r = self.prime, self.radius_exp
        iterates = self.integer_iterates(g1, len(factors))
        m, As = iterates
        vm = padic_valuation(m, p)
        out = []
        for s, (F, A_s) in enumerate(zip(factors, As), 1):
            width = max(len(f) for row in A_s for f in row)
            best = None
            for i, row in enumerate(F):
                nonzero = [(l, a) for l, a in enumerate(row) if a.p]
                mi = math.lcm(*[a.q for _, a in nonzero])
                terms = [(mi // a.q * a.p, a.N, A_s[l]) for l, a in nonzero]
                size = max([len(N) for _, N, _ in terms], default=0) + width - 1
                shift = padic_valuation(mi, p) + s * vm - k * i
                for j in range(len(A_s[0])):
                    acc = [0] * size
                    for c, N, A_row in terms:
                        polys.add_mul(acc, c, N, A_row[j])
                    # |acc| = |g|_p |acc/g| for acc's content g, and |acc/g| = 1 at r = 0
                    g = math.gcd(*acc)
                    if g:
                        e = shift + k * j - padic_valuation(g, p)
                        if r:
                            e += self._scan_exp(acc, g)
                        if best is None or e > best:
                            best = e
            out.append(NormValue(p, best))
        return out, iterates

    def katz_vector_at_t(self, n: int, iterates):
        """The witness: the coordinates of Katz's candidate at X := t,
        c(e, t) = sum_j t^j/j! sum_k (-1)^k C(j, k) (row j - k of G_k),
        from ``iterates`` = (m, [A_1, ...]) of :meth:`integer_iterates`
        with at least n - 1 matrices.

        With G_0 = Id = A_0 and G_k = A_k/m^k, coordinate i times
        (n-1)! m^(n-1) is the integer polynomial

            sum_{j, k} (-1)^k C(j, k) (n-1)!/j! m^(n-1-k) t^j A_k[j-k][i],

        so each coordinate takes one scaled form, and no G_k is built.
        """
        m, As = iterates
        top = n - 1
        acc = [[] for _ in range(n)]
        for j in range(n):
            fj = math.factorial(top) // math.factorial(j)
            for k in range(j + 1):
                c = (-1) ** k * math.comb(j, k) * fj * m ** (top - k)
                # (i, coordinate i of row j - k of A_k), with A_0 = Id
                terms = enumerate(As[k - 1][j - k]) if k else [(j, _ONE)]
                for i, f in terms:
                    if not f:
                        continue
                    a = acc[i]
                    if len(a) < j + len(f):
                        a.extend([0] * (j + len(f) - len(a)))
                    for e, x in enumerate(f, j):  # c t^j f
                        a[e] += c * x
        den = math.factorial(top) * m ** top
        return tuple(_scaled(1, den, polys.normalize(ZZ, a)) for a in acc)

    def derivation_norm(self) -> NormValue:
        # |d(t^i)| / |t^i| = |i|_p * p^r, maximal at i = 1.
        return NormValue(self.prime, self.radius_exp)

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "variable": self.variable,
            "p": self.prime,
            "radius_exp": self.radius_exp,
        }


class FiniteFieldPolyRing(Ring):
    """F_q[x] with d = d/dx, q = p^e.  Characteristic p; no norm.

    Elements are coefficient tuples over :class:`~katzcyclic.fields.FiniteField`
    as in :mod:`katzcyclic.polys`; the distinguished element t is x
    itself and the units are the nonzero constants.
    """

    kind = "finite_field_poly"

    def __init__(self, p: int, e: int = 1, variable: str = "x"):
        self.field = FiniteField(p, e)
        if e > 1 and variable == "g":
            raise PreconditionError("the variable of F_q[x] cannot be g, the generator of F_q")
        self.generator = ((0, 1) + (0,) * (e - 2),) if e > 1 else None
        self.characteristic = p
        self.prime = p
        self.q_exp = e
        self.variable = variable
        self.zero = ()
        self.one = (self.field.one,)
        self.t = (self.field.zero, self.field.one)
        self.var_element = self.t

    def add(self, a, b):
        return polys.add(self.field, a, b)

    def neg(self, a):
        return polys.neg(self.field, a)

    def mul(self, a, b):
        return polys.mul(self.field, a, b)

    def from_int(self, n: int):
        return polys.const(self.field, self.field.from_int(n))

    def from_fraction(self, q: Fraction):
        return polys.const(self.field, self.field.from_fraction(q))

    def from_integer_poly(self, coeffs):
        field = self.field
        return polys.normalize(field, [field.from_int(c) for c in coeffs])

    def is_invertible(self, a) -> bool:
        return polys.degree(a) == 0

    def inv(self, a):
        if not self.is_invertible(a):
            raise NotInvertibleError(f"only nonzero constants are units in {self.kind}")
        return (self.field.inv(a[0]),)

    def derive(self, a):
        return polys.derive(self.field, a)

    def degree(self, a) -> int:
        return polys.degree(a)

    def antiderivative(self, a):
        K = self.field
        coeffs = [K.zero]
        for i, c in enumerate(a):
            denom = K.from_int(i + 1)
            if K.is_zero(denom):
                if not K.is_zero(c):
                    return None  # x^i has no antiderivative when p | i+1
                coeffs.append(K.zero)
            else:
                coeffs.append(K.div(c, denom))
        return polys.normalize(K, coeffs)

    def to_str(self, a) -> str:
        return polys.to_str(self.field, a, self.variable)

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "variable": self.variable,
            "p": self.prime,
            "q_exp": self.q_exp,
        }


class ScaledDerivationRing(Ring):
    """Same underlying ring as ``base`` but with derivation f * d.

    Used for derivation rescaling: a unit f turns (B, d) into (B, f*d).
    The distinguished element is re-solved from f*d(t') = 1 when an
    antiderivative of 1/f exists; otherwise accessing ``t`` raises.
    """

    def __init__(self, base: Ring, f):
        if not base.is_invertible(f):
            raise NotInvertibleError("scaling element must be invertible")
        self.base = base
        self.factor = f
        self.kind = f"scaled:{base.kind}"
        self.variable = base.variable
        self.characteristic = base.characteristic
        self.is_banach = base.is_banach
        self.is_field = base.is_field
        self.prime = base.prime
        self.generator = base.generator
        self.zero = base.zero
        self.one = base.one
        self.var_element = base.var_element
        self._t = self.antiderivative(base.one)

    @property
    def t(self):
        if self._t is None:
            raise UnsupportedOperationError(
                "no element with rescaled derivative 1 exists in this ring"
            )
        return self._t

    def add(self, a, b):
        return self.base.add(a, b)

    def neg(self, a):
        return self.base.neg(a)

    def mul(self, a, b):
        return self.base.mul(a, b)

    def pow(self, a, k: int):
        return self.base.pow(a, k)

    def dot(self, u, v, start=None):
        return self.base.dot(u, v, start)

    def xdet(self, h):
        # A determinant does not read the derivation.
        return self.base.xdet(h)

    def from_int(self, n):
        return self.base.from_int(n)

    def from_fraction(self, q):
        return self.base.from_fraction(q)

    def from_integer_poly(self, coeffs):
        return self.base.from_integer_poly(coeffs)

    def is_invertible(self, a):
        return self.base.is_invertible(a)

    def inv(self, a):
        return self.base.inv(a)

    def derive(self, a):
        return self.base.mul(self.factor, self.base.derive(a))

    def degree(self, a) -> int:
        return self.base.degree(a)

    def antiderivative(self, a):
        """F with f d(F) = a: the base's antiderivative of a/f."""
        base = self.base
        return base.antiderivative(base.mul(a, base.inv(self.factor)))

    def norm(self, a) -> NormValue:
        return self.base.norm(a)

    def derivation_norm(self) -> NormValue:
        # |f d| = |f| |d| for the multiplicative Gauss norm with f a unit
        return self.base.norm(self.factor) * self.base.derivation_norm()

    def to_str(self, a) -> str:
        return self.base.to_str(a)

    def descriptor(self) -> dict:
        d = dict(self.base.descriptor())
        d["scaled_by"] = self.base.to_str(self.factor)
        return d


# The keys each kind reads, with their types; bool is rejected where int is due.
_DESCRIPTOR_KEYS = {
    "rational_function": {"kind": str, "variable": str},
    "gauss_padic": {"kind": str, "variable": str, "p": int, "radius_exp": int},
    "finite_field_poly": {"kind": str, "variable": str, "p": int, "q_exp": int},
}


def ring_from_json(desc: dict) -> Ring:
    """Build a ring from its JSON descriptor fragment.  A key that its
    kind does not read is refused, so no descriptor reads back as another
    ring (a rescaled ring's ``scaled_by``, say, as its base)."""
    if not isinstance(desc, dict):
        raise PreconditionError(f"ring descriptor must be an object, got {desc!r}")
    kind = desc.get("kind")
    keys = _DESCRIPTOR_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise PreconditionError(f"unknown ring kind: {kind!r}")
    for key, value in desc.items():
        if key not in keys:
            raise PreconditionError(f"ring descriptor of kind '{kind}' has unknown key '{key}'")
        if type(value) is not keys[key]:
            raise PreconditionError(
                f"ring field '{key}' must be of type {keys[key].__name__}, got {value!r}"
            )
    variable = desc.get("variable", "x")
    if not (variable.isidentifier() and variable.isascii()):
        raise PreconditionError(f"ring variable {variable!r} must match [A-Za-z_][A-Za-z_0-9]*")
    if "p" in keys and "p" not in desc:
        raise PreconditionError(f"ring descriptor of kind '{kind}' lacks key 'p'")
    if kind == "rational_function":
        return RationalFunctionField(variable)
    if kind == "gauss_padic":
        return GaussPolynomialRing(desc["p"], desc.get("radius_exp", 0), desc.get("variable", "t"))
    return FiniteFieldPolyRing(desc["p"], desc.get("q_exp", 1), variable)
