"""Polynomials in a formal variable X over an arbitrary ring.

X is the auxiliary variable of the Katz construction: the base
derivation is extended by d(X) = 1, so the derivative of sum c_j X^j is
sum d(c_j) X^j + sum j c_j X^(j-1).  Keeping X distinct from the ring's
own variable makes this bookkeeping explicit; substitution X := t - a
(``specialize``) is the only bridge back into the ring.

An XPoly is a tuple of ring elements, lowest X-degree first, no
trailing zeros: the dense representation of :mod:`katzcyclic.polys`,
whose helpers take any ring protocol as coefficient domain.  The
arithmetic (``normalize``, ``const``, ``degree``, ``is_zero``, ``add``,
``scale``, ``eq``) is therefore re-exported from there;
only the derivation, evaluation and substitution are specific to B[X].
``mul`` stays a function defined here, delegating to ``polys.mul``, so
that products in B[X] remain countable apart from products in K[x].
"""

from __future__ import annotations

from typing import Tuple

from . import fields, polys
from .errors import PreconditionError
from .polys import add, const, degree, eq, is_zero, normalize, scale

XPoly = Tuple


def mul(ring, f: XPoly, g: XPoly) -> XPoly:
    return polys.mul(ring, f, g)


def derive(ring, f: XPoly) -> XPoly:
    """Derivative for the extended derivation with d(X) = 1."""
    out = [ring.derive(c) for c in f]
    for i in range(1, len(f)):
        out[i - 1] = ring.add(out[i - 1], ring.mul(ring.from_int(i), f[i]))
    return normalize(ring, out)


def eval_at(ring, f: XPoly, value):
    """Horner evaluation of f at a ring element."""
    acc = ring.zero
    for c in reversed(f):
        acc = ring.add(ring.mul(acc, value), c)
    return acc


def specialize(ring, f: XPoly, a):
    """Substitute X := t - a, with a a constant (d(a) = 0).

    The substituted element still has derivative 1 under d, so
    specialization commutes with the connection.
    """
    if not ring.is_constant(a):
        raise PreconditionError("specialization point must be a constant")
    return eval_at(ring, f, ring.sub(ring.t, a))


class XPolyRing:
    """Ring-protocol adapter for ring[X], so matrices of X-polynomials can
    reuse the generic linear algebra helpers.

    It supplies what its callers read: ``is_zero``, ``neg`` and ``dot``
    for ``linalg.det`` (:meth:`Ring.xdet <katzcyclic.rings.Ring.xdet>`,
    which only F_q[x] reaches: Q(x) and Q[t] take their determinant on
    integers, and a rescaled ring takes its base's),
    ``dot`` and ``derive`` with d(X) = 1 for the nabla-family of
    :func:`katzcyclic.katz.assemble_h`, the ``zero``, ``add`` and ``mul``
    that its ``dot`` loops over, and ``one``, ``from_int`` and ``eq`` for
    the tests."""

    def __init__(self, base):
        self.base = base
        self.zero: XPoly = ()
        self.one: XPoly = (base.one,)

    def add(self, f, g):
        return add(self.base, f, g)

    def neg(self, f):
        return polys.neg(self.base, f)

    def mul(self, f, g):
        return mul(self.base, f, g)

    def dot(self, u, v, start=None):
        return fields.dot(self, u, v, start)

    def is_zero(self, f) -> bool:
        return is_zero(f)

    def eq(self, f, g) -> bool:
        return eq(self.base, f, g)

    def from_int(self, n: int):
        return const(self.base, self.base.from_int(n))

    def derive(self, f):
        return derive(self.base, f)
