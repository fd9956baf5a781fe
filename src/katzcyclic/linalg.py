"""Matrices and row vectors over a ring.

Matrices are tuples of tuples of ring elements; rows/vectors are tuples.
Every entry that is a sum of products is one ``ring.dot`` (see
:meth:`katzcyclic.rings.Ring.dot`): an entry of ``mat_mul``, and each
minor of the table below, whose terms are the nonzero entries of its
first column, negated at odd positions, times their cofactors.

``det`` and ``solve_left`` read one private table of minors, the
package's one elimination routine: cofactor expansion along the first
column, which never divides, so it works over any commutative ring and
makes no gcd.  Each minor on the trailing columns is named by the bitmask
of its rows and computed once, in the plain expansion's order, so every
ring gets the same result.  ``det`` takes n 2^(n-1) - n products (1,016
at n = 8, where the plain expansion takes about 69,280).  ``solve_left``
is Cramer's rule on one table over the rows [a; b] with one inversion:
(n+1)(2^n - 2) + n products (2,294 at n = 8, where n + 1 determinants
take (n+1) n (2^(n-1) - 1) + n = 9,152).  ``det`` can hand its table
to ``solve_left`` on the same matrix, which then takes only the minors
that hold b: (n+1)(2^n - 2) + n - (n 2^(n-1) - n) products (18 at
n = 3, 1,278 at n = 8).  Fraction-free Bareiss elimination was
rejected: its exact divisions cost two gcds each in Q(x), which made
det H(X) over Q(x)[X] about 1.5x slower.

Which routines of Q(x) and Q[t] pack their products into integers
instead is :mod:`katzcyclic.rings`'s decision; their integer products
come back here over :data:`~katzcyclic.fields.ZZ`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .errors import NotInvertibleError

Matrix = Tuple[Tuple, ...]
Row = Tuple


def freeze(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def identity(ring, n: int) -> Matrix:
    return tuple(
        tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n)
    )


def zeros(ring, n: int) -> Matrix:
    return tuple(tuple(ring.zero for _ in range(n)) for _ in range(n))


def mat_sub(ring, a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(ring.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_mul(ring, a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(ring.dot(row, col) for col in cols) for row in a)


def mat_scale(ring, c, a: Matrix) -> Matrix:
    return tuple(tuple(ring.mul(c, x) for x in row) for row in a)


def row_add(ring, a: Row, b: Row) -> Row:
    return tuple(ring.add(x, y) for x, y in zip(a, b))


def row_scale(ring, c, a: Row) -> Row:
    return tuple(ring.mul(c, x) for x in a)


def _minors(ring, rows: Sequence[Row], table: Optional[dict] = None):
    """The minor of ``rows`` on the trailing columns, as a function of
    the bitmask of its rows, each minor computed once and kept in
    ``table`` (a fresh one by default), which may already hold minors of
    these rows.  A minor is one ``ring.dot`` of the nonzero entries of
    its first column, negated at odd positions, with their cofactors."""
    cols = len(rows[0])
    if table is None:
        table = {}

    def minor(mask: int):
        col = cols - mask.bit_count()
        if col == cols - 1:
            return rows[mask.bit_length() - 1][col]
        acc = table.get(mask)
        if acc is not None:
            return acc
        entries, cofactors = [], []
        odd = False
        for i in range(len(rows)):
            if not mask >> i & 1:
                continue
            x = rows[i][col]
            if not ring.is_zero(x):
                entries.append(ring.neg(x) if odd else x)
                cofactors.append(minor(mask & ~(1 << i)))
            odd = not odd
        acc = table[mask] = ring.dot(entries, cofactors)
        return acc

    return minor


def det(ring, a: Matrix, minors: Optional[dict] = None):
    """Determinant: the minor of the table on all of the rows.  A dict
    passed as ``minors`` is filled with the table, keyed by the bitmask
    of the rows of each minor, for :func:`solve_left` to start from."""
    return _minors(ring, a, minors)((1 << len(a)) - 1)


def solve_left(ring, a: Matrix, b: Row, minors: Optional[dict] = None) -> Row:
    """Solve x * a = b over a field (a square) by Cramer's rule on one
    table over the rows [a; b]: d = det a, and x_i = (-1)^(n-1-i)
    minor(rows of a but i, and b) / d, as b moves n - 1 - i rows down.

    ``minors``, the table that :func:`det` filled for this same ``a``,
    seeds the table, so that det a and its sub-minors are not taken
    again; it is read, not changed."""
    n = len(a)
    minor = _minors(ring, tuple(a) + (tuple(b),), dict(minors) if minors else None)
    full = (1 << n) - 1
    d = minor(full)
    if ring.is_zero(d):
        raise NotInvertibleError("singular matrix in linear solve")
    inv = ring.inv(d)
    signed = (inv, ring.neg(inv))
    return tuple(
        ring.mul(minor(full & ~(1 << i) | 1 << n), signed[(n - 1 - i) % 2])
        for i in range(n)
    )
