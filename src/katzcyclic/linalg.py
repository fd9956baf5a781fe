"""Matrices and row vectors over a ring.

Matrices are tuples of tuples of ring elements; rows/vectors are tuples.
``det`` is the package's one elimination routine: cofactor expansion
along the first column, which never divides, so it works over any
commutative ring and on polynomial entries makes no gcd.  Each minor on
the trailing columns is named by the bitmask of its rows and computed
once, which takes n * 2^(n-1) - n products, where the plain expansion
takes about (e-1) * n! (1,016 against 69,280 at n = 8); the products
and sums are those of the plain expansion, in the same order, so every
ring gets the same result.  ``solve_left`` is Cramer's rule over ``det``
with a single field inversion.  Fraction-free Bareiss elimination was
measured as the alternative and rejected: each of its exact divisions
costs two gcds in Q(x), which made P(X) = det H(X) over Q(x)[X] about
1.5x slower.

``mat_mul`` defers to the ring's own ``mat_mul`` where it has one: Q(x)
and Q[t] take the product as one Kronecker-packed product of integer
matrices (:meth:`~katzcyclic.rings.RationalFunctionField.mat_mul`),
which comes back here over :data:`~katzcyclic.fields.ZZ`.  So does
each step of their iterated matrices G_s
(:meth:`~katzcyclic.rings.RationalFunctionField.iterated_matrices`),
through the same packed kernel.  F_q[x], ring[X], the scaled-derivation
rings and ZZ itself take the entry-wise loop.
"""

from __future__ import annotations

from typing import Sequence, Tuple

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


def mat_add(ring, a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(ring.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_sub(ring, a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(ring.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_mul(ring, a: Matrix, b: Matrix) -> Matrix:
    packed = getattr(ring, "mat_mul", None)
    if packed is not None:
        return packed(a, b)
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ring.zero
            for l in range(k):
                acc = ring.add(acc, ring.mul(a[i][l], b[l][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_scale(ring, c, a: Matrix) -> Matrix:
    return tuple(tuple(ring.mul(c, x) for x in row) for row in a)


def mat_derive(ring, a: Matrix) -> Matrix:
    return tuple(tuple(ring.derive(x) for x in row) for row in a)


def mat_eq(ring, a: Matrix, b: Matrix) -> bool:
    return all(
        ring.eq(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def row_add(ring, a: Row, b: Row) -> Row:
    return tuple(ring.add(x, y) for x, y in zip(a, b))


def row_sub(ring, a: Row, b: Row) -> Row:
    return tuple(ring.sub(x, y) for x, y in zip(a, b))


def row_scale(ring, c, a: Row) -> Row:
    return tuple(ring.mul(c, x) for x in a)


def row_derive(ring, a: Row) -> Row:
    return tuple(ring.derive(x) for x in a)


def row_mat_mul(ring, v: Row, a: Matrix) -> Row:
    out = []
    for j in range(len(a[0])):
        acc = ring.zero
        for i in range(len(v)):
            acc = ring.add(acc, ring.mul(v[i], a[i][j]))
        out.append(acc)
    return tuple(out)


def det(ring, a: Matrix):
    """Determinant by cofactor expansion along the first column, each
    minor computed once.

    The minor on the trailing columns k..n-1 is named by the bitmask of
    its n - k rows and stored the first time it is reached, so the
    expansion takes n * 2^(n-1) - n products instead of about (e-1) * n!.
    """
    n = len(a)
    minors = {}

    def minor(rows: int):
        col = n - rows.bit_count()
        if col == n - 1:
            return a[rows.bit_length() - 1][col]
        acc = minors.get(rows)
        if acc is not None:
            return acc
        acc = ring.zero
        sign = 0
        for i in range(n):
            if not rows >> i & 1:
                continue
            if not ring.is_zero(a[i][col]):
                cof = ring.mul(a[i][col], minor(rows & ~(1 << i)))
                acc = ring.sub(acc, cof) if sign else ring.add(acc, cof)
            sign ^= 1
        minors[rows] = acc
        return acc

    return minor((1 << n) - 1)


def solve_left(ring, a: Matrix, b: Row) -> Row:
    """Solve x * a = b over a field (a square) by Cramer's rule:
    x_i = det(a with row i replaced by b) / det(a)."""
    d = det(ring, a)
    if ring.is_zero(d):
        raise NotInvertibleError("singular matrix in linear solve")
    inv = ring.inv(d)
    return tuple(
        ring.mul(det(ring, [b if k == i else row for k, row in enumerate(a)]), inv)
        for i in range(len(a))
    )
