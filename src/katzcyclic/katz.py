"""The explicit cyclic vector construction.

The candidate vector c(e, X) = sum_j (X^j / j!) sum_k (-1)^k C(j,k)
nabla^k(e_{j-k}) has the property that the rows of the base-change
matrix H(X) = sum_s H_s(X) G_s give the coordinates of its iterated
derivatives nabla^i(c) in the basis e.  The universal matrices H_s(X)
have monomial entries alpha(s;i,j) X^(s+j-i)/(s+j-i)! with integer
alpha, and det H(X) =: P(X) satisfies P(0) = 1 and deg P <= n(n-1), so
specializing X := t - a at n(n-1)+1 distinct constants a must hit a
nonzero determinant over a field.  H(0) = Id, so c, held as its n
X-coefficient rows, is the inversion formula of
:func:`invert_coefficients` on e; both read one private sum.

``assemble_h`` builds H(X) from that identity, as the family c,
nabla(c), ..., nabla^(n-1)(c) of :func:`~katzcyclic.diffmod.nabla_family`
over ring[X] with d extended by d(X) = 1, which needs only G_0 .. G_{n-1}
and no product H_s G_s.  The same family gives the cyclic basis at
X := t - a (``find_cyclic``, after the one evaluation
``specialize_vector``) and H(t) in ultranorm.  ``find_cyclic`` hands
the family it tested on to ``companion_form``, with the table of minors
its determinant filled, and ``companion_form`` takes one more nabla
step and solves from that table, so the cyclic path builds each family
and each of its minors once.

The tables H_s(X) (:func:`h_matrix`) and H_0(-X) H_s(X)
(:func:`lemma_table`, the factor of G_s in lemma 2.1) depend on (s, n)
alone: each is built once per process, in a bounded cache, and shared
by every module of that rank; :func:`h_matrix_at` evaluates either kind
at a ring element through one table of powers.

Over Q(x) and Q[t], ``base_change`` takes P(X) as one determinant over
vectors of Kronecker-packed integers, the values of H(X) at small
integer points, interpolated exactly, as derived in
:meth:`~katzcyclic.rings._IntegerCoreRing.xdet`.  A scaled-derivation
ring takes its base's; F_q[x] takes det H(X) over ring[X].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import linalg, polys, xpoly
from .diffmod import (
    DifferentialModule,
    apply_nabla,
    check_factorial_invertible,
    is_basis,
    iterated_matrices,
    nabla_family,
)
from .errors import (
    InternalConsistencyError,
    NotInvertibleError,
    PreconditionError,
    UnsupportedOperationError,
)
from .fields import QQ
from .linalg import Matrix, Row
from .xpoly import XPoly, XPolyRing

QXPoly = Tuple[Fraction, ...]  # element of Q[X], dense
QXTable = Tuple[Tuple[QXPoly, ...], ...]  # n x n matrix over Q[X]


def _check_indices(s: int, i: int, j: int, n: int) -> None:
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if not (0 <= i <= n - 1 and 0 <= j <= n - 1):
        raise PreconditionError(f"indices i={i}, j={j} out of range for n={n}")
    if not (0 <= s <= 2 * n - 2):
        raise PreconditionError(f"s={s} out of range [0, {2 * n - 2}]")


def epsilon(s: int, i: int, j: int, n: int) -> int:
    """Support indicator of the universal base-change entries."""
    _check_indices(s, i, j, n)
    if not (0 <= s <= n - 1 + i):
        return 0
    if not (max(0, i - s) <= j <= min(n - 1, n - 1 + i - s)):
        return 0
    return 1


def alpha(s: int, i: int, j: int, n: int) -> int:
    """Integer coefficient of the universal base-change entry (s; i, j)."""
    if epsilon(s, i, j, n) == 0:
        return 0
    lo = max(0, s + j - (n - 1))
    hi = min(i, s)
    total = 0
    for k in range(lo, hi + 1):
        # (-1)^(s+k) == (-1)^(s-k)
        sign = -1 if (s + k) % 2 else 1
        total += sign * math.comb(s - k + j, j) * math.comb(i, k)
    return total


def h_entry(s: int, i: int, j: int, n: int) -> QXPoly:
    """The Q[X] entry alpha(s;i,j) * X^(s+j-i) / (s+j-i)!."""
    a = alpha(s, i, j, n)
    if a == 0:
        return ()
    m = s + j - i
    coeff = Fraction(a, math.factorial(m))
    return tuple([Fraction(0)] * m + [coeff])


def _check_table(s: int, n: int) -> None:
    if not (isinstance(s, int) and isinstance(n, int)):
        raise PreconditionError("s and n must be integers")
    _check_indices(s, 0, 0, n)


# The tables depend on (s, n) alone, so each is built once per process.
# 128 entries hold every table of both kinds up to rank 8 (2n - 1 per n).
@functools.lru_cache(maxsize=128)
def _h_table(s: int, n: int) -> QXTable:
    return tuple(tuple(h_entry(s, i, j, n) for j in range(n)) for i in range(n))


@functools.lru_cache(maxsize=128)
def _lemma_table(s: int, n: int) -> QXTable:
    # H_0(-X) has the entries (-X)^(k-i)/(k-i)! for k >= i, so entry
    # (i, j) of H_0(-X) H_s(X) is beta X^m / m! with m = s + j - i and
    # the integer beta = sum_{k >= i} (-1)^(k-i) C(m, k-i) alpha(s;k,j).
    a = [[alpha(s, k, j, n) for j in range(n)] for k in range(n)]

    def entry(i: int, j: int) -> QXPoly:
        m = s + j - i
        beta = sum(
            (-1 if (k - i) % 2 else 1) * math.comb(m, k - i) * a[k][j]
            for k in range(i, n)
            if a[k][j]
        )
        return tuple([Fraction(0)] * m + [Fraction(beta, math.factorial(m))]) if beta else ()

    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


def h_matrix(s: int, n: int) -> QXTable:
    """The n x n universal matrix H_s(X) over Q[X], built once per (s, n)."""
    _check_table(s, n)
    return _h_table(s, n)


def lemma_table(s: int, n: int) -> QXTable:
    """The universal matrix H_0(-X) H_s(X) over Q[X], built once per (s, n).

    Every entry is one monomial c X^(s+j-i); lemma 2.1 evaluates it at
    X := t and takes one product with G_s.  ``lemma_table(0, n)`` is the
    identity, because H_0(-X) H_0(X) = Id."""
    _check_table(s, n)
    return _lemma_table(s, n)


def qx_to_str(f: QXPoly) -> str:
    """Canonical printer for Q[X] entries (used for golden tables)."""
    return polys.to_str(QQ, f, "X")


def h_matrix_at(ring, table: QXTable, value) -> Matrix:
    """A table of monomials over Q[X], such as :func:`h_matrix` or
    :func:`lemma_table`, evaluated at a ring element (e.g. X := t or
    X := -t).

    Each nonzero entry is one monomial c X^m, so it is c times an entry
    of one table of the powers of ``value`` up to the largest m."""
    top = max((len(f) for row in table for f in row), default=0)
    powers = [ring.one]
    while len(powers) < top:
        powers.append(ring.mul(powers[-1], value))

    def entry(f: QXPoly):
        return ring.mul(ring.from_fraction(f[-1]), powers[len(f) - 1]) if f else ring.zero

    return tuple(tuple(entry(f) for f in row) for row in table)


def katz_vector(m: DifferentialModule) -> Tuple[Row, ...]:
    """c(e, X) = sum_j (X^j/j!) sum_k (-1)^k C(j,k) nabla^k(e_{j-k}) as n
    rows, lowest degree first: row j is its X^j coefficient."""
    check_factorial_invertible(m.ring, m.n)
    # the inversion formula on z = e, as H(0) = Id, with nabla^k(e_i) row i of G_k
    gs = iterated_matrices(m, m.n - 1)
    return _inversion(m.ring, m.n, m.n, lambda k, i: gs[k][i])


def _combination(ring, n: int, terms) -> Row:
    """sum c * row over the (c, row) pairs of ``terms``, rows of length n."""
    acc = tuple(ring.zero for _ in range(n))
    for c, row in terms:
        acc = linalg.row_add(ring, acc, linalg.row_scale(ring, c, row))
    return acc


def _inversion(ring, n: int, count: int, nabla) -> Tuple[Row, ...]:
    """Rows j < count of (1/j!) sum_k (-1)^k C(j,k) nabla(k, j-k), where
    nabla(k, i) is the row of nabla^k(z_i)."""
    return tuple(
        _combination(ring, n, (
            (ring.from_fraction(Fraction((-1) ** k * math.comb(j, k), math.factorial(j))),
             nabla(k, j - k))
            for k in range(j + 1)
        ))
        for j in range(count)
    )


def specialize_vector(m: DifferentialModule, rows: Sequence[Row], a) -> Row:
    """Coordinates of c(e, t - a) for a constant a, from the rows of
    :func:`katz_vector`: coordinate k is the X-polynomial
    sum_j rows[j][k] X^j at X := t - a."""
    return tuple(xpoly.specialize(m.ring, f, a) for f in zip(*rows))


def derivative_coefficients(m: DifferentialModule, c0: Sequence[Row], i: int, j: int) -> Row:
    """X^j coefficient of nabla^i applied to the X-polynomial vector c0.

    c_{i,j} = sum_k k! C(j+k, j) C(i, k) nabla^(i-k)(c_{0,j+k}).
    """
    if i < 0 or j < 0:
        raise PreconditionError("indices must be >= 0")
    return _combination(m.ring, m.n, (
        (m.ring.from_int(math.factorial(k) * math.comb(j + k, j) * math.comb(i, k)),
         apply_nabla(m, c0[j + k], i - k))
        for k in range(i + 1)
        if j + k < len(c0)
    ))


def invert_coefficients(m: DifferentialModule, zero_components: Sequence[Row]) -> Tuple[Row, ...]:
    """Recover the X-coefficients of a degree <= n-1 vector from the
    constant terms of its first n derivatives.

    c_{0,j} = (1/j!) sum_k (-1)^(j-k) C(j,k) nabla^(j-k)(c_{k,0}).
    """
    zs = zero_components
    check_factorial_invertible(m.ring, len(zs))
    return _inversion(m.ring, m.n, len(zs), lambda k, i: apply_nabla(m, zs[i], k))


@dataclass(frozen=True)
class BaseChangeDecomposition:
    """The family H_0 .. H_{2n-2}, the assembled H(X), and P(X) = det H(X)."""

    n: int
    h_tables: Tuple[QXTable, ...]
    h_assembled: Matrix  # entries in ring[X]
    det_poly: XPoly  # P(X) over the ring
    coefficients: Tuple  # r_0, ..., r_{n(n-1)} as ring elements


def assemble_h(m: DifferentialModule) -> Matrix:
    """The matrix H(X) over ring[X].

    Row i of H(X) = sum_s H_s(X) G_s holds the coordinates of
    nabla^i(c(e, X)) with d(X) = 1, so H(X) is built as that family
    over ring[X], with G1 lifted to constants.  This needs only
    G_0 .. G_{n-1}, and no product of H_s with G_s.
    """
    ring = m.ring
    c = tuple(xpoly.normalize(ring, f) for f in zip(*katz_vector(m)))
    g1 = tuple(tuple(xpoly.const(ring, x) for x in row) for row in m.g1)
    return nabla_family(DifferentialModule(ring=XPolyRing(ring), n=m.n, g1=g1), c, m.n)


def base_change(m: DifferentialModule) -> BaseChangeDecomposition:
    """Assemble H(X) = sum_s H_s(X) G_s and its determinant P(X)."""
    ring = m.ring
    n = m.n
    h_assembled = assemble_h(m)
    det_poly = ring.xdet(h_assembled)
    max_deg = n * (n - 1)
    coeffs = tuple(
        det_poly[k] if k < len(det_poly) else ring.zero for k in range(max_deg + 1)
    )
    if xpoly.degree(det_poly) > max_deg:
        raise InternalConsistencyError(
            f"deg P = {xpoly.degree(det_poly)} exceeds n(n-1) = {max_deg}"
        )
    if not ring.eq(coeffs[0], ring.one):
        raise InternalConsistencyError("P(0) != 1")
    return BaseChangeDecomposition(
        n=n,
        h_tables=tuple(h_matrix(s, n) for s in range(2 * n - 1)),
        h_assembled=h_assembled,
        det_poly=det_poly,
        coefficients=coeffs,
    )


@dataclass(frozen=True)
class CyclicSearchResult:
    candidate_index: int
    a: object  # the constant, as a ring element
    family: Tuple[Row, ...]  # c, nabla(c), ..., nabla^(n-1)(c)
    determinant: object  # det of the family = P(t - a), nonzero
    # the family's table of minors, which its determinant filled, for
    # companion_form; read, never changed
    minors: Optional[dict] = field(default=None, compare=False, repr=False)

    @property
    def vector(self) -> Row:
        """The cyclic vector c = c(e, t - a)."""
        return self.family[0]


def find_cyclic(
    m: DifferentialModule, candidates: Optional[Sequence] = None
) -> CyclicSearchResult:
    """Search the n(n-1)+1 specializations of the candidate vector for one
    with nonzero determinant; guaranteed to succeed over a char-0 field.
    Over a ring that is not a field the determinant must be a unit, and
    NotInvertibleError says that none was."""
    check_factorial_invertible(m.ring, m.n)
    ring = m.ring
    n = m.n
    needed = n * (n - 1) + 1
    if candidates is None:
        if not (ring.is_field and ring.characteristic == 0):
            raise UnsupportedOperationError(
                "default constants need a characteristic-0 field; supply candidates"
            )
        candidates = [ring.from_int(i) for i in range(needed)]
    else:
        candidates = list(candidates)
        if len(candidates) < needed:
            raise PreconditionError(
                f"need at least {needed} distinct constants, got {len(candidates)}"
            )
    if not all(ring.is_constant(a) for a in candidates):
        raise PreconditionError("candidates must be constants (d(a) = 0)")
    # Elements are canonical and hashable, so equal ones hash alike.
    if len(set(candidates)) < len(candidates):
        raise PreconditionError("candidate constants must be distinct")

    rows = katz_vector(m)
    for idx, a in enumerate(candidates):
        family = nabla_family(m, specialize_vector(m, rows, a), n)
        minors = {}
        det, ok = is_basis(m, family, minors)
        if ok:
            return CyclicSearchResult(
                candidate_index=idx, a=a, family=family, determinant=det, minors=minors
            )
    if not ring.is_field:
        raise NotInvertibleError(
            f"no candidate's determinant is a unit in the ring ({ring.kind})"
        )
    raise InternalConsistencyError(
        "no candidate produced a nonzero determinant; impossible over a field "
        "with n(n-1)+1 distinct constants"
    )


def companion_form(
    m: DifferentialModule, family: Sequence[Row], minors: Optional[dict] = None
) -> Tuple:
    """Coefficients b_0..b_{n-1} with nabla^n(c) = sum_k b_k nabla^k(c),
    i.e. the scalar equation y^(n) = sum b_k y^(k) in the cyclic basis,
    from the family c, ..., nabla^(n-1)(c) (``CyclicSearchResult.family``
    or ``nabla_family(m, c, m.n)``) and one nabla step on its last row.
    ``minors`` is the family's table of minors, ``CyclicSearchResult.minors``
    for its ``family``: Cramer's rule then takes only the minors that
    hold nabla^n(c), and not det F again.

    Raises NotInvertibleError when the family is not a basis."""
    if not m.ring.is_field:
        raise UnsupportedOperationError("companion form needs a field coefficient ring")
    if len(family) != m.n:
        raise PreconditionError(f"expected a family of {m.n} vectors, got {len(family)}")
    return linalg.solve_left(
        m.ring, linalg.freeze(family), apply_nabla(m, family[-1]), minors
    )
