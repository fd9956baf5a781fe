"""Differential modules given by a connection matrix.

Conventions: a module of rank n over a ring B is presented by the n x n
matrix G1 whose row i holds the coordinates of nabla(e_i) in the basis
e.  Coordinates act on the right, so for a row vector f one has
nabla(f) = d(f) + f * G1, and the iterated matrices satisfy
G_{s+1} = d(G_s) + G_s * G1 with G_0 = Id.  :func:`iterated_matrices`
leaves this recurrence to the ring: every ring applies nabla to each row
of G_s, and Q(x) and Q[t] run it on cleared integer matrices instead
when G1 has no denominator.

A module may have any characteristic.  Only the Katz construction
divides by (n-1)!, so its entry points, not the module, call
:func:`check_factorial_invertible`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import FactorialNotInvertibleError, NotInvertibleError, PreconditionError
from .linalg import Matrix, Row
from .rings import Ring, ScaledDerivationRing, ring_from_json


@dataclass(frozen=True)
class DifferentialModule:
    """Rank-n differential module with connection matrix G1 (row convention)."""

    ring: Ring
    n: int
    g1: Matrix

    def __post_init__(self):
        _check_shape(self.n, self.g1)


def _check_shape(n: int, rows: Sequence) -> None:
    if n < 1:
        raise PreconditionError("rank must be >= 1")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise PreconditionError(f"connection matrix must be {n}x{n}")


def check_factorial_invertible(ring: Ring, n: int) -> None:
    """(n-1)! must be a unit for the Katz construction to make sense."""
    p = ring.characteristic
    if p and p <= n - 1:
        raise FactorialNotInvertibleError(
            f"({n}-1)! is not invertible in characteristic {p}"
        )


def module_from_json(doc: dict) -> DifferentialModule:
    """Read {"ring": ..., "n": ..., "G1": [[entry strings]]}."""
    if not isinstance(doc, dict):
        raise PreconditionError(f"module must be a JSON object, got {type(doc).__name__}")
    for key in ("ring", "n", "G1"):
        if key not in doc:
            raise PreconditionError(f"module lacks key '{key}'")
    ring = ring_from_json(doc["ring"])
    n, rows = doc["n"], doc["G1"]
    if type(n) is not int:
        raise PreconditionError(f"'n' must be an integer, got {n!r}")
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(isinstance(e, str) for e in row) for row in rows
    ):
        raise PreconditionError("'G1' must be a list of rows of element strings")
    _check_shape(n, rows)  # before parsing, so a matrix of the wrong size costs no parse
    g1 = linalg.freeze([[ring.parse(entry) for entry in row] for row in rows])
    return DifferentialModule(ring=ring, n=n, g1=g1)


def module_to_json(m: DifferentialModule) -> dict:
    return {
        "ring": m.ring.descriptor(),
        "n": m.n,
        "G1": [[m.ring.to_str(x) for x in row] for row in m.g1],
    }


def iterated_matrices(m: DifferentialModule, s_max: int) -> List[Matrix]:
    """[G_0, ..., G_{s_max}] with G_0 = Id and G_{s+1} = d(G_s) + G_s G_1:
    row k of G_s holds the coordinates of nabla^s(e_k).  The ring runs
    the recurrence (:meth:`~katzcyclic.rings.Ring.iterated_matrices`)."""
    if s_max < 0:
        raise PreconditionError("s_max must be >= 0")
    return m.ring.iterated_matrices(m.g1, s_max)


def apply_nabla(m: DifferentialModule, v: Row, k: int = 1) -> Row:
    """Coordinates of nabla^k applied to the vector with coordinate row v."""
    if k < 0:
        raise PreconditionError("k must be >= 0")
    ring = m.ring
    v = tuple(v)
    cols = tuple(zip(*m.g1))
    for _ in range(k):
        # nabla(v)_j = d(v_j) + sum_i v_i (G1)_ij, one dot started at d(v_j)
        v = tuple(ring.dot(v, col, ring.derive(x)) for x, col in zip(v, cols))
    return v


def nabla_family(m: DifferentialModule, v: Row, k: int) -> Tuple[Row, ...]:
    """(v, nabla(v), ..., nabla^(k-1)(v)) for k >= 1, one nabla step per vector."""
    family = [tuple(v)]
    for _ in range(k - 1):
        family.append(apply_nabla(m, family[-1]))
    return tuple(family)


def rescale_derivation(m: DifferentialModule, f) -> DifferentialModule:
    """The module (M, f*nabla) over (B, f*d), for an invertible f.

    Over a ring already rescaled by f0 the new ring is the base rescaled
    once by f f0, or the base itself when f f0 = 1, so its descriptor
    states the whole factor."""
    if not m.ring.is_invertible(f):
        raise NotInvertibleError("rescaling element must be invertible")
    ring = m.ring
    new_ring: Ring
    if isinstance(ring, ScaledDerivationRing):
        # f (f0 d) = (f f0) d: one wrapper with the product of the factors,
        # and none when that product is 1
        base, factor = ring.base, ring.base.mul(ring.factor, f)
        new_ring = base if base.eq(factor, base.one) else ScaledDerivationRing(base, factor)
    else:
        new_ring = ScaledDerivationRing(ring, f)
    return DifferentialModule(ring=new_ring, n=m.n, g1=linalg.mat_scale(new_ring, f, m.g1))


def is_basis(m: DifferentialModule, vectors: Sequence[Row], minors: Optional[dict] = None):
    """Determinant of the coordinate matrix and whether it certifies a basis.

    It is whether det is a unit, which over a field is exactly det != 0.
    Over a non-field ring this only reports unit determinants; invertibility of a
    non-unit-but-Neumann-invertible determinant is the business of the
    norm certificates in :mod:`katzcyclic.ultranorm`.  A dict passed as
    ``minors`` is filled with the determinant's table of minors
    (:func:`katzcyclic.linalg.det`).
    """
    if len(vectors) != m.n:
        raise PreconditionError(f"expected exactly {m.n} vectors, got {len(vectors)}")
    mat = linalg.freeze(vectors)
    d = linalg.det(m.ring, mat, minors)
    return d, m.ring.is_invertible(d)


@dataclass(frozen=True)
class CharPReport:
    """Witness report for the characteristic-p non-existence phenomenon."""

    p: int
    e: int
    q: int
    n: int
    monomial_degrees_checked: int
    sampled_vectors: Tuple[Tuple[str, ...], ...]
    zero_power_index: int
    all_determinants_zero: bool
    message: str

    def to_json(self) -> dict:
        return asdict(self)


def charp_counterexample(p: int, e: int, n: int) -> CharPReport:
    """Exhibit that F_q[x]^n with the trivial connection has no cyclic vector.

    Requires n > q = p^e.  Checks d^q = 0 on all monomials of degree at
    most 12 (d^q kills x^m because the falling factorial
    m(m-1)...(m-q+1) contains q consecutive integers, hence a multiple
    of p), then verifies on sampled vectors v that nabla^q(v) = 0, so
    the family {v, nabla v, ..., nabla^{n-1} v} contains the zero vector
    and its determinant vanishes identically.
    """
    from .rings import FiniteFieldPolyRing

    max_degree = 12
    ring = FiniteFieldPolyRing(p, e)  # refuses q = p^e > 2^64 before computing it
    q = ring.field.q
    if n <= q:
        raise PreconditionError(f"need n > q = {q}, got n = {n}")
    m = DifferentialModule(ring=ring, n=n, g1=linalg.zeros(ring, n))

    # d^q annihilates every monomial in the sampled degree range
    for deg in range(max_degree + 1):
        a = tuple([ring.field.zero] * deg + [ring.field.one])
        for _ in range(q):
            a = ring.derive(a)
        if not ring.is_zero(a):
            raise PreconditionError(f"d^{q}(x^{deg}) != 0; not a counterexample")

    # deterministic vector sample: shifted monomial vectors and a mixed one
    samples: List[Row] = []
    for shift in range(3):
        samples.append(
            tuple(
                ring.parse(f"x^{(i + shift) % (max_degree + 1)} + {i + 1}")
                for i in range(n)
            )
        )
    samples.append(tuple(ring.parse(f"x^{q} + x^{i}") for i in range(n)))

    all_zero = True
    for v in samples:
        family = nabla_family(m, v, n)  # n > q, so family[q] = nabla^q(v)
        if any(not ring.is_zero(c) for c in family[q]):
            all_zero = False
        d, ok = is_basis(m, family)
        if not ring.is_zero(d) or ok:
            all_zero = False

    return CharPReport(
        p=p,
        e=e,
        q=q,
        n=n,
        monomial_degrees_checked=max_degree,
        sampled_vectors=tuple(tuple(ring.to_str(c) for c in v) for v in samples),
        zero_power_index=q,
        all_determinants_zero=all_zero,
        message=(
            f"d^{q} = 0 on F_{q}[x], so nabla^{q} = 0 and every candidate family "
            f"of {n} derivatives contains the zero vector: "
            "no cyclic vector possible for these witnesses"
        ),
    )
