"""Matrix norms over Banach rings and norm-smallness cyclicity certificates.

Two matrix norms are used: the sup-norm max |a_ij| and the rho-sup-norm
max |a_ij| rho^(j-i), instantiated at rho = |t|^(-1) and rho = |d|.  A
connection whose matrix is small enough in one of these norms is
certified cyclic: the base-change matrix H(t) is then invertible by a
Neumann series, because each H_0(-t) H_s(t) G_s has norm < 1.  H(t)
itself, for the witness norm, is the nabla-family of c(e, t) over the ring.

The four criteria, each a strict inequality on exact norms:

- prop2.3: |G1| < |H_0(t)|^(-2) min(1, |d|^(-(2n-3))) in the sup-norm;
- prop2.5 and prop2.8: |G1| < |(n-1)!|^2 |d| / (|d||t|)^(2n-2) in the
  rho-sup-norm at rho = |t|^(-1) and at rho = |d|;
- lemma2.1: ||H_0(-t) H_s(t) G_s|| < 1 for s = 1..2n-2, in the sup-norm
  or either rho-sup-norm.

The prop-2.x bounds follow from closed-form bounds on the norms of
H_0(+-t) and H_s(t) and from |G_s| <= |G1| max(|G1|, |d|)^(s-1) (Lemma
2.2).  No certificate reads those bounds, so they live in the tests
(``tests/_helpers.py``), which check them against materialized norms.

Over every Gauss ring and its rescalings, Lemma 2.1 takes its norms
from :func:`~katzcyclic.rings.lemma_norms`: every entry of
H_0(-t) H_s(t) G_s is bounded by the ultrametric inequality from the
exact norms of its factors, and the entries are summed in Z[t] from the
integer iterates behind G_s (:func:`~katzcyclic.rings.integer_iterates`),
largest bound first, only until no bound left can exceed the largest
norm found; each norm is read off the integer coefficients.  A certified
module's witness c(e, t) is read off integer iterates too, by
:func:`~katzcyclic.rings.katz_vector_at_t`: lemma 2.1 hands over the
iterates its norms were taken on, and a prop-2.x certificate takes
G_1 .. G_{n-1} as integer iterates, so no G_s is put in canonical form.

All inequalities are strict and decided exactly on NormValue exponents;
an equality boundary is reported as "not certified" with a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import linalg
from .diffmod import DifferentialModule, check_factorial_invertible, nabla_family
from .errors import PreconditionError, UnsupportedOperationError
from .katz import h_matrix, h_matrix_at, lemma_table
from .linalg import Matrix, Row
from .normvalue import NormValue
from .rings import integer_iterates, katz_vector_at_t, lemma_norms


@dataclass(frozen=True)
class MatrixNormKind:
    """sup-norm (rho = 1) or rho-sup-norm for a positive rho = p^k."""

    name: str
    rho: NormValue

    @staticmethod
    def rho_t_inverse(ring) -> "MatrixNormKind":
        return MatrixNormKind("rho-t", ring.norm(ring.t).inverse())

    @staticmethod
    def rho_d(ring) -> "MatrixNormKind":
        return MatrixNormKind("rho-d", ring.derivation_norm())

    def __post_init__(self):
        if self.rho.is_zero:
            raise PreconditionError("rho must be positive")


def matrix_norm(ring, a: Matrix, kind: Optional[MatrixNormKind] = None) -> NormValue:
    """max over entries of |a_ij| * rho^(j-i); sup-norm when kind is None.

    With rho = p^k this is p to the largest |a_ij|.exp + k (j - i) over
    the nonzero entries, taken on exponents, and 0 for a zero matrix."""
    if not ring.is_banach:
        raise UnsupportedOperationError("matrix norms need a Banach ring")
    k = _rho_exp(ring, kind)
    best = None
    for i, row in enumerate(a):
        for j, entry in enumerate(row):
            e = ring.norm(entry).exp
            if e is not None:
                e += k * (j - i)
                if best is None or e > best:
                    best = e
    return NormValue(ring.prime, best)


def _rho_exp(ring, kind: Optional[MatrixNormKind]) -> int:
    """k with rho = p^k for the matrix norm ``kind`` over ring; 0 for the
    sup-norm."""
    if kind is None:
        return 0
    if kind.rho.p != ring.prime:
        raise ValueError(f"norm values over different primes: {ring.prime} vs {kind.rho.p}")
    return kind.rho.exp


@dataclass(frozen=True)
class CyclicityCertificate:
    """Record of a cyclicity criterion evaluation: its exact norms and verdict."""

    criterion: str  # prop2.3 | prop2.5 | prop2.8 | lemma2.1
    certified: bool
    norms: Dict[str, NormValue]
    per_s: Tuple[NormValue, ...] = ()
    boundary: bool = False
    witness: Optional[Row] = None

    def to_json(self, ring=None) -> dict:
        doc = {
            "criterion": self.criterion,
            "norms": {k: str(v) for k, v in self.norms.items()},
            "verdict": "certified" if self.certified else "not_certified",
            "witness": (
                [ring.to_str(c) for c in self.witness]
                if (self.witness is not None and ring is not None)
                else None
            ),
        }
        if self.per_s:
            doc["per_s_norms"] = [str(v) for v in self.per_s]
        if self.boundary:
            doc["boundary"] = True
        return doc


def _base_norms(m: DifferentialModule) -> Dict[str, NormValue]:
    """|t|, |d| and |(n-1)!|, printed by every certificate and read by each bound."""
    ring = m.ring
    return {
        "t": ring.norm(ring.t),
        "d": ring.derivation_norm(),
        "factorial": NormValue.of_int(math.factorial(m.n - 1), ring.prime),
    }


def _witness(m: DifferentialModule, iterates=None) -> Row:
    """c(e, t) over a Gauss ring or a rescaling of it, read off the
    integer iterates: ``iterates``, or G_1 .. G_{n-1} taken here."""
    return katz_vector_at_t(m.ring, m.n, iterates or integer_iterates(m.ring, m.g1, m.n - 1))


def _smallness_certificate(
    m: DifferentialModule, criterion: str, base: dict, g1_norm: NormValue, bound: NormValue
) -> CyclicityCertificate:
    certified = g1_norm < bound
    boundary = (not certified) and g1_norm == bound
    return CyclicityCertificate(
        criterion=criterion,
        certified=certified,
        norms={**base, "G1": g1_norm, "bound": bound},
        boundary=boundary,
        witness=_witness(m) if certified else None,
    )


def _require_banach(m: DifferentialModule) -> None:
    check_factorial_invertible(m.ring, m.n)
    if not m.ring.is_banach:
        raise UnsupportedOperationError("certification needs a Banach ring")


def norm_kind(m: DifferentialModule, name: Optional[str]) -> Optional[MatrixNormKind]:
    """The matrix norm named "sup" (or None), "rho-t" or "rho-d", for m's
    ring.  m passes the certificates' own checks first, so a module that
    cannot be certified is refused the same way under every name; any
    other name is refused too."""
    _require_banach(m)
    if name is None or name == "sup":
        return None
    if name == "rho-t":
        return MatrixNormKind.rho_t_inverse(m.ring)
    if name == "rho-d":
        return MatrixNormKind.rho_d(m.ring)
    raise PreconditionError(f"unknown matrix norm {name!r}: use sup, rho-t or rho-d")


def check_prop_2_3(m: DifferentialModule) -> CyclicityCertificate:
    """Sup-norm smallness: |G1| < |H0(t)|^(-2) * min(1, 1/|d|^(2n-3)).

    |H0(t)|^(-1) = min_i |i!| / |t|^i, since |t^i| = |t|^i: the Gauss
    norm is multiplicative, and a rescaled ring keeps its base's norm."""
    _require_banach(m)
    ring = m.ring
    n = m.n
    base = _base_norms(m)
    h0_inv = min(
        NormValue.of_int(math.factorial(i), ring.prime) / base["t"] ** i for i in range(n)
    )
    bound = h0_inv ** 2 * min(NormValue.one(ring.prime), base["d"] ** -(2 * n - 3))
    g1_norm = matrix_norm(ring, m.g1)
    return _smallness_certificate(m, "prop2.3", base, g1_norm, bound)


def _rho_certificate(m: DifferentialModule, criterion: str, kind_of) -> CyclicityCertificate:
    """The one body of both rho criteria: |G1|^(rho) in the norm
    kind_of(ring) against |(n-1)!|^2 |d| / (|d||t|)^(2n-2)."""
    _require_banach(m)
    base = _base_norms(m)
    d_norm = base["d"]
    bound = base["factorial"] ** 2 * d_norm / (d_norm * base["t"]) ** (2 * m.n - 2)
    g1_norm = matrix_norm(m.ring, m.g1, kind_of(m.ring))
    return _smallness_certificate(m, criterion, base, g1_norm, bound)


def check_prop_2_5(m: DifferentialModule) -> CyclicityCertificate:
    """rho = |t|^(-1) smallness: |G1|^(rho) < |(n-1)!|^2 |d| / (|d||t|)^(2n-2)."""
    return _rho_certificate(m, "prop2.5", MatrixNormKind.rho_t_inverse)


def check_prop_2_8(m: DifferentialModule) -> CyclicityCertificate:
    """rho = |d| smallness: |G1|^(rho) < |(n-1)!|^2 |d| / (|d||t|)^(2n-2)."""
    return _rho_certificate(m, "prop2.8", MatrixNormKind.rho_d)


def certify_lemma_2_1(
    m: DifferentialModule, kind: Optional[MatrixNormKind] = None
) -> CyclicityCertificate:
    """The sharpest check: ||H0(-t) H_s(t) G_s|| < 1 for s = 1..2n-2.

    When it holds, H(t) is invertible (Neumann series) and the candidate
    vector specialized at X := t is cyclic.  The prop-2.x checks are
    sufficient conditions for this one.  H0(-t) H_s(t) is the universal
    table :func:`~katzcyclic.katz.lemma_table` evaluated at t, so each s
    takes one matrix product with G_s.  Over every Gauss ring and its
    rescalings, :func:`~katzcyclic.rings.lemma_norms` bounds every entry
    of each product by the ultrametric inequality, sums in Z[t], from the
    integer iterates behind G_s, only the entries whose bound can reach
    the largest norm, and reads each norm off the integer coefficients;
    a certified module's witness is read off the same iterates.
    """
    _require_banach(m)
    ring = m.ring
    n = m.n
    one = NormValue.one(ring.prime)
    factors = [h_matrix_at(ring, lemma_table(s, n), ring.t) for s in range(1, 2 * n - 1)]
    iterates = integer_iterates(ring, m.g1, 2 * n - 2)
    per_s = lemma_norms(ring, iterates, factors, _rho_exp(ring, kind))
    certified = all(v < one for v in per_s)
    boundary = (not certified) and all(v <= one for v in per_s)
    g1_norm = matrix_norm(ring, m.g1, kind)
    return CyclicityCertificate(
        criterion="lemma2.1",
        certified=certified,
        norms={**_base_norms(m), "G1": g1_norm},
        per_s=tuple(per_s),
        boundary=boundary,
        witness=_witness(m, iterates) if certified else None,
    )


def invertibility_witness_norm(
    m: DifferentialModule, kind: Optional[MatrixNormKind] = None
) -> NormValue:
    """||H0(-t) H(t) - Id||; < 1 makes H(t) explicitly invertible.  X := t
    is a map of differential rings (d(t) = 1), so row i of H(t) is nabla^i(c(e, t))."""
    _require_banach(m)
    ring = m.ring
    n = m.n
    h_t = nabla_family(m, _witness(m), n)
    h0_neg = h_matrix_at(ring, h_matrix(0, n), ring.neg(ring.t))
    delta = linalg.mat_sub(
        ring, linalg.mat_mul(ring, h0_neg, h_t), linalg.identity(ring, n)
    )
    return matrix_norm(ring, delta, kind)
