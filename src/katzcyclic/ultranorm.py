"""Matrix norms over Banach rings and norm-smallness cyclicity certificates.

Two matrix norms are used: the sup-norm max |a_ij| and the rho-sup-norm
max |a_ij| rho^(j-i), instantiated at rho = |t|^(-1) and rho = |d|.  A
connection whose matrix is small enough in one of these norms is
certified cyclic: the base-change matrix H(t) is then invertible by a
Neumann series, because each H_0(-t) H_s(t) G_s has norm < 1.  H(t)
itself, for the witness norm, is the nabla-family of c(e, t) over the ring.

Over Q[t], Lemma 2.1 takes its norms from the ring's ``lemma_norms``:
each product H_0(-t) H_s(t) G_s is taken on the integer iterates behind
G_s and its norm read off the integer coefficients, so no G_s is put in
canonical form unless a certified module needs its witness.  Other
Banach rings multiply canonical matrices and take :func:`matrix_norm`.

All inequalities are strict and decided exactly on NormValue exponents;
an equality boundary is reported as "not certified" with a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from . import linalg
from .diffmod import (
    DifferentialModule,
    check_factorial_invertible,
    iterated_matrices,
    nabla_family,
)
from .errors import PreconditionError, UnsupportedOperationError
from .katz import (
    _katz_vector_from,
    h_matrix,
    h_matrix_at,
    lemma_table,
    specialize_vector,
)
from .linalg import Matrix, Row
from .normvalue import NormValue


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


def lemma_2_2_bound(g1_norm: NormValue, d_norm: NormValue, s: int) -> NormValue:
    """Upper bound |G_1| * max(|G_1|, |d|)^(s-1) for |G_s|."""
    if s < 1:
        raise PreconditionError("s must be >= 1")
    return g1_norm * max(g1_norm, d_norm) ** (s - 1)


@dataclass(frozen=True)
class HNormBounds:
    """Closed-form upper bounds for the norms of H_0(+-t) and H_s(t)."""

    sup_h0: NormValue
    rho_t_h0: NormValue
    rho_t_hs: Tuple[NormValue, ...]  # index s = 0 .. 2n-2
    rho_d_h0: NormValue
    rho_d_hs: Tuple[NormValue, ...]


def h_norm_bounds(
    n: int,
    t_pow_norms: Tuple[NormValue, ...],
    d_norm: NormValue,
    factorial_norms: Tuple[NormValue, ...],
) -> HNormBounds:
    """Bounds from |alpha| <= 1 plus monotonicity of i -> rho^i/|(s+i)!|.

    ``t_pow_norms[i]`` must be |t^i| for i = 0..2n-2 and
    ``factorial_norms[i]`` must be |i!| for i = 0..n-1.
    """
    t_norm = t_pow_norms[1] if n > 1 else t_pow_norms[0]
    fact_last = factorial_norms[n - 1]
    sup_h0 = max(t_pow_norms[i] / factorial_norms[i] for i in range(n))
    rho_t_h0 = fact_last.inverse()
    rho_t_hs = tuple(
        (t_pow_norms[s] / fact_last) if s >= 1 else rho_t_h0
        for s in range(2 * n - 1)
    )
    dt = d_norm * t_norm
    rho_d_h0 = dt ** (n - 1) / fact_last
    rho_d_hs = tuple(
        (t_pow_norms[s] * dt ** (n - 1 - s) / fact_last) if s >= 1 else rho_d_h0
        for s in range(2 * n - 1)
    )
    return HNormBounds(
        sup_h0=sup_h0,
        rho_t_h0=rho_t_h0,
        rho_t_hs=rho_t_hs,
        rho_d_h0=rho_d_h0,
        rho_d_hs=rho_d_hs,
    )


def ring_norm_data(ring, n: int):
    """(|t^i| for i=0..2n-2, |d|, |i!| for i=0..n-1), all exact."""
    t_pows = []
    acc = ring.one
    for _ in range(2 * n - 1):
        t_pows.append(ring.norm(acc))
        acc = ring.mul(acc, ring.t)
    d_norm = ring.derivation_norm()
    fact = tuple(
        NormValue.of_int(math.factorial(i), ring.prime) for i in range(n)
    )
    return tuple(t_pows), d_norm, fact


@dataclass(frozen=True)
class CyclicityCertificate:
    """Self-checking record of a cyclicity criterion evaluation."""

    criterion: str  # prop2.3 | prop2.5 | prop2.8 | lemma2.1
    certified: bool
    norms: Dict[str, NormValue]
    per_s: Tuple[NormValue, ...] = ()
    boundary: bool = False
    witness: Optional[Row] = None

    def recheck(self) -> bool:
        """Re-derive the verdict from the stored exact values."""
        if self.criterion in ("prop2.3", "prop2.5", "prop2.8"):
            return self.norms["G1"] < self.norms["bound"]
        if self.criterion == "lemma2.1":
            one = NormValue.one(self.norms["d"].p)
            return all(v < one for v in self.per_s)
        return self.certified

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
    ring = m.ring
    return {
        "t": ring.norm(ring.t),
        "d": ring.derivation_norm(),
        "factorial": NormValue.of_int(math.factorial(m.n - 1), ring.prime),
    }


def _witness(m: DifferentialModule, gs: Sequence[Matrix]) -> Row:
    """c(e, t), built from the iterated matrices G_0 .. G_{n-1} (or more)."""
    return specialize_vector(m, _katz_vector_from(m, gs), m.ring.from_int(0))


def _smallness_certificate(
    m: DifferentialModule, criterion: str, g1_norm: NormValue, bound: NormValue
) -> CyclicityCertificate:
    certified = g1_norm < bound
    boundary = (not certified) and g1_norm == bound
    return CyclicityCertificate(
        criterion=criterion,
        certified=certified,
        norms={**_base_norms(m), "G1": g1_norm, "bound": bound},
        boundary=boundary,
        witness=_witness(m, iterated_matrices(m, m.n - 1)) if certified else None,
    )


def _require_banach(m: DifferentialModule) -> None:
    check_factorial_invertible(m.ring, m.n)
    if not m.ring.is_banach:
        raise UnsupportedOperationError("certification needs a Banach ring")


def norm_kind(m: DifferentialModule, name: Optional[str]) -> Optional[MatrixNormKind]:
    """The matrix norm named "sup" (or None), "rho-t" or "rho-d", for m's
    ring.  m passes the certificates' own checks first, so a module that
    cannot be certified is refused the same way under every name."""
    _require_banach(m)
    if name == "rho-t":
        return MatrixNormKind.rho_t_inverse(m.ring)
    if name == "rho-d":
        return MatrixNormKind.rho_d(m.ring)
    return None


def check_prop_2_3(m: DifferentialModule) -> CyclicityCertificate:
    """Sup-norm smallness: |G1| < |H0(t)|^(-2) * min(1, 1/|d|^(2n-3))."""
    _require_banach(m)
    ring = m.ring
    n = m.n
    one = NormValue.one(ring.prime)
    t_pows, d_norm, fact = ring_norm_data(ring, n)
    h0_inv = min(fact[i] / t_pows[i] for i in range(n))  # |H0(t)|^(-1)
    bound = h0_inv ** 2 * min(one, d_norm ** -(2 * n - 3))
    g1_norm = matrix_norm(ring, m.g1)
    return _smallness_certificate(m, "prop2.3", g1_norm, bound)


def _rho_certificate(m: DifferentialModule, criterion: str, kind_of) -> CyclicityCertificate:
    """The one body of both rho criteria: |G1|^(rho) in the norm
    kind_of(ring) against |(n-1)!|^2 |d| / (|d||t|)^(2n-2)."""
    _require_banach(m)
    ring = m.ring
    n = m.n
    d_norm = ring.derivation_norm()
    fact = NormValue.of_int(math.factorial(n - 1), ring.prime)
    bound = fact ** 2 * d_norm / (d_norm * ring.norm(ring.t)) ** (2 * n - 2)
    g1_norm = matrix_norm(ring, m.g1, kind_of(ring))
    return _smallness_certificate(m, criterion, g1_norm, bound)


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
    takes one matrix product with G_s.  A ring with its own
    ``lemma_norms`` (Q[t]) takes it on the integer iterates behind G_s
    and reads its norm off the integer coefficients.
    """
    _require_banach(m)
    ring = m.ring
    n = m.n
    one = NormValue.one(ring.prime)
    factors = [h_matrix_at(ring, lemma_table(s, n), ring.t) for s in range(1, 2 * n - 1)]
    lemma_norms = getattr(ring, "lemma_norms", None)
    if lemma_norms is None:
        gs = iterated_matrices(m, 2 * n - 2)
        per_s = [
            matrix_norm(ring, linalg.mat_mul(ring, f, g), kind)
            for f, g in zip(factors, gs[1:])
        ]
    else:
        per_s, iterates = lemma_norms(m.g1, factors, _rho_exp(ring, kind))
    certified = all(v < one for v in per_s)
    boundary = (not certified) and all(v <= one for v in per_s)
    if certified and lemma_norms is not None:
        # the witness's canonical G_0 .. G_{n-1}, from the same iterates
        gs = ring.iterated_matrices(m.g1, n - 1, iterates)
    g1_norm = matrix_norm(ring, m.g1, kind)
    return CyclicityCertificate(
        criterion="lemma2.1",
        certified=certified,
        norms={**_base_norms(m), "G1": g1_norm},
        per_s=tuple(per_s),
        boundary=boundary,
        witness=_witness(m, gs) if certified else None,
    )


def invertibility_witness_norm(
    m: DifferentialModule, kind: Optional[MatrixNormKind] = None
) -> NormValue:
    """||H0(-t) H(t) - Id||; < 1 makes H(t) explicitly invertible.  X := t
    is a map of differential rings (d(t) = 1), so row i of H(t) is nabla^i(c(e, t))."""
    _require_banach(m)
    ring = m.ring
    n = m.n
    h_t = nabla_family(m, _witness(m, iterated_matrices(m, n - 1)), n)
    h0_neg = h_matrix_at(ring, h_matrix(0, n), ring.neg(ring.t))
    delta = linalg.mat_sub(
        ring, linalg.mat_mul(ring, h0_neg, h_t), linalg.identity(ring, n)
    )
    return matrix_norm(ring, delta, kind)
