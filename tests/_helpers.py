"""Shared test utilities: seeded element generators, the direct
symbolic-expansion route used as oracle for the base-change formulas,
and the reference element parser that the parser is checked against."""

import json
import math
import pathlib
import random
import re
from fractions import Fraction

from dataclasses import dataclass
from typing import Tuple

from katzcyclic import (
    DifferentialModule,
    NormValue,
    ParseError,
    PreconditionError,
    UnsupportedOperationError,
    iterated_matrices,
    linalg,
    module_from_json,
    xpoly,
)
from katzcyclic.errors import NotInvertibleError
from katzcyclic.katz import assemble_h, h_matrix, katz_vector
from katzcyclic.parser import (
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_POWER_SIZE,
)
from katzcyclic.xpoly import XPolyRing

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_corpus(name):
    with open(FIXTURES / name, "r", encoding="utf-8") as fh:
        return [module_from_json(doc) for doc in json.load(fh)]


def random_qx_poly(ring, rng, max_deg=3, coeff_range=3):
    """Random polynomial element of Q(x) or Q[t]."""
    coeffs = [
        Fraction(rng.randint(-coeff_range, coeff_range))
        for _ in range(rng.randint(0, max_deg) + 1)
    ]
    acc = ring.zero
    power = ring.one
    for c in coeffs:
        acc = ring.add(acc, ring.mul(ring.from_fraction(c), power))
        power = ring.mul(power, ring.var_element)
    return acc


def random_ratfunc(ring, rng, max_deg=2):
    num = random_qx_poly(ring, rng, max_deg)
    den = ring.zero
    while ring.is_zero(den):
        den = random_qx_poly(ring, rng, max_deg=1, coeff_range=2)
    return ring.div(num, den)


def random_module(ring, rng, n, max_deg=3):
    g1 = linalg.freeze(
        [[random_qx_poly(ring, rng, max_deg) for _ in range(n)] for _ in range(n)]
    )
    return DifferentialModule(ring=ring, n=n, g1=g1)


# -- matrix helpers the library does not need --------------------------

def mat_add(ring, a, b):
    return tuple(tuple(ring.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_eq(ring, a, b):
    return all(ring.eq(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def row_sub(ring, a, b):
    return tuple(ring.sub(x, y) for x, y in zip(a, b))


def embed_qx(ring, f):
    """Lift a Q[X] polynomial into ring[X] via the constant embedding."""
    return xpoly.normalize(ring, [ring.from_fraction(c) for c in f])


def iterated_by_recurrence(m, s_max):
    """[G_0, ..., G_{s_max}] from G_0 = Id by G_{s+1} = d(G_s) + G_s G1,
    written out entry by entry: no row helper and no ``apply_nabla``."""
    ring, n = m.ring, m.n
    gs = [linalg.identity(ring, n)]
    for _ in range(s_max):
        g = gs[-1]
        nxt = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = ring.derive(g[i][j])
                for k in range(n):
                    acc = ring.add(acc, ring.mul(g[i][k], m.g1[k][j]))
                row.append(acc)
            nxt.append(tuple(row))
        gs.append(tuple(nxt))
    return gs


# -- the direct expansion route ----------------------------------------

def nabla_on_xpoly_row(ring, row, g1):
    """Extended connection on ring[X]^n: nabla(f) = d_X(f) + f * G1,
    where d_X differentiates coefficients and sends X to 1."""
    n = len(row)
    derived = [xpoly.derive(ring, f) for f in row]
    out = []
    for k in range(n):
        acc = derived[k]
        for i in range(n):
            acc = xpoly.add(
                ring, acc, xpoly.scale(ring, g1[i][k], row[i])
            )
        out.append(acc)
    return tuple(out)


def katz_vector_xpoly_row(m):
    """The candidate vector as a row of X-polynomials over the ring."""
    rows = katz_vector(m)
    n = m.n
    return tuple(
        xpoly.normalize(m.ring, [rows[j][k] for j in range(n)])
        for k in range(n)
    )


def expanded_h_rows(m):
    """Rows of H(X) computed by directly iterating the connection on the
    candidate vector (the Leibniz-expansion route, no universal
    coefficients involved)."""
    row = katz_vector_xpoly_row(m)
    rows = [row]
    for _ in range(m.n - 1):
        rows.append(nabla_on_xpoly_row(m.ring, rows[-1], m.g1))
    return rows


def decomposition_h(m):
    """H(X) = sum_s H_s(X) G_s over ring[X], from the universal tables
    and the iterated matrices G_0 .. G_{2n-2}: the decomposition route,
    which shares neither the candidate vector nor the extended connection
    with :func:`katzcyclic.katz.assemble_h`."""
    ring, n = m.ring, m.n
    xring = XPolyRing(ring)
    gs = iterated_matrices(m, 2 * n - 2)
    h = linalg.zeros(xring, n)
    for s in range(2 * n - 1):
        hs = tuple(tuple(embed_qx(ring, e) for e in row) for row in h_matrix(s, n))
        gs_lifted = tuple(tuple(xpoly.const(ring, x) for x in row) for row in gs[s])
        h = mat_add(xring, h, linalg.mat_mul(xring, hs, gs_lifted))
    return h


def seeded(seed):
    return random.Random(seed)


# -- evaluation routes that production does not take ---------------------

def specialize_by_powers(m, rows, a):
    """c(e, t - a) as sum_j (t - a)^j rows[j], for the rows of
    ``katz_vector``, with the powers of t - a accumulated one by one (no
    Horner scheme, no xpoly)."""
    ring = m.ring
    point = ring.sub(ring.t, a)
    acc = tuple(ring.zero for _ in range(m.n))
    power = ring.one
    for row in rows:
        acc = tuple(ring.add(x, ring.mul(power, c)) for x, c in zip(acc, row))
        power = ring.mul(power, point)
    return acc


def witness_delta_from_h_of_x(m):
    """H0(-t) H(t) - Id, with H(t) the matrix H(X) of
    :func:`katzcyclic.katz.assemble_h` evaluated at X := t, and H0(-t)
    written out as (-t)^(j-i)/(j-i)! on and above the diagonal; plain
    loops, no matrix helper of the library."""
    ring, n = m.ring, m.n
    h_t = [[xpoly.eval_at(ring, f, ring.t) for f in row] for row in assemble_h(m)]
    neg_t = ring.neg(ring.t)
    h0_neg = [
        [
            ring.mul(ring.from_fraction(Fraction(1, math.factorial(j - i))), ring.pow(neg_t, j - i))
            if j >= i else ring.zero
            for j in range(n)
        ]
        for i in range(n)
    ]
    delta = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.neg(ring.one) if i == j else ring.zero
            for k in range(n):
                acc = ring.add(acc, ring.mul(h0_neg[i][k], h_t[k][j]))
            row.append(acc)
        delta.append(tuple(row))
    return tuple(delta)


# -- the paper's norm bounds, which no certificate reads ------------------

def lemma_2_2_bound(g1_norm, d_norm, s):
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


def h_norm_bounds(n, t_pow_norms, d_norm, factorial_norms):
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


def ring_norm_data(ring, n):
    """(|t^i| for i=0..2n-2, |d|, |i!| for i=0..n-1), all exact; the powers
    of t are built by ``ring.mul``, so no multiplicativity is assumed."""
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


def recheck(cert):
    """Re-derive a certificate's verdict from its stored exact values."""
    if cert.criterion in ("prop2.3", "prop2.5", "prop2.8"):
        return cert.norms["G1"] < cert.norms["bound"]
    if cert.criterion == "lemma2.1":
        one = NormValue.one(cert.norms["d"].p)
        return all(v < one for v in cert.per_s)
    return cert.certified


# -- free-module oracle for the universal coefficients ------------------

def free_module_h_entries(n):
    """For each i, the map (s, j) -> Q[X] coefficient of the s-th derivative
    of e_j in nabla^i(c(e, X)), computed in the free differential module
    with formal basis symbols (no connection matrix, no universal
    coefficient formulas): nabla sends f * E_{s,j} to f' E_{s,j} + f E_{s+1,j}.
    """
    import math

    from katzcyclic import polys
    from katzcyclic.fields import QQ

    def padd(d, key, f):
        d[key] = polys.add(QQ, d.get(key, ()), f)
        if polys.is_zero(d[key]):
            del d[key]

    c = {}
    for j in range(n):
        for k in range(j + 1):
            coeff = Fraction((-1) ** k * math.comb(j, k), math.factorial(j))
            mono = tuple([Fraction(0)] * j + [coeff])  # coeff * X^j
            padd(c, (k, j - k), mono)

    out = []
    current = c
    for _ in range(n):
        out.append(current)
        nxt = {}
        for (s, j), f in current.items():
            dfdx = polys.derive(QQ, f)
            if not polys.is_zero(dfdx):
                padd(nxt, (s, j), dfdx)
            padd(nxt, (s + 1, j), f)
        current = nxt
    return out


# -- the reference parser ----------------------------------------------
#
# The element parser as it was when every value went through the ring's
# own operations: one token list with positions, and ring arithmetic at
# every step.  The tests compare katzcyclic.parser against it, element
# for element and error for error.

_REFERENCE_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


class ReferenceParser:
    def __init__(self, text: str, ring):
        self.text = text
        self.ring = ring
        self.depth = 0
        self.tokens = []
        self._tokenize()
        self.idx = 0

    def _tokenize(self):
        pos = 0
        while pos < len(self.text):
            m = _REFERENCE_TOKEN.match(self.text, pos)
            if not m:
                stripped = self.text[pos:].lstrip()
                if stripped == "":
                    break
                bad = pos + (len(self.text) - pos - len(stripped))
                raise ParseError(f"unexpected character {self.text[bad]!r}", bad)
            group = m.lastindex
            text, start = m.group(group), m.start(group)
            if group == 1:
                if len(text) > MAX_LITERAL_DIGITS:
                    raise ParseError(
                        f"integer literal exceeds the maximum {MAX_LITERAL_DIGITS} digits",
                        start,
                    )
                self.tokens.append(("int", int(text), start))
            elif group == 2:
                self.tokens.append(("name", text, start))
            else:
                self.tokens.append(("op", text, start))
            pos = m.end()

    def _peek(self):
        return self.tokens[self.idx] if self.idx < len(self.tokens) else (None, None, len(self.text))

    def _next(self):
        tok = self._peek()
        self.idx += 1
        return tok

    def parse(self):
        value = self.expr()
        kind, val, pos = self._peek()
        if kind is not None:
            raise ParseError(f"unexpected token {val!r}", pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val in "+-":
                self._next()
                rhs = self.term()
                value = self.ring.add(value, rhs) if val == "+" else self.ring.sub(value, rhs)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, val, pos = self._peek()
            if kind == "op" and val in "*/":
                self._next()
                rhs = self.factor()
                if val == "*":
                    value = self.ring.mul(value, rhs)
                else:
                    try:
                        value = self.ring.div(value, rhs)
                    except NotInvertibleError:
                        raise ParseError("division by a non-invertible element", pos) from None
            else:
                return value

    def factor(self):
        kind, val, pos = self._peek()
        if kind == "op" and val in "+-":
            self._next()
            self._enter(pos)
            value = self.factor()
            self.depth -= 1
            return self.ring.neg(value) if val == "-" else value
        return self.power()

    def _enter(self, pos):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting exceeds the maximum depth {MAX_NESTING}", pos)

    def power(self):
        base = self.atom()
        kind, val, pos = self._peek()
        if kind == "op" and val == "^":
            self._next()
            ekind, exp, epos = self._next()
            if ekind != "int":
                raise ParseError("exponent must be a nonnegative integer", epos)
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent {exp} exceeds the maximum {MAX_EXPONENT}", epos)
            degree = exp * self.ring.degree(base)
            if degree > MAX_DEGREE:
                raise ParseError(f"power of degree {degree} exceeds the maximum {MAX_DEGREE}", epos)
            if exp > 1:
                self._check_size(base, exp, epos)
            return self.ring.pow(base, exp)
        return base

    def _check_size(self, base, exp, pos):
        if base is self.ring.var_element:  # it prints as the variable's name
            size = exp * len(self.ring.variable)
        else:
            try:
                size = exp * len(self.ring.to_str(base))
            except UnsupportedOperationError:  # the base alone is too long to print
                raise ParseError(
                    f"power base exceeds the maximum size {MAX_POWER_SIZE}", pos
                ) from None
        if size > MAX_POWER_SIZE:
            raise ParseError(f"power of size {size} exceeds the maximum {MAX_POWER_SIZE}", pos)

    def atom(self):
        kind, val, pos = self._next()
        if kind == "int":
            return self.ring.from_int(val)
        if kind == "name":
            if val == self.ring.variable:
                return self.ring.var_element
            if val == "g" and self.ring.generator is not None:
                return self.ring.generator
            raise ParseError(f"unknown symbol {val!r}", pos)
        if kind == "op" and val == "(":
            self._enter(pos)
            value = self.expr()
            ckind, cval, cpos = self._next()
            if not (ckind == "op" and cval == ")"):
                raise ParseError("expected ')'", cpos)
            self.depth -= 1
            return value
        raise ParseError("expected a number, variable, or '('", pos)


def reference_parse(text, ring):
    """``text`` parsed by :class:`ReferenceParser` over ``ring``."""
    return ReferenceParser(text, ring).parse()
