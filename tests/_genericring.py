"""A free differential ring with indeterminate connection entries.

Test-only oracle machinery: Q[g_{j,k}^{(m)}] with d(g_{j,k}^{(m)}) =
g_{j,k}^{(m+1)}, truncated at a maximum derivative order.  Exposing the
ring protocol lets the library's own connection machinery run over a
fully generic connection matrix, so the universal coefficient formulas
can be compared against a direct symbolic expansion.

Elements are sparse multivariate polynomials: dict from monomial
(sorted tuple of (var_index, exponent)) to Fraction, wrapped in GPoly
for hashability-free equality.
"""

from fractions import Fraction

from katzcyclic.rings import Ring


class GPoly:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms  # dict: monomial tuple -> Fraction

    def __eq__(self, other):
        return self.terms == other.terms

    def __repr__(self):
        return f"GPoly({self.terms})"


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


class GenericConnectionRing(Ring):
    """Q[g_{j,k}^{(m)} : j,k < n, m <= max_order], d = shift in m.  The
    protocol's defaults serve ``sub``, ``dot``, ``eq``, ``is_zero``,
    ``is_constant`` and the iterated matrices (``GPoly`` equality is
    that of the term dicts)."""

    kind = "generic"
    variable = "g"
    characteristic = 0
    is_banach = False
    is_field = False
    prime = None

    def __init__(self, n, max_order):
        self.n = n
        self.max_order = max_order
        self.zero = GPoly({})
        self.one = GPoly({(): Fraction(1)})

    def _var_index(self, j, k, m):
        if m > self.max_order:
            raise OverflowError(f"derivative order {m} exceeds truncation")
        return (j * self.n + k) * (self.max_order + 1) + m

    def gen(self, j, k, m=0):
        return GPoly({((self._var_index(j, k, m), 1),): Fraction(1)})

    def g1_matrix(self):
        return tuple(
            tuple(self.gen(j, k) for k in range(self.n)) for j in range(self.n)
        )

    # -- ring protocol --------------------------------------------------
    def add(self, a, b):
        out = dict(a.terms)
        for mono, c in b.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return GPoly(out)

    def neg(self, a):
        return GPoly({m: -c for m, c in a.terms.items()})

    def mul(self, a, b):
        out = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                mono = _mono_mul(m1, m2)
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return GPoly(out)

    def from_int(self, k):
        return self.from_fraction(Fraction(k))

    def from_fraction(self, q):
        return GPoly({(): q}) if q else GPoly({})

    def is_invertible(self, a):
        return set(a.terms) == {()}

    def inv(self, a):
        if not self.is_invertible(a):
            raise ValueError("only constants are invertible here")
        return GPoly({(): 1 / a.terms[()]})

    def derive(self, a):
        out = {}
        for mono, c in a.terms.items():
            for idx, (v, e) in enumerate(mono):
                m = v % (self.max_order + 1)
                if m + 1 > self.max_order:
                    raise OverflowError("derivative order exceeds truncation")
                rest = list(mono)
                if e == 1:
                    rest.pop(idx)
                else:
                    rest[idx] = (v, e - 1)
                new_mono = _mono_mul(tuple(rest), ((v + 1, 1),))
                s = out.get(new_mono, 0) + c * e
                if s:
                    out[new_mono] = s
                else:
                    out.pop(new_mono, None)
        return GPoly(out)

    def to_str(self, a):
        return repr(a)

    def descriptor(self):
        return {"kind": self.kind, "n": self.n, "max_order": self.max_order}


class CountingRing:
    """A ring protocol object that delegates to ``ring`` and counts the
    products it is asked for, one per ``mul`` and one per term of a
    ``dot``."""

    def __init__(self, ring):
        self.ring = ring
        self.products = 0

    def mul(self, a, b):
        self.products += 1
        return self.ring.mul(a, b)

    def dot(self, u, v, start=None):
        u, v = list(u), list(v)
        self.products += len(u)
        return self.ring.dot(u, v, start)

    def __getattr__(self, name):
        return getattr(self.ring, name)
