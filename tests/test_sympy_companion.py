"""Differential test of ``katz.companion_form`` over Q(x) against sympy.

sympy is an oracle here only.  For a drawn connection matrix G1 and a
drawn vector c it builds the derivative family on its own side,
nabla^(k+1)(c) = d(nabla^k(c)) + nabla^k(c) * G1, with sympy's
differentiation and matrix product over its field QQ(x), and solves
b * F = nabla^n(c) for the coefficients b with sympy's LU solver, where
F has the rows c, ..., nabla^(n-1)(c).  The package's coefficients must
equal sympy's after ``sympy.cancel``, and a family that sympy finds
singular must be refused with ``NotInvertibleError``.

The sympy side works in ``DomainMatrix`` over QQ(x) rather than on
expressions: ``Matrix.LUsolve`` on expressions followed by
``sympy.cancel`` took about 50 s on one rank-4 module.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from katzcyclic import DifferentialModule, NotInvertibleError, linalg
from katzcyclic.diffmod import nabla_family
from katzcyclic.katz import companion_form
from katzcyclic.rings import RationalFunctionField

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from test_sympy_linalg import X, element  # noqa: E402

K = sympy.QQ.frac_field(X)
QX = RationalFunctionField()

small = st.integers(-3, 3)
linear = st.tuples(small, small).map(lambda c: c[0] + c[1] * X)
nonzero_linear = st.tuples(st.integers(1, 3), small).map(lambda c: c[0] + c[1] * X)
ratfuncs = st.tuples(linear, nonzero_linear).map(lambda nd: nd[0] / nd[1])


@st.composite
def cases(draw, n, entries):
    g1 = sympy.Matrix(n, n, [draw(entries) for _ in range(n * n)])
    c = sympy.Matrix(1, n, [draw(linear) for _ in range(n)])
    return g1, c


def check_against_sympy(g1, c):
    n = g1.rows
    g1_k = DomainMatrix.from_Matrix(g1).convert_to(K)
    family = [DomainMatrix.from_Matrix(c).convert_to(K)]
    for _ in range(n):
        v = family[-1]
        family.append(v.applyfunc(lambda a: a.diff(K.gens[0])) + v * g1_k)
    f = DomainMatrix.vstack(*family[:n])
    m = DifferentialModule(
        ring=QX,
        n=n,
        g1=linalg.freeze([[element(g1[i, j]) for j in range(n)] for i in range(n)]),
    )
    ours = nabla_family(m, tuple(element(e) for e in c), n)
    if f.det() == K.zero:
        with pytest.raises(NotInvertibleError):
            companion_form(m, ours)
        return
    # b * F = nabla^n(c)  <=>  F^T b^T = nabla^n(c)^T
    expected = f.transpose().lu_solve(family[n].transpose()).to_Matrix()
    assert companion_form(m, ours) == tuple(element(e) for e in expected)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([2, 3]).flatmap(lambda n: cases(n, ratfuncs)))
def test_companion_form_matches_sympy(case):
    check_against_sympy(*case)


# Rank 4 with linear polynomial entries only, and few examples, so that
# the test stays cheap.
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases(4, linear))
def test_companion_form_matches_sympy_rank_4(case):
    check_against_sympy(*case)


def test_singular_family_is_refused():
    # G1 = 0 and c constant: nabla(c) = 0, so the family is singular.
    check_against_sympy(sympy.zeros(2, 2), sympy.Matrix([[1, 2]]))
