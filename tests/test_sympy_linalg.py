"""Differential tests of ``linalg.det`` and ``linalg.solve_left`` over Q(x)
against sympy.

sympy is an oracle here only.  Each matrix entry is drawn as a pair of
small coefficient lists; sympy reduces it with ``sympy.cancel`` and the
reduced numerator and denominator are handed to the package as
``RatFunc`` coefficient tuples, so the expected values come from
sympy's own determinant and linear solver.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from katzcyclic import linalg
from katzcyclic.rings import RationalFunctionField, RatFunc

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
QX = RationalFunctionField()
SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
numerators = st.lists(coeffs, min_size=0, max_size=3)
denominators = st.lists(coeffs, min_size=1, max_size=2).filter(any)


def poly_expr(cs):
    return sum((sympy.Rational(c.numerator, c.denominator) * X ** i
                for i, c in enumerate(cs)), sympy.Integer(0))


def to_coeffs(poly):
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def element(expr):
    """The package element of a sympy rational function, via sympy.cancel."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    num, den = sympy.Poly(num, X, domain=sympy.QQ), sympy.Poly(den, X, domain=sympy.QQ)
    lead = den.LC()
    return RatFunc(to_coeffs(num.quo_ground(lead)), to_coeffs(den.quo_ground(lead)))


@st.composite
def matrices(draw, n):
    return sympy.Matrix(n, n, [
        poly_expr(draw(numerators)) / poly_expr(draw(denominators)) for _ in range(n * n)
    ])


def to_package(m):
    return linalg.freeze([[element(m[i, j]) for j in range(m.cols)] for i in range(m.rows)])


@SETTINGS
@given(st.sampled_from([2, 3]).flatmap(matrices))
def test_det_matches_sympy(m):
    assert linalg.det(QX, to_package(m)) == element(m.det())


@SETTINGS
@given(st.sampled_from([2, 3]).flatmap(
    lambda n: st.tuples(matrices(n), st.lists(numerators, min_size=n, max_size=n))
))
def test_solve_left_matches_sympy(args):
    m, rhs = args
    assume(sympy.cancel(m.det()) != 0)
    b = sympy.Matrix(1, m.rows, [poly_expr(cs) for cs in rhs])
    # x * m = b  <=>  m^T x^T = b^T
    expected = m.T.LUsolve(b.T)
    got = linalg.solve_left(QX, to_package(m), tuple(element(e) for e in b))
    assert got == tuple(element(e) for e in expected)
