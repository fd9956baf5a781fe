"""Refusal paths that the rest of the suite does not reach: each call
raises its own typed error, and the zero norm value survives the
operations that keep it."""

from fractions import Fraction

import pytest

from katzcyclic import (
    GaussPolynomialRing,
    NotInvertibleError,
    PreconditionError,
    RationalFunctionField,
    ScaledDerivationRing,
    UnsupportedOperationError,
    polys,
)
from katzcyclic.diffmod import DifferentialModule, apply_nabla, iterated_matrices
from katzcyclic.fields import QQ, ZZ, FiniteField
from katzcyclic.katz import companion_form, derivative_coefficients
from katzcyclic.normvalue import NormValue, padic_valuation
from katzcyclic.rings import RatFunc, integer_iterates

QX = RationalFunctionField("x")
QT = GaussPolynomialRing(3, 0, "t")


def module(ring):
    return DifferentialModule(ring=ring, n=2, g1=((ring.zero, ring.one), (ring.t, ring.zero)))


def scaled_by_x_t():
    return ScaledDerivationRing(QX, QX.t).t


REFUSALS = {
    "iterated_matrices s_max < 0": (lambda: iterated_matrices(module(QX), -1), PreconditionError),
    "integer_iterates of a rational G_1": (
        lambda: integer_iterates(QX, ((QX.zero, QX.inv(QX.t)), (QX.t, QX.zero)), 2),
        PreconditionError),
    "integer_iterates s_max < 0": (lambda: integer_iterates(QT, module(QT).g1, -1),
                                   PreconditionError),
    "integer_iterates under x d/dx": (
        lambda: integer_iterates(ScaledDerivationRing(QX, QX.t), module(QX).g1, 2),
        PreconditionError),
    "apply_nabla k < 0": (lambda: apply_nabla(module(QX), (QX.one, QX.zero), -1),
                          PreconditionError),
    "derivative_coefficients i < 0": (
        lambda: derivative_coefficients(module(QX), [(QX.one, QX.zero)], -1, 0),
        PreconditionError),
    "derivative_coefficients j < 0": (
        lambda: derivative_coefficients(module(QX), [(QX.one, QX.zero)], 0, -1),
        PreconditionError),
    "companion_form over Q[t]": (
        lambda: companion_form(module(QT), [(QT.one, QT.zero), (QT.zero, QT.one)]),
        UnsupportedOperationError),
    "divmod_ by zero": (lambda: polys.divmod_(ZZ, (1, 2), ()), NotInvertibleError),
    "RatFunc zero denominator": (lambda: RatFunc((Fraction(1),), ()), ZeroDivisionError),
    "QQ.inv(0)": (lambda: QQ.inv(Fraction(0)), NotInvertibleError),
    "QQ.div(a, 0)": (lambda: QQ.div(Fraction(1, 2), Fraction(0)), NotInvertibleError),
    "F_5 inv of zero": (lambda: FiniteField(5).inv(FiniteField(5).zero), NotInvertibleError),
    "F_5 from 1/5": (lambda: FiniteField(5).from_fraction(Fraction(1, 5)), NotInvertibleError),
    "zero norm to the 0th power": (lambda: NormValue.zero(3) ** 0, ZeroDivisionError),
    "valuation of 0": (lambda: padic_valuation(0, 3), ValueError),
    "scaling by a non-unit": (lambda: ScaledDerivationRing(QT, QT.t), NotInvertibleError),
    "t of Q(x) with x d/dx": (scaled_by_x_t, UnsupportedOperationError),
}


@pytest.mark.parametrize("call, error", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_raises_its_own_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


def test_zero_norm_value_stays_zero():
    zero = NormValue.zero(3)
    assert NormValue.of_fraction(Fraction(0), 3) == zero
    assert zero / NormValue.one(3) == zero
