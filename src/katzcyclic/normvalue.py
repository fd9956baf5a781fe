"""Exact ultrametric norm values of the form p^k.

Norm values are powers of a fixed prime with an integer exponent
(plus the value 0, encoded as exponent None).  All comparisons and
arithmetic happen on exponents, so strict inequalities are decided
exactly, never through floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Optional


def padic_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is +infinity")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


@total_ordering
@dataclass(frozen=True)
class NormValue:
    """The exact value p^exp, with exp = None meaning the value 0."""

    p: int
    exp: Optional[int]

    @staticmethod
    def one(p: int) -> "NormValue":
        return NormValue(p, 0)

    @staticmethod
    def zero(p: int) -> "NormValue":
        return NormValue(p, None)

    @staticmethod
    def of_int(n: int, p: int) -> "NormValue":
        """p-adic absolute value |n|_p."""
        if n == 0:
            return NormValue.zero(p)
        return NormValue(p, -padic_valuation(n, p))

    @staticmethod
    def of_fraction(q: Fraction, p: int) -> "NormValue":
        if q == 0:
            return NormValue.zero(p)
        return NormValue(p, padic_valuation(q.denominator, p) - padic_valuation(q.numerator, p))

    @property
    def is_zero(self) -> bool:
        return self.exp is None

    def _check(self, other: "NormValue") -> None:
        if self.p != other.p:
            raise ValueError(f"norm values over different primes: {self.p} vs {other.p}")

    def __mul__(self, other: "NormValue") -> "NormValue":
        self._check(other)
        if self.is_zero or other.is_zero:
            return NormValue.zero(self.p)
        return NormValue(self.p, self.exp + other.exp)

    def __truediv__(self, other: "NormValue") -> "NormValue":
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero norm value")
        if self.is_zero:
            return self
        return NormValue(self.p, self.exp - other.exp)

    def __pow__(self, k: int) -> "NormValue":
        if self.is_zero:
            if k <= 0:
                raise ZeroDivisionError("0 to a non-positive power")
            return self
        return NormValue(self.p, self.exp * k)

    def inverse(self) -> "NormValue":
        return NormValue.one(self.p) / self

    def __lt__(self, other: "NormValue") -> bool:
        self._check(other)
        if self.is_zero:
            return not other.is_zero
        if other.is_zero:
            return False
        return self.exp < other.exp

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return f"{self.p}^{self.exp}"

    def __repr__(self) -> str:
        return f"NormValue({self})"
