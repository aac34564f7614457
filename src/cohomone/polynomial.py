"""Exact integer polynomial arithmetic.

Everything downstream (Hilbert series, monodromy characteristic
polynomials, Mayer-Vietoris rank bookkeeping) runs on plain ``int``
coefficients; there is deliberately no floating point anywhere in this
module.  A polynomial is a named tuple of one field, ``coefficients``,
stored densely by ascending degree with trailing zeros trimmed and
coefficients made ``int``, so two equal polynomials compare equal
structurally; iterate and test ``coefficients``, not the polynomial, a
tuple of one field that is always true.  They are multiplied and
evaluated, never divided: the one quotient the engine needs, the
equal-rank Hilbert series, is a recurrence in ``rational_homotopy``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .errors import InvalidParams

#: largest degree of a dense output (``brieskorn.delta_poly``, the cli's ``--*-spheres`` products)
#: and the largest sphere dimension ``diagram.mv_feasible`` accepts (it scans every degree up to n)
MAX_SPHERE_DIM = 10**6


def _trim(coefficients: Iterable[int]) -> tuple[int, ...]:
    coeffs = tuple(map(int, coefficients))
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return coeffs[:end]


class IntegerPolynomial(namedtuple("IntegerPolynomial", "coefficients")):
    """Dense integer polynomial; ``coefficients[k]`` is the degree-k coefficient."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace trims too
    __add__ = __rmul__ = lambda self, other: NotImplemented  # no tuple concatenation or repetition

    def __new__(cls, coefficients: Iterable[int] = ()) -> "IntegerPolynomial":
        return tuple.__new__(cls, (_trim(coefficients),))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coefficients) - 1

    def coefficient(self, degree: int) -> int:
        if 0 <= degree < len(self.coefficients):
            return self.coefficients[degree]
        return 0

    def __mul__(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)  # all zeros if either factor is zero
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntegerPolynomial(tuple(out))

    def __call__(self, value: int) -> int:
        if value == 1:
            return sum(self.coefficients)
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * value + c
        return acc

    def as_list(self) -> list[int]:
        return list(self.coefficients)


def product(polys: Iterable[IntegerPolynomial]) -> IntegerPolynomial:
    acc = IntegerPolynomial((1,))
    for p in polys:
        acc = acc * p
    return acc


def one_plus_power(exponent: int) -> IntegerPolynomial:
    """1 + t**exponent."""
    if exponent <= 0:
        raise InvalidParams(f"the exponent of 1 + t^k must be positive, got {exponent}")
    return IntegerPolynomial((1,) + (0,) * (exponent - 1) + (1,))
