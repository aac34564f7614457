"""Exact integer polynomial arithmetic.

Everything downstream (Hilbert series, monodromy characteristic
polynomials, Mayer-Vietoris rank bookkeeping) runs on plain ``int``
coefficients; there is deliberately no floating point anywhere in this
module.  Polynomials are immutable, stored densely by ascending degree
with trailing zeros trimmed, so two equal polynomials compare equal
structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

#: largest degree of a dense output (``brieskorn.delta_poly``, the cli's ``--*-spheres`` products)
#: and the largest sphere dimension ``diagram.mv_feasible`` accepts (it scans every degree up to n)
MAX_SPHERE_DIM = 10**6


class InexactDivision(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _trim(coefficients: Iterable[int]) -> tuple[int, ...]:
    coeffs = list(coefficients)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(int(c) for c in coeffs)


@dataclass(frozen=True)
class IntegerPolynomial:
    """Dense integer polynomial; ``coefficients[k]`` is the degree-k coefficient."""

    coefficients: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", _trim(self.coefficients))

    @classmethod
    def zero(cls) -> "IntegerPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntegerPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coefficient: int = 1) -> "IntegerPolynomial":
        if degree < 0:
            raise ValueError("monomial degree must be non-negative")
        return cls((0,) * degree + (coefficient,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, degree: int) -> int:
        if 0 <= degree < len(self.coefficients):
            return self.coefficients[degree]
        return 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coefficients)

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __add__(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        return IntegerPolynomial(
            tuple(self.coefficient(k) + other.coefficient(k) for k in range(n))
        )

    def __sub__(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        return IntegerPolynomial(
            tuple(self.coefficient(k) - other.coefficient(k) for k in range(n))
        )

    def __neg__(self) -> "IntegerPolynomial":
        return IntegerPolynomial(tuple(-c for c in self.coefficients))

    def __mul__(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        if self.is_zero() or other.is_zero():
            return IntegerPolynomial.zero()
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntegerPolynomial(tuple(out))

    def scale(self, factor: int) -> "IntegerPolynomial":
        return IntegerPolynomial(tuple(factor * c for c in self.coefficients))

    def divmod(self, divisor: "IntegerPolynomial") -> tuple["IntegerPolynomial", "IntegerPolynomial"]:
        """Euclidean division; requires the divisor's leading coefficient to be +/-1.

        Unit leading coefficients keep the quotient integral, which is the
        only case the library needs (all divisors are of the form 1 - t^k or
        t -+ 1).
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = divisor.coefficients[-1]
        if lead not in (1, -1):
            raise ValueError("division requires a unit leading coefficient")
        remainder = list(self.coefficients)
        dn = divisor.degree
        quotient = [0] * max(len(remainder) - dn, 0)
        for k in range(len(remainder) - 1, dn - 1, -1):
            c = remainder[k]
            if c == 0:
                continue
            q = c * lead  # c // lead for lead in {1, -1}
            quotient[k - dn] = q
            for j, b in enumerate(divisor.coefficients):
                remainder[k - dn + j] -= q * b
        return IntegerPolynomial(tuple(quotient)), IntegerPolynomial(tuple(remainder))

    def divexact(self, divisor: "IntegerPolynomial") -> "IntegerPolynomial":
        """Exact division; raises :class:`InexactDivision` on a nonzero remainder."""
        quotient, remainder = self.divmod(divisor)
        if not remainder.is_zero():
            raise InexactDivision(
                f"{self} is not divisible by {divisor} (remainder {remainder})"
            )
        return quotient

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * value + c
        return acc

    def shift(self, degrees: int) -> "IntegerPolynomial":
        """Multiply by t**degrees."""
        if degrees < 0:
            raise ValueError("shift must be non-negative")
        if self.is_zero():
            return self
        return IntegerPolynomial((0,) * degrees + self.coefficients)

    def as_list(self) -> list[int]:
        return list(self.coefficients)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*t" if c not in (1, -1) else ("-t" if c == -1 else "t"))
            else:
                parts.append(f"{c}*t^{k}" if c not in (1, -1) else ("-t^%d" % k if c == -1 else f"t^{k}"))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def product(polys: Iterable[IntegerPolynomial]) -> IntegerPolynomial:
    acc = IntegerPolynomial.one()
    for p in polys:
        acc = acc * p
    return acc


def one_minus_power(exponent: int) -> IntegerPolynomial:
    """1 - t**exponent."""
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    return IntegerPolynomial((1,) + (0,) * (exponent - 1) + (-1,))


def one_plus_power(exponent: int) -> IntegerPolynomial:
    """1 + t**exponent."""
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    return IntegerPolynomial((1,) + (0,) * (exponent - 1) + (1,))
