"""Homology of the Brieskorn varieties B^(2m-1)_d.

B^(2m-1)_d is the link of the singularity z_0^d + z_1^2 + ... + z_m^2 = 0,
the intersection of the zero set with a small sphere in C^(m+1).  It is an
(m-2)-connected (2m-1)-manifold, and everything about its homology is
controlled by the integer Delta(1), where Delta is the characteristic
polynomial of the monodromy of the associated fibration:

    Delta(t) = prod over d-th roots of unity w != 1 of (t - w * (-1)^m)
             = (t^d - (-1)^(m*d)) / (t - (-1)^m).

The middle group H_(m-1) is cyclic of order |Delta(1)| when that value is
nonzero and infinite cyclic when Delta(1) = 0, giving:

* m even:            H_(m-1) = Z/d (no torsion entry when d = 1),
* m odd, d even:     H_(m-1) = Z and H_m = Z  (the S^(m-1) x S^m pattern),
* m odd, d odd:      no middle homology (a homotopy sphere).

Dividing out gives the closed form used here: with s = (-1)^m,
Delta(t) = sum_(k<d) s^(d-1-k) t^k.  The product over roots of unity is
kept as the independent test oracle.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidParams, Unsupported
from .polynomial import MAX_SPHERE_DIM, IntegerPolynomial


class BrieskornParams(namedtuple("BrieskornParams", "m d")):
    """Parameters (m, d) of B^(2m-1)_d; m >= 3 and d >= 1."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __new__(cls, m: int, d: int) -> "BrieskornParams":
        if m < 3:
            raise Unsupported(f"m must be at least 3 (B^3_d is not simply connected), got {m}")
        if d < 1:
            raise InvalidParams(f"d must be at least 1, got {d}")
        return tuple.__new__(cls, (m, d))

    @property
    def sphere_dim(self) -> int:
        return 2 * self.m - 1


#: one degree's group: Z^free_rank plus the cyclic groups of the orders in ``torsion``
HomologyEntry = namedtuple("HomologyEntry", "degree free_rank torsion", defaults=(0, ()))


class GradedAbelianGroup(namedtuple("GradedAbelianGroup", "entries")):
    """A finitely generated graded abelian group, sparse by degree, its entries in increasing degree."""

    __slots__ = ()

    def entry(self, degree: int) -> HomologyEntry | None:
        for e in self.entries:
            if e.degree == degree:
                return e
        return None

    def torsion(self, degree: int) -> tuple[int, ...]:
        e = self.entry(degree)
        return e.torsion if e else ()

    def is_rational_sphere(self, n: int) -> bool:
        """Free ranks concentrated in degrees 0 and n, both equal to 1."""
        return {degree: rank for degree, rank, _ in self.entries if rank} == {0: 1, n: 1}


def delta_poly(p: BrieskornParams) -> IntegerPolynomial:
    """Monodromy characteristic polynomial (t^d - (-1)^(m*d)) / (t - (-1)^m).

    Coefficient k is s^(d-1-k) with s = (-1)^m.  The output is dense, with
    d coefficients, so d above ``MAX_SPHERE_DIM`` is refused.  Built past ``IntegerPolynomial``'s trim:
    the coefficients are the ints 1 and s, and the leading one is 1.
    """
    if p.d > MAX_SPHERE_DIM:
        raise InvalidParams(f"delta_poly needs d at most {MAX_SPHERE_DIM}, got {p.d}")
    s = -1 if p.m % 2 else 1
    return tuple.__new__(IntegerPolynomial, (((1, s) * ((p.d + 1) // 2))[: p.d][::-1],))


def delta_at_one(p: BrieskornParams) -> int:
    """Closed form for Delta(1): d for m even; 0 (d even) or 1 (d odd) for m odd."""
    if p.m % 2 == 0:
        return p.d
    return 0 if p.d % 2 == 0 else 1


def homology(p: BrieskornParams) -> GradedAbelianGroup:
    """Integral homology of B^(2m-1)_d as a graded abelian group.

    Z in degrees 0 and 2m-1, and the middle groups of the module docstring: the degrees 0 < m-1 < m < 2m-1
    strictly increase for m >= 3, and a torsion entry appears only when |Delta(1)| > 1.
    """
    m, order = p.m, delta_at_one(p)
    if order == 0:
        middle = (HomologyEntry(m - 1, 1), HomologyEntry(m, 1))
    else:
        middle = (HomologyEntry(m - 1, 0, (order,)),) if order > 1 else ()
    return GradedAbelianGroup((HomologyEntry(0, 1), *middle, HomologyEntry(2 * m - 1, 1)))


def rational_sphere_gate(p: BrieskornParams) -> bool:
    """True exactly when B^(2m-1)_d is a rational sphere: m even or d odd."""
    return p.m % 2 == 0 or p.d % 2 == 1
