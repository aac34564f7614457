"""Rational homotopy and cohomology arithmetic for homogeneous spaces G/H.

Three exact computations on a catalog embedding H < G (its ``ambient``
and ``subgroup``), all driven by the degree multisets of the two groups
and the declared per-degree ranks of the inclusion on rational homotopy:

* the long-exact-sequence bookkeeping that turns (degrees of G, degrees
  of H, map ranks) into the rational homotopy of G/H,
* the equal-rank Hilbert series prod(1 - t^(d+1)) / prod(1 - t^(e+1)),
  whose exact quotient (by a recurrence per factor 1 - t^k, no Euclidean
  division) is the rational Poincare polynomial of G/H, and
* Euler characteristics as Weyl-order ratios.

Every multiplicity c_G(k), c_H(k) is read from ``GroupType.degree_counts``,
one table per group.  Degrees of a compact group are odd, so a surviving
ambient generator in degree k lands in odd degree k, while a killed subgroup
generator in degree k feeds degree k+1 (even).  In particular a torus circle
of H inside a semisimple G contributes a degree-2 class of G/H.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidEmbedding, Unsupported
from .lie_catalog import NamedEmbedding
from .polynomial import IntegerPolynomial, one_plus_power, product


class QuotientHomotopy(NamedTuple):
    """Non-trivial rational homotopy of a quotient, split by parity.

    ``heuristic`` is True when some degree had no declared map rank and
    the maximal-rank default was used; such outputs are unverified.
    """

    odd_degrees: tuple[int, ...]
    even_degrees: tuple[int, ...]
    heuristic: bool = False


def quotient_homotopy(inclusion: NamedEmbedding) -> QuotientHomotopy:
    """Rational homotopy of G/H from the exact sequence of H -> G -> G/H.

    Per degree k with ambient multiplicity c_G(k), subgroup multiplicity
    c_H(k) and map rank r(k): G/H receives c_G(k) - r(k) classes in
    degree k and c_H(k) - r(k) classes in degree k+1.  Missing declared
    ranks default to min(c_G, c_H) and set the heuristic flag.
    """
    declared = dict(inclusion.homotopy_map_ranks)
    odd, even, heuristic = [], [], False
    for k, c_g, c_h in _multiplicities(inclusion):
        bound = min(c_g, c_h)  # NamedEmbedding checked that a declared rank is at most this
        r = declared.get(k, bound)
        heuristic = heuristic or (k not in declared and bound > 0)
        odd.extend([k] * (c_g - r))
        even.extend([k + 1] * (c_h - r))
    return QuotientHomotopy(tuple(odd), tuple(even), heuristic)


def _multiplicities(inclusion: NamedEmbedding) -> list[tuple[int, int, int]]:
    """(k, c_G(k), c_H(k)) for every degree k of G or H, in increasing k, from the two ``degree_counts``."""
    amb, sub = dict(inclusion.ambient.degree_counts), dict(inclusion.subgroup.degree_counts)
    return [(k, amb.get(k, 0), sub.get(k, 0)) for k in sorted({*amb, *sub})]


def hilbert_factors(inclusion: NamedEmbedding) -> tuple[list[int], list[int]]:
    """The degrees d of the factors 1 - t^(d+1) of the equal-rank Hilbert series left in its numerator (from G)
    and its denominator (from H) once the factors common to both cancel as multisets; sorted, in linear time."""
    counts = _multiplicities(inclusion)
    return [k for k, g, h in counts for _ in range(g - h)], [k for k, g, h in counts for _ in range(h - g)]


def hilbert_series(inclusion: NamedEmbedding) -> IntegerPolynomial:
    """Rational Poincare polynomial of an equal-rank quotient G/H.

    The exact quotient
    prod_{d in degrees(G)} (1 - t^(d+1)) / prod_{e in degrees(H)} (1 - t^(e+1)).
    Factors common to both cancel as multisets (``hilbert_factors``).  Each remaining
    numerator factor is multiplied in by p_i -= p_(i-k), and each
    remaining denominator factor divided out by q_i = p_i + q_(i-k); a
    nonzero tail of length k after a division means the quotient is not
    a polynomial.  The result must have non-negative coefficients and
    constant term 1; anything else means the inclusion data is wrong.
    """
    g, h = inclusion.ambient, inclusion.subgroup
    if g.rank != h.rank:
        raise Unsupported(
            f"hilbert_series needs an equal-rank pair, got ranks {g.rank} and {h.rank}"
        )
    numerator, denominator = hilbert_factors(inclusion)
    coeffs = [1]
    for d in numerator:
        k = d + 1
        coeffs.extend([0] * k)
        for i in range(len(coeffs) - 1, k - 1, -1):
            coeffs[i] -= coeffs[i - k]
    for e in denominator:
        k = e + 1
        for i in range(k, len(coeffs)):
            coeffs[i] += coeffs[i - k]
        if any(coeffs[-k:]):
            raise InvalidEmbedding(f"{inclusion.id}: Hilbert series is not polynomial")
        del coeffs[-k:]
    series = IntegerPolynomial(coeffs)
    if series.coefficient(0) != 1 or any(c < 0 for c in series.coefficients):
        raise InvalidEmbedding(
            f"{inclusion.id}: Hilbert series {series.as_list()} is not a valid Poincare polynomial"
        )
    return series


def euler_characteristic(inclusion: NamedEmbedding) -> int:
    """Euler characteristic of G/H: Weyl-order ratio at equal rank, else 0."""
    g, h = inclusion.ambient, inclusion.subgroup
    if h.rank < g.rank:
        return 0
    wg, wh = g.weyl_order, h.weyl_order
    if wg % wh:
        raise InvalidEmbedding(
            f"{inclusion.id}: Weyl order {wh} does not divide {wg}"
        )
    return wg // wh


def odd_product_poincare(dims) -> IntegerPolynomial:
    """Poincare polynomial prod (1 + t^d) of a product of spheres."""
    return product(one_plus_power(d) for d in dims)
