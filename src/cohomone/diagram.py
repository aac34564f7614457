"""Group diagrams H < K-, K+ < G and the checks that constrain them.

A diagram describes a closed cohomogeneity-one manifold as a union of two
disk bundles over G/K- and G/K+ glued along G/H; the fibers K+-/H must be
spheres of positive dimension l+-.  This module owns:

* structural validation of a diagram (fiber dimensions, sphere
  recognition through the transitive-action table, component-count and
  effectiveness rules),
* the six-case classification of the rational homotopy fiber of
  G/H -> M by (l-, l+, number of non-orientable singular orbits), each
  case forcing the dimension of a rational-sphere total space,
* primitivity checks against a declared subgroup lattice,
* the K+/K- swap move and the canonical descriptor it leaves fixed, by
  which the catalog matches a diagram to its record,
* the Euler-characteristic consistency of the decomposition,
* exact Mayer-Vietoris rank feasibility for candidate Betti data, and
* ``ClassificationOutcome``, the verdict of the classifier and of a record.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import zip_longest
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .errors import InvalidDiagram, InvalidLattice, InvalidParams
from .lie_catalog import GroupType, NamedEmbedding, sphere_quotient
from .polynomial import MAX_SPHERE_DIM, IntegerPolynomial
from .rational_homotopy import euler_characteristic

#: a diagram's fields, or its descriptor's entries, in the order of its swap: K- and K+ entries exchanged
_swapped = itemgetter(0, 1, 3, 2, 5, 4, 6, 8, 7, 10, 9)


class GroupDiagram(namedtuple("GroupDiagram", "g h k_minus k_plus h_in_k_minus h_in_k_plus components_h "
                                              "components_k_minus components_k_plus nonorientable_k_minus "
                                              "nonorientable_k_plus", defaults=(1, 1, 1, False, False))):
    """The quadruple H < K+- < G with its discrete annotations.

    The five embeddings (catalogued records, or for a diagram built by a
    factory in ``classification``, embeddings of its own) are three into
    G, and the two containment witnesses h-in-K+- that exhibit K+-/H as
    spheres.
    Component counts annotate the number of connected components of each
    group (types themselves model connected groups); the non-orientable
    flags describe the singular orbits G/K-+ and are caller-supplied
    data, not derived.  The constructor and ``_replace`` run ``validate``: a diagram that breaks a rule
    raises ``InvalidDiagram`` listing its violations.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __new__(cls, *fields, **named) -> "GroupDiagram":
        self = super().__new__(cls, *fields, **named)
        violations = validate(self)
        if violations:
            raise InvalidDiagram("; ".join(map(str, violations)))
        return self

    @property
    def ell_minus(self) -> int:
        return self.k_minus.subgroup.dimension - self.h.subgroup.dimension

    @property
    def ell_plus(self) -> int:
        return self.k_plus.subgroup.dimension - self.h.subgroup.dimension

    @property
    def nonorientable_count(self) -> int:
        return int(self.nonorientable_k_minus) + int(self.nonorientable_k_plus)

    @property
    def manifold_dim(self) -> int:
        """dim M = dim G/H + 1."""
        return self.g.dimension - self.h.subgroup.dimension + 1

    def swap(self) -> "GroupDiagram":
        """The diagram with K+ and K- exchanged (an equivalence move).  Built past the check: every rule of
        ``validate`` is symmetric in K- and K+, so the swap of a valid diagram is valid."""
        return tuple.__new__(GroupDiagram, _swapped(self))

    def descriptor(self) -> tuple:
        return (
            str(self.g),
            self.h.id,
            self.k_minus.id,
            self.k_plus.id,
            self.h_in_k_minus.id,
            self.h_in_k_plus.id,
            self.components_h,
            self.components_k_minus,
            self.components_k_plus,
            self.nonorientable_k_minus,
            self.nonorientable_k_plus,
        )

    def canonical_descriptor(self) -> tuple:
        """The smaller of the descriptors of this diagram and of its swap.

        Equal and swap-equal diagrams, and only those, share it.
        """
        return min(own := self.descriptor(), _swapped(own))

    def orbit_inclusions(self) -> tuple[NamedEmbedding, NamedEmbedding, NamedEmbedding]:
        """H, K+ and K- as inclusions into G, which the constructor checked they are."""
        return self.h, self.k_plus, self.k_minus


class Violation(NamedTuple):
    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.message}"


def validate(d: GroupDiagram) -> list[Violation]:
    """All rule violations of a diagram, which ``GroupDiagram`` runs when it is built; an empty list means valid."""
    out: list[Violation] = []
    for name, emb in (("H", d.h), ("K-", d.k_minus), ("K+", d.k_plus)):
        if emb.ambient != d.g:
            out.append(Violation("containment-shape", f"{name} ({emb.id}) is not an embedding into {d.g}"))
    for name, k, w in (("K-", d.k_minus, d.h_in_k_minus), ("K+", d.k_plus, d.h_in_k_plus)):
        if w.ambient != k.subgroup or w.subgroup != d.h.subgroup:
            out.append(
                Violation(
                    "containment-shape",
                    f"witness {w.id} does not present H inside {name} "
                    f"(expected {d.h.subgroup} inside {k.subgroup})",
                )
            )
    if out:
        return out

    ell_minus, ell_plus = d.ell_minus, d.ell_plus
    ells = {"K-": ell_minus, "K+": ell_plus}
    for name, ell in ells.items():
        if ell < 1:
            out.append(Violation("fiber-dimension", f"{name}/H has dimension {ell}; both fibers need dimension >= 1"))
    if not out:
        for name, k, w in (("K-", d.k_minus, d.h_in_k_minus), ("K+", d.k_plus, d.h_in_k_plus)):
            recognized = sphere_quotient(k.subgroup, w)
            if recognized != ells[name]:
                out.append(
                    Violation(
                        "sphere-recognition",
                        f"{name}/H (via {w.id}) is not a catalogued transitive sphere of dimension {ells[name]}",
                    )
                )

    counts = {"H": d.components_h, "K-": d.components_k_minus, "K+": d.components_k_plus}
    if any(c < 1 for c in counts.values()):
        out.append(Violation("component-pattern", "component counts must be positive"))
    elif ell_minus >= 2 and ell_plus >= 2:
        bad = [name for name, c in counts.items() if c != 1]
        if bad:
            out.append(
                Violation(
                    "connectedness",
                    f"both fibers have dimension >= 2, so all groups are connected; {', '.join(bad)} annotated otherwise",
                )
            )
    elif min(ell_minus, ell_plus) == 1 and max(ell_minus, ell_plus) > 1:
        # circle side: the K with 1-dimensional fiber; big side: the other
        if ell_minus == 1:
            circle_name, circle_count, big_name, big_count = "K-", d.components_k_minus, "K+", d.components_k_plus
        else:
            circle_name, circle_count, big_name, big_count = "K+", d.components_k_plus, "K-", d.components_k_minus
        if big_count != d.components_h:
            out.append(
                Violation(
                    "component-pattern",
                    f"with a single circle fiber, H and {big_name} carry equal component counts "
                    f"(got {d.components_h} and {big_count})",
                )
            )
        if circle_count != 1:
            out.append(
                Violation(
                    "component-pattern",
                    f"{circle_name} extends H's identity component by a circle and is connected "
                    f"(got count {circle_count})",
                )
            )

    if "proper-projections" not in d.h.tags:
        out.append(
            Violation(
                "effectiveness-declaration",
                f"H ({d.h.id}) must declare non-surjective projections to every simple factor of G",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Homotopy-fiber case classification
# ---------------------------------------------------------------------------

#: case-6 fibers: (fiber dimension l, tag, description "G/H x loops(S^n)", forced total dimension n);
#: ``classification.case6_pairs`` reads the pairs (G, H) from the descriptions; the report checks l and n against them
CASE6_FIBERS: tuple[tuple[int, str, str, int], ...] = (
    (2, "su3-mod-t2", "SU(3)/T2 x loops(S7)", 7),
    (2, "sp2-mod-t2", "Sp(2)/T2 x loops(S9)", 9),
    (2, "g2-mod-t2", "G2/T2 x loops(S13)", 13),
    (4, "sp3-mod-sp1cubed", "Sp(3)/Sp(1)^3 x loops(S13)", 13),
    (8, "f4-mod-spin8", "F4/Spin(8) x loops(S25)", 25),
)
_CASE6_TAGS = frozenset(tag for _, tag, _, _ in CASE6_FIBERS)


class GHCaseResult(NamedTuple):
    """One compatible homotopy-fiber case with its forced total dimension; ``fiber`` holds the
    dimensions of the fiber's spheres, the loop space's sphere last, or case 6's description."""

    case_index: int
    forced_dim: int
    fiber: tuple[int, ...] | str

    @property
    def fiber_model(self) -> str:
        """The fiber as text, e.g. "S1 x S3 x loops(S5)"; formatted only when read."""
        if isinstance(self.fiber, str):
            return self.fiber
        *spheres, loop = self.fiber
        return " x ".join(f"S{k}" for k in spheres) + f" x loops(S{loop})"


def _unknown_fiber_tag(hint: str) -> InvalidParams:
    """The error for a fiber hint that names no case-6 fiber; ``gh_classify`` itself formats no text."""
    known = ", ".join(tag for _, tag, _, _ in CASE6_FIBERS)
    return InvalidParams(f"unknown fiber tag {hint!r}; the case-6 fiber tags are {known}")


def gh_classify(
    ell_minus: int,
    ell_plus: int,
    h: int,
    fiber_hint: Optional[str] = None,
) -> list[GHCaseResult]:
    """All homotopy-fiber cases compatible with (l-, l+, h).

    ``h`` counts non-orientable singular orbits.  Each case forces the
    dimension n of a rational-sphere total space through the rank-one
    connecting homomorphism, which must hit the loop-space factor.  The
    two fiber labels play symmetric roles except where a case singles
    out the circle side, so inputs are accepted in either order.  An
    empty list means no case is compatible (that combination cannot
    carry a rational sphere).  A ``fiber_hint`` keeps one case-6 fiber
    and must be a tag of ``CASE6_FIBERS``.  Case 4, which every h = 0 call gives, is built with
    ``tuple.__new__``: ``GHCaseResult`` checks nothing, and its three fields are computed here.
    """
    if ell_minus < 1 or ell_plus < 1:
        raise InvalidParams("fiber dimensions must be at least 1")
    if fiber_hint is not None and not (isinstance(fiber_hint, str) and fiber_hint in _CASE6_TAGS):
        raise _unknown_fiber_tag(fiber_hint)
    if h == 0:
        total = ell_minus + ell_plus
        if total % 2:  # labels of opposite parity
            return [tuple.__new__(GHCaseResult, (4, 2 * total + 1, (ell_minus, ell_plus, total + 1)))]
        results = [tuple.__new__(GHCaseResult, (4, total + 1, (ell_minus, ell_plus, total + 1)))]
        if ell_minus == ell_plus and ell_minus % 2 == 0:
            results.append(GHCaseResult(5, ell_minus + 1, (ell_minus, ell_minus + 1)))
            results += [GHCaseResult(6, forced, description) for ell, tag, description, forced in CASE6_FIBERS
                        if ell == ell_minus and fiber_hint in (None, tag)]
        return results
    if h not in (1, 2):
        raise InvalidParams("the non-orientable orbit count h must be 0, 1 or 2")
    if ell_minus != 1 and ell_plus != 1:  # every case with h > 0 has a circle fiber
        return []
    lo, hi = (ell_minus, ell_plus) if ell_minus <= ell_plus else (ell_plus, ell_minus)
    if lo == hi == 1:
        return [GHCaseResult(1, 7, (3, 3, 7)) if h == 2 else GHCaseResult(2, 5, (1, 3, 5))]
    if h == 1 and lo == 1 and hi >= 3 and hi % 2 == 1:
        return [GHCaseResult(3, 2 * hi + 3, (1, 2 * hi + 1, 2 * hi + 3))]
    return []


# ---------------------------------------------------------------------------
# Primitivity
# ---------------------------------------------------------------------------


class PrimitivityResult(NamedTuple):
    verdict: str  # "non-primitive" | "primitive-required" | "unknown"
    witness: Optional[str] = None


def primitivity(
    d: GroupDiagram,
    lattice: Sequence[NamedEmbedding],
    assert_rational_sphere: bool = False,
) -> PrimitivityResult:
    """Search a declared subgroup lattice for a witness of non-primitivity.

    A lattice entry L witnesses non-primitivity when it is a proper
    subgroup of G declared (its ``contains`` ids) to contain H and
    both K+-.  With ``assert_rational_sphere`` the caller states that the
    total space is a rational sphere, which forbids such a witness; the
    scan then returns "primitive-required" (and finding a witness anyway
    raises, since the declarations contradict the assertion).
    """
    if d.k_minus.subgroup == d.g or d.k_plus.subgroup == d.g:
        # a singular group equal to G cannot sit inside a proper subgroup
        return PrimitivityResult("primitive-required")
    needed = {d.h.id, d.k_minus.id, d.k_plus.id}
    for entry in lattice:
        if entry.ambient != d.g:
            raise InvalidLattice(f"lattice entry {entry.id} lives in {entry.ambient}, not {d.g}")
        if entry.subgroup == d.g:
            continue
        if needed <= entry.contains:
            if assert_rational_sphere:
                raise InvalidLattice(
                    f"lattice entry {entry.id} contradicts the rational-sphere assertion"
                )
            return PrimitivityResult("non-primitive", witness=entry.id)
    if assert_rational_sphere:
        return PrimitivityResult("primitive-required")
    return PrimitivityResult("unknown")


# ---------------------------------------------------------------------------
# Euler characteristic of the decomposition
# ---------------------------------------------------------------------------


def double_disk_euler(d: GroupDiagram) -> int:
    """Euler characteristic chi(G/K+) + chi(G/K-) - chi(G/H) of the union of the two disk bundles.

    Must equal 1 + (-1)^n for an n-dimensional rational sphere.
    """
    chi_h, chi_plus, chi_minus = map(euler_characteristic, d.orbit_inclusions())
    return chi_plus + chi_minus - chi_h


# ---------------------------------------------------------------------------
# Mayer-Vietoris rank feasibility
# ---------------------------------------------------------------------------


class MVFeasibility(NamedTuple):
    verdict: str  # "feasible" | "infeasible"
    failing_degree: Optional[int]
    rank_profile: tuple[tuple[int, int, int], ...]  # (r_k, s_k, delta_k) per degree


def mv_feasible(
    p_h: IntegerPolynomial,
    p_k_plus: IntegerPolynomial,
    p_k_minus: IntegerPolynomial,
    n: int,
) -> MVFeasibility:
    """Can M be a rational n-sphere given the orbits' Betti polynomials?

    Solves the exactness system of the restriction/difference/connecting
    ranks (r_k, s_k, delta_k) by forward substitution:

        b_k(M)            = delta_(k-1) + r_k
        b_k(K+) + b_k(K-) = r_k + s_k
        b_k(H)            = s_k + delta_k

    with b(M) = 1 in degrees 0 and n.  Feasible iff every rank is
    non-negative: the scan runs one degree past every non-zero Betti
    number, where r = -delta_(k-1), so the final connecting rank is zero.
    It is linear in n, so n above ``MAX_SPHERE_DIM`` is refused.
    """
    if not 1 <= n <= MAX_SPHERE_DIM:
        raise InvalidParams(f"the sphere dimension n must be between 1 and {MAX_SPHERE_DIM}, got {n}")
    for p in (p_h, p_k_plus, p_k_minus):
        if any(c < 0 for c in p.coefficients):
            raise InvalidParams("Betti polynomials must have non-negative coefficients")
    top = max(n, p_h.degree, p_k_plus.degree, p_k_minus.degree) + 1
    # each polynomial has at most top coefficients, so each is padded with zeros up to degree top
    padded = zip_longest(range(top + 1), p_h.coefficients, p_k_plus.coefficients, p_k_minus.coefficients, fillvalue=0)
    profile: list[tuple[int, int, int]] = []
    delta_prev = 0
    for k, b_h, b_k_plus, b_k_minus in padded:
        b_m = 1 if k in (0, n) else 0
        r = b_m - delta_prev
        s = b_k_plus + b_k_minus - r
        delta = b_h - s
        profile.append((r, s, delta))
        if r < 0 or s < 0 or delta < 0:
            return MVFeasibility("infeasible", k, tuple(profile))
        delta_prev = delta
    return MVFeasibility("feasible", None, tuple(profile))


# ---------------------------------------------------------------------------
# Classification outcomes
# ---------------------------------------------------------------------------


class SevenFamilyParams(namedtuple("SevenFamilyParams", "p_minus q_minus p_plus q_plus")):
    """Parameters of the S^3 x S^3 seven-manifold family; all = 1 mod 4."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __new__(cls, p_minus: int, q_minus: int, p_plus: int, q_plus: int) -> "SevenFamilyParams":
        self = tuple.__new__(cls, (p_minus, q_minus, p_plus, q_plus))
        if not p_minus % 4 == q_minus % 4 == p_plus % 4 == q_plus % 4 == 1:
            name, value = next(item for item in zip(self._fields, self) if item[1] % 4 != 1)  # the first field off
            raise InvalidParams(f"{name} = {value} is not congruent to 1 mod 4")
        return self


#: the fields each outcome kind requires, with their types; its other fields stay None
_OUTCOME_FIELDS: dict[str, dict[str, type]] = {
    "linear-sphere": {"description": str},
    "brieskorn": {"m": int, "d": int},
    "wu": {},
    "g2-quotient": {"index": int},
    "seven-family": {"params": SevenFamilyParams, "torsion": int},
    "not-rational-sphere": {"reason": str},
    "unmatched": {},
}


class ClassificationOutcome(namedtuple("ClassificationOutcome", "kind description m d index params torsion reason")):
    """Tagged alternative naming the matched family, or a reasoned rejection.

    ``kind`` is a key of ``_OUTCOME_FIELDS``, which lists the fields it sets.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __new__(
        cls, kind: str, description: Optional[str] = None, m: Optional[int] = None, d: Optional[int] = None,
        index: Optional[int] = None, params: Optional[SevenFamilyParams] = None, torsion: Optional[int] = None,
        reason: Optional[str] = None,
    ) -> "ClassificationOutcome":
        self = tuple.__new__(cls, (kind, description, m, d, index, params, torsion, reason))
        required = _OUTCOME_FIELDS.get(kind)
        if required is None:
            raise InvalidParams(f"unknown outcome kind {kind!r}")
        for name, value in zip(self._fields[1:], self[1:]):
            expected = required.get(name)
            if expected is None and value is not None:
                raise InvalidParams(f"{kind} outcomes take no {name}, got {value!r}")
            # bool subclasses int, but True is not an integer
            if expected is not None and (not isinstance(value, expected) or isinstance(value, bool)):
                raise InvalidParams(f"{kind} outcomes require {name} of type {expected.__name__}, got {value!r}")
        if kind == "brieskorn" and m % 2 and d % 2 == 0:
            raise InvalidParams("Brieskorn outcomes require m even or d odd")
        if kind == "g2-quotient" and index not in (1, 3):
            raise InvalidParams("the G2/SU(2) quotients carry subgroup index 1 or 3")
        if kind == "seven-family" and not torsion:
            raise InvalidParams("seven-family outcomes require nonzero torsion order")
        return self

    def as_dict(self) -> dict:
        """The fields that are set, with ``params`` as an object of its four integers."""
        out = {name: value for name, value in zip(self._fields, self) if value is not None}
        if self.params is not None:
            out["params"] = self.params._asdict()
        return out
