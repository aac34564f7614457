"""The classification layer.

Queryable reproductions of the classification data: the corank-2 pair table, its four infinite
families written once in ``CORANK2_FAMILIES``, and its transitive-fiber filter, the five
exceptional-fiber pairs, the four-parameter seven-manifold family with its torsion arithmetic,
parameterized diagram factories (Brieskorn, tensor, seven-family), and the diagram classifier that
template-matches a validated diagram against the shipped catalog and the structural family
recognizers.  The Betti data of a diagram's orbits, which only the ``verify-tables`` Mayer-Vietoris
check reads, is derived in ``verify.orbit_betti``.

``FAMILIES`` is the one table of the parameterized families: for each ``family`` name of a diagram
document, the key table of its documents, its factory and its recognizer.  Each family's orbit
groups (G, H, K-, K+) are defined, and checked to fit, once per parameter.  Its factory builds the
diagram from them, skipping the embedding and diagram checks that those groups, this module's tags and
its component counts have passed; its recognizer reads the parameter off G and compares the orbit groups
of the diagram, or of its swap, with the family's.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Sequence

from .diagram import CASE6_FIBERS, ClassificationOutcome, GroupDiagram, SevenFamilyParams
from .errors import InvalidEmbedding, InvalidParams
from .lie_catalog import (
    TRIVIAL_GROUP,
    GroupType,
    NamedEmbedding,
    check_winding_and_slope,
    is_declared_injective,
    memoized,
    parse_group,
    special_orthogonal,
    special_unitary,
    spheres_acted_on,
    symplectic,
)
from .polynomial import MAX_SPHERE_DIM
from .rational_homotopy import quotient_homotopy

if TYPE_CHECKING:
    from .catalog import Catalog

_T1 = GroupType((), 1)
_SU2 = special_unitary(2)


# ---------------------------------------------------------------------------
# Seven-manifold family
# ---------------------------------------------------------------------------


def seven_family_torsion(p: SevenFamilyParams) -> int:
    """r = |p-^2 q+^2 - p+^2 q-^2| / 8; the third homology group is Z/r (r > 0).

    The congruences make every square 1 mod 8, so the difference is
    divisible by 8 exactly.
    """
    diff = (p.p_minus * p.q_plus) ** 2 - (p.p_plus * p.q_minus) ** 2
    if diff % 8:
        raise InvalidParams(f"{p}: difference of squares {diff} is not divisible by 8")
    return abs(diff) // 8


def realize_torsion(t: int) -> SevenFamilyParams:
    """Parameters with torsion exactly t: p+ = +-(2t+1), p- = +-(2t-1), q = 1.

    Exactly one sign of each of 2t+1 and 2t-1 is 1 mod 4.  Built past ``SevenFamilyParams``'s check:
    both p are 1 mod 4 by that parity rule, and q = 1; a t that is no integer is a TypeError.
    """
    if index(t) < 1:
        raise InvalidParams(f"t must be positive, got {t}")
    # 2t-1 is 1 mod 4 when t is odd and 2t+1 when t is even
    p_minus, p_plus = (2 * t - 1, -2 * t - 1) if t % 2 else (1 - 2 * t, 2 * t + 1)
    return tuple.__new__(SevenFamilyParams, (p_minus, 1, p_plus, 1))


# ---------------------------------------------------------------------------
# Corank-2 pair table
# ---------------------------------------------------------------------------


class CorankTwoRow(namedtuple(
    "CorankTwoRow", "group subgroup ell_minus total ell_plus embedding_id family param"
)):
    """A simple corank-2 pair (G, L) whose quotient has two odd homotopy degrees; total = ell_minus + ell_plus."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __new__(
        cls, group: GroupType, subgroup: GroupType, ell_minus: int, total: int, ell_plus: int,
        embedding_id: str, family: str, param: Optional[int],
    ) -> "CorankTwoRow":
        if ell_plus != total - ell_minus or ell_plus < 0:
            raise InvalidParams(f"{embedding_id}: inconsistent degree columns")
        if ell_minus % 2 == 0:
            raise InvalidParams(f"{embedding_id}: ell_minus must be odd")
        return tuple.__new__(cls, (group, subgroup, ell_minus, total, ell_plus, embedding_id, family, param))


def _or_default(catalog: Optional[Catalog]) -> Catalog:
    """``catalog``, or the shipped one, imported only then: the seven-family arithmetic loads no data."""
    if catalog is not None:
        return catalog
    from .catalog import default_catalog

    return default_catalog()


#: the four infinite families of the corank-2 table, by id: (least m, the pair (G, L) at m)
CORANK2_FAMILIES: dict[str, tuple[int, Callable[[int], tuple[GroupType, GroupType]]]] = {
    "su(m)/su(m-2)": (3, lambda m: (special_unitary(m), special_unitary(m - 2))),
    "spin(2m+1)/spin(2m-3)": (4, lambda m: (special_orthogonal(2 * m + 1), special_orthogonal(2 * m - 3))),
    "sp(m)/sp(m-2)": (2, lambda m: (symplectic(m), symplectic(m - 2))),
    "spin(2m)/spin(2m-3)": (4, lambda m: (special_orthogonal(2 * m), special_orthogonal(2 * m - 3))),
}


def corank2_sources(max_rank: int, catalog: Catalog) -> list[tuple[NamedEmbedding, str, Optional[int]]]:
    """The candidate pairs of the corank-2 table whose G has rank at most ``max_rank``, as (embedding, family id,
    parameter) triples: the catalog's ``corank2``-tagged embeddings, each its own family with no parameter, then
    the instances ``<id>@m=<m>`` of ``CORANK2_FAMILIES``, rationally injective, from each family's least m on."""
    sources = [(e, e.id, None) for e in catalog.embeddings() if "corank2" in e.tags and e.ambient.rank <= max_rank]
    for family, (m, pair) in CORANK2_FAMILIES.items():
        while (groups := pair(m))[0].rank <= max_rank:
            g, sub = groups
            sources.append((NamedEmbedding(f"{family}@m={m}", g, sub, sub.degree_counts), family, m))
            m += 1
    return sources


def enumerate_corank2(max_rank: int, catalog: Optional[Catalog] = None) -> list[CorankTwoRow]:
    """All catalogued (G simple, L simple or trivial, corank 2) pairs with
    rationally injective inclusion, with the two odd quotient degrees.

    A source of ``corank2_sources`` that is no such pair raises InvalidEmbedding naming the condition.
    """
    if max_rank < 2:
        raise InvalidParams("max_rank must be at least 2")
    rows: list[CorankTwoRow] = []
    for embedding, family, param in corank2_sources(max_rank, _or_default(catalog)):
        g, sub = embedding.ambient, embedding.subgroup
        for holds, condition in (
            (g.is_simple(), "a simple G"), (sub.is_simple() or sub.is_trivial(), "a simple or trivial L"),
            (g.rank - sub.rank == 2, "ranks of G and L differing by 2"),
            (is_declared_injective(embedding), "a declared injective inclusion"),
        ):
            if not holds:
                raise InvalidEmbedding(f"{embedding.id}: a corank-2 pair needs {condition}")
        qh = quotient_homotopy(embedding)
        if qh.heuristic or qh.even_degrees or len(qh.odd_degrees) != 2:
            raise InvalidEmbedding(f"{embedding.id}: a corank-2 quotient needs exactly two odd degrees")
        ell_minus, total = qh.odd_degrees
        rows.append(CorankTwoRow(g, sub, ell_minus, total, total - ell_minus, embedding.id, family, param))
    rows.sort(key=lambda r: (r.group.dimension, str(r.group), r.subgroup.dimension, str(r.subgroup), r.family, r.param or 0))
    return rows


def table3_filter(rows: Sequence[CorankTwoRow]) -> list[CorankTwoRow]:
    """Rows whose subgroup acts transitively on a sphere of dimension ell_plus >= 1.

    Each distinct subgroup's spheres are looked up once per call.
    """
    spheres: dict[GroupType, set[int]] = {}
    out = []
    for row in rows:
        subgroup = row.subgroup
        if row.ell_plus < 1 or not subgroup.is_simple():
            continue
        if subgroup not in spheres:
            spheres[subgroup] = spheres_acted_on(subgroup)
        if row.ell_plus in spheres[subgroup]:
            out.append(row)
    return out


# ---------------------------------------------------------------------------
# Exceptional-fiber pairs
# ---------------------------------------------------------------------------


class Case6Pair(NamedTuple):
    group: GroupType
    isotropy: GroupType
    fiber_dim: int
    fiber_tag: str
    total_dim: int


def case6_pairs() -> list[Case6Pair]:
    """The five equal-rank pairs G/H whose quotients appear as exceptional
    fibers, read from the "G/H x loops(S^n)" descriptions of ``CASE6_FIBERS``."""
    pairs = []
    for ell, tag, description, forced in CASE6_FIBERS:
        group, isotropy = description.split(" x ")[0].split("/")
        base, _, power = isotropy.partition("^")  # H = K^k is written out as K x ... x K
        isotropy = "x".join([base] * int(power or 1))
        pairs.append(Case6Pair(parse_group(group), parse_group(isotropy), ell, tag, forced))
    return pairs


# ---------------------------------------------------------------------------
# Diagram families: each family's orbit groups, read by its factory and its recognizer
# ---------------------------------------------------------------------------

#: the orbit groups (G, H, K-, K+) of a diagram
Orbits = tuple[GroupType, GroupType, GroupType, GroupType]


def _fitted(g: GroupType, h: GroupType, k_minus: GroupType, k_plus: GroupType) -> Orbits:
    """The orbits, once H, K-+ fit in G and H in K-+ by dimension and rank, as ``NamedEmbedding`` checks."""
    for ambient, sub in ((g, h), (g, k_minus), (g, k_plus), (k_minus, h), (k_plus, h)):
        if sub.dimension > ambient.dimension or sub.rank > ambient.rank:
            raise InvalidEmbedding(f"the orbit group {sub} does not fit in {ambient}")
    return g, h, k_minus, k_plus


#: the least m of a Brieskorn diagram, with G = circle x SO(m)
_BRIESKORN_MIN_M = 3
_G2 = parse_group("G2")
#: the Brieskorn variants of fixed m, as (m, orbits): the 7-dimensional-spinor restriction of
#: the rotation group at m = 8 and its exceptional-holonomy restriction at m = 7
_FIXED_BRIESKORN: dict[str, tuple[int, Orbits]] = {
    "spin7": (8, _fitted(_T1 * special_orthogonal(7), special_unitary(3), _T1 * special_unitary(3), _G2)),
    "g2": (7, _fitted(_T1 * _G2, special_unitary(2), _T1 * special_unitary(2), special_unitary(3))),
}
#: S^3 x S^3 with finite principal isotropy and two circles
_SEVEN_ORBITS: Orbits = _fitted(_SU2 * _SU2, TRIVIAL_GROUP, _T1, _T1)


@memoized
def _brieskorn_orbits(m: int, variant: str) -> Orbits:
    """A circle times a rotation group, SO(m) or a fixed variant's; K- is the circle times H."""
    if variant != "standard":
        return _FIXED_BRIESKORN[variant][1]
    h = special_orthogonal(m - 2)
    return _fitted(_T1 * special_orthogonal(m), h, _T1 * h, special_orthogonal(m - 1))


@memoized
def _tensor_su_orbits(n: int) -> Orbits:
    su = special_unitary(n - 2)
    return _fitted(special_unitary(n) * _SU2, su * _T1, special_unitary(n - 1) * _T1, su * _SU2)


@memoized
def _tensor_sp_orbits(n: int) -> Orbits:
    sp1sp1, sp = _SU2 * _SU2, symplectic(n - 2)
    return _fitted(symplectic(n) * symplectic(2), sp * sp1sp1, symplectic(n - 1) * sp1sp1, sp * symplectic(2))


#: the tags of the family embeddings: a witness presents H in K- or K+ as a block, and each H has proper projections
_BLOCK, _DIAGONAL, _PROPER = (frozenset({tag}) for tag in ("block", "diagonal", "proper-projections"))
_PROPER_BLOCK, _UNTAGGED = _BLOCK | _PROPER, frozenset()


def _family_diagram(
    stem: str, orbits: Orbits, tags: tuple[frozenset[str], ...], k_fields: tuple[dict, dict] = ({}, {}),
    components: tuple[int, int, int] = (1, 1, 1), nonorientable: tuple[bool, bool] = (False, False),
) -> GroupDiagram:
    """The diagram with orbit groups ``orbits``: H, K- and K+ embed in G with ``tags`` (K-+ also with the
    winding or slope of ``k_fields``), the witnesses present H in K-+ as blocks, and H, K- and K+ have
    ``components`` components, K- and K+ the orientability flags ``nonorientable``.  A manifold of dimension
    above ``MAX_SPHERE_DIM`` is refused before any embedding is built.  Of the checks of ``NamedEmbedding``,
    only the winding and slope ones run: ``_fitted`` checked the groups, the tags are labels of
    ``EMBEDDING_TAGS``, and no ranks are declared.  None of ``GroupDiagram`` runs: the orbit groups were
    ``_fitted`` once per parameter, both witnesses are ``block``, H carries ``proper-projections``, and each
    family's component counts meet the component rule.
    """
    g, h, k_minus, k_plus = orbits
    dim = g.dimension - h.dimension + 1
    if dim > MAX_SPHERE_DIM:
        raise InvalidParams(f"{stem}: the manifold dimension {dim} exceeds {MAX_SPHERE_DIM}")
    for group in orbits:  # a non-integer parameter gives a float rank: the TypeError of counting its degrees
        index(group.rank)

    def embed(suffix: str, ambient: GroupType, sub: GroupType, labels: frozenset[str], winding=None, slope=None):
        check_winding_and_slope(id := f"{stem}-{suffix}", winding, slope)
        return tuple.__new__(NamedEmbedding, (id, ambient, sub, (), labels, winding, slope, frozenset()))

    return tuple.__new__(GroupDiagram, (
        g, embed("h", g, h, tags[0]), embed("kminus", g, k_minus, tags[1], **k_fields[0]),
        embed("kplus", g, k_plus, tags[2], **k_fields[1]), embed("h-in-km", k_minus, h, _BLOCK),
        embed("h-in-kp", k_plus, h, _BLOCK), *components, *nonorientable))


def brieskorn_diagram(m: int, d: int, variant: str = "standard") -> GroupDiagram:
    """The circle-times-rotation-group diagram of the Brieskorn action on B^(2m-1)_d.

    ``variant`` selects the full rotation group ("standard", m >= 3), its
    7-dimensional-spinor restriction ("spin7", m = 8 only), or the
    exceptional-holonomy restriction ("g2", m = 7 only).
    """
    if m < _BRIESKORN_MIN_M or d < 1:
        raise InvalidParams(f"need m >= {_BRIESKORN_MIN_M} and d >= 1")
    if variant not in ("standard", *_FIXED_BRIESKORN):
        raise InvalidParams(f"unknown variant {variant!r}")
    if variant in _FIXED_BRIESKORN and m != _FIXED_BRIESKORN[variant][0]:
        raise InvalidParams(f"the {variant} variant exists only at m = {_FIXED_BRIESKORN[variant][0]}")
    return _family_diagram(
        f"brieskorn[{variant},m={m},d={d}]", _brieskorn_orbits(m, variant),
        (_PROPER_BLOCK, _UNTAGGED, _BLOCK), ({"winding": d if d % 2 else d // 2}, {}),
        components=(1 + d % 2, 1, 1 + d % 2),  # H and K+ have two components each when d is odd
        nonorientable=(False, bool(m % 2 and d % 2)),
    )


def seven_family_diagram(params: SevenFamilyParams) -> GroupDiagram:
    """The S^3 x S^3 diagram with finite principal isotropy and two circle slopes."""
    p_minus, q_minus, p_plus, q_plus = params
    return _family_diagram(
        f"seven[{p_minus},{q_minus},{p_plus},{q_plus}]", _SEVEN_ORBITS, (_PROPER, _UNTAGGED, _UNTAGGED),
        ({"slope": (p_minus, q_minus)}, {"slope": (p_plus, q_plus)}),
        components=(4, 2, 2), nonorientable=(True, True),
    )


class _Tensor(namedtuple("_Tensor", "name group field rank_offset min_n orbits refusal")):
    """A tensor family: X(n) x X(2) on the unit sphere of F^n (x) F^2, X and F named by ``group`` and ``field``,
    for n >= ``min_n``, its orbit groups built by ``orbits(n)``; n is the rank of X(n) plus ``rank_offset``,
    and ``refusal`` the error below min_n, with {} for min_n."""

    __slots__ = ()

    def diagram(self, n: int) -> GroupDiagram:
        if n < self.min_n:
            raise InvalidParams(self.refusal.format(self.min_n))
        return _family_diagram(f"{self.name}[n={n}]", self.orbits(n), (_PROPER_BLOCK, _BLOCK, _DIAGONAL))

    def recognize(self, d: GroupDiagram) -> Optional[ClassificationOutcome]:
        n = max((f.rank for f in d.g.factors), default=0) + self.rank_offset  # G = X(n) x X(2)
        if n < self.min_n or not any(_oriented(d, self.orbits(n))):
            return None
        group, field = self.group, self.field  # the manifold is the sphere S^(4n-1) or S^(8n-1)
        return ClassificationOutcome("linear-sphere", description=(
            f"{group}({n})x{group}(2) on S^{d.manifold_dim} via the tensor product of {field}^{n} and {field}^2"))


_TENSOR_SU = _Tensor("tensor-su", "SU", "C", 1, 4, _tensor_su_orbits,
                     "the tensor family needs n >= {} (n = 3 is the eleven-sphere table)")
_TENSOR_SP = _Tensor("tensor-sp", "Sp", "H", 0, 2, _tensor_sp_orbits,
                     "the quaternionic tensor family needs n >= {}")


def tensor_su_diagram(n: int) -> GroupDiagram:
    """The SU(n) x SU(2) diagram of the tensor-product action on S^(4n-1), n >= 4."""
    return _TENSOR_SU.diagram(n)


def tensor_sp_diagram(n: int) -> GroupDiagram:
    """The Sp(n) x Sp(2) diagram of the quaternionic tensor action on S^(8n-1), n >= 2."""
    return _TENSOR_SP.diagram(n)


# ---------------------------------------------------------------------------
# Structural recognizers (read the parameter off G, then compare orbit groups) and the family table
# ---------------------------------------------------------------------------


def _oriented(d: GroupDiagram, orbits: Orbits) -> Iterator[GroupDiagram]:
    """``d``, then its swap, each when its orbit groups (G, H, K-, K+) are ``orbits``."""
    if (d.g, d.h.subgroup, d.k_minus.subgroup, d.k_plus.subgroup) == orbits:
        yield d
    if (d.g, d.h.subgroup, d.k_plus.subgroup, d.k_minus.subgroup) == orbits:
        yield d.swap()


def _so_index(g: GroupType) -> Optional[int]:
    """m >= the least Brieskorn m with so(m) the semisimple part of ``g`` (its factors), if any."""
    rank = g.rank - g.torus_rank
    for m in (2 * rank, 2 * rank + 1):  # so(m) has rank m // 2, and no torus for m >= 3
        if m >= _BRIESKORN_MIN_M and special_orthogonal(m).factors == g.factors:
            return m
    return None


def _recognize_brieskorn(d: GroupDiagram) -> Optional[ClassificationOutcome]:
    if d.g.torus_rank != 1:  # every shape's G is a circle times SO(m), Spin(7) or G2
        return None
    so_m = _so_index(d.g)  # the rotation part of G = circle x SO(m)
    standard = () if so_m is None else ((so_m, _brieskorn_orbits(so_m, "standard")),)
    for m, orbits in (*standard, *_FIXED_BRIESKORN.values()):  # the shapes' H differ: at most one matches
        for cand in _oriented(d, orbits):
            a = cand.k_minus.winding
            if a is None:
                continue
            counts = (cand.components_h, cand.components_k_minus, cand.components_k_plus)
            if counts == (1, 1, 1):
                if a == 0:  # the one pattern that admits d = 2|a| = 0
                    return ClassificationOutcome(
                        "not-rational-sphere",
                        reason="the circle factor acts with the same orbits as its complement (non-primitive)",
                    )
                d_param = 2 * abs(a)
            elif counts == (2, 1, 2) and a % 2:
                d_param = abs(a)
            else:
                continue
            if m % 2 and d_param % 2 == 0:
                return ClassificationOutcome(
                    "not-rational-sphere", reason=f"middle homology in degree {m - 1} is infinite (m odd, d even)"
                )
            return ClassificationOutcome("brieskorn", m=m, d=d_param)
    return None


def _recognize_seven_family(d: GroupDiagram) -> Optional[ClassificationOutcome]:
    if not any(_oriented(d, _SEVEN_ORBITS)):
        return None
    if d.k_minus.slope is None or d.k_plus.slope is None:
        return None
    # exchanging the two slopes is the swap move, so order them canonically
    low, high = sorted((d.k_minus.slope, d.k_plus.slope))
    try:
        params = SevenFamilyParams(*low, *high)
    except InvalidParams:  # the 1 mod 4 rule
        return None
    torsion = seven_family_torsion(params)
    if torsion == 0:
        return ClassificationOutcome("not-rational-sphere", reason="p-q+ = p+q- makes the third homology group infinite")
    return ClassificationOutcome("seven-family", params=params, torsion=torsion)


#: a diagram family: ``keys`` declares its documents' keys for ``catalog.read_object``: ``family``, the integer
#: arguments of ``factory`` in order, then optional ones; ``recognize`` gives its diagrams' outcome, else None
Family = namedtuple("Family", "keys factory recognize")

#: the diagram families by document ``family`` name; the classifier tries the recognizers in this order
FAMILIES: dict[str, Family] = {
    "brieskorn": Family({"family": str, "m": int, "d": int, "variant": (str, "standard")}, brieskorn_diagram,
                        _recognize_brieskorn),
    "tensor-su": Family({"family": str, "n": int}, tensor_su_diagram, _TENSOR_SU.recognize),
    "tensor-sp": Family({"family": str, "n": int}, tensor_sp_diagram, _TENSOR_SP.recognize),
    "seven": Family({"family": str, **dict.fromkeys(SevenFamilyParams._fields, int)},
                    lambda *slopes: seven_family_diagram(SevenFamilyParams(*slopes)), _recognize_seven_family),
}


def classify_diagram(d: GroupDiagram, catalog: Optional[Catalog] = None) -> ClassificationOutcome:
    """Match a diagram, which its type has validated, against the shipped catalog and known families."""
    catalog = _or_default(catalog)
    record = catalog.matching_record(d)
    if record is not None and record.outcome is not None:
        return record.outcome
    for family in FAMILIES.values():
        outcome = family.recognize(d)
        if outcome is not None:
            return outcome
    return ClassificationOutcome("unmatched")
