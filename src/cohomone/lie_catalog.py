"""Symbolic catalog of compact connected Lie group types.

A group type records the local isomorphism class of a compact connected
Lie group: a multiset of simple factors plus a torus rank.  Low-rank
coincidences (Spin(3) = SU(2), Sp(2) = Spin(5), Spin(6) = SU(4),
Spin(4) = SU(2) x SU(2)) are folded away at construction time, so
structural equality of :class:`GroupType` is equality of isomorphism
type.  The numeric invariants carried here are the classical ones:

===========  ==================  ===========================
family       dimension           rational homotopy degrees
===========  ==================  ===========================
A_n          n(n+2)              3, 5, ..., 2n+1
B_n          n(2n+1)             3, 7, ..., 4n-1
C_n          n(2n+1)             3, 7, ..., 4n-1
D_n          n(2n-1)             3, 7, ..., 4n-5 and 2n-1
G2           14                  3, 11
F4           52                  3, 11, 15, 23
E6           78                  3, 9, 11, 15, 17, 23
E7           133                 3, 11, 15, 19, 23, 27, 35
E8           248                 3, 15, ..., 47, 59
===========  ==================  ===========================

A torus factor contributes its rank to both rank and dimension and one
degree-1 generator per circle.  An exceptional label's rank is the number
of its degrees and its dimension their sum.  The Weyl order is the product
of (degree + 1)/2 over the degrees (Chevalley), so "Weyl order times 2^rank
equals the product of (degree + 1)" holds by construction.  The classical
dimensions keep closed forms, tied to the sum of the degrees by a test: the
load bound and ``degrees --group`` read a dimension before any degree list
is built.  Every multiplicity of a degree, and so the Weyl order, is read
from one table per group, ``GroupType.degree_counts``.

``parse_group`` reads a group expression of constant terms into one
``GroupType``; a group that depends on a parameter is built in code, from
``special_unitary``, ``special_orthogonal`` or ``symplectic``.

The module also ships Table 1 of the paper, all effective transitive
compact group actions on spheres, and the sphere-recognition and
named-embedding machinery built on top of it.  Each row of Table 1 is
written once: ``_ROW_FAMILIES`` holds the six families whose row m acts on
S^(a*m - 1) (a = 1, 2, 4 for SO, SU, Sp, alone or times U(1) or Sp(1)),
``_SPORADIC_ROWS`` the rows for G2, Spin(7) and Spin(9).  A lookup reads
only the rows it can use: ``sphere_quotient`` the rows with m = (l+1)/a
for the fiber dimension l, ``spheres_acted_on`` the rows whose group has
the given group's rank.  No cap on m is needed: a row group of larger
rank than the ambient group never matches it.  Rows, like classical groups,
are built once per (family, m), and the rows of a sphere dimension once per
dimension, each cache keeping up to ``CACHE_SIZE`` entries.
"""

from __future__ import annotations

import math
import re
from collections import Counter, namedtuple
from functools import cached_property, lru_cache, partial
from typing import Iterable, Optional

from .errors import InvalidEmbedding, InvalidLabel

_CLASSICAL_FAMILIES = ("A", "B", "C", "D")
#: the degrees of each exceptional family: its rank is their number, its dimension their sum
_EXCEPTIONAL_DEGREES = {
    "G2": (3, 11),
    "F4": (3, 11, 15, 23),
    "E6": (3, 9, 11, 15, 17, 23),
    "E7": (3, 11, 15, 19, 23, 27, 35),
    "E8": (3, 15, 23, 27, 35, 39, 47, 59),
}
_EXCEPTIONAL_RANKS = {family: len(degrees) for family, degrees in _EXCEPTIONAL_DEGREES.items()}


class SimpleGroupLabel(namedtuple("SimpleGroupLabel", "family rank")):
    """A Killing-Cartan label, e.g. A3 or E6.  Not necessarily canonical; labels order by (family, rank).  It checks
    nothing: its producers, the group builders of this module, give each family a rank it has."""

    __slots__ = ()

    def __str__(self) -> str:
        if self.family in _EXCEPTIONAL_RANKS:
            return self.family
        return f"{self.family}{self.rank}"

    @property
    def dimension(self) -> int:
        family, n = self
        if family == "A":
            return n * (n + 2)
        if family in ("B", "C"):
            return n * (2 * n + 1)
        if family == "D":
            return n * (2 * n - 1)
        return sum(_EXCEPTIONAL_DEGREES[family])

    @property
    def degrees(self) -> tuple[int, ...]:
        family, n = self
        if family == "A":
            return tuple(range(3, 2 * n + 2, 2))
        if family in ("B", "C"):
            return tuple(range(3, 4 * n, 4))
        if family == "D":
            return tuple(sorted(tuple(range(3, 4 * n - 4, 4)) + (2 * n - 1,)))
        return _EXCEPTIONAL_DEGREES[family]


def _canonical_factors(label: SimpleGroupLabel) -> tuple[tuple[SimpleGroupLabel, ...], int]:
    """Expand one label into canonical simple factors plus a torus rank."""
    fam, n = label.family, label.rank
    if fam == "B" and n == 1:
        return (SimpleGroupLabel("A", 1),), 0  # Spin(3) = SU(2)
    if fam == "C" and n == 1:
        return (SimpleGroupLabel("A", 1),), 0  # Sp(1) = SU(2)
    if fam == "C" and n == 2:
        return (SimpleGroupLabel("B", 2),), 0  # Sp(2) = Spin(5); B2 is canonical
    if fam == "D":
        if n == 1:
            return (), 1  # Spin(2) = U(1)
        if n == 2:
            return (SimpleGroupLabel("A", 1),) * 2, 0  # Spin(4) = SU(2) x SU(2)
        if n == 3:
            return (SimpleGroupLabel("A", 3),), 0  # Spin(6) = SU(4)
    return (label,), 0


class GroupType(namedtuple("GroupType", "factors torus_rank")):
    """Isomorphism type of a compact connected Lie group.

    Factors are canonicalized and sorted on construction, so types built
    from different low-rank presentations compare equal.  ``rank``, ``dimension``,
    ``degrees``, ``degree_counts``, ``weyl_order`` and the text ``str`` gives are
    computed on first read and kept; attributes cannot be set.
    """

    # no __slots__: cached_property keeps the invariants in the instance __dict__, which it writes directly
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace canonicalizes too
    __add__ = __rmul__ = lambda self, other: NotImplemented  # no tuple concatenation or repetition
    __reduce__ = lambda self: (type(self), tuple(self))  # copies and pickles carry the fields, not the cache

    def __new__(cls, factors: Iterable[SimpleGroupLabel] = (), torus_rank: int = 0) -> "GroupType":
        expanded: list[SimpleGroupLabel] = []
        for label in factors:
            simple, extra_torus = _canonical_factors(label)
            expanded.extend(simple)
            torus_rank += extra_torus
        return tuple.__new__(cls, (tuple(sorted(expanded)), torus_rank))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"GroupType is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors) + self.torus_rank

    @cached_property
    def dimension(self) -> int:
        return sum(f.dimension for f in self.factors) + self.torus_rank

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Sorted multiset of rational homotopy generator degrees."""
        out: list[int] = [1] * self.torus_rank
        for f in self.factors:
            out.extend(f.degrees)
        return tuple(sorted(out))

    @cached_property
    def degree_counts(self) -> tuple[tuple[int, int], ...]:
        """(degree, multiplicity) pairs in increasing degree: the one table every multiplicity is read from."""
        return tuple(Counter(self.degrees).items())  # degrees is sorted, and a Counter keeps first-seen order

    @cached_property
    def weyl_order(self) -> int:
        """The order of the Weyl group, by Chevalley's theorem; a circle (degree 1) gives a factor of 1."""
        return math.prod(((d + 1) // 2) ** count for d, count in self.degree_counts)

    def is_trivial(self) -> bool:
        return not self.factors and self.torus_rank == 0

    def is_simple(self) -> bool:
        return len(self.factors) == 1 and self.torus_rank == 0

    def __mul__(self, other: "GroupType") -> "GroupType":
        return GroupType(self.factors + other.factors, self.torus_rank + other.torus_rank)

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        parts = [str(f) for f in self.factors]
        if self.torus_rank:
            parts.append(f"T{self.torus_rank}")
        return "x".join(parts) if parts else "e"


TRIVIAL_GROUP = GroupType()


# ---------------------------------------------------------------------------
# Group expressions
# ---------------------------------------------------------------------------

#: entries kept by each memoized constructor; typed, so that 3.0 or True never answers for 3 or 1
CACHE_SIZE = 512
memoized = lru_cache(maxsize=CACHE_SIZE, typed=True)


@memoized
def special_orthogonal(n: int) -> GroupType:
    if n < 1:
        raise InvalidLabel(f"SO({n}) and Spin({n}) are not defined")
    return TRIVIAL_GROUP if n == 1 else GroupType((SimpleGroupLabel("B" if n % 2 else "D", n // 2),))


@memoized
def special_unitary(n: int) -> GroupType:
    if n < 1:
        raise InvalidLabel(f"SU({n}) is not defined")
    return TRIVIAL_GROUP if n == 1 else GroupType((SimpleGroupLabel("A", n - 1),))


@memoized
def symplectic(n: int) -> GroupType:
    return TRIVIAL_GROUP if n == 0 else GroupType((SimpleGroupLabel("C", n),))


@memoized
def _unitary(n: int) -> GroupType:
    if n < 1:
        raise InvalidLabel(f"U({n}) is not defined")
    return GroupType((SimpleGroupLabel("A", n - 1),) if n > 1 else (), 1)


def _simple(family: str, rank: int) -> GroupType:
    if rank < 1:  # a raw label such as A0: the one builder that is given a rank below 1
        raise InvalidLabel(f"rank must be positive, got {family}{rank}")
    return GroupType((SimpleGroupLabel(family, rank),))


#: the builder of each term that takes an integer argument, by name
_BUILDERS = {"SU": special_unitary, "SO": special_orthogonal, "Spin": special_orthogonal, "Sp": symplectic,
             "U": _unitary, "T": partial(GroupType, ()),
             **{family: partial(_simple, family) for family in _CLASSICAL_FAMILIES}}
_CONSTANT_TERMS = {
    **dict.fromkeys(("e", "{e}", "1", "trivial"), TRIVIAL_GROUP), "S1": GroupType((), 1), "S3": special_unitary(2),
    **{family: _simple(family, rank) for family, rank in _EXCEPTIONAL_RANKS.items()},
}
#: a named term with an integer argument, bare or in balanced parentheses, or a raw classical label such as B2
_TERM_RE = re.compile(r"(SU|SO|Spin|Sp|U|T)(\()?(\d+)(?(2)\))|([A-D])(\d+)")


def _term(term: str, text: str) -> GroupType:
    term = term.strip()
    if term in _CONSTANT_TERMS:
        return _CONSTANT_TERMS[term]
    match = _TERM_RE.fullmatch(term)
    if match:
        name, _, n, family, rank = match.groups()
        try:  # int() refuses a number of more digits than this interpreter reads
            return _BUILDERS[name or family](int(n or rank))
        except ValueError:
            pass
    context = f" in {text!r}" if term != text.strip() else ""
    raise InvalidLabel(f"cannot parse group term {term!r}{context}")


def parse_group(text: str) -> GroupType:
    """The group an expression such as ``SU(3)xSU(2)``, ``Spin(7)`` or ``A2xT1`` names.

    Terms are separated by ``x`` or a Unicode multiplication sign; a term is
    SU/SO/Spin/Sp/U/T with an integer argument, bare or in balanced
    parentheses, S1, S3, e, or a raw label like B2 or E7.
    """
    groups = [_term(term, text) for term in text.replace("×", "x").split("x")]
    return groups[0] if len(groups) == 1 else GroupType([f for g in groups for f in g.factors],
                                                        sum(g.torus_rank for g in groups))


# ---------------------------------------------------------------------------
# Named embeddings
# ---------------------------------------------------------------------------

#: read by sphere_quotient (block, diagonal, spinor), diagram.validate, validate_embedding and corank2_sources
EMBEDDING_TAGS = frozenset({"block", "diagonal", "spinor", "proper-projections", "corank2"})


class NamedEmbedding(namedtuple("NamedEmbedding", "id ambient subgroup homotopy_map_ranks tags winding slope contains")):
    """A catalogued conjugacy class of subgroup inclusion.

    ``homotopy_map_ranks`` records, per degree, the rank of the induced map on rational homotopy.
    Degrees absent from the map have no declared rank; consumers fall back to the maximal-rank heuristic.
    ``tags`` are labels of ``EMBEDDING_TAGS``: any other tag, a misspelled label too, raises ``InvalidLabel``.
    Three typed fields carry values, read from JSON keys of the same names: ``winding``, an int or None (the
    circle winding of a Brieskorn K-); ``slope``, a pair of ints or None (the circle slope of a seven-family
    K-+); and ``contains``, the frozenset of embedding ids a lattice entry contains.  A value of another type
    (a bool is not an int) is refused where the catalog reads it.  The constructor and ``_replace`` run every other
    check; only the family factories of ``classification`` skip them, for orbit groups checked once per parameter.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __new__(
        cls, id: str, ambient: GroupType, subgroup: GroupType,
        homotopy_map_ranks: Iterable[tuple[int, int]] = (), tags: Iterable[str] = frozenset(),
        winding: Optional[int] = None, slope: Optional[tuple[int, int]] = None, contains: frozenset[str] = frozenset(),
    ) -> "NamedEmbedding":
        ranks = tuple(sorted((int(k), int(v)) for k, v in homotopy_map_ranks))
        tags = frozenset(tags)
        if not tags <= EMBEDDING_TAGS:
            raise InvalidLabel(f"{id}: unknown tag {', '.join(sorted(map(repr, tags - EMBEDDING_TAGS)))} "
                               f"(allowed: {', '.join(map(repr, sorted(EMBEDDING_TAGS)))})")
        if not (slope is None or len(slope) == 2):
            raise InvalidLabel(f"{id}: slope must be a pair of ints or None, got {slope!r}")
        self = tuple.__new__(cls, (id, ambient, subgroup, ranks, tags, winding, slope, contains))
        validate_embedding(self)
        return self


def validate_embedding(e: NamedEmbedding) -> None:
    if e.subgroup.dimension > e.ambient.dimension:
        raise InvalidEmbedding(f"{e.id}: subgroup dimension exceeds ambient dimension")
    if e.subgroup.rank > e.ambient.rank:
        raise InvalidEmbedding(f"{e.id}: subgroup rank exceeds ambient rank")
    sub_counts, amb_counts = dict(e.subgroup.degree_counts), dict(e.ambient.degree_counts)
    for k, r in e.homotopy_map_ranks:
        if r < 0:
            raise InvalidEmbedding(f"{e.id}: negative map rank in degree {k}")
        c_h, c_g = sub_counts.get(k, 0), amb_counts.get(k, 0)
        if r > min(c_h, c_g):
            raise InvalidEmbedding(f"{e.id}: degree-{k} map rank {r} exceeds multiplicity bound min({c_h}, {c_g})")
    if "corank2" in e.tags:  # a claim about the groups: one they contradict is an error, not a row left out
        g, sub = e.ambient, e.subgroup
        for holds, condition in (
            (g.is_simple(), "a simple G"), (sub.is_simple() or sub.is_trivial(), "a simple or trivial L"),
            (g.rank - sub.rank == 2, "ranks of G and L differing by 2"),
            (is_declared_injective(e), "a declared injective inclusion"),
        ):
            if not holds:
                raise InvalidEmbedding(f"{e.id}: a corank-2 pair needs {condition}")


def is_declared_injective(e: NamedEmbedding) -> bool:
    return dict(e.homotopy_map_ranks) == dict(e.subgroup.degree_counts)


# ---------------------------------------------------------------------------
# Transitive actions on spheres
# ---------------------------------------------------------------------------


class SphereActionRow(namedtuple("SphereActionRow", "group isotropy sphere_dim family m embedding_classes")):
    """One instantiated row of Table 1.  It checks nothing: the ``table1`` check of ``verify-tables`` compares
    each row's ``sphere_dim`` with its groups, so a wrong row fails that check instead of stopping the report."""

    __slots__ = ()


_BLOCK = frozenset({"block"})
#: Table 1's families: name -> (a, least m, builder of G(m), passenger P).  Row m is G(m)xP acting on the unit
#: sphere S^(a*m - 1) of R^m, C^m or H^m (a = 1, 2, 4) with isotropy G(m - 1)xP; P is T1, Sp(1) or None (trivial)
_ROW_FAMILIES = {"so": (1, 2, special_orthogonal, None), "su": (2, 2, special_unitary, None),
                 "su-u1": (2, 2, special_unitary, _unitary(1)), "sp": (4, 1, symplectic, None),
                 "sp-u1": (4, 1, symplectic, _unitary(1)), "sp-sp1": (4, 1, symplectic, symplectic(1))}
#: Table 1's sporadic rows: name -> (sphere dimension, G, H, embedding classes)
_SPORADIC_ROWS = {"g2": (6, _CONSTANT_TERMS["G2"], special_unitary(3), _BLOCK),
                  "spin7": (7, special_orthogonal(7), _CONSTANT_TERMS["G2"], _BLOCK),
                  "spin9": (15, special_orthogonal(9), special_orthogonal(7), frozenset({"spinor"}))}


@memoized
def _sphere_row(family: str, m: Optional[int] = None) -> SphereActionRow:
    """Row ``m`` of a family of Table 1, or its sporadic row ``family``."""
    if m is None:
        dim, group, isotropy, classes = _SPORADIC_ROWS[family]
    else:
        a, _, build, passenger = _ROW_FAMILIES[family]
        dim, group, isotropy = a * m - 1, build(m), build(m - 1)
        if passenger is not None:
            group, isotropy = group * passenger, isotropy * passenger
        diagonal = (family, m) in (("so", 4), ("sp-sp1", 1))  # S^3 = SO(4)/SO(3) = Sp(1)xSp(1)/Sp(1)
        classes = frozenset({"block", "diagonal"}) if diagonal else _BLOCK
    return SphereActionRow(group, isotropy, dim, family, m, classes)


@memoized
def _sphere_rows_of_dimension(ell: int) -> tuple[SphereActionRow, ...]:
    """The rows acting on S^ell: m = (ell + 1) / a in each family, and the sporadic rows."""
    rows = [_sphere_row(family, (ell + 1) // a) for family, (a, m_min, _, _) in _ROW_FAMILIES.items()
            if (ell + 1) % a == 0 and (ell + 1) // a >= m_min]
    return tuple(rows + [_sphere_row(family) for family, (dim, _, _, _) in _SPORADIC_ROWS.items() if dim == ell])


def transitive_sphere_pairs(max_m: int = 12) -> list[SphereActionRow]:
    """All effective transitive sphere actions, families instantiated up to ``max_m``."""
    rows = [_sphere_row(family, m)
            for family, (_, m_min, _, _) in _ROW_FAMILIES.items() for m in range(m_min, max_m + 1)]
    return rows + [_sphere_row(family) for family in _SPORADIC_ROWS]


def _passenger_match(ambient: GroupType, sub: GroupType, row: SphereActionRow) -> bool:
    """Does (ambient, sub) equal (row.group, row.isotropy) times a common passenger factor?"""
    passenger, sub_passenger = list(ambient.factors), list(sub.factors)
    try:
        for label in row.group.factors:
            passenger.remove(label)
        for label in row.isotropy.factors:
            sub_passenger.remove(label)
    except ValueError:  # the row's group or isotropy has a factor the pair lacks
        return False
    torus = ambient.torus_rank - row.group.torus_rank
    return passenger == sub_passenger and torus >= 0 and torus == sub.torus_rank - row.isotropy.torus_rank


def sphere_quotient(sub: NamedEmbedding) -> Optional[int]:
    """Sphere dimension of G/H for the inclusion ``sub`` of H in G (``sub.ambient``), if the pair is a catalogued
    sphere action.

    The inclusion must be declared standard for some table row (its tags
    carry the row's embedding class); factors of the ambient group acting
    trivially are cancelled against equal factors of the subgroup before
    matching.  Returns None when no row matches.
    """
    ambient = sub.ambient
    ell = ambient.dimension - sub.subgroup.dimension
    for row in _sphere_rows_of_dimension(ell):
        if row.embedding_classes & sub.tags and _passenger_match(ambient, sub.subgroup, row):
            return ell
    return None


def spheres_acted_on(group: GroupType) -> set[int]:
    """All sphere dimensions on which a simple group (all that ``table3_filter`` passes) acts transitively.

    A row's group equals G only if it has G's rank r, which leaves
    SO(2r), SO(2r+1), SU(r+1), Sp(r) and the sporadic rows as candidates.
    """
    r = group.rank
    rows = [_sphere_row("so", 2 * r), _sphere_row("so", 2 * r + 1), _sphere_row("su", r + 1), _sphere_row("sp", r)]
    rows += [_sphere_row(family) for family in _SPORADIC_ROWS]
    return {row.sphere_dim for row in rows if row.group == group}
