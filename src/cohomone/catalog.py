"""Loading of the shipped embedding and diagram catalogs.

The catalogs are versioned JSON files under ``cohomone/data``; the
environment variable ``COHOMONE_DATA_DIR`` points the loader at an
alternative directory carrying the same file names.  A file whose
``"version"`` is not ``CATALOG_VERSION`` is refused.

All records are immutable after load: a :class:`Catalog` refuses
attribute assignment and has no mutator, and the diagram factories in
``classification`` build self-contained embeddings instead of adding
them, so every lookup answers the same whatever the process did before.
The indexes are built once, at load.  Embeddings, families and diagram
records are keyed by id in id order, so ``embeddings()`` and
``diagram_records()`` need no sort; an id may appear once per kind.
Lattice entries are keyed by ambient group.  Diagram records are keyed
by ``GroupDiagram.canonical_descriptor``, which equal and swap-equal
diagrams share, so matching a diagram against the records is one dict
lookup; two records with the same key are refused.

Embedding records may be concrete or parameterized families (one
integer parameter ``m`` with a lower bound ``param_min``).  A family's
group expressions use arguments ``a*m + b`` (a an integer >= 0, b any
integer, e.g. ``Spin(2m+1)``, ``SU(m-2)``) and are parsed once, at load,
into factor templates (``lie_catalog.group_template``); ``tags_at`` keys
are decoded to integers there.  Load refuses a family whose ambient
group does not grow with m (no ambient term has a > 0), a ``tags_at``
key that is not a decimal integer >= ``param_min``, a family whose
instance at ``param_min`` or at a ``tags_at`` key cannot be built, and
one whose subgroup outgrows its ambient group (in dimension or rank) at
a larger m, which the groups at six values of m decide.  Any error
raised while a record is parsed or built keeps its type and names the
file, the array index and, where one is at fault, the key.

Only this module reads tag strings (``_typed_tags``; for a family,
``tags`` plus ``tags_at[m]``).  ``winding:<int>`` and ``slope:<int>,<int>``
may each appear once and ``contains:<id>`` any number of times; they
become the typed fields of ``NamedEmbedding``, and any other string is a
bare tag.  A second winding or slope tag, a winding that is not an
integer and a slope that is not two comma-separated integers raise
``InvalidLabel`` naming ``'tags'``.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Mapping
from functools import lru_cache, partial
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple, Optional

from .diagram import GroupDiagram
from .errors import CohomoneError, InvalidDiagram, InvalidLabel, Unsupported
from .lie_catalog import FactorTemplate, GroupType, NamedEmbedding, group_at, group_template
from .lie_catalog import injective_rank_map, parse_group
from .polynomial import IntegerPolynomial

#: the only ``"version"`` the data files may carry
CATALOG_VERSION = 1
_DATA_ENV = "COHOMONE_DATA_DIR"


def _rank_spec(record: Mapping, where: str) -> Optional[tuple[tuple[int, int], ...]]:
    """A record's ``map_ranks``: None for "injective", else its (degree, rank) pairs."""
    spec = record.get("map_ranks", {})
    if spec == "injective":
        return None
    if isinstance(spec, Mapping):
        ranks = [(_decimal(k), v) for k, v in spec.items()]
        if all(k is not None and _is(v, int) for k, v in ranks):
            return tuple(sorted(ranks))
    raise InvalidLabel(f"{where} key 'map_ranks' must be \"injective\" or an object of integers, got {spec!r}")


def _decimal(key: str) -> Optional[int]:
    """The integer an object key of ASCII digits without a leading zero spells, so that two keys never name one
    integer; None for any other key, or one too long for ``int``."""
    try:
        return int(key) if key.isascii() and key.isdigit() and (key[0] != "0" or key == "0") else None
    except ValueError:
        return None


def _typed_tags(labels: Iterable[str], name: str) -> dict:
    """The ``NamedEmbedding`` fields ``tags``, ``winding``, ``slope`` and ``contains`` that tag strings give.

    A second winding or slope tag, or a value that does not parse, raises ``InvalidLabel`` naming ``name``.
    """
    labels = sorted(set(labels))  # so that no error depends on the order of a set
    fields = {"tags": [label for label in labels if not label.startswith(("winding:", "slope:", "contains:"))],
              "contains": frozenset(label[len("contains:"):] for label in labels if label.startswith("contains:"))}
    for head, size, kind in (("winding", 1, "an integer winding"), ("slope", 2, "two comma-separated integers")):
        found = [label for label in labels if label.startswith(f"{head}:")]
        if len(found) > 1:
            raise InvalidLabel(f"{name} key 'tags': more than one {head} tag: {', '.join(map(repr, found))}")
        for label in found:
            try:
                numbers = tuple(int(v) for v in label[len(head) + 1:].split(","))
            except ValueError:
                numbers = ()
            if len(numbers) != size:
                raise InvalidLabel(f"{name} key 'tags': {label!r} does not carry {kind}")
            fields[head] = numbers[0] if size == 1 else numbers
    return fields


def _embedding(
    name: str, ambient: GroupType, sub: GroupType, ranks: Optional[tuple[tuple[int, int], ...]], tags: Iterable[str]
) -> NamedEmbedding:
    """An embedding of ``sub`` in ``ambient`` with tag strings ``tags``; ``ranks`` None means rationally injective."""
    ranks = injective_rank_map(sub) if ranks is None else ranks
    return NamedEmbedding(name, ambient, sub, ranks, **_typed_tags(tags, name))


def _named(where: str, build, *args):
    """``build(*args)``; a ``CohomoneError`` it raises is raised again, same type, prefixed with ``where``."""
    try:
        return build(*args)
    except CohomoneError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _groups(record: Mapping, where: str, parse) -> tuple:
    """``parse`` of the ``"ambient"`` and ``"subgroup"`` expressions; an error names ``where`` and the key."""
    ambient, subgroup = (_value(record, key, str, where=where, error=InvalidLabel) for key in ("ambient", "subgroup"))
    return _named(f"{where} key 'ambient'", parse, ambient), _named(f"{where} key 'subgroup'", parse, subgroup)


def _embedding_from_record(record: Mapping, where: str) -> NamedEmbedding:
    get = partial(_value, record, where=where, error=InvalidLabel)
    tags = _array(record, "tags", str, (), where, InvalidLabel)
    return _named(
        where, _embedding, get("id", str), *_groups(record, where, parse_group), _rank_spec(record, where), tags
    )


def _family_from_record(record: Mapping, where: str) -> EmbeddingFamily:
    get = partial(_value, record, where=where, error=InvalidLabel)
    ambient, subgroup = _groups(record, where, group_template)
    if not any(a for _, a, _ in ambient):  # so that instances_up_to_rank ends
        raise InvalidLabel(f"{where} key 'ambient': {record['ambient']!r} does not grow with m")
    param_min, tags_at = get("param_min", int), get("tags_at", Mapping, {})
    for key in tags_at:
        if (m := _decimal(key)) is None or m < param_min:
            raise InvalidLabel(f"{where} tags_at key {key!r} is not a decimal integer m >= {param_min}")
    family = EmbeddingFamily(
        id=get("id", str),
        ambient=ambient,
        subgroup=subgroup,
        param_min=param_min,
        map_ranks=_rank_spec(record, where),
        tags=frozenset(_array(record, "tags", str, (), where, InvalidLabel)),
        tags_at={_decimal(m): _array(tags_at, m, str, where=f"{where} tags_at", error=InvalidLabel) for m in tags_at},
    )
    # built at param_min and at each m with tags of its own, so that a family wrong there is refused here
    _named(where, lambda: [family.instantiate(m) for m in (param_min, *family.tags_at)])
    excess = _outgrowth(family)
    if excess:
        raise InvalidLabel(f"{where} key 'subgroup': {record['subgroup']!r} outgrows the ambient group "
                           f"{record['ambient']!r} in {excess} at some m >= {param_min}")
    return family


def _outgrowth(family: EmbeddingFamily) -> Optional[str]:
    """``"dimension"`` or ``"rank"`` if the subgroup's exceeds the ambient's at some m >= ``param_min``, else None.

    Along one parity of m both excesses are polynomials of degree <= 2 in m (rank too: SO(n) has rank n // 2),
    so their values at three values of m of that parity decide.
    """
    for start in (family.param_min, family.param_min + 1):
        excess = []
        for m in (start, start + 2, start + 4):
            subgroup, ambient = group_at(family.subgroup, m), group_at(family.ambient, m)
            excess.append((subgroup.dimension - ambient.dimension, subgroup.rank - ambient.rank))
        for what, values in zip(("dimension", "rank"), zip(*excess)):
            if _positive_somewhere(*values):
                return what
    return None


def _positive_somewhere(v0: int, v1: int, v2: int) -> bool:
    """Whether the polynomial p of degree <= 2 with p(0), p(1), p(2) = v0, v1, v2 is positive at an integer t >= 0."""
    d1, d2 = v1 - v0, v2 - 2 * v1 + v0  # p(t) = v0 + t*d1 + t*(t-1)/2*d2
    if d2 > 0 or (d2 == 0 and d1 > 0):
        return True
    t = max(0, -(-d1 // -d2)) if d2 else 0  # where the step p(t+1) - p(t) = d1 + t*d2 stops being positive
    return v0 + t * d1 + t * (t - 1) // 2 * d2 > 0


class EmbeddingFamily(NamedTuple):
    """A subgroup-inclusion family parameterized by an integer m, its groups parsed into factor templates."""

    id: str
    ambient: tuple[FactorTemplate, ...]
    subgroup: tuple[FactorTemplate, ...]
    param_min: int
    map_ranks: Optional[tuple[tuple[int, int], ...]]  # None: rationally injective
    tags: frozenset[str]
    tags_at: Mapping[int, tuple[str, ...]] = MappingProxyType({})

    def instantiate(self, m: int, typed: Optional[dict] = None) -> NamedEmbedding:
        """The instance at ``m``; ``typed``, ``_typed_tags`` of ``tags``, serves each m without ``tags_at``."""
        if m < self.param_min:
            raise InvalidLabel(f"{self.id}: parameter m={m} below minimum {self.param_min}")
        name, sub = f"{self.id}@m={m}", group_at(self.subgroup, m)
        if typed is None or m in self.tags_at:
            typed = _typed_tags(self.tags.union(self.tags_at.get(m, ())), name)
        ranks = injective_rank_map(sub) if self.map_ranks is None else self.map_ranks
        return NamedEmbedding(name, group_at(self.ambient, m), sub, ranks, **typed)

    def instances_up_to_rank(self, max_rank: int) -> dict[int, NamedEmbedding]:
        """The instances whose ambient group has rank at most ``max_rank``, by parameter; ``tags`` are read once,
        and the first m past ``max_rank`` is found from its ambient group alone."""
        out = {}
        m, typed = self.param_min, _typed_tags(self.tags, f"{self.id}@m={self.param_min}")
        while group_at(self.ambient, m).rank <= max_rank:
            out[m] = self.instantiate(m, typed)
            m += 1
        return out


class OrbitBetti(NamedTuple):
    """Rational Betti polynomials of G/H and G/K+-, with the sphere dimension n."""

    p_h: IntegerPolynomial
    p_k_plus: IntegerPolynomial
    p_k_minus: IntegerPolynomial
    n: int


class DiagramRecord(NamedTuple):
    """A catalogued diagram with its stored classification metadata."""

    id: str
    diagram: GroupDiagram
    outcome: Mapping = MappingProxyType({})  # empty when the record stores none
    rational_sphere: bool = False
    orbit_poincare: Optional[OrbitBetti] = None
    tags: frozenset[str] = frozenset()


class Catalog:
    """The embedding, family and diagram records, indexed at load and read-only after.

    The by-id mappings are in id order.  Each attribute is set once, here;
    assigning or deleting one raises ``AttributeError``.  Build one with
    :func:`load_catalog`.
    """

    __slots__ = ("version", "_embeddings", "_families", "_diagrams", "_lattices", "_by_descriptor")

    def __init__(
        self, version: int, embeddings: Mapping[str, NamedEmbedding], families: Mapping[str, EmbeddingFamily],
        diagrams: Mapping[str, DiagramRecord],
    ) -> None:
        lattices: dict[GroupType, tuple[NamedEmbedding, ...]] = {}
        for e in embeddings.values():
            if "lattice" in e.tags:
                lattices[e.ambient] = lattices.get(e.ambient, ()) + (e,)
        by_descriptor: dict[tuple, DiagramRecord] = {}
        for record in diagrams.values():
            key = record.diagram.canonical_descriptor()
            if key in by_descriptor:
                raise InvalidDiagram(
                    f"diagram records {by_descriptor[key].id!r} and {record.id!r} describe the same diagram"
                )
            by_descriptor[key] = record
        values = (version, embeddings, families, diagrams, MappingProxyType(lattices), MappingProxyType(by_descriptor))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"Catalog is read-only: cannot assign or delete {name!r}")

    __delattr__ = __setattr__

    # -- embeddings --------------------------------------------------------

    def embedding(self, embedding_id: str) -> NamedEmbedding:
        try:
            return self._embeddings[embedding_id]
        except KeyError:
            raise InvalidLabel(f"unknown embedding id {embedding_id!r}") from None

    def embeddings(self) -> list[NamedEmbedding]:
        return list(self._embeddings.values())

    def families(self) -> list[EmbeddingFamily]:
        return list(self._families.values())

    def corank2_sources(self, max_rank: int) -> list[tuple[NamedEmbedding, str, Optional[int]]]:
        """Concrete and instantiated embeddings tagged for the corank-2 table.

        Returns (embedding, family id, parameter) triples; concrete rows
        carry their own id as family and no parameter.
        """
        concrete = [(e, e.id, None) for e in self.embeddings() if "corank2" in e.tags and e.ambient.rank <= max_rank]
        return concrete + [(e, fam.id, m) for fam in self.families() if "corank2" in fam.tags
                           for m, e in fam.instances_up_to_rank(max_rank).items()]

    def lattice_for(self, group: GroupType) -> list[NamedEmbedding]:
        return list(self._lattices.get(group, ()))

    # -- diagrams ----------------------------------------------------------

    def diagram_record(self, diagram_id: str) -> DiagramRecord:
        try:
            return self._diagrams[diagram_id]
        except KeyError:
            raise InvalidDiagram(f"unknown diagram id {diagram_id!r}") from None

    def diagram_records(self) -> list[DiagramRecord]:
        return list(self._diagrams.values())

    def matching_record(self, diagram: GroupDiagram) -> Optional[DiagramRecord]:
        """The record equal or swap-equal to ``diagram`` at descriptor level, if any."""
        return self._by_descriptor.get(diagram.canonical_descriptor())

    def diagram_from_record(self, record: Mapping, where: str = "diagram record") -> GroupDiagram:
        """The diagram a record document or ``diagrams.json`` entry describes.

        A missing key or a value of the wrong JSON type raises
        ``InvalidDiagram`` naming ``where`` and the key; a ``g`` that does not parse and an
        unknown id raise ``InvalidLabel``, also naming ``where`` and the key.
        """
        get = partial(_value, record, where=where)
        counts = get("component_counts", Mapping, {})
        flags = get("nonorientable", Mapping, {})

        def embedding(key: str) -> NamedEmbedding:
            return _named(f"{where} key {key!r}", self.embedding, get(key, str))

        return GroupDiagram(
            g=_named(f"{where} key 'g'", parse_group, get("g", str)),
            h=embedding("h"),
            k_minus=embedding("k_minus"),
            k_plus=embedding("k_plus"),
            h_in_k_minus=embedding("h_in_k_minus"),
            h_in_k_plus=embedding("h_in_k_plus"),
            components_h=_value(counts, "h", int, 1, f"{where} component_counts"),
            components_k_minus=_value(counts, "k_minus", int, 1, f"{where} component_counts"),
            components_k_plus=_value(counts, "k_plus", int, 1, f"{where} component_counts"),
            nonorientable_k_minus=_value(flags, "k_minus", bool, False, f"{where} nonorientable"),
            nonorientable_k_plus=_value(flags, "k_plus", bool, False, f"{where} nonorientable"),
        )


_JSON_TYPES = {str: "string", int: "integer", bool: "boolean", list: "array", Mapping: "object"}


def _is(value, kind: type) -> bool:
    # bool subclasses int, but a JSON true is not an integer
    return isinstance(value, kind) and isinstance(value, bool) == (kind is bool)


def _value(mapping: Mapping, key: str, kind: type, default=None, where="diagram record", error=InvalidDiagram):
    """``mapping[key]``, which must have JSON type ``kind``; ``default`` when absent, if given.

    A missing key or a value of another type raises ``error`` naming ``where`` and the key.
    """
    if key not in mapping:
        if default is None:
            raise error(f"{where} has no {key!r} key")
        return default
    value = mapping[key]
    if not _is(value, kind):
        raise error(f"{where} key {key!r} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _array(mapping: Mapping, key: str, item: type, default=None, where="diagram record", error=InvalidDiagram):
    """``mapping[key]`` as a tuple; it must be a JSON array of ``item`` values."""
    values = _value(mapping, key, list, default, where, error)
    if not all(_is(value, item) for value in values):
        raise error(f"{where} key {key!r} must be a JSON array of {_JSON_TYPES[item]}s, got {values!r}")
    return tuple(values)


def _orbit_poincare(record: Mapping, where: str) -> Optional[OrbitBetti]:
    data = _value(record, "orbit_poincare", Mapping, {}, where)
    if not data:
        return None
    where = f"{where} orbit_poincare"
    p_h, p_kp, p_km = (IntegerPolynomial(_array(data, key, int, where=where)) for key in ("h", "k_plus", "k_minus"))
    return OrbitBetti(p_h, p_kp, p_km, _value(data, "n", int, where=where))


def _by_id(records: Iterable, error: type[CohomoneError], source: Path) -> Mapping:
    """Records keyed by id, in id order; a repeated id raises ``error`` naming ``source``."""
    out: dict = {}
    for record in records:
        if record.id in out:
            raise error(f"{source}: duplicate id {record.id!r}")
        out[record.id] = record
    return MappingProxyType(dict(sorted(out.items())))


def data_dir() -> Path:
    override = os.environ.get(_DATA_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


def _read(path: Path, error: type[CohomoneError]) -> dict:
    """A data file's JSON object, whose ``"version"`` must be ``CATALOG_VERSION``."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: UnicodeDecodeError, JSONDecodeError
        raise error(f"{path}: cannot read catalog file: {exc}") from None
    version = data.get("version") if isinstance(data, dict) else None
    if type(version) is not int or version != CATALOG_VERSION:
        raise Unsupported(f"{path}: catalog version {version!r} is not supported (expected {CATALOG_VERSION})")
    return data


def _records(data: Mapping, key: str, path: Path, error: type[CohomoneError], default=None):
    """(record, where) for each object of the array ``data[key]``; ``where`` names file, key and index."""
    records = _array(data, key, Mapping, default, str(path), error)
    return ((record, f"{path}: {key}[{i}]") for i, record in enumerate(records))


def load_catalog(directory: Optional[Path] = None) -> Catalog:
    """The catalog in ``directory`` (default: ``data_dir()``).

    A file that cannot be read or is not UTF-8 JSON raises ``InvalidLabel``
    (``embeddings.json``) or ``InvalidDiagram`` (``diagrams.json``) naming it, and
    so does, naming the key too, a missing key or a value of the wrong JSON type.
    """
    base = Path(directory) if directory is not None else data_dir()
    path = base / "embeddings.json"
    data = _read(path, InvalidLabel)
    embeddings = (_embedding_from_record(*r) for r in _records(data, "embeddings", path, InvalidLabel))
    families = (_family_from_record(*r) for r in _records(data, "families", path, InvalidLabel, ()))
    # the diagram records resolve their embedding ids through this first-stage catalog
    catalog = Catalog(data["version"], _by_id(embeddings, InvalidLabel, path), _by_id(families, InvalidLabel, path), {})
    path = base / "diagrams.json"
    data = _read(path, InvalidDiagram)
    records = (
        DiagramRecord(
            id=_value(record, "id", str, where=where),
            diagram=catalog.diagram_from_record(record, where),
            outcome=_value(record, "outcome", Mapping, {}, where),
            rational_sphere=_value(record, "rational_sphere", bool, False, where),
            orbit_poincare=_orbit_poincare(record, where),
            tags=frozenset(_array(record, "tags", str, (), where)),
        )
        for record, where in _records(data, "diagrams", path, InvalidDiagram)
    )
    return Catalog(catalog.version, catalog._embeddings, catalog._families, _by_id(records, InvalidDiagram, path))


@lru_cache(maxsize=4, typed=True)
def _cached_catalog(directory: str) -> Catalog:
    return load_catalog(Path(directory))


def default_catalog() -> Catalog:
    return _cached_catalog(str(data_dir()))
