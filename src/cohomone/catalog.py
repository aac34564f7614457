"""Loading of the shipped embedding and diagram catalogs.

The catalogs are versioned JSON files under ``cohomone/data``; the
environment variable ``COHOMONE_DATA_DIR`` points the loader at an
alternative directory carrying the same file names.  A file whose
``"version"`` is not ``CATALOG_VERSION`` is refused.

All records are immutable after load: a :class:`Catalog` refuses
attribute assignment and has no mutator, and the diagram factories in
``classification`` build self-contained embeddings instead of adding
them, so every lookup answers the same whatever the process did before.
The indexes are built once, at load.  Embeddings and diagram records
are keyed by id in id order, so ``embeddings()`` and
``diagram_records()`` need no sort; an id may appear once per kind.
Lattice entries (the embeddings that contain others) are keyed by ambient
group, diagram records by ``GroupDiagram.canonical_descriptor``, which
equal and swap-equal diagrams share, so matching a diagram against the
records is one dict lookup; two records with the same key are refused.

``read_object`` reads each JSON object of the data files and of a
diagram document against its kind's key table, which gives each key's
JSON type and, if optional, its default: it refuses a missing key or a
value of another type, then an undeclared key.  ``parse_json``, the one
JSON decoder, refuses a key repeated in one object.  A record's ``outcome``
is read by its kind's table (``_OUTCOMES``) and built at load; it decides
``rational_sphere``, which only a record without an outcome states.

An embedding's values are JSON keys of their own: ``winding`` an integer,
``slope`` an array of two integers and ``contains`` an array of ids of
embeddings of the same file; an id that names none is refused, as is an equal-rank
embedding whose Hilbert series takes over ``HILBERT_STEP_BUDGET`` steps.  ``tags``
are labels of ``lie_catalog.EMBEDDING_TAGS``, which ``NamedEmbedding``
checks, and ``comment`` is free text that the loader drops.  The
parameterized corank-2 pairs are no records: their table is
``classification.CORANK2_FAMILIES``.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple, Optional

from .diagram import _OUTCOME_FIELDS, ClassificationOutcome, GroupDiagram
from .errors import CohomoneError, InvalidDiagram, InvalidLabel, Unsupported
from .lie_catalog import GroupType, NamedEmbedding, parse_group
from .polynomial import MAX_SPHERE_DIM, IntegerPolynomial
from .rational_homotopy import hilbert_factors

#: the only ``"version"`` the data files may carry
CATALOG_VERSION = 1
_DATA_ENV = "COHOMONE_DATA_DIR"
#: the most big-integer steps an equal-rank Hilbert series may take: at most about 0.2 s (2-vCPU VM, Python 3.11)
HILBERT_STEP_BUDGET = 2 * 10**6


def _rank_spec(spec, where: str, subgroup: GroupType) -> tuple[tuple[int, int], ...]:
    """A record's ``map_ranks`` as (degree, rank) pairs; "injective" is the subgroup's ``degree_counts``."""
    if spec == "injective":
        return subgroup.degree_counts
    if isinstance(spec, Mapping):
        ranks = [(_decimal(k), v) for k, v in spec.items()]
        if all(k is not None and type(v) is int for k, v in ranks):
            return tuple(sorted(ranks))
    raise InvalidLabel(f"{where} key 'map_ranks' must be \"injective\" or an object of integers, got {spec!r}")


def _decimal(key: str) -> Optional[int]:
    """The integer an object key of ASCII digits without a leading zero spells, so that two keys never name one
    integer; None for any other key, or one too long for ``int``."""
    try:
        return int(key) if key.isascii() and key.isdigit() and (key[0] != "0" or key == "0") else None
    except ValueError:
        return None


def _named(where: str, build, *args):
    """``build(*args)``; a ``CohomoneError`` it raises is raised again, same type, prefixed with ``where``."""
    try:
        return build(*args)
    except CohomoneError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _catalog_group(text: str, groups: dict[str, GroupType]) -> GroupType:
    """The group ``text`` names, parsed once per load: ``groups`` holds each text read so far.  One of dimension
    above ``MAX_SPHERE_DIM``, whose degree list grows with it, is refused before any degree list is built."""
    if text not in groups:
        group = parse_group(text)
        if group.dimension > MAX_SPHERE_DIM:
            raise InvalidLabel(f"the group has dimension above {MAX_SPHERE_DIM}")
        groups[text] = group
    return groups[text]


def _embedding_from_record(record: dict, where: str, groups: dict[str, GroupType]) -> NamedEmbedding:
    embedding_id, ambient, subgroup, map_ranks, tags, winding, slope, contains, _ = read_object(
        record, _EMBEDDING, where, InvalidLabel)
    ambient = _named(f"{where} key 'ambient'", _catalog_group, ambient, groups)
    subgroup = _named(f"{where} key 'subgroup'", _catalog_group, subgroup, groups)
    ranks = _rank_spec(map_ranks, where, subgroup)
    embedding = _named(where, lambda: NamedEmbedding(embedding_id, ambient, subgroup, ranks, tags, winding, slope,
                                                     frozenset(contains)))
    numerator, denominator = hilbert_factors(embedding) if ambient.rank == subgroup.rank else ((), ())
    steps = (len(numerator) + len(denominator)) * (ambient.dimension - subgroup.dimension + 1)
    if steps > HILBERT_STEP_BUDGET:
        raise InvalidLabel(f"{where}: its Hilbert series takes {steps} steps, over the budget of {HILBERT_STEP_BUDGET}")
    return embedding


class OrbitBetti(NamedTuple):
    """Rational Betti polynomials of G/H and G/K+-, with the sphere dimension n."""

    p_h: IntegerPolynomial
    p_k_plus: IntegerPolynomial
    p_k_minus: IntegerPolynomial
    n: int


class DiagramRecord(NamedTuple):
    """A catalogued diagram with its stored verdict: the ``outcome``, if any, which decides ``rational_sphere``."""

    id: str
    diagram: GroupDiagram
    outcome: Optional[ClassificationOutcome] = None
    rational_sphere: bool = False
    orbit_poincare: Optional[OrbitBetti] = None


class Catalog:
    """The embedding and diagram records, indexed at load and read-only after.

    The by-id mappings are in id order.  Each attribute is set once, here;
    assigning or deleting one raises ``AttributeError``.  Build one with
    :func:`load_catalog`.
    """

    __slots__ = ("version", "_embeddings", "_diagrams", "_lattices", "_by_descriptor")

    def __init__(self, version: int, embeddings: Mapping[str, NamedEmbedding],
                 diagrams: Mapping[str, DiagramRecord]) -> None:
        lattices: dict[GroupType, list[NamedEmbedding]] = {}
        for e in embeddings.values():
            if e.contains:
                lattices.setdefault(e.ambient, []).append(e)
        by_descriptor: dict[tuple, DiagramRecord] = {}
        for record in diagrams.values():
            key = record.diagram.canonical_descriptor()
            if key in by_descriptor:
                raise InvalidDiagram(
                    f"diagram records {by_descriptor[key].id!r} and {record.id!r} describe the same diagram"
                )
            by_descriptor[key] = record
        values = (version, embeddings, diagrams, MappingProxyType({g: tuple(es) for g, es in lattices.items()}),
                  MappingProxyType(by_descriptor))
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

    def diagram_from_record(self, values: Sequence, where: str = "diagram record") -> GroupDiagram:
        """The diagram of a record's ``_DIAGRAM`` values, in ``read_object`` order, built by the checked
        constructor: a diagram that breaks a rule of ``diagram.validate`` raises its ``InvalidDiagram``."""
        return GroupDiagram(*self._diagram_fields(values, where))

    def _diagram_fields(self, values: Sequence, where: str) -> tuple:
        """The ``GroupDiagram`` fields of a record's values; a ``g`` that does not parse, an unknown id and a
        malformed annotation raise an error naming ``where`` and the key."""
        g, *ids, counts, flags = values
        return (_named(f"{where} key 'g'", parse_group, g),
                *(_named(f"{where} key {key!r}", self.embedding, value) for key, value in zip(_EMBEDDING_KEYS, ids)),
                *read_object(counts, _COUNTS, f"{where} component_counts"),
                *read_object(flags, _FLAGS, f"{where} nonorientable"))


_EMPTY = MappingProxyType({})
_JSON_TYPES = {str: "string", int: "integer", bool: "boolean", dict: "object", type(None): "null"}

# the key tables of the JSON objects that read_object reads
_EMBEDDING_KEYS = ("h", "k_minus", "k_plus", "h_in_k_minus", "h_in_k_plus")  # a diagram's, in GroupDiagram order
_EMBEDDINGS_FILE = {"version": int, "comment": (str, ""), "embeddings": [dict]}
_DIAGRAMS_FILE = {"version": int, "comment": (str, ""), "diagrams": [dict]}
#: an embedding may carry values: a winding, a slope pair, the ids a lattice entry contains; and a comment
_EMBEDDING = {"id": str, "ambient": str, "subgroup": str, "map_ranks": (object, _EMPTY), "tags": ([str], ()),
              "winding": (int, None), "slope": ([int], None), "contains": ([str], ()), "comment": (str, "")}
#: a diagram: an inline record document holds these keys, and may hold a null ``family``
_DIAGRAM = {"g": str, **dict.fromkeys(_EMBEDDING_KEYS, str), "component_counts": (dict, _EMPTY),
           "nonorientable": (dict, _EMPTY)}
INLINE_RECORD = {"family": (type(None), None), **_DIAGRAM}
_RECORD = {"id": str, **_DIAGRAM, "outcome": (dict, None), "rational_sphere": (bool, None),
           "orbit_poincare": (dict, _EMPTY)}
#: a stored outcome, by the kinds a record may store: no seven-family (its params are no JSON value), no unmatched
_OUTCOMES = {kind: {"kind": str, **_OUTCOME_FIELDS[kind]}
             for kind in ("linear-sphere", "brieskorn", "wu", "g2-quotient", "not-rational-sphere")}
_COUNTS = {"h": (int, 1), "k_minus": (int, 1), "k_plus": (int, 1)}
_FLAGS = {"k_minus": (bool, False), "k_plus": (bool, False)}
_ORBIT = {"h": [int], "k_plus": [int], "k_minus": [int], "n": int}


def read_object(obj: Mapping, table: Mapping, where: str, error: type[Exception] = InvalidDiagram) -> list:
    """The values of ``obj`` under the keys of ``table``, in table order; ``obj`` may hold no other key.

    ``table`` maps each key to its JSON type: ``str``, ``int``, ``bool``, ``dict``, ``type(None)``, ``[item]``
    for an array of ``item`` values (given as a tuple) or ``object`` for any value; ``(type, default)`` makes
    the key optional.  A missing key, a value of another type and then a key outside ``table`` raise ``error``
    naming ``where`` and the key.
    """
    values = []
    for key, kind in table.items():
        if key not in obj:
            if type(kind) is not tuple:
                raise error(f"{where} has no {key!r} key")
            values.append(kind[1])
            continue
        value, kind = obj[key], kind[0] if type(kind) is tuple else kind
        if type(value) is kind or kind is object:
            values.append(value)
        elif type(kind) is list and type(value) is list and all(type(item) is kind[0] for item in value):
            values.append(tuple(value))
        else:
            name = f"array of {_JSON_TYPES[kind[0]]}s" if type(kind) is list else _JSON_TYPES[kind]
            raise error(f"{where} key {key!r} must be a JSON {name}, got {value!r}")
    if not obj.keys() <= table.keys():
        key = next(key for key in obj if key not in table)
        raise error(f"{where} has unknown key {key!r} (allowed: {', '.join(map(repr, table))})")
    return values


def _verdict(outcome: Optional[Mapping], rational_sphere: Optional[bool], where: str) -> tuple:
    """A record's ``outcome``, read by its kind's key table and built, and the ``rational_sphere`` that it decides."""
    if outcome is None:
        return None, bool(rational_sphere)
    table = _OUTCOMES.get(kind) if type(kind := outcome.get("kind")) is str else None
    if table is None:
        raise InvalidDiagram(f"{where}: unknown outcome kind {kind!r} "
                             f"(stored kinds: {', '.join(map(repr, _OUTCOMES))})")
    if rational_sphere is not None:
        raise InvalidDiagram(f"{where} states 'rational_sphere', which its 'outcome' decides")
    values = read_object(outcome, table, f"{where} outcome")
    outcome = _named(f"{where} outcome", lambda: ClassificationOutcome(**dict(zip(table, values))))
    return outcome, outcome.kind != "not-rational-sphere"


def _orbit_poincare(data: Mapping, where: str) -> Optional[OrbitBetti]:
    if not data:
        return None
    *polynomials, n = read_object(data, _ORBIT, f"{where} orbit_poincare")
    return OrbitBetti(*map(IntegerPolynomial, polynomials), n)


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


def _json_object(pairs: list) -> dict:
    """A decoded JSON object; a key it repeats raises ``ValueError``, as a syntax error does."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise ValueError(f"object key {next(key for key, n in counts.items() if n > 1)!r} is repeated")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_json_object)


def parse_json(text: str):
    """The JSON value ``text`` holds, read by the one decoder of the package, which refuses a repeated key."""
    if text.startswith("\ufeff"):  # as json.loads refuses it; JSONDecoder.decode would say "Expecting value"
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _DECODER.decode(text)


def _read(path: Path, error: type[CohomoneError], table: Mapping) -> list:
    """The values of a data file's top-level ``table`` keys; its ``"version"`` must be ``CATALOG_VERSION``."""
    try:
        data = parse_json(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, not JSON, a repeated key
        raise error(f"{path}: cannot read catalog file: {exc}") from None
    version = data.get("version") if type(data) is dict else None
    if type(version) is not int or version != CATALOG_VERSION:
        raise Unsupported(f"{path}: catalog version {version!r} is not supported (expected {CATALOG_VERSION})")
    return read_object(data, table, str(path), error)


def load_catalog(directory: Optional[Path] = None) -> Catalog:
    """The catalog in ``directory`` (default: ``data_dir()``).

    A file that cannot be read or is not UTF-8 JSON raises ``InvalidLabel``
    (``embeddings.json``) or ``InvalidDiagram`` (``diagrams.json``) naming it, and
    so does, naming the key too, a missing, repeated or undeclared key or a value of the wrong JSON type.
    A diagram record that breaks a rule of ``diagram.validate`` raises ``InvalidDiagram`` naming the file and
    ``diagrams[i]``: each record is validated once, here, and never again per use.
    """
    base = Path(directory) if directory is not None else data_dir()
    path = base / "embeddings.json"
    version, _, records = _read(path, InvalidLabel, _EMBEDDINGS_FILE)
    groups: dict[str, GroupType] = {}  # each distinct group text of this load, parsed once
    embeddings = [_embedding_from_record(r, f"{path}: embeddings[{i}]", groups) for i, r in enumerate(records)]
    by_id = _by_id(embeddings, InvalidLabel, path)
    for i, embedding in enumerate(embeddings):
        unknown = sorted(c for c in embedding.contains if c not in by_id)
        if unknown:
            raise InvalidLabel(f"{path}: embeddings[{i}] key 'contains': unknown embedding id {unknown[0]!r}")
    # the diagram records resolve their embedding ids through this first-stage catalog
    catalog = Catalog(version, by_id, {})
    path = base / "diagrams.json"
    records = []
    for i, record in enumerate(_read(path, InvalidDiagram, _DIAGRAMS_FILE)[2]):
        where = f"{path}: diagrams[{i}]"
        record_id, *diagram, outcome, rational_sphere, orbit = read_object(record, _RECORD, where)
        diagram = _named(where, GroupDiagram, *catalog._diagram_fields(diagram, where))  # checked once, here
        records.append(DiagramRecord(record_id, diagram, *_verdict(outcome, rational_sphere, where),
                                     _orbit_poincare(orbit, where)))
    return Catalog(version, by_id, _by_id(records, InvalidDiagram, path))


@lru_cache(maxsize=4, typed=True)
def _cached_catalog(directory: str) -> Catalog:
    return load_catalog(Path(directory))


def default_catalog() -> Catalog:
    return _cached_catalog(str(data_dir()))
