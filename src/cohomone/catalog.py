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
embeddings of the same file; an id that names none is refused.  ``tags``
are labels of ``lie_catalog.EMBEDDING_TAGS``, which ``NamedEmbedding``
checks, and ``comment`` is free text that the loader drops.  The
parameterized corank-2 pairs are no records: their table is
``classification.CORANK2_FAMILIES``.

Each embedding is judged once, here, and no reader checks it again:
``NamedEmbedding`` checks its bounds and a ``corank2`` tag's four
conditions, and an equal-rank one needs Weyl orders that divide (its Euler
characteristic) and a Hilbert series that is a Poincare polynomial, taken
within ``rational_homotopy.HILBERT_STEP_BUDGET`` steps.

``default_catalog`` keeps the catalog it loaded as Python keeps bytecode: in
``__pycache__/catalog.<sys.implementation.cache_tag>.marshal`` of the data
directory, written after a load that passed every check unless
``sys.dont_write_bytecode`` is set.  The file holds the exact bytes of both data
files, ``CATALOG_VERSION``, ``marshal.version`` and the (name, mtime, size) of
each module of the package, the stamp importlib keys bytecode on.  A later
process whose files and modules match rebuilds the catalog from it, with no JSON
read and no check run again; any other file, or none, falls through to
``load_catalog``.  ``json`` is imported by the first ``parse_json`` call, so a
process that rebuilds the catalog never imports it.
"""

from __future__ import annotations

import marshal
import os
import sys
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple, Optional

from .diagram import _OUTCOME_FIELDS, ClassificationOutcome, GroupDiagram
from .errors import CohomoneError, InvalidDiagram, InvalidLabel, InvalidParams, Unsupported
from .lie_catalog import GroupType, NamedEmbedding, parse_group
from .polynomial import MAX_SPHERE_DIM, IntegerPolynomial
from .rational_homotopy import euler_characteristic, hilbert_series

#: the only ``"version"`` the data files may carry
CATALOG_VERSION = 1
_DATA_ENV = "COHOMONE_DATA_DIR"


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
    if ambient.rank == subgroup.rank:  # the Weyl-order ratio, then the Poincare polynomial
        _named(where, euler_characteristic, embedding)
        _named(where, hilbert_series, embedding)
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


_FILES = ("embeddings.json", "diagrams.json")
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


@lru_cache(maxsize=1, typed=True)
def _decoder():
    """The one decoder of the package, built on first use: a process that rebuilds the catalog never imports json."""
    import json

    return json.JSONDecoder(object_pairs_hook=_json_object)


def parse_json(text: str):
    """The JSON value ``text`` holds, read by the one decoder of the package, which refuses a repeated key."""
    if text.startswith("\ufeff"):  # the text of json.loads's refusal; JSONDecoder.decode would say "Expecting value"
        raise ValueError("Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)")
    return _decoder().decode(text)


def _read(path: Path, error: type[CohomoneError], table: Mapping, raw: dict) -> list:
    """The values of a data file's top-level ``table`` keys; its ``"version"`` must be ``CATALOG_VERSION``.  The
    bytes read are kept in ``raw`` under the file name, and decoded as text mode decodes a file."""
    try:
        raw[path.name] = path.read_bytes()
        data = parse_json(raw[path.name].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, not JSON, a repeated key
        raise error(f"{path}: cannot read catalog file: {exc}") from None
    version = data.get("version") if type(data) is dict else None
    if type(version) is not int or version != CATALOG_VERSION:
        raise Unsupported(f"{path}: catalog version {version!r} is not supported (expected {CATALOG_VERSION})")
    return read_object(data, table, str(path), error)


def load_catalog(directory: Optional[str | os.PathLike] = None) -> Catalog:
    """The catalog in ``directory`` (default: ``data_dir()``).

    A file that cannot be read or is not UTF-8 JSON raises ``InvalidLabel``
    (``embeddings.json``) or ``InvalidDiagram`` (``diagrams.json``) naming it, and
    so does, naming the key too, a missing, repeated or undeclared key or a value of the wrong JSON type.
    An embedding that breaks a rule the module docstring lists, or a diagram record that breaks one of
    ``diagram.validate``, raises its error naming the file and ``embeddings[i]`` or ``diagrams[i]``: each is
    checked once, here, and never again per use.  A ``directory`` that is no str or PathLike raises ``InvalidParams``.
    """
    try:
        base = Path(directory) if directory is not None else data_dir()
    except TypeError:  # neither a str nor an os.PathLike of a str
        raise InvalidParams(f"the catalog directory must be a path, got {type(directory).__name__}") from None
    return _load(base, {})


def _load(base: Path, raw: dict) -> Catalog:
    """``load_catalog`` of ``base``, keeping in ``raw`` the bytes of each file it read."""
    path = base / _FILES[0]
    version, _, records = _read(path, InvalidLabel, _EMBEDDINGS_FILE, raw)
    groups: dict[str, GroupType] = {}  # each distinct group text of this load, parsed once
    embeddings = [_embedding_from_record(r, f"{path}: embeddings[{i}]", groups) for i, r in enumerate(records)]
    by_id = _by_id(embeddings, InvalidLabel, path)
    for i, embedding in enumerate(embeddings):
        unknown = sorted(c for c in embedding.contains if c not in by_id)
        if unknown:
            raise InvalidLabel(f"{path}: embeddings[{i}] key 'contains': unknown embedding id {unknown[0]!r}")
    # the diagram records resolve their embedding ids through this first-stage catalog
    catalog = Catalog(version, by_id, {})
    path = base / _FILES[1]
    records = []
    for i, record in enumerate(_read(path, InvalidDiagram, _DIAGRAMS_FILE, raw)[2]):
        where = f"{path}: diagrams[{i}]"
        record_id, *diagram, outcome, rational_sphere, orbit = read_object(record, _RECORD, where)
        diagram = _named(where, GroupDiagram, *catalog._diagram_fields(diagram, where))  # checked once, here
        records.append(DiagramRecord(record_id, diagram, *_verdict(outcome, rational_sphere, where),
                                     _orbit_poincare(orbit, where)))
    return _named(str(path), Catalog, version, by_id, _by_id(records, InvalidDiagram, path))


@lru_cache(maxsize=4, typed=True)
def _cached_catalog(directory: str) -> Catalog:
    """The catalog in ``directory``, rebuilt from its cache file if that holds the bytes of both data files and the
    source stamp of this package; else loaded and checked as ``load_catalog`` does, then cached for the next
    process."""
    base = Path(directory)
    cache = base / "__pycache__" / f"catalog.{sys.implementation.cache_tag}.marshal"
    try:
        key, plain = marshal.loads(cache.read_bytes())
        hit = key == _cache_key((base / name).read_bytes() for name in _FILES)
    except (OSError, EOFError, ValueError, TypeError):  # no file, or a truncated one, or not a key and a catalog
        hit = False
    if hit:
        return _rebuilt(*plain)
    raw: dict[str, bytes] = {}
    catalog = _load(base, raw)
    if not sys.dont_write_bytecode:
        _write(cache, raw, catalog)
    return catalog


def _cache_key(data: Iterable[bytes]) -> tuple:
    """What a cache file must match: the format, the (name, mtime, size) of each module of the package, the stamp
    importlib keys bytecode on, and the bytes ``data`` of the data files."""
    modules = sorted((entry.name, entry.stat().st_mtime_ns, entry.stat().st_size)
                     for entry in os.scandir(Path(__file__).parent) if entry.name.endswith(".py"))
    return CATALOG_VERSION, marshal.version, tuple(modules), *data


def _plain(catalog: Catalog) -> tuple:
    """``catalog`` as marshal data: each group as its text, each embedding of a diagram by id, each polynomial as
    its coefficients."""
    embeddings = tuple((e.id, str(e.ambient), str(e.subgroup), *e[3:]) for e in catalog.embeddings())
    records = tuple((r.id, str(r.diagram.g), tuple(e.id for e in r.diagram[1:6]), r.diagram[6:],
                     None if r.outcome is None else tuple(r.outcome), r.rational_sphere,
                     None if r.orbit_poincare is None else (*(p.coefficients for p in r.orbit_poincare[:3]),
                                                            r.orbit_poincare.n))
                    for r in catalog.diagram_records())
    return catalog.version, embeddings, records


def _rebuilt(version: int, embeddings: tuple, records: tuple) -> Catalog:
    """The catalog ``_plain`` gave, its embeddings and diagrams built past their checks: ``load_catalog`` ran every
    check on the same bytes under the same source stamp before the cache was written."""
    texts = {text for e in embeddings for text in e[1:3]} | {r[1] for r in records}
    groups = {text: parse_group(text) for text in texts}
    by_id = {e[0]: tuple.__new__(NamedEmbedding, (e[0], groups[e[1]], groups[e[2]], *e[3:])) for e in embeddings}
    diagrams = {}
    for record_id, g, ids, annotations, outcome, rational_sphere, orbit in records:
        diagram = tuple.__new__(GroupDiagram, (groups[g], *map(by_id.__getitem__, ids), *annotations))
        diagrams[record_id] = DiagramRecord(
            record_id, diagram, None if outcome is None else ClassificationOutcome(*outcome), rational_sphere,
            None if orbit is None else OrbitBetti(*map(IntegerPolynomial, orbit[:3]), orbit[3]))
    return Catalog(version, MappingProxyType(by_id), MappingProxyType(diagrams))


def _write(cache: Path, raw: dict, catalog: Catalog) -> None:
    """Write the cache file of ``catalog``, loaded from the bytes ``raw``, through a file of its own renamed into
    place, so that no reader sees part of it; a directory that refuses the write, a read-only install say, or a
    package directory that cannot be listed, is left as it was."""
    temporary = cache.with_name(f"{cache.name}.{os.getpid()}")
    try:
        data = marshal.dumps((_cache_key(raw[name] for name in _FILES), _plain(catalog)))
        cache.parent.mkdir(exist_ok=True)
        temporary.write_bytes(data)
        os.replace(temporary, cache)
    except OSError:
        try:
            temporary.unlink()
        except OSError:
            pass


def default_catalog() -> Catalog:
    return _cached_catalog(str(data_dir()))
