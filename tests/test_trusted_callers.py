"""The conditions the library no longer checks hold of every value the program builds and every call it makes.

Input is checked where it is read (flags, documents, catalog files), so the value types and engine functions
trust their callers.  Each row below is the condition a refusal deleted from a type or function checked; a corpus
of command lines runs under a profiler that records every value of those types that a function of the package
returns, and the arguments of every call of those functions, and each row asserts its condition of all of them.
"""

import io
import itertools
import json
import sys
from unittest import mock

import pytest

from cohomone.catalog import Catalog, DiagramRecord, data_dir, default_catalog, load_catalog
from cohomone.classification import realize_torsion
from cohomone.cli import run
from cohomone.diagram import (
    _OUTCOME_FIELDS,
    CASE6_FIBERS,
    ClassificationOutcome,
    GroupDiagram,
    gh_classify,
    primitivity,
)
from cohomone.lie_catalog import (
    _CLASSICAL_FAMILIES,
    _EXCEPTIONAL_RANKS,
    GroupType,
    NamedEmbedding,
    SimpleGroupLabel,
    spheres_acted_on,
)
from cohomone.polynomial import one_plus_power
from test_source import REACH_CORPUS

CAT = default_catalog()
_SLOPES = (-3, 1, 5)


def _documents():
    """A diagram document of each shipped record, and of each family over a grid of its parameters."""
    yield from ({"catalog": record.id} for record in CAT.diagram_records())
    yield from ({"family": "brieskorn", "m": m, "d": d} for m in range(3, 11) for d in range(1, 8))
    yield from ({"family": "brieskorn", "m": m, "d": d, "variant": variant}
                for m, variant in ((8, "spin7"), (7, "g2")) for d in range(1, 8))
    yield from ({"family": "tensor-su", "n": n} for n in range(4, 10))
    yield from ({"family": "tensor-sp", "n": n} for n in range(2, 7))
    yield from ({"family": "seven", "p_minus": p_minus, "q_minus": q_minus, "p_plus": p_plus, "q_plus": q_plus}
                for p_minus, q_minus, p_plus, q_plus in itertools.product(_SLOPES, repeat=4))


def _corpus():
    """(command line, stdin document): the reach probe's rows, and every subcommand over a grid of its inputs."""
    yield from ((argv, document) for argv, document, _ in REACH_CORPUS)
    for document, command in itertools.product(_documents(), (["classify"], ["primitivity"],
                                                               ["primitivity", "--rational-sphere"])):
        yield [*command, "--diagram", "-"], json.dumps(document)
    for embedding in CAT.embeddings():
        yield ["quotient", "--embedding", embedding.id], ""
        yield ["hilbert", "--embedding", embedding.id], ""
    groups = [f"{name}({n})" for name in ("SU", "SO", "Spin", "Sp", "U", "T") for n in range(8)]
    groups += [f"{family}{n}" for family in _CLASSICAL_FAMILIES for n in range(8)]
    groups += [*_EXCEPTIONAL_RANKS, "S1", "S3", "1", "SU(3)xSp(2)xT2", "G2xB3xU(2)"]
    yield from ((["degrees", "--group", group], "") for group in groups)
    for ell_minus, ell_plus, h in itertools.product(range(1, 9), range(1, 9), range(3)):
        yield ["gh-case", "--l-minus", str(ell_minus), "--l-plus", str(ell_plus), "--h", str(h)], ""
    for ell, tag, _, _ in CASE6_FIBERS:
        yield ["gh-case", "--l-minus", str(ell), "--l-plus", str(ell), "--h", "0", "--fiber", tag], ""
    for n, spheres in itertools.product(range(3, 12), ("1", "2,3", "3,5")):
        yield ["mv-check", "--n", str(n), "--h-spheres", spheres, "--k-plus-spheres", "3",
               "--k-minus-spheres", "2,5"], ""
    yield from ((["seven-family", "--realize", str(t)], "") for t in range(1, 17))
    for p_minus, q_minus, p_plus, q_plus in itertools.product(_SLOPES, repeat=4):
        yield ["seven-family", "--p-minus", str(p_minus), "--q-minus", str(q_minus), "--p-plus", str(p_plus),
               "--q-plus", str(q_plus)], ""


#: the functions whose calls are recorded
_WATCHED = {function.__code__: function.__name__
            for function in (spheres_acted_on, primitivity, gh_classify, realize_torsion, one_plus_power)}
_VALUE_TYPES = (Catalog, DiagramRecord, GroupDiagram, ClassificationOutcome, NamedEmbedding, GroupType,
                SimpleGroupLabel)


def _parts(value):
    """``value`` and the values of ``_VALUE_TYPES`` it holds."""
    yield value
    if isinstance(value, Catalog):
        yield from (part for item in [*value.embeddings(), *value.diagram_records()] for part in _parts(item))
    elif isinstance(value, DiagramRecord):
        yield from (part for item in (value.diagram, value.outcome) if item is not None for part in _parts(item))
    elif isinstance(value, GroupDiagram):
        yield from (part for item in value[:6] for part in _parts(item))
    elif isinstance(value, NamedEmbedding):
        yield from (part for group in (value.ambient, value.subgroup) for part in _parts(group))
    elif isinstance(value, GroupType):
        yield from value.factors


@pytest.fixture(scope="module")
def seen():
    """The values the corpus built, by type, and the arguments of each watched call, by function name."""
    returned, calls = set(), {name: [] for name in _WATCHED.values()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in _WATCHED:
            calls[_WATCHED[frame.f_code]].append(dict(frame.f_locals))
        elif event == "return" and isinstance(arg, _VALUE_TYPES) and arg not in returned:
            returned.add(arg)

    codes, previous = set(), sys.getprofile()
    sys.setprofile(profile)
    try:
        load_catalog(data_dir())  # the checked load, which the cache of default_catalog may skip
        for argv, document in _corpus():
            with mock.patch("sys.stdin", io.StringIO(document)):
                codes.add(run(argv, CAT).exit_code)
    finally:
        sys.setprofile(previous)
    assert codes == {0, 2}  # exit 1 would be a failed check of verify-tables on the shipped catalog
    values = {}
    for value in {part for item in [CAT, *returned] for part in _parts(item)}:
        values.setdefault(type(value), []).append(value)
    return values, calls


def _fields_of_kind(outcome):
    return _OUTCOME_FIELDS.get(outcome.kind, {})


#: the condition each deleted refusal of a value type checked: (type, a value the condition is about, the condition)
VALUE_RULES = {
    "SimpleGroupLabel-family": (SimpleGroupLabel, lambda v: True,
                                lambda v: v.family in _CLASSICAL_FAMILIES or v.family in _EXCEPTIONAL_RANKS),
    "SimpleGroupLabel-exceptional-rank": (SimpleGroupLabel, lambda v: v.family in _EXCEPTIONAL_RANKS,
                                          lambda v: v.rank == _EXCEPTIONAL_RANKS.get(v.family, v.rank)),
    "SimpleGroupLabel-rank": (SimpleGroupLabel, lambda v: v.family in _CLASSICAL_FAMILIES,
                              lambda v: type(v.rank) is int and v.rank >= 1),
    "GroupType-torus_rank": (GroupType, lambda v: v.torus_rank,
                             lambda v: type(v.torus_rank) is int and v.torus_rank >= 0),
    # a family parameter that is no integer gave a float rank, which _family_diagram refused
    "GroupType-rank": (GroupType, lambda v: v.factors, lambda v: type(v.rank) is int),
    "NamedEmbedding-winding": (NamedEmbedding, lambda v: v.winding is not None,
                               lambda v: v.winding is None or type(v.winding) is int),
    "NamedEmbedding-slope": (NamedEmbedding, lambda v: v.slope is not None,
                             lambda v: v.slope is None or type(v.slope) is tuple and len(v.slope) == 2
                             and all(type(s) is int for s in v.slope)),
    "NamedEmbedding-contains": (NamedEmbedding, lambda v: v.contains,
                                lambda v: type(v.contains) is frozenset and all(type(c) is str for c in v.contains)),
    "ClassificationOutcome-kind": (ClassificationOutcome, lambda v: True, lambda v: v.kind in _OUTCOME_FIELDS),
    "ClassificationOutcome-fields": (ClassificationOutcome, _fields_of_kind,
                                     lambda v: all(value is None for name, value in zip(v._fields[1:], v[1:])
                                                   if name not in _fields_of_kind(v))),
    # bool subclasses int, but True is not an integer
    "ClassificationOutcome-types": (ClassificationOutcome, _fields_of_kind,
                                    lambda v: all(isinstance(getattr(v, name), expected)
                                                  and not isinstance(getattr(v, name), bool)
                                                  for name, expected in _fields_of_kind(v).items())),
    "ClassificationOutcome-seven-family-torsion": (ClassificationOutcome, lambda v: v.kind == "seven-family",
                                                   lambda v: v.kind != "seven-family" or v.torsion != 0),
}


@pytest.mark.parametrize("rule", VALUE_RULES)
def test_every_value_the_program_builds_meets_the_rule_its_type_no_longer_checks(seen, rule):
    kind, about, holds = VALUE_RULES[rule]
    values = seen[0][kind]
    assert any(about(v) for v in values), f"the corpus builds no {kind.__name__} that {rule} is about"
    assert [v for v in values if not holds(v)] == []


#: the condition each deleted refusal of an engine function checked of its arguments
CALL_RULES = {
    "spheres_acted_on": (lambda a: True, lambda a: a["group"].is_simple()),
    "primitivity": (lambda a: a["lattice"], lambda a: all(entry.ambient == a["d"].g for entry in a["lattice"])),
    "gh_classify": (lambda a: a["fiber_hint"] is not None,
                    lambda a: a["fiber_hint"] is None or type(a["fiber_hint"]) is str),
    "realize_torsion": (lambda a: True, lambda a: type(a["t"]) is int),
    "one_plus_power": (lambda a: True, lambda a: type(a["exponent"]) is int and a["exponent"] >= 1),
}


@pytest.mark.parametrize("function", CALL_RULES)
def test_every_call_the_program_makes_meets_the_condition_its_deleted_refusal_checked(seen, function):
    about, holds = CALL_RULES[function]
    calls = seen[1][function]
    assert any(about(arguments) for arguments in calls), f"the corpus makes no call of {function} the rule is about"
    assert [arguments for arguments in calls if not holds(arguments)] == []
