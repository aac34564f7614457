import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohomone
import cohomone.classification
from cohomone.catalog import DiagramRecord, default_catalog
from cohomone.classification import (
    FAMILIES,
    ClassificationOutcome,
    SevenFamilyParams,
    brieskorn_diagram,
    case6_pairs,
    classify_diagram,
    enumerate_corank2,
    realize_torsion,
    seven_family_diagram,
    seven_family_torsion,
    table3_filter,
    tensor_sp_diagram,
    tensor_su_diagram,
)
from cohomone.diagram import GroupDiagram, double_disk_euler, gh_classify, mv_feasible, validate
from cohomone.errors import InvalidDiagram, InvalidEmbedding, InvalidParams
from cohomone.lie_catalog import (
    EMBEDDING_TAGS,
    GroupType,
    NamedEmbedding,
    parse_group,
    special_orthogonal,
    special_unitary,
    symplectic,
)
from cohomone.verify import orbit_betti
from test_diagram import unchecked

CAT = default_catalog()


# -- corank-2 table -----------------------------------------------------------


def rows_by_pair():
    return {
        (str(r.group), str(r.subgroup), r.embedding_id): (r.ell_minus, r.total, r.ell_plus)
        for r in enumerate_corank2(9, CAT)
    }


def test_corank2_has_thirteen_families():
    rows = enumerate_corank2(9, CAT)
    assert len({r.family for r in rows}) == 13


@pytest.mark.parametrize(
    "embedding_id, columns",
    [
        ("su6-sp3", (5, 9, 4)),
        ("su5-sp2", (5, 9, 4)),
        ("spin9-g2", (7, 15, 8)),
        ("spin8-g2", (7, 7, 0)),
        ("su6-so6", (9, 11, 2)),
        ("spin9-sp2", (11, 15, 4)),
        ("e6-f4", (9, 17, 8)),
        ("f4-g2", (15, 23, 8)),
        ("g2-trivial", (3, 11, 8)),
        ("su(m)/su(m-2)@m=4", (5, 7, 2)),
        ("spin(2m+1)/spin(2m-3)@m=4", (11, 15, 4)),
        ("sp(m)/sp(m-2)@m=4", (11, 15, 4)),
        ("spin(2m)/spin(2m-3)@m=4", (7, 11, 4)),
        ("spin(2m)/spin(2m-3)@m=6", (11, 19, 8)),
    ],
)
def test_corank2_columns(embedding_id, columns):
    rows = {r.embedding_id: (r.ell_minus, r.total, r.ell_plus) for r in enumerate_corank2(9, CAT)}
    assert rows[embedding_id] == columns


def test_corank2_family_closed_forms():
    for r in enumerate_corank2(9, CAT):
        m = r.param
        if r.family == "su(m)/su(m-2)":
            assert (r.ell_minus, r.total, r.ell_plus) == (2 * m - 3, 2 * m - 1, 2)
        elif r.family in ("spin(2m+1)/spin(2m-3)", "sp(m)/sp(m-2)"):
            assert (r.ell_minus, r.total, r.ell_plus) == (4 * m - 5, 4 * m - 1, 4)
        elif r.family == "spin(2m)/spin(2m-3)":
            assert (r.ell_minus, r.total, r.ell_plus) == (2 * m - 1, 4 * m - 5, 2 * m - 4)


def test_corank2_rank_bound_respected():
    for max_rank in (2, 4, 9):
        for r in enumerate_corank2(max_rank, CAT):
            assert r.group.rank <= max_rank
    assert enumerate_corank2(1, CAT) == []  # a corank-2 pair has a G of rank at least 2


def test_table3_filter():
    rows = enumerate_corank2(9, CAT)
    kept = table3_filter(rows)
    families = {r.family for r in kept}
    assert families == {
        "su(m)/su(m-2)",
        "su5-sp2",
        "spin(2m+1)/spin(2m-3)",
        "spin9-sp2",
        "sp(m)/sp(m-2)",
        "spin(2m)/spin(2m-3)",
    }
    kept_ids = {r.embedding_id for r in kept}
    # the bounded families survive only at m = 4
    assert "su(m)/su(m-2)@m=4" in kept_ids and "su(m)/su(m-2)@m=5" not in kept_ids
    assert "sp(m)/sp(m-2)@m=4" in kept_ids and "sp(m)/sp(m-2)@m=3" not in kept_ids
    assert "spin(2m+1)/spin(2m-3)@m=4" in kept_ids and "spin(2m+1)/spin(2m-3)@m=5" not in kept_ids
    # the even spin family survives at every rank
    for m in range(4, 10):
        assert f"spin(2m)/spin(2m-3)@m={m}" in kept_ids
    # dropped examples: wrong transitive fiber or zero fiber
    assert "su6-so6" not in kept_ids
    assert "su6-sp3" not in kept_ids
    assert "spin8-g2" not in kept_ids
    assert "g2-trivial" not in kept_ids


# -- seven-manifold family -------------------------------------------------------


def test_seven_family_torsion_examples():
    assert seven_family_torsion(SevenFamilyParams(-3, 1, 5, 1)) == 2
    assert seven_family_torsion(SevenFamilyParams(1, 1, 1, 1)) == 0
    assert seven_family_torsion(SevenFamilyParams(1, 1, 5, 1)) == 3


def test_seven_family_congruence_enforced():
    with pytest.raises(InvalidParams):
        SevenFamilyParams(2, 1, 1, 1)
    with pytest.raises(InvalidParams):
        SevenFamilyParams(1, 1, 3, 1)


def test_realize_torsion_examples():
    assert realize_torsion(2) == SevenFamilyParams(-3, 1, 5, 1)
    assert realize_torsion(1) == SevenFamilyParams(1, 1, -3, 1)
    assert seven_family_torsion(realize_torsion(25)) == 25
    with pytest.raises(InvalidParams):
        realize_torsion(0)


def test_realize_torsion_roundtrip_range():
    for t in range(1, 200):
        params = realize_torsion(t)
        assert seven_family_torsion(params) == t
        for v in (params.p_minus, params.q_minus, params.p_plus, params.q_plus):
            assert v % 4 == 1


# -- exceptional-fiber pairs -------------------------------------------------------


def test_case6_pairs():
    pairs = case6_pairs()
    assert len(pairs) == 5
    as_dict = {str(p.group): p for p in pairs}
    assert as_dict["F4"].isotropy == parse_group("Spin(8)")
    assert as_dict["F4"].fiber_dim == 8 and as_dict["F4"].total_dim == 25
    assert as_dict["C3"].isotropy == parse_group("Sp(1)xSp(1)xSp(1)")
    assert as_dict["C3"].fiber_dim == 4 and as_dict["C3"].total_dim == 13
    assert sorted(p.fiber_dim for p in pairs) == [2, 2, 2, 4, 8]
    assert "B3" not in as_dict  # no 7-dimensional-spinor group here


# -- the classifier ------------------------------------------------------------------


def outcome_of(record_id):
    return classify_diagram(CAT.diagram_record(record_id).diagram, CAT)


def test_five_table_outcomes():
    assert outcome_of("t5-row1") == ClassificationOutcome("g2-quotient", index=3)
    assert outcome_of("t5-row2").kind == "not-rational-sphere"
    assert outcome_of("t5-row3").kind == "not-rational-sphere"
    assert outcome_of("t5-row4").kind == "linear-sphere"
    assert "tensor" in outcome_of("t5-row4").description
    assert outcome_of("t5-row5") == ClassificationOutcome("g2-quotient", index=1)


def test_classifier_swap_invariance_on_catalog():
    for record in CAT.diagram_records():
        direct = classify_diagram(record.diagram, CAT)
        swapped = classify_diagram(record.diagram.swap(), CAT)
        assert direct == swapped, record.id


def test_no_cache_grows_with_input(monkeypatch):
    # 3000 distinct m overflow every bounded cache the classifier fills; none keeps more than its maxsize
    from cohomone.cli import run

    for m in range(3, 3003):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"family": "brieskorn", "m": m, "d": 1})))
        assert run(["classify", "--diagram", "-"], CAT).payload["outcome"] == {"kind": "brieskorn", "m": m, "d": 1}
    caches = {value.__name__: value for name, module in list(sys.modules.items()) if name.startswith("cohomone.")
              for value in vars(module).values() if hasattr(value, "cache_info")}
    assert {"special_orthogonal", "special_unitary", "symplectic", "_unitary", "_sphere_row", "_brieskorn_orbits",
            "_tensor_su_orbits", "_tensor_sp_orbits"} <= set(caches)
    for name, cache in caches.items():
        info = cache.cache_info()
        assert isinstance(info.maxsize, int) and info.currsize <= info.maxsize, name
    assert caches["_brieskorn_orbits"].cache_info().currsize == caches["_brieskorn_orbits"].cache_info().maxsize


def test_classifier_requires_valid_diagram():
    d = CAT.diagram_record("case6-su3").diagram
    with pytest.raises(InvalidDiagram):
        classify_diagram(d._replace(components_k_plus=2), CAT)


def test_wu_and_linear_outcomes():
    assert outcome_of("wu-s3s1").kind == "wu"
    assert outcome_of("su5-lambda2").description == "SU(5) on S^19 via the second exterior power of C^5"
    assert outcome_of("spin10-spin").description == "Spin(10) on S^31 via the spin representation"


def test_case6_diagrams_unmatched():
    for record_id in ("case6-su3", "case6-sp2", "case6-g2", "case6-sp3", "case6-f4"):
        assert outcome_of(record_id).kind == "unmatched"


def test_brieskorn_classification():
    assert classify_diagram(brieskorn_diagram(6, 4, "standard"), CAT) == ClassificationOutcome("brieskorn", m=6, d=4)
    assert classify_diagram(brieskorn_diagram(4, 7, "standard"), CAT) == ClassificationOutcome("brieskorn", m=4, d=7)
    assert classify_diagram(brieskorn_diagram(8, 5, "spin7"), CAT) == ClassificationOutcome("brieskorn", m=8, d=5)
    assert classify_diagram(brieskorn_diagram(7, 3, "g2"), CAT) == ClassificationOutcome("brieskorn", m=7, d=3)
    # the gate: m odd with even d is not a rational sphere
    out = classify_diagram(brieskorn_diagram(5, 4, "standard"), CAT)
    assert out.kind == "not-rational-sphere"


def test_brieskorn_zero_winding_is_nonprimitive():
    d = brieskorn_diagram(6, 4, "standard")
    out = classify_diagram(d._replace(k_minus=d.k_minus._replace(id="bk-zero-winding", winding=0)), CAT)
    assert out.kind == "not-rational-sphere" and "non-primitive" in out.reason


def test_every_recognizer_agrees_with_every_shipped_verdict():
    # the classifier answers a shipped record with its stored outcome before any recognizer runs, so a recognizer
    # that contradicts one shows only on a copy of the diagram outside the catalog
    disagreements = []
    for record in CAT.diagram_records():
        for orientation, d in (("direct", record.diagram), ("swap", record.diagram.swap())):
            for name, family in FAMILIES.items():
                verdict = family.recognize(d)
                if verdict is None or verdict == record.outcome:
                    continue
                # a record without an outcome fixes only its flag: a rational sphere is never not-rational-sphere
                if record.outcome is None and not (record.rational_sphere and verdict.kind == "not-rational-sphere"):
                    continue
                disagreements.append((record.id, orientation, name, verdict))
    assert disagreements == []


def test_brieskorn_outcome_gate_invariant():
    with pytest.raises(InvalidParams):
        ClassificationOutcome("brieskorn", m=5, d=4)


@pytest.mark.parametrize(
    "kind, values",
    [
        ("g2-quotient", {"index": 2}),
    ],
)
def test_outcome_fields_checked_against_kind(kind, values):
    with pytest.raises(InvalidParams):
        ClassificationOutcome(kind, **values)


def test_outcome_as_dict_lists_the_fields_set():
    params = realize_torsion(6)
    assert ClassificationOutcome("seven-family", params=params, torsion=6).as_dict() == {
        "kind": "seven-family",
        "params": {"p_minus": params.p_minus, "q_minus": 1, "p_plus": params.p_plus, "q_plus": 1},
        "torsion": 6,
    }
    assert ClassificationOutcome("wu").as_dict() == {"kind": "wu"}
    assert ClassificationOutcome("brieskorn", m=6, d=4).as_dict() == {"kind": "brieskorn", "m": 6, "d": 4}


def test_orbit_data_checks_inclusions_live_in_g():
    # K+ taken from a diagram in Sp(2): the type refuses it, so double_disk_euler and orbit_betti, whose
    # equal-rank branch would read it with no stored data, never see an inclusion into another group
    d = CAT.diagram_record("case6-su3").diagram
    assert d.h.subgroup.rank == d.g.rank
    with pytest.raises(InvalidDiagram) as caught:
        d._replace(k_plus=CAT.diagram_record("case6-sp2").diagram.k_plus)
    assert str(caught.value) == "[containment-shape] K+ (sp2-kplus-u2) is not an embedding into A2"


def test_tensor_classification():
    out = classify_diagram(tensor_su_diagram(4), CAT)
    assert out == ClassificationOutcome(
        "linear-sphere", description="SU(4)xSU(2) on S^15 via the tensor product of C^4 and C^2"
    )
    out = classify_diagram(tensor_sp_diagram(2), CAT)
    assert out == ClassificationOutcome(
        "linear-sphere", description="Sp(2)xSp(2) on S^15 via the tensor product of H^2 and H^2"
    )
    out = classify_diagram(tensor_sp_diagram(4), CAT)
    assert out.description == "Sp(4)xSp(2) on S^31 via the tensor product of H^4 and H^2"


def test_seven_family_classification():
    params = realize_torsion(6)
    out = classify_diagram(seven_family_diagram(params), CAT)
    assert out.kind == "seven-family" and out.torsion == 6
    degenerate = seven_family_diagram(SevenFamilyParams(1, 1, 1, 1))
    assert classify_diagram(degenerate, CAT).kind == "not-rational-sphere"


def test_factories_reject_bad_parameters():
    with pytest.raises(InvalidParams):
        brieskorn_diagram(2, 3, "standard")
    with pytest.raises(InvalidParams):
        brieskorn_diagram(6, 3, "spin7")
    with pytest.raises(InvalidParams):
        tensor_su_diagram(3)
    with pytest.raises(InvalidParams):
        tensor_sp_diagram(1)


# -- family diagrams: properties and near misses ------------------------------------------


@st.composite
def family_diagrams(draw):
    """A factory diagram with random parameters, and the outcome kind and fields those parameters predict."""
    kind = draw(st.sampled_from(["standard", "spin7", "g2", "tensor-su", "tensor-sp", "seven"]))
    if kind == "tensor-su":
        n = draw(st.integers(4, 40))
        description = f"SU({n})xSU(2) on S^{4 * n - 1} via the tensor product of C^{n} and C^2"
        return tensor_su_diagram(n), "linear-sphere", {"description": description}
    if kind == "tensor-sp":
        n = draw(st.integers(2, 30))
        description = f"Sp({n})xSp(2) on S^{8 * n - 1} via the tensor product of H^{n} and H^2"
        return tensor_sp_diagram(n), "linear-sphere", {"description": description}
    if kind == "seven":
        slopes = draw(st.lists(st.integers(-30, 30).map(lambda k: 4 * k + 1), min_size=4, max_size=4))
        d = seven_family_diagram(SevenFamilyParams(*slopes))
        (p_minus, q_minus), (p_plus, q_plus) = sorted((slopes[:2], slopes[2:]))
        torsion = abs(p_minus**2 * q_plus**2 - p_plus**2 * q_minus**2) // 8
        if torsion == 0:
            return d, "not-rational-sphere", {}
        return d, "seven-family", {"params": SevenFamilyParams(p_minus, q_minus, p_plus, q_plus), "torsion": torsion}
    m = {"spin7": 8, "g2": 7}.get(kind) or draw(st.integers(3, 30))
    d = draw(st.integers(1, 300))
    if m % 2 and d % 2 == 0:  # the rational-sphere gate
        return brieskorn_diagram(m, d, kind), "not-rational-sphere", {}
    return brieskorn_diagram(m, d, kind), "brieskorn", {"m": m, "d": d}


@settings(max_examples=150, deadline=None)
@given(family_diagrams())
def test_family_diagram_and_its_swap_classify_to_their_parameters(case):
    d, kind, expected = case
    outcome = classify_diagram(d, CAT)
    assert outcome.kind == kind
    assert {key: getattr(outcome, key) for key in expected} == expected
    assert classify_diagram(d.swap(), CAT) == outcome


#: valid (integer keys, optional keys) of each family document, drawn
FAMILY_ARGUMENTS = {
    "brieskorn": st.tuples(st.integers(3, 30), st.integers(1, 300)).map(lambda md: (md, {}))
    | st.tuples(st.sampled_from([(8, "spin7"), (7, "g2")]), st.integers(1, 300)).map(
        lambda case: ((case[0][0], case[1]), {"variant": case[0][1]})),
    "tensor-su": st.integers(4, 40).map(lambda n: ((n,), {})),
    "tensor-sp": st.integers(2, 30).map(lambda n: ((n,), {})),
    "seven": st.lists(st.integers(-30, 30).map(lambda k: 4 * k + 1), min_size=4, max_size=4).map(
        lambda slopes: (tuple(slopes), {})),
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_each_family_recognizes_its_own_diagrams_and_no_other_family_does(data):
    # the recognizers are disjoint, so the order in which the classifier tries them changes no outcome
    assert list(FAMILY_ARGUMENTS) == list(FAMILIES)
    name = data.draw(st.sampled_from(list(FAMILIES)))
    keys, optional = data.draw(FAMILY_ARGUMENTS[name])
    d = FAMILIES[name].factory(*keys, **optional)
    # the factories build their embeddings past NamedEmbedding's check of the tags
    assert all(e.tags <= EMBEDDING_TAGS for e in (d.h, d.k_minus, d.k_plus, d.h_in_k_minus, d.h_in_k_plus))
    for diagram in (d, d.swap()):
        assert FAMILIES[name].recognize(diagram) is not None
        assert [other for other, family in FAMILIES.items()
                if other != name and family.recognize(diagram) is not None] == []


def rebuilt_so_index(semisimple_part):
    """The reference for ``_so_index``: so(m) compared, as a whole group type, with G's factors rebuilt without G's torus."""
    for m in (2 * semisimple_part.rank, 2 * semisimple_part.rank + 1):
        if m >= 3 and special_orthogonal(m) == semisimple_part:
            return m
    return None


def test_brieskorn_recognizer_reads_so_m_off_g_as_a_rebuilt_semisimple_part_does():
    simple = [special_orthogonal(n) for n in range(1, 26)] + [special_unitary(n) for n in range(1, 14)] + \
        [symplectic(n) for n in range(13)] + [parse_group(name) for name in ("G2", "F4", "E6", "E7", "E8")]
    groups = {a * b for a in simple for b in simple if 1 <= (a * b).rank <= 12}
    shapes = [(brieskorn_diagram(m, d, variant), m, d) for m, d, variant in (
        *((m, d, "standard") for m in range(3, 9) for d in (1, 2)), (8, 3, "spin7"), (7, 2, "g2"))]
    for torus in (0, 1, 2):
        for group in groups:
            g = group * GroupType((), torus)
            assert cohomone.classification._so_index(g) == rebuilt_so_index(GroupType(g.factors)), g
            for d, m, d_param in shapes:  # only the diagram's own G can match its orbit groups
                outcome = cohomone.classification._recognize_brieskorn(unchecked(d, g=g))
                if g != d.g:
                    assert outcome is None, (g, d.g)
                elif m % 2 and d_param % 2 == 0:
                    assert outcome.kind == "not-rational-sphere", g
                else:
                    assert outcome == ClassificationOutcome("brieskorn", m=m, d=d_param), g


def exchanged(betti):
    return None if betti is None else betti._replace(p_k_plus=betti.p_k_minus, p_k_minus=betti.p_k_plus)


@settings(max_examples=100, deadline=None)
@given(family_diagrams())
def test_orbit_betti_is_swap_invariant_with_k_exchanged(case):
    d = case[0]
    assert orbit_betti(DiagramRecord("swap", d.swap())) == exchanged(orbit_betti(DiagramRecord("factory", d)))


def near_misses():
    brieskorn = brieskorn_diagram(6, 4)
    tensor = tensor_su_diagram(5)
    seven = seven_family_diagram(realize_torsion(3))
    return {
        "brieskorn K- without a winding tag": brieskorn._replace(k_minus=brieskorn.k_minus._replace(winding=None)),
        "brieskorn (2, 1, 2) components with even winding": brieskorn._replace(components_h=2, components_k_plus=2),
        "tensor-su with K- as K+": tensor._replace(k_plus=tensor.k_minus, h_in_k_plus=tensor.h_in_k_minus),
        "seven K+ without a slope tag": seven._replace(k_plus=seven.k_plus._replace(slope=None)),
    }


@pytest.mark.parametrize("name", sorted(near_misses()))
def test_valid_near_misses_of_a_family_stay_unmatched(name):
    d = near_misses()[name]
    assert validate(d) == []
    assert classify_diagram(d, CAT).kind == "unmatched"
    assert classify_diagram(d.swap(), CAT).kind == "unmatched"


# -- paper consistency: a rational-sphere verdict has the dimension its homotopy-fiber case forces -------

#: the rational-sphere outcome kinds, each with the manifold dimension the outcome states, if it states one
STATED_DIMENSION = {
    "linear-sphere": lambda o: int(o.description.split(" on S^")[1].split()[0]),
    "brieskorn": lambda o: 2 * o.m - 1,  # the link B^(2m-1)_d
    "wu": lambda o: None,
    "g2-quotient": lambda o: None,
    "seven-family": lambda o: 7,
}


@st.composite
def paper_diagrams(draw):
    """A diagram of a ``FAMILIES`` entry or a shipped record, or the swap of one."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(list(FAMILIES)))
        keys, optional = draw(FAMILY_ARGUMENTS[name])
        d = FAMILIES[name].factory(*keys, **optional)
    else:
        d = draw(st.sampled_from(CAT.diagram_records())).diagram
    return d.swap() if draw(st.booleans()) else d


@settings(max_examples=300, deadline=None)
@given(paper_diagrams())
def test_every_rational_sphere_verdict_has_a_dimension_its_fiber_case_forces(d):
    # the paper reads the homotopy-fiber case first, which forces the dimension, and names the family after
    assert set(STATED_DIMENSION) | {"not-rational-sphere", "unmatched"} == set(cohomone.diagram._OUTCOME_FIELDS)
    outcome = classify_diagram(d, CAT)
    assert classify_diagram(d.swap(), CAT) == outcome
    if outcome.kind not in STATED_DIMENSION:
        return
    n = d.manifold_dim
    assert n in {case.forced_dim for case in gh_classify(d.ell_minus, d.ell_plus, d.nonorientable_count)}
    assert double_disk_euler(d) == 1 + (-1) ** n
    assert STATED_DIMENSION[outcome.kind](outcome) in (None, n)
    betti = orbit_betti(DiagramRecord("drawn", d))
    if betti is not None:
        assert betti.n == n and mv_feasible(betti.p_h, betti.p_k_plus, betti.p_k_minus, n).verdict == "feasible"


# -- factory embeddings: the checked constructor as oracle ------------------------------


@st.composite
def factory_diagrams(draw):
    """A factory diagram over the whole parameter range the factories accept cheaply."""
    kind = draw(st.sampled_from(["standard", "spin7", "g2", "tensor-su", "tensor-sp", "seven"]))
    if kind == "tensor-su":
        return tensor_su_diagram(draw(st.integers(4, 60)))
    if kind == "tensor-sp":
        return tensor_sp_diagram(draw(st.integers(2, 60)))
    if kind == "seven":
        return seven_family_diagram(SevenFamilyParams(*draw(st.lists(
            st.integers(-10**6, 10**6).map(lambda k: 4 * k + 1), min_size=4, max_size=4))))
    m = {"spin7": 8, "g2": 7}.get(kind) or draw(st.integers(3, 60))
    return brieskorn_diagram(m, draw(st.integers(1, 10**6)), kind)


def swapped_by_name(d):
    """The swap of ``d``, written field by field and built past the check, as ``swap`` is."""
    return unchecked(
        d, k_minus=d.k_plus, k_plus=d.k_minus, h_in_k_minus=d.h_in_k_plus, h_in_k_plus=d.h_in_k_minus,
        components_k_minus=d.components_k_plus, components_k_plus=d.components_k_minus,
        nonorientable_k_minus=d.nonorientable_k_plus, nonorientable_k_plus=d.nonorientable_k_minus,
    )


@settings(max_examples=200, deadline=None)
@given(factory_diagrams())
def test_factory_embeddings_pass_every_check_of_the_public_constructor(d):
    for e in (d.h, d.k_minus, d.k_plus, d.h_in_k_minus, d.h_in_k_plus):
        assert type(e) is NamedEmbedding
        assert NamedEmbedding._make(e) == e  # _make runs every check of NamedEmbedding
    # the factories and the swap build past the check of GroupDiagram, whose _make runs validate
    assert type(d) is type(d.swap()) is GroupDiagram
    assert GroupDiagram._make(d) == d and GroupDiagram._make(d.swap()) == d.swap()


@settings(max_examples=200, deadline=None)
@given(factory_diagrams(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.booleans(), st.booleans())
def test_canonical_descriptor_is_the_smaller_of_the_two_orientations(d, c_h, c_minus, c_plus, n_minus, n_plus):
    d = unchecked(d, components_h=c_h, components_k_minus=c_minus, components_k_plus=c_plus,
                  nonorientable_k_minus=n_minus, nonorientable_k_plus=n_plus)
    assert d.swap() == swapped_by_name(d)
    assert d.canonical_descriptor() == min(d.descriptor(), swapped_by_name(d).descriptor())


def test_canonical_descriptor_of_shipped_records():
    for record in CAT.diagram_records():
        d = record.diagram
        assert d.swap() == swapped_by_name(d)
        assert d.canonical_descriptor() == min(d.descriptor(), swapped_by_name(d).descriptor()), record.id


def test_orbit_groups_that_do_not_fit_are_refused():
    fitted = cohomone.classification._fitted
    so5, so3 = special_orthogonal(5), special_orthogonal(3)
    assert fitted(so5, so3, so3, so3) == (so5, so3, so3, so3)
    with pytest.raises(InvalidEmbedding, match="does not fit"):
        fitted(so3, so3, so5, so3)  # K- larger than G
    with pytest.raises(InvalidEmbedding, match="does not fit"):
        fitted(so5, special_unitary(3), so3, so3)  # H (dimension 8) larger than K-
    with pytest.raises(InvalidEmbedding, match="does not fit"):
        fitted(so5 * so5, parse_group("T3"), so5, so5)  # H of rank 3 in K-+ of rank 2


# -- orbit Betti data ------------------------------------------------------------------


def test_orbit_betti_regimes():
    # equal rank: Hilbert series route
    betti = orbit_betti(CAT.diagram_record("case6-su3"))
    assert betti.p_h.as_list() == [1, 0, 2, 0, 2, 0, 1]
    assert betti.p_k_plus.as_list() == [1, 0, 1, 0, 1]
    assert betti.n == 7

    # orientable, opposite parities: sphere-product route
    betti = orbit_betti(CAT.diagram_record("t5-row1"))
    assert betti.n == 11
    assert betti.p_h.as_list() == [1, 0, 1, 1, 0, 2, 0, 1, 1, 0, 1]

    # stored data
    betti = orbit_betti(CAT.diagram_record("wu-s3s1"))
    assert betti.n == 5 and betti.p_k_minus.as_list() == [1, 1]

    # no other regime, such as a non-orientable orbit over a circle fiber, gives data; mv-check takes it
    assert orbit_betti(DiagramRecord("brieskorn", brieskorn_diagram(5, 3, "standard"))) is None
    assert orbit_betti(DiagramRecord("seven", seven_family_diagram(realize_torsion(3)))) is None


def test_orbit_betti_all_rational_sphere_records_feasible():
    for record in CAT.diagram_records():
        if not record.rational_sphere:
            continue
        betti = orbit_betti(record)
        assert betti is not None, record.id
        result = mv_feasible(betti.p_h, betti.p_k_plus, betti.p_k_minus, betti.n)
        assert result.verdict == "feasible", record.id


# -- invariants are typed raises, not asserts ------------------------------------------


def test_outcome_invariant_survives_python_O():
    code = (
        "from cohomone.classification import ClassificationOutcome\n"
        "from cohomone.errors import InvalidParams\n"
        "print(__debug__)\n"
        "try:\n"
        "    ClassificationOutcome('brieskorn', m=5, d=4)\n"
        "except InvalidParams:\n"
        "    print('InvalidParams')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cohomone.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == ["False", "InvalidParams"], done.stderr
