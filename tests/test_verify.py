"""Report shape and shipped-data integrity checks."""

from cohomone.catalog import default_catalog
from cohomone.classification import (
    brieskorn_diagram,
    realize_torsion,
    seven_family_diagram,
    tensor_sp_diagram,
    tensor_su_diagram,
)
from cohomone.cli import render
from cohomone.diagram import CASE6_FIBERS, gh_classify
from cohomone.verify import build_report

CAT = default_catalog()


def test_report_has_one_record_per_cell():
    report = build_report(CAT)
    assert set(report) == {"catalog_version", "checks", "summary"}
    ids = [c["id"] for c in report["checks"]]
    assert len(ids) == len(set(ids))  # no duplicate cells
    for check in report["checks"]:
        assert set(check) == {"id", "expected", "computed", "match"}
        assert isinstance(check["match"], bool)
    assert report["summary"]["total"] == len(ids)
    assert report["summary"]["ok"] is True
    assert report["summary"]["failed"] == []


def test_report_covers_every_table():
    prefixes = {c["id"].split("/")[0] for c in build_report(CAT)["checks"]}
    assert {"table1", "table2", "table3", "table5", "brieskorn", "seven-family", "gh", "equal-rank", "mv"} <= prefixes


def test_contains_tags_reference_known_embeddings():
    declared = [target for emb in CAT.embeddings() for target in emb.contains]
    assert declared
    for target in declared:
        CAT.embedding(target)  # raises if unknown


def test_case6_record_fiber_tags_match_classifier_data():
    known = {tag: (ell, dim) for ell, tag, _, dim in CASE6_FIBERS}
    tagged = 0
    for record in CAT.diagram_records():
        fiber = next((t.split(":", 1)[1] for t in record.tags if t.startswith("fiber:")), None)
        if fiber is None:
            continue
        tagged += 1
        ell, dim = known[fiber]
        d = record.diagram
        assert (d.ell_minus, d.ell_plus) == (ell, ell), record.id
        assert d.manifold_dim == dim, record.id
        case6 = [r for r in gh_classify(ell, ell, 0, fiber) if r.case_index == 6]
        assert [r.forced_dim for r in case6] == [dim], record.id
    assert tagged == 5


def test_diagram_records_use_registered_embeddings():
    ids = {e.id for e in CAT.embeddings()}
    for record in CAT.diagram_records():
        d = record.diagram
        for emb in (d.h, d.k_minus, d.k_plus, d.h_in_k_minus, d.h_in_k_plus):
            assert emb.id in ids, (record.id, emb.id)


def test_stored_betti_data_is_well_formed():
    for record in CAT.diagram_records():
        data = record.orbit_poincare
        if data is None:
            continue
        assert data.n == record.diagram.manifold_dim, record.id
        for p in (data.p_h, data.p_k_plus, data.p_k_minus):
            assert all(c >= 0 for c in p.coefficients), record.id
            assert p.coefficient(0) == 1, record.id


def test_report_does_not_depend_on_diagrams_built_earlier():
    before = render(build_report(default_catalog()))
    brieskorn_diagram(6, 3)
    seven_family_diagram(realize_torsion(2))
    tensor_su_diagram(5)
    tensor_sp_diagram(3)
    assert render(build_report(default_catalog())) == before
    assert len(default_catalog().embeddings()) == 51
