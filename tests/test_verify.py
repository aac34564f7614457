"""Report shape and shipped-data integrity checks."""

from collections import Counter

import pytest

from cohomone import classification, lie_catalog, verify
from cohomone.brieskorn import BrieskornParams, GradedAbelianGroup, HomologyEntry, delta_poly, homology
from cohomone.catalog import default_catalog
from cohomone.classification import (
    SevenFamilyParams,
    brieskorn_diagram,
    realize_torsion,
    seven_family_diagram,
    tensor_sp_diagram,
    tensor_su_diagram,
)
from cohomone.cli import render, run
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


def test_case6_record_fibers_match_classifier_data():
    # a case-6 record's fiber is the one case-6 fiber with l = l- = l+ that forces the record's dimension
    used = []
    for record in CAT.diagram_records():
        d = record.diagram
        fibers = [tag for ell, tag, _, dim in CASE6_FIBERS
                  if (d.ell_minus, d.ell_plus) == (ell, ell) and d.manifold_dim == dim]
        assert len(fibers) == record.id.startswith("case6-"), record.id
        for fiber in fibers:
            used.append(fiber)
            case6 = [r for r in gh_classify(d.ell_minus, d.ell_plus, 0, fiber) if r.case_index == 6]
            assert [r.forced_dim for r in case6] == [d.manifold_dim], record.id
    assert len(used) == 5 and sorted(used) == sorted(tag for _, tag, _, _ in CASE6_FIBERS)


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


def _off_at(real, cell, wrong):
    """``real``, except that it gives ``wrong(result)`` for the arguments ``cell``."""
    return lambda *args, **kwargs: wrong(real(*args, **kwargs)) if args == cell else real(*args, **kwargs)


@pytest.mark.parametrize("target, cell, wrong, check_id, computed", [
    # homology in (4, 7) is that of (4, 5): the grid check and the middle order at m = 4 both catch it
    ("homology", (BrieskornParams(4, 7),), lambda _: homology(BrieskornParams(4, 5)),
     "brieskorn/delta-and-homology-grid", [[4, 7, "homology"]]),
    # Delta(1) of (4, 7) reads 6: the homology the check derives from it no longer matches
    ("delta_poly", (BrieskornParams(4, 7),), lambda _: delta_poly(BrieskornParams(4, 6)),
     "brieskorn/delta-and-homology-grid", [[4, 7, "delta"], [4, 7, "homology"]]),
    # case 4 of (5, 8, 0) forces 29 instead of 2 * 14 - 1 = 27: still odd, so only the loop-factor check catches it
    ("gh_classify", (5, 8, 0), lambda results: [r._replace(forced_dim=r.forced_dim + 2) for r in results],
     "gh/case4-parity-dichotomy", [[5, 8, 0]]),
])
def test_derived_checks_catch_a_wrong_cell(monkeypatch, target, cell, wrong, check_id, computed):
    monkeypatch.setattr(verify, target, _off_at(getattr(verify, target), cell, wrong))
    report = build_report(CAT)
    assert report["summary"]["ok"] is False and check_id in report["summary"]["failed"]
    assert next(c for c in report["checks"] if c["id"] == check_id)["computed"] == computed
    if target != "homology":
        assert report["summary"]["failed"] == [check_id]
    monkeypatch.undo()
    assert build_report(CAT)["summary"]["ok"] is True


def _unchecked(cls, *fields):
    """A ``cls`` built the way a trusted producer builds one, past the checks of its constructor."""
    return tuple.__new__(cls, fields)


def _homology_of(*entries):
    return GradedAbelianGroup(tuple(HomologyEntry(*e) for e in entries))


@pytest.mark.parametrize("target, cell, value, check_id", [
    # p- = 15 and p+ = 13 still give torsion 7, but 15 is not 1 mod 4, which SevenFamilyParams refuses
    ("realize_torsion", (7,), _unchecked(SevenFamilyParams, 15, 1, 13, 1), "seven-family/roundtrip"),
    # a middle entry of B^7_1 with torsion of order 1, a record HomologyEntry does not check
    ("homology", (BrieskornParams(4, 1),), _homology_of((0, 1, ()), (3, 0, (1,)), (7, 1, ())),
     "brieskorn/delta-and-homology-grid"),
    # the entries of B^9_3 out of degree order, a record GradedAbelianGroup does not check
    ("homology", (BrieskornParams(5, 3),), _homology_of((9, 1, ()), (0, 1, ())), "brieskorn/delta-and-homology-grid"),
])
def test_a_value_a_trusted_producer_builds_wrong_fails_its_check(monkeypatch, target, cell, value, check_id):
    # the producer skips its type's checks, or the type has none, so its fault reaches the report's check: exit 1
    real = getattr(verify, target)
    monkeypatch.setattr(verify, target, lambda *args: value if args == cell else real(*args))
    result = run(["verify-tables"], CAT)
    assert result.exit_code == 1 and result.payload["summary"]["failed"] == [check_id]


@pytest.mark.parametrize("tag, column, value", [
    ("su3-mod-t2", 3, 9),  # the forced dimension: SU(3)/T2 has dimension 6, so case 6 forces 7
    ("f4-mod-spin8", 0, 4),  # the fiber dimension: the lowest class of F4/Spin(8) has degree 8
])
def test_a_wrong_case6_fiber_column_fails_its_check(monkeypatch, tag, column, value):
    rows = tuple(row[:column] + (value,) + row[column + 1:] if row[1] == tag else row for row in CASE6_FIBERS)
    monkeypatch.setattr(classification, "CASE6_FIBERS", rows)
    result = run(["verify-tables"], CAT)
    assert result.exit_code == 1 and result.payload["summary"]["failed"] == [f"equal-rank/case6-fiber-dim/{tag}"]


def _report_with_sporadic_row(monkeypatch, family, change):
    """The verify-tables result with the sporadic row ``family`` of Table 1 edited by ``change``."""
    caches = (lie_catalog._sphere_row, lie_catalog._sphere_rows_of_dimension)
    monkeypatch.setitem(lie_catalog._SPORADIC_ROWS, family, change(lie_catalog._SPORADIC_ROWS[family]))
    for cache in caches:
        cache.cache_clear()
    try:
        result = run(["verify-tables"], CAT)
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()
    assert run(["verify-tables"], CAT).exit_code == 0
    return result


def test_a_wrong_sphere_row_dimension_fails_its_table1_check(monkeypatch):
    # SphereActionRow checks nothing, so a wrong sphere_dim reaches the table1 check: exit 1, not 2
    result = _report_with_sporadic_row(monkeypatch, "g2", lambda row: (5, *row[1:]))  # G2/SU(3) is S^6
    assert result.exit_code == 1 and result.payload["summary"]["failed"] == ["table1/g2"]
    assert next(c for c in result.payload["checks"] if c["id"] == "table1/g2")["computed"] == 6


def test_a_wrong_sphere_row_isotropy_fails_its_table1_check(monkeypatch):
    # the table states each sporadic row's groups, so a wrong group is a fault the table1 check finds
    su3 = lie_catalog.special_unitary(3)
    result = _report_with_sporadic_row(monkeypatch, "spin7", lambda row: (row[0], row[1], su3, row[3]))
    assert result.exit_code == 1 and result.payload["summary"]["failed"] == ["table1/spin7"]
    assert next(c for c in result.payload["checks"] if c["id"] == "table1/spin7")["computed"] == 21 - 8


def test_every_report_does_all_of_its_work(monkeypatch):
    # no memo across reports and no shrunk grid: the second report makes every call the first one does
    counts = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("gh_classify", "homology", "delta_poly", "realize_torsion"):
        count(verify, name)
    count(classification, "quotient_homotopy")
    build_report(CAT)
    counts.clear()
    assert build_report(CAT)["summary"]["ok"] is True
    assert counts == {"gh_classify": 50 * 50 * 3 + 2, "homology": 8 * 50, "delta_poly": 8 * 50, "realize_torsion": 1000,
                      "quotient_homotopy": len(classification.corank2_sources(9, CAT))}
