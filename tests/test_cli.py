import json
import shutil
import time

import pytest

import cohomone
from cohomone.catalog import data_dir, load_catalog
from cohomone.cli import OP_COVERAGE, _HANDLERS, main, render, run


def payload(argv, expect_code=0, catalog=None):
    result = run(argv, catalog)
    assert result.exit_code == expect_code, result.payload
    return result.payload


def test_brieskorn_subcommand():
    out = payload(["brieskorn", "--m", "4", "--d", "5"])
    assert out["delta_at_one"] == 5
    assert out["delta_coeffs"] == [1, 1, 1, 1, 1]
    assert out["homology"] == [
        {"degree": 0, "free_rank": 1, "torsion": []},
        {"degree": 3, "free_rank": 0, "torsion": [5]},
        {"degree": 7, "free_rank": 1, "torsion": []},
    ]
    assert out["rational_sphere"] is True


def test_degrees_subcommand():
    out = payload(["degrees", "--group", "Spin(9)"])
    assert out == {
        "group": "B4", "rank": 4, "dimension": 36,
        "degrees": [3, 7, 11, 15], "weyl_order": 384,
    }


def test_quotient_subcommand():
    out = payload(["quotient", "--embedding", "su6-sp3"])
    assert out["odd_degrees"] == [5, 9]
    assert out["even_degrees"] == []
    assert out["heuristic"] is False


def test_hilbert_subcommand():
    out = payload(["hilbert", "--embedding", "t2-in-su3"])
    assert out["coefficients"] == [1, 0, 2, 0, 2, 0, 1]
    assert out["euler_characteristic"] == 6


def test_gh_case_subcommand():
    out = payload(["gh-case", "--l-minus", "3", "--l-plus", "2", "--h", "0"])
    assert out["cases"] == [{"case": 4, "dim": 11, "fiber": "S3 x S2 x loops(S6)"}]


def test_classify_subcommand(tmp_path):
    doc = tmp_path / "diagram.json"
    doc.write_text(json.dumps({"family": "brieskorn", "m": 6, "d": 4}))
    out = payload(["classify", "--diagram", str(doc)])
    assert out["outcome"] == {"kind": "brieskorn", "m": 6, "d": 4}
    doc.write_text(json.dumps({"catalog": "t5-row5"}))
    out = payload(["classify", "--diagram", str(doc)])
    assert out["outcome"] == {"kind": "g2-quotient", "index": 1}


def test_primitivity_subcommand(tmp_path):
    doc = tmp_path / "diagram.json"
    doc.write_text(json.dumps({"catalog": "t5-row3"}))
    out = payload(["primitivity", "--diagram", str(doc)])
    assert out["verdict"] == "non-primitive"
    assert out["witness"] == "t5-l-su2su2"


def test_mv_check_subcommand():
    out = payload([
        "mv-check", "--n", "5", "--p-h", "1,0,0,1", "--p-k-plus", "1,0,1", "--p-k-minus", "1,0,1",
    ])
    assert out["verdict"] == "infeasible" and out["failing_degree"] == 2
    out = payload([
        "mv-check", "--n", "11", "--h-spheres", "2,3,5",
        "--k-plus-spheres", "3,5", "--k-minus-spheres", "2,5",
    ])
    assert out["verdict"] == "feasible"


def test_seven_family_subcommand():
    out = payload(["seven-family", "--realize", "2"])
    assert out["params"] == {"p_minus": -3, "q_minus": 1, "p_plus": 5, "q_plus": 1}
    assert out["torsion"] == 2
    out = payload(["seven-family", "--p-minus", "1", "--p-plus", "1"])
    assert out["torsion"] == 0 and out["rational_sphere"] is False


def test_repeated_invocations_are_byte_identical():
    for argv in (["degrees", "--group", "F4"], ["brieskorn", "--m", "6", "--d", "9"]):
        assert render(run(argv).payload) == render(run(argv).payload)


def test_verify_tables_passes_and_is_deterministic():
    first = run(["verify-tables"])
    second = run(["verify-tables"])
    assert first.exit_code == 0
    assert render(first.payload) == render(second.payload)
    assert first.payload["summary"]["ok"] is True


def test_verify_tables_timings_go_to_stderr_and_leave_stdout_unchanged(capsys):
    assert main(["verify-tables"]) == 0
    plain = capsys.readouterr()
    assert main(["verify-tables", "--timings"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out and plain.err == ""
    timings = json.loads(timed.err)["timings_s"]
    assert list(timings) == ["table1", "tables2-3", "table5", "brieskorn", "seven-family", "gh", "equal-rank", "mv"]
    assert all(isinstance(t, float) and t >= 0 for t in timings.values())


def test_verify_tables_fails_on_corrupted_catalog(tmp_path):
    for name in ("embeddings.json", "diagrams.json"):
        shutil.copy(data_dir() / name, tmp_path / name)
    data = json.loads((tmp_path / "embeddings.json").read_text())
    for record in data["embeddings"]:
        if record["id"] == "su6-sp3":
            record["tags"].remove("corank2")
    (tmp_path / "embeddings.json").write_text(json.dumps(data))
    result = run(["verify-tables"], load_catalog(tmp_path))
    assert result.exit_code == 1
    assert not result.payload["summary"]["ok"]
    assert any("su6-sp3" in cid for cid in result.payload["summary"]["failed"])


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(["no-such-command"]).exit_code == 2
    assert run(["brieskorn", "--m", "2", "--d", "3"]).exit_code == 2
    assert run(["quotient", "--embedding", "nope"]).exit_code == 2
    assert run(["degrees", "--group", "XYZ(3)"]).exit_code == 2
    assert run(["degrees", "--group", "SU(6"]).exit_code == 2
    doc = tmp_path / "broken.json"
    doc.write_text("{not json")
    assert run(["classify", "--diagram", str(doc)]).exit_code == 2
    assert main(["brieskorn", "--m", "2", "--d", "3"]) == 2
    assert "Unsupported" in capsys.readouterr().err


def test_main_prints_payload(capsys):
    assert main(["degrees", "--group", "G2"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["dimension"] == 14


def test_invalid_diagram_document_reports_violations(tmp_path):
    record = {
        "g": "SU(3)", "h": "t2-in-su3",
        "k_minus": "su3-kminus-u2", "k_plus": "su3-kplus-u2",
        "h_in_k_minus": "t2-in-u2", "h_in_k_plus": "t2-in-u2",
        "component_counts": {"h": 2, "k_minus": 1, "k_plus": 1},
        "nonorientable": {},
    }
    doc = tmp_path / "invalid.json"
    doc.write_text(json.dumps(record))
    result = run(["classify", "--diagram", str(doc)])
    assert result.exit_code == 2
    assert "connectedness" in result.payload["error"]


def test_every_operation_covered_by_exactly_one_subcommand():
    operations = {
        "canonicalize", "degrees", "weyl_order", "transitive_sphere_pairs",
        "sphere_quotient", "spheres_acted_on",
        "quotient_homotopy", "hilbert_series", "euler_characteristic",
        "odd_product_poincare",
        "validate", "gh_classify", "primitivity",
        "double_disk_euler", "mv_feasible",
        "delta_poly", "delta_at_one", "homology",
        "enumerate_corank2", "table3_filter", "seven_family_torsion",
        "realize_torsion", "case6_pairs", "classify_diagram",
    }
    assert set(OP_COVERAGE) == operations
    assert set(OP_COVERAGE.values()) <= set(_HANDLERS)
    for op in operations:
        assert hasattr(cohomone, op), op


@pytest.mark.parametrize("content", [None, b"\xff\xfe not text"])
def test_unreadable_diagram_file_exits_2(tmp_path, content):
    path = tmp_path / "diagram.json"
    if content is not None:
        path.write_bytes(content)
    for command in ("classify", "primitivity"):
        result = run([command, "--diagram", str(path)])
        assert result.exit_code == 2
        assert str(path) in result.payload["error"]


def test_non_object_document_exits_2(tmp_path):
    doc = tmp_path / "array.json"
    doc.write_text("[1, 2]")
    result = run(["classify", "--diagram", str(doc)])
    assert result.exit_code == 2
    assert str(doc) in result.payload["error"] and "JSON object" in result.payload["error"]


@pytest.mark.parametrize(
    "document, key",
    [
        ({"family": "brieskorn", "m": 6}, "'d'"),
        ({"family": "brieskorn", "m": "x", "d": 3}, "'m'"),
        ({"family": "tensor-su", "n": [4]}, "'n'"),
        ({"family": "tensor-sp", "n": float("inf")}, "'n'"),
        ({"family": "brieskorn", "m": 6.9, "d": 3}, "'m'"),
        ({"family": "brieskorn", "m": "6", "d": 3}, "'m'"),
        ({"family": "brieskorn", "m": 6, "d": True}, "'d'"),
        ({"family": "tensor-su", "n": 4.5}, "'n'"),
        ({"family": "tensor-su", "n": 4.0}, "'n'"),
        ({"family": "seven", "p_minus": 1, "q_minus": 1, "p_plus": 5}, "'q_plus'"),
        ({"g": "SU(3)", "h": "t2-in-su3"}, "'k_minus'"),
    ],
)
def test_document_with_missing_or_non_integer_key_exits_2(tmp_path, document, key):
    doc = tmp_path / "document.json"
    doc.write_text(json.dumps(document))
    result = run(["classify", "--diagram", str(doc)])
    assert result.exit_code == 2
    assert key in result.payload["error"]


T5_ROW1_RECORD = {
    "g": "SU(3)xSU(2)", "h": "t5-h-a", "k_minus": "t5-km-1", "k_plus": "t5-kp-pi",
    "h_in_k_minus": "circle-in-su2xs1", "h_in_k_plus": "circle-in-su2",
    "component_counts": {"h": 1, "k_minus": 1, "k_plus": 1},
    "nonorientable": {"k_minus": False, "k_plus": False},
}


@pytest.mark.parametrize(
    "change, key",
    [
        ({"g": 3}, "'g'"),
        ({"component_counts": []}, "'component_counts'"),
        ({"component_counts": {"h": "x"}}, "'h'"),
        ({"h": ["t5-h-a"]}, "'h'"),
    ],
)
def test_record_value_of_wrong_json_type_exits_2(tmp_path, change, key):
    doc = tmp_path / "record.json"
    doc.write_text(json.dumps(T5_ROW1_RECORD))
    assert payload(["classify", "--diagram", str(doc)])["outcome"] == {"kind": "g2-quotient", "index": 3}
    doc.write_text(json.dumps({**T5_ROW1_RECORD, **change}))
    for command in ("classify", "primitivity"):
        result = run([command, "--diagram", str(doc)])
        assert result.exit_code == 2
        assert result.payload["error"].startswith("InvalidDiagram") and key in result.payload["error"]


@pytest.mark.parametrize(
    "change, detail",
    [
        ({"g": "SU(x)"}, "diagram record key 'g': cannot parse group term 'SU(' in 'SU(x)'"),
        ({"g": "XYZ(3)"}, "diagram record key 'g': cannot parse group term 'XYZ(3)'"),
        ({"k_plus": "no-such-id"}, "diagram record key 'k_plus': unknown embedding id 'no-such-id'"),
    ],
)
def test_record_bad_group_or_id_names_the_key(tmp_path, change, detail):
    doc = tmp_path / "record.json"
    doc.write_text(json.dumps({**T5_ROW1_RECORD, **change}))
    for command in ("classify", "primitivity"):
        result = run([command, "--diagram", str(doc)])
        assert result.exit_code == 2
        assert result.payload["error"] == f"InvalidLabel: {detail}"


def test_record_cannot_name_factory_embeddings(tmp_path):
    stem = "brieskorn[standard,m=6,d=3]"
    record = tmp_path / "record.json"
    record.write_text(json.dumps({
        "g": "T1xSO(6)", "h": f"{stem}-h", "k_minus": f"{stem}-kminus", "k_plus": f"{stem}-kplus",
        "h_in_k_minus": f"{stem}-h-in-km", "h_in_k_plus": f"{stem}-h-in-kp",
        "component_counts": {"h": 2, "k_minus": 1, "k_plus": 2},
    }))
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"family": "brieskorn", "m": 6, "d": 3}))
    assert run(["classify", "--diagram", str(record)]).exit_code == 2
    assert payload(["classify", "--diagram", str(family)])["outcome"] == {"kind": "brieskorn", "m": 6, "d": 3}
    result = run(["classify", "--diagram", str(record)])
    assert result.exit_code == 2 and f"{stem}-h" in result.payload["error"]


def test_mv_check_refuses_huge_n_at_once():
    start = time.perf_counter()
    result = run(["mv-check", "--n", "100000000000", "--p-h", "1", "--p-k-plus", "1", "--p-k-minus", "1"])
    assert result.exit_code == 2 and "InvalidParams" in result.payload["error"]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--h-spheres", "3,1000000", "--k-plus-spheres", "3", "--k-minus-spheres", "1000000"], "--h-spheres"),
        (["--p-h", "1", "--p-k-plus", "1", "--k-minus-spheres", "1000001"], "--k-minus-spheres"),
    ],
)
def test_mv_check_refuses_sphere_products_above_cap_at_once(flags, flag):
    start = time.perf_counter()
    result = run(["mv-check", "--n", "5", *flags])
    assert result.exit_code == 2 and flag in result.payload["error"]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "document",
    [
        {"family": "tensor-su", "n": 20000000},
        {"family": "tensor-sp", "n": 10**30},
        {"family": "brieskorn", "m": 500001, "d": 3},
    ],
)
def test_family_documents_above_the_dimension_cap_exit_2_at_once(tmp_path, document):
    doc = tmp_path / "document.json"
    doc.write_text(json.dumps(document))
    start = time.perf_counter()
    result = run(["classify", "--diagram", str(doc)])
    assert result.exit_code == 2 and "InvalidParams" in result.payload["error"]
    assert "manifold dimension" in result.payload["error"]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "group, detail",
    [("SU(1600)", "dimension 2559999"), ("x".join(["SU(2)"] * 15000), "digits")],
)
def test_degrees_refuses_groups_it_cannot_print(group, detail):
    result = run(["degrees", "--group", group])
    assert result.exit_code == 2 and result.payload["error"].startswith("InvalidParams")
    assert detail in result.payload["error"]


def test_degrees_prints_groups_just_inside_both_bounds():
    out = payload(["degrees", "--group", "SU(1000)"])
    assert out["dimension"] == 999999 and len(out["degrees"]) == 999
    # 2^14000 has 4215 digits
    assert payload(["degrees", "--group", "x".join(["SU(2)"] * 14000)])["weyl_order"] == 2**14000


def test_brieskorn_refuses_d_above_cap():
    result = run(["brieskorn", "--m", "4", "--d", "1000001"])
    assert result.exit_code == 2 and "InvalidParams" in result.payload["error"]


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--p-h", "1,a", "--p-k-plus", "1", "--p-k-minus", "1"], "--p-h"),
        (["--h-spheres", "3", "--k-plus-spheres", "x", "--p-k-minus", "1"], "--k-plus-spheres"),
        (["--h-spheres", "3", "--p-k-plus", "1", "--k-minus-spheres", "0"], "--k-minus-spheres"),
    ],
)
def test_mv_check_non_integer_values_exit_2(flags, flag):
    result = run(["mv-check", "--n", "5", *flags])
    assert result.exit_code == 2
    assert flag in result.payload["error"]


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    doc = tmp_path / "diagram.json"
    doc.write_text(json.dumps({"catalog": "t5-row5"}))
    commands = (
        ["brieskorn", "--m", "5", "--d", "3"],
        ["seven-family", "--realize", "3"],
        ["classify", "--diagram", str(doc)],
        ["mv-check", "--n", "11", "--h-spheres", "2,3,5", "--k-plus-spheres", "3,5", "--k-minus-spheres", "2,5"],
    )
    before = [render(run(argv).payload) for argv in commands]
    for bad in (["brieskorn", "--m", "x"], ["seven-family", "--p-minus", "1"], ["no-such-command"], []):
        assert run(bad).exit_code == 2
    assert [render(run(argv).payload) for argv in commands] == before
