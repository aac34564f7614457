import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cohomone
from cohomone.catalog import _COUNTS, _FLAGS, INLINE_RECORD, data_dir, load_catalog
from cohomone.classification import FAMILIES, classify_diagram, realize_torsion
from cohomone.cli import _COMMANDS, _REFERENCE, MAX_DOCUMENT_BYTES, main, render, run
from cohomone.errors import CohomoneError


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


# (l-, l+, h, --fiber) -> the payload's (case, fiber, dim) rows, in order; written out, not computed
GH_CASE_PAYLOADS = [
    ((1, 1, 2, None), [(1, "S3 x S3 x loops(S7)", 7)]),
    ((1, 1, 1, None), [(2, "S1 x S3 x loops(S5)", 5)]),
    ((1, 5, 1, None), [(3, "S1 x S11 x loops(S13)", 13)]),
    ((5, 1, 1, None), [(3, "S1 x S11 x loops(S13)", 13)]),  # case 3 names the larger label
    ((3, 2, 0, None), [(4, "S3 x S2 x loops(S6)", 11)]),
    ((2, 3, 0, None), [(4, "S2 x S3 x loops(S6)", 11)]),  # case 4 keeps the argument order
    ((2, 2, 0, None), [(4, "S2 x S2 x loops(S5)", 5), (5, "S2 x loops(S3)", 3), (6, "SU(3)/T2 x loops(S7)", 7),
                       (6, "Sp(2)/T2 x loops(S9)", 9), (6, "G2/T2 x loops(S13)", 13)]),
    ((2, 2, 0, "g2-mod-t2"), [(4, "S2 x S2 x loops(S5)", 5), (5, "S2 x loops(S3)", 3), (6, "G2/T2 x loops(S13)", 13)]),
    ((4, 4, 0, None), [(4, "S4 x S4 x loops(S9)", 9), (5, "S4 x loops(S5)", 5),
                       (6, "Sp(3)/Sp(1)^3 x loops(S13)", 13)]),
    ((8, 8, 0, "f4-mod-spin8"), [(4, "S8 x S8 x loops(S17)", 17), (5, "S8 x loops(S9)", 9),
                                 (6, "F4/Spin(8) x loops(S25)", 25)]),
    ((4, 4, 0, "f4-mod-spin8"), [(4, "S4 x S4 x loops(S9)", 9), (5, "S4 x loops(S5)", 5)]),  # a known tag, no fit
    ((2, 4, 1, None), []),
]


@pytest.mark.parametrize("query, rows", GH_CASE_PAYLOADS)
def test_gh_case_fiber_text(query, rows):
    l_minus, l_plus, h, fiber = query
    argv = ["gh-case", "--l-minus", str(l_minus), "--l-plus", str(l_plus), "--h", str(h)]
    out = payload(argv + (["--fiber", fiber] if fiber else []))
    assert out["query"] == {"l_minus": l_minus, "l_plus": l_plus, "h": h, "fiber": fiber}
    assert [(c["case"], c["fiber"], c["dim"]) for c in out["cases"]] == rows


def test_gh_case_unknown_fiber_tag_exits_2():
    result = run(["gh-case", "--l-minus", "4", "--l-plus", "4", "--h", "0", "--fiber", "sp3-mod-sp1cube"])
    assert result.exit_code == 2
    assert result.payload["error"] == (
        "InvalidParams: unknown fiber tag 'sp3-mod-sp1cube'; the case-6 fiber tags are "
        "su3-mod-t2, sp2-mod-t2, g2-mod-t2, sp3-mod-sp1cubed, f4-mod-spin8"
    )


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
    assert run(["primitivity", "--diagram", str(doc), "--rational-sphere"]) == (2, {
        "error": "InvalidLattice: lattice entry t5-l-su2su2 contradicts the rational-sphere assertion"})


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


@pytest.mark.parametrize("name, error", [("embeddings.json", "InvalidLabel"), ("diagrams.json", "InvalidDiagram")])
@pytest.mark.parametrize("fault", [None, b"\xff\xfe", b'{"version": 1, "diagrams": [', b"[" * 5000 + b"]" * 5000])
def test_unreadable_catalog_file_exits_2_naming_it(tmp_path, monkeypatch, name, error, fault):
    # a missing file, one that is not UTF-8, truncated JSON and JSON nested deeper than the reader recurses
    for other in ("embeddings.json", "diagrams.json"):
        shutil.copy(data_dir() / other, tmp_path / other)
    if fault is None:
        (tmp_path / name).unlink()
    else:
        (tmp_path / name).write_bytes(fault)
    monkeypatch.setenv("COHOMONE_DATA_DIR", str(tmp_path))
    for argv in (["quotient", "--embedding", "t2-in-su3"], ["verify-tables"]):
        result = run(argv)
        assert result.exit_code == 2, result.payload
        assert result.payload["error"].startswith(f"{error}: {tmp_path / name}: cannot read catalog file: ")


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(["no-such-command"]).exit_code == 2
    assert run(["brieskorn", "--m", "2", "--d", "3"]).exit_code == 2
    assert run(["quotient", "--embedding", "nope"]).exit_code == 2
    assert run(["degrees", "--group", "XYZ(3)"]).exit_code == 2
    assert run(["degrees", "--group", "SU(6"]).exit_code == 2
    result = run(["degrees", "--group", "SU(m)"])  # a group expression has no parameter
    assert result.exit_code == 2 and result.payload["error"] == "InvalidLabel: cannot parse group term 'SU(m)'"
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


@pytest.mark.parametrize("content", [None, b"\xff\xfe not text"])
def test_unreadable_diagram_file_exits_2(tmp_path, content):
    path = tmp_path / "diagram.json"
    if content is not None:
        path.write_bytes(content)
    for command in ("classify", "primitivity"):
        result = run([command, "--diagram", str(path)])
        assert result.exit_code == 2
        assert str(path) in result.payload["error"]


def padded(document: dict, size: int) -> str:
    """``document`` as JSON, padded with spaces to ``size`` characters."""
    text = json.dumps(document)
    return text + " " * (size - len(text))


BRIESKORN = {"family": "brieskorn", "m": 6, "d": 3}
TOO_LONG = f"is longer than the limit of {MAX_DOCUMENT_BYTES} bytes"


def test_document_longer_than_the_limit_exits_2(tmp_path):
    doc = tmp_path / "document.json"
    doc.write_text(padded(BRIESKORN, MAX_DOCUMENT_BYTES))
    assert run(["classify", "--diagram", str(doc)]).exit_code == 0
    doc.write_text(padded(BRIESKORN, MAX_DOCUMENT_BYTES + 1))  # 65,537 bytes
    result = run(["classify", "--diagram", str(doc)])
    assert result.exit_code == 2 and result.payload["error"] == f"diagram document {doc} {TOO_LONG}"
    # the limit counts the bytes of a file: 32,768 two-byte characters and the keys pass it, in fewer characters
    doc.write_text('{"family": "brieskorn", "m": 6, "d": 3, "x": "' + "é" * 32768 + '"}', encoding="utf-8")
    assert os.path.getsize(doc) > MAX_DOCUMENT_BYTES
    assert TOO_LONG in run(["classify", "--diagram", str(doc)]).payload["error"]


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_document_exits_2():
    result = run(["classify", "--diagram", "/dev/zero"])
    assert result.exit_code == 2 and result.payload["error"] == f"diagram document /dev/zero {TOO_LONG}"


@pytest.mark.parametrize("size, code", [(MAX_DOCUMENT_BYTES, 0), (MAX_DOCUMENT_BYTES + 1, 2), (10**7, 2)])
def test_stdin_document_is_read_up_to_the_limit(size, code):
    stdin = io.StringIO(padded(BRIESKORN, size))
    with mock.patch("sys.stdin", stdin):
        result = run(["classify", "--diagram", "-"])
    assert result.exit_code == code, result.payload
    if code == 2:
        assert result.payload["error"] == f"diagram document - {TOO_LONG}"
        assert stdin.tell() == MAX_DOCUMENT_BYTES + 1  # no more was read


def test_deeply_nested_document_exits_2(tmp_path):
    doc = tmp_path / "nested.json"
    doc.write_text("[" * 5000 + "]" * 5000 + "\n")  # 10,001 bytes
    for command in ("classify", "primitivity"):
        result = run([command, "--diagram", str(doc)])
        assert result.exit_code == 2
        assert result.payload["error"].startswith(f"InvalidDiagram: diagram document {doc} is not valid JSON: ")


@pytest.mark.parametrize("raw", [
    b'{\r\n"family": "brieskorn",\r\n "m": x}', b'{\r"m": 1,\r\r "d": }', b'\r\n\r\n{"a": [1,\r 2,,]}',
    b'{"a": "\r"}', b'{"m": 1}\r\nx', b"\r\n\r\n", b'{"a": 1,\n\r\n\r"b"}',
])
def test_json_errors_in_crlf_documents_name_the_positions_text_mode_reads(tmp_path, raw):
    doc = tmp_path / "crlf.json"
    doc.write_bytes(raw)
    with open(doc, encoding="utf-8") as file:  # text mode ends a line at \r\n and at a lone \r
        text = file.read()
    with pytest.raises(ValueError) as caught:
        json.loads(text)
    result = run(["classify", "--diagram", str(doc)])
    assert result.payload == {"error": f"InvalidDiagram: diagram document {doc} is not valid JSON: {caught.value}"}


def test_crlf_document_classifies(tmp_path):
    doc = tmp_path / "crlf.json"
    doc.write_bytes(b'{"family": "brieskorn",\r\n"m": 6,\r"d": 3}\r\n')
    assert payload(["classify", "--diagram", str(doc)])["outcome"] == {"kind": "brieskorn", "m": 6, "d": 3}


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


FAMILY_CHOICES = "(choose from 'brieskorn', 'tensor-su', 'tensor-sp', 'seven')"


@pytest.mark.parametrize("family, error", [
    ("klein", f"InvalidDiagram: unknown diagram family 'klein' {FAMILY_CHOICES}"),
    ([], f"InvalidDiagram: unknown diagram family [] {FAMILY_CHOICES}"),
    ({}, f"InvalidDiagram: unknown diagram family {{}} {FAMILY_CHOICES}"),
    (5, f"InvalidDiagram: unknown diagram family 5 {FAMILY_CHOICES}"),
    (True, f"InvalidDiagram: unknown diagram family True {FAMILY_CHOICES}"),
    (None, "InvalidDiagram: diagram record has no 'g' key"),  # a null family is an inline record
])
def test_family_outside_the_table_exits_2_naming_the_table(family, error):
    # an array or object family is unhashable, so it must not reach the table lookup
    for command in ("classify", "primitivity"):
        with mock.patch("sys.stdin", io.StringIO(json.dumps({"family": family}))):
            assert run([command, "--diagram", "-"]) == (2, {"error": error})


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
        # an argument of more digits than int() reads
        pytest.param({"g": f"SU({'9' * 5000})"}, f"diagram record key 'g': cannot parse group term 'SU({'9' * 5000})'",
                     id="SU(5000-digits)"),
        pytest.param({"g": f"B{'9' * 5000}"}, f"diagram record key 'g': cannot parse group term 'B{'9' * 5000}'",
                     id="B5000-digits"),
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


SHIPPED = {record["id"]: record for record in json.loads((data_dir() / "diagrams.json").read_text())["diagrams"]}
#: a shipped record as an inline document: the keys of its diagram, without the record's own id and outcome
INLINE = {record_id: {key: value for key, value in record.items() if key in INLINE_RECORD}
          for record_id, record in SHIPPED.items()}
WU = INLINE["wu-s3s1"]
DIAGRAM_KEYS = ("'family', 'g', 'h', 'k_minus', 'k_plus', 'h_in_k_minus', 'h_in_k_plus', 'component_counts', "
                "'nonorientable'")
MISSPELLED_COUNTS = {**{key: value for key, value in WU.items() if key != "component_counts"},
                     "component_count": WU["component_counts"]}


@pytest.mark.parametrize("text, error", [
    # accepted, a misspelled key would drop the annotations: not-rational-sphere in place of wu
    pytest.param(json.dumps(MISSPELLED_COUNTS),
                 f"InvalidDiagram: diagram record has unknown key 'component_count' (allowed: {DIAGRAM_KEYS})",
                 id="component_count"),
    # accepted, a misspelled optional key would leave the standard diagram
    pytest.param(json.dumps({"family": "brieskorn", "m": 7, "d": 3, "varient": "g2"}),
                 "InvalidDiagram: diagram document has unknown key 'varient' (allowed: 'family', 'm', 'd', 'variant')",
                 id="varient"),
    # a reference answers for its record alone, so other keys are refused
    pytest.param(json.dumps({"catalog": "t5-row1", "family": "brieskorn", "m": 3}),
                 "InvalidDiagram: diagram document has unknown key 'family' (allowed: 'catalog')",
                 id="reference-and-family"),
    # accepted, a misspelled count would take the default 1
    pytest.param(json.dumps({**WU, "component_counts": {"h": 2, "k_minus": 2, "kplus": 3}}),
                 "InvalidDiagram: diagram record component_counts has unknown key 'kplus' "
                 "(allowed: 'h', 'k_minus', 'k_plus')", id="kplus"),
    pytest.param(json.dumps({**WU, "nonorientable": {"k_minus": True, "h": True}}),
                 "InvalidDiagram: diagram record nonorientable has unknown key 'h' (allowed: 'k_minus', 'k_plus')",
                 id="nonorientable-h"),
    # an id that is not a string is refused, not looked up as its str()
    pytest.param(json.dumps({"catalog": 5}),
                 "InvalidDiagram: diagram document key 'catalog' must be a JSON string, got 5", id="catalog-5"),
    # json.loads keeps the last of two equal keys, here m = 6
    pytest.param('{"family": "brieskorn", "m": 3, "d": 1, "m": 6}',
                 "InvalidDiagram: diagram document - is not valid JSON: object key 'm' is repeated", id="repeated-m"),
    pytest.param('{"catalog": "t5-row1", "catalog": "wu-s3s1"}',
                 "InvalidDiagram: diagram document - is not valid JSON: object key 'catalog' is repeated",
                 id="repeated-catalog"),
    pytest.param(json.dumps(WU)[:-1] + ', "nonorientable": {}}',
                 "InvalidDiagram: diagram document - is not valid JSON: object key 'nonorientable' is repeated",
                 id="repeated-nonorientable"),
    # every key declared and well typed, but a value the factory or the diagram type refuses
    pytest.param(json.dumps({"family": "brieskorn", "m": 4, "d": 3, "variant": "nope"}),
                 "InvalidParams: unknown variant 'nope'", id="variant-nope"),
    pytest.param(json.dumps({**T5_ROW1_RECORD, "component_counts": {"h": 0}}),
                 "InvalidDiagram: [component-pattern] component counts must be positive", id="component-count-0"),
])
def test_undeclared_or_repeated_key_exits_2(text, error):
    for command in ("classify", "primitivity"):
        with mock.patch("sys.stdin", io.StringIO(text)):
            assert run([command, "--diagram", "-"]) == (2, {"error": error}), command


@pytest.mark.parametrize("document", [
    {"family": "brieskorn", "m": 7, "d": 3, "typo": 1},
    {"catalog": "t5-row1", "typo": 1},
    {**WU, "typo": 1},
])
def test_a_document_fault_names_one_error_type_whatever_the_document_kind(document):
    # the same undeclared key in a family, a reference and an inline record document
    for command in ("classify", "primitivity"):
        with mock.patch("sys.stdin", io.StringIO(json.dumps(document))):
            result = run([command, "--diagram", "-"])
        assert result.exit_code == 2 and result.payload["error"].startswith("InvalidDiagram: "), result.payload
        assert "unknown key 'typo'" in result.payload["error"]


def test_inline_wu_document_is_no_brieskorn_verdict_with_or_without_its_record(tmp_path):
    # the swap of the Wu diagram has the m = 3 Brieskorn orbit groups and a K- of winding 0, but components
    # (2, 1, 2): the winding-0 verdict belongs to the (1, 1, 1) pattern alone
    doc = tmp_path / "wu.json"
    doc.write_text(json.dumps(WU))
    assert payload(["classify", "--diagram", str(doc)])["outcome"] == {"kind": "wu"}
    for name in ("embeddings.json", "diagrams.json"):
        shutil.copy(data_dir() / name, tmp_path / name)
    diagrams = json.loads((tmp_path / "diagrams.json").read_text())
    diagrams["diagrams"] = [record for record in diagrams["diagrams"] if record["id"] != "wu-s3s1"]
    (tmp_path / "diagrams.json").write_text(json.dumps(diagrams))
    assert payload(["classify", "--diagram", str(doc)], catalog=load_catalog(tmp_path))["outcome"] == {
        "kind": "unmatched"}


def test_null_family_record_and_byte_order_mark(tmp_path):
    # a record may carry a null family; a document led by a UTF-8 byte order mark is refused as json.loads refuses it
    doc = tmp_path / "record.json"
    doc.write_text(json.dumps({**T5_ROW1_RECORD, "family": None}))
    assert payload(["classify", "--diagram", str(doc)])["outcome"] == {"kind": "g2-quotient", "index": 3}
    doc.write_text('\ufeff{"catalog": "t5-row1"}', encoding="utf-8")
    result = run(["classify", "--diagram", str(doc)])
    assert result.exit_code == 2
    assert result.payload["error"].startswith(f"InvalidDiagram: diagram document {doc} is not valid JSON: "
                                              "Unexpected UTF-8 BOM")


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
    [("SU(1600)", "dimension 2559999"), ("x".join(["SU(2)"] * 15000), "digits"),
     # a dimension of more digits than the interpreter prints is not printed
     pytest.param(f"SU(1{'0' * 2200})", "whose dimension has more than 4300 digits", id="SU(10^2200)")],
)
def test_degrees_refuses_groups_it_cannot_print(group, detail):
    result = run(["degrees", "--group", group])
    assert result.exit_code == 2 and result.payload["error"].startswith("InvalidParams")
    assert detail in result.payload["error"]


def test_degrees_refuses_a_weyl_order_too_long_to_print_in_bounded_time():
    # 120,000 terms SU(3), dimension 960,000: summing the terms' tuples and multiplying the Weyl order one factor at
    # a time took 18.5 s to exit 2 (2-vCPU VM)
    start = time.perf_counter()
    result = run(["degrees", "--group", "x".join(["SU(3)"] * 120000)])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert result.payload["error"].startswith("InvalidParams: --group names a group whose Weyl order has more than")


@pytest.mark.parametrize("term", [f"SU({'9' * 5000})", f"T({'9' * 5000})", f"B{'9' * 5000}"],
                         ids=["SU(5000-digits)", "T(5000-digits)", "B5000-digits"])
def test_degrees_refuses_arguments_of_more_digits_than_int_reads(term):
    result = run(["degrees", "--group", f"SU(2)x{term}"])
    assert result.exit_code == 2
    assert result.payload["error"] == f"InvalidLabel: cannot parse group term {term!r} in 'SU(2)x{term}'"


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


# -- the command table and its parser -------------------------------------------


@pytest.mark.parametrize(
    "argv, error",
    [
        ([], "the following arguments are required: command"),
        (["no-such-command"], "argument command: invalid choice: 'no-such-command' (choose from 'brieskorn', "),
        (["brieskorn", "--m", "4"], "the following arguments are required: --d"),
        (["brieskorn", "--m", "x", "--d", "3"], "argument --m: invalid int value: 'x'"),
        (["brieskorn", "--d", "3", "--m"], "argument --m: expected one argument"),
        (["brieskorn", "--m", "--d", "3"], "argument --m: expected one argument"),
        (["brieskorn", "--m", "4", "--d", "5", "--foo"], "unrecognized arguments: --foo"),
        (["brieskorn", "--m", "4", "--d", "5", "extra"], "unrecognized arguments: extra"),
        (["seven-family"], "one of the arguments --realize --p-minus is required"),
        (["seven-family", "--realize", "2", "--p-minus", "1"],
         "argument --p-minus: not allowed with argument --realize"),
        (["mv-check", "--p-h", "1", "--n", "5", "--h-spheres", "3"],
         "argument --h-spheres: not allowed with argument --p-h"),
        (["mv-check", "--n", "5", "--p-h", "1,0,0,1", "--p-k-plus", "1,0,1", "--k-plus-spheres", "3",
          "--p-k-minus", "1,0,1"], "argument --k-plus-spheres: not allowed with argument --p-k-plus"),
        (["mv-check", "--n", "5", "--p-h", "1", "--p-k-plus", "1", "--k-minus-spheres", "3", "--p-k-minus", "1"],
         "argument --p-k-minus: not allowed with argument --k-minus-spheres"),
        (["mv-check", "--n", "5", "--p-h", "1"], "one of the arguments --p-k-plus --k-plus-spheres is required"),
        (["mv-check", "--n", "5", "--p-h", "1", "--k-plus-spheres", "3"],
         "one of the arguments --p-k-minus --k-minus-spheres is required"),
        # --realize takes no slope flag, not even one at its default
        (["seven-family", "--realize", "2", "--q-minus", "5", "--p-plus", "9"],
         "argument --q-minus: not allowed with argument --realize"),
        (["seven-family", "--q-plus", "1", "--realize", "2"], "argument --q-plus: not allowed with argument --realize"),
        (["seven-family", "--realize", "2", "--p-plus", "5"], "argument --p-plus: not allowed with argument --realize"),
        (["seven-family", "--q-minus", "1"], "argument --q-minus: needs --p-minus"),
        (["seven-family", "--p-minus", "1"], "the following arguments are required: --p-plus"),
        (["verify-tables", "--timings=1"], "argument --timings: ignored explicit argument '1'"),
        (["degrees", "--group", "-h"], "argument --group: expected one argument"),
        # decisions: no prefix abbreviations, and no flag given twice
        (["quotient", "--emb", "su6-sp3"], "unrecognized arguments: --emb"),
        (["mv-check", "--n", "5", "--p", "1"], "unrecognized arguments: --p"),
        (["brieskorn", "--m", "4", "--m", "5", "--d", "5"], "argument --m: given more than once"),
        (["verify-tables", "--timings", "--timings"], "argument --timings: given more than once"),
    ],
)
def test_usage_errors_name_the_flag(argv, error):
    result = run(argv)
    assert result.exit_code == 2 and result.payload["error"].startswith(error)


def test_flag_values_may_be_negative_or_joined_with_equals():
    out = payload(["seven-family", "--p-minus", "-3", "--p-plus=1", "--q-minus=-7"])
    assert out["params"] == {"p_minus": -3, "q_minus": -7, "p_plus": 1, "q_plus": 1}
    assert payload(["brieskorn", "--m=4", "--d=5"]) == payload(["brieskorn", "--d", "5", "--m", "4"])


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_the_table(flag, capsys):
    assert main([flag]) == 0
    top = json.loads(capsys.readouterr().out)
    assert list(top["commands"]) == sorted(_COMMANDS)
    for command, entry in _COMMANDS.items():
        out = payload([command, flag])
        assert out["help"] == entry.help and list(out["flags"]) == list(entry.flags)
    assert payload(["seven-family", "--realize", "2", flag])["usage"] == (
        "cohomone seven-family (--realize INT | --p-minus INT [--q-minus INT] --p-plus INT [--q-plus INT])"
    )
    assert payload(["mv-check", flag])["usage"] == (
        "cohomone mv-check --n INT (--p-h STR | --h-spheres STR) (--p-k-plus STR | --k-plus-spheres STR) "
        "(--p-k-minus STR | --k-minus-spheres STR)"
    )
    assert payload(["primitivity", flag])["usage"] == "cohomone primitivity --diagram STR [--rational-sphere]"
    assert payload(["seven-family", flag])["flags"]["--q-plus"].endswith("(default 1)")


# -- integers too long to read or to print ----------------------------------------

HUGE = "1" + "0" * 2199 + "1"  # 10^2200 + 1 = 1 mod 4: its square has 4401 digits


def test_document_integer_too_long_to_read_exits_2(tmp_path):
    doc = tmp_path / "huge.json"
    doc.write_text('{"family": "brieskorn", "m": 7, "d": 1' + "0" * 5000 + "}")
    result = run(["classify", "--diagram", str(doc)])
    assert result.exit_code == 2 and str(doc) in result.payload["error"]
    assert "not valid JSON" in result.payload["error"]


def test_huge_seven_family_torsion_exits_2(tmp_path, capsys):
    assert main(["seven-family", "--p-minus", HUGE, "--p-plus", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith(
        "InvalidParams: the seven-family torsion has more than 4300 digits")
    result = run(["seven-family", "--realize", "9" * 4300])  # p+ = 2t + 1 has 4301 digits
    assert result.exit_code == 2 and "a seven-family parameter has more than" in result.payload["error"]
    doc = tmp_path / "seven.json"
    doc.write_text(f'{{"family": "seven", "p_minus": {HUGE}, "q_minus": 1, "p_plus": 1, "q_plus": 1}}')
    for command, code in (("classify", 2), ("primitivity", 0)):  # primitivity prints no torsion
        result = run([command, "--diagram", str(doc)])
        assert result.exit_code == code, result.payload
    assert "the classify outcome's torsion has more than" in run(["classify", "--diagram", str(doc)]).payload["error"]


def test_classify_prints_values_under_2_to_the_1000_and_refuses_longer_ones_at_the_lowest_limit(tmp_path):
    # values under 2**1000 skip the digit check: 2**1000 < 10**640, the lowest limit an interpreter takes
    t = 2**1000 - 1
    params = realize_torsion(t)._asdict()
    for name, document, key in (("brieskorn", {"family": "brieskorn", "m": 6, "d": t}, "d"),
                                ("seven", {"family": "seven", **params}, "torsion")):
        (tmp_path / f"{name}.json").write_text(json.dumps(document))
        assert payload(["classify", "--diagram", str(tmp_path / f"{name}.json")])["outcome"][key] == t
    huge = 10**330 + 1  # 1 mod 4: the torsion (huge**2 - 1) / 8 has 660 digits, each slope 331
    (tmp_path / "long.json").write_text(json.dumps({"family": "seven", "p_minus": huge, "q_minus": 1,
                                                    "p_plus": 1, "q_plus": 1}))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        result = run(["classify", "--diagram", str(tmp_path / "long.json")])
    finally:
        sys.set_int_max_str_digits(limit)
    assert result.exit_code == 2
    assert result.payload["error"] == ("InvalidParams: the classify outcome's torsion has more than 640 digits, "
                                       "more than this interpreter prints")


def test_huge_catalog_winding_exits_2(tmp_path):
    # a Brieskorn-shaped record with components (1, 1, 1): a winding of 4300 digits, the most the default digit
    # limit lets a JSON integer have, gives d = 2|winding| = 10^4300 of 4301 digits
    for name in ("embeddings.json", "diagrams.json"):
        shutil.copy(data_dir() / name, tmp_path / name)
    data = json.loads((tmp_path / "embeddings.json").read_text())
    data["embeddings"] += [
        {"id": "bk-h", "ambient": "T1xSO(4)", "subgroup": "T1", "tags": ["block", "proper-projections"]},
        {"id": "bk-km", "ambient": "T1xSO(4)", "subgroup": "T2", "winding": 5 * 10**4299},
        {"id": "bk-kp", "ambient": "T1xSO(4)", "subgroup": "SO(3)", "tags": ["block"]},
        {"id": "bk-h-km", "ambient": "T2", "subgroup": "T1", "tags": ["block"]},
        {"id": "bk-h-kp", "ambient": "SO(3)", "subgroup": "T1", "tags": ["block"]},
    ]
    (tmp_path / "embeddings.json").write_text(json.dumps(data))
    doc = tmp_path / "record.json"
    doc.write_text(json.dumps({
        "g": "T1xSO(4)", "h": "bk-h", "k_minus": "bk-km", "k_plus": "bk-kp",
        "h_in_k_minus": "bk-h-km", "h_in_k_plus": "bk-h-kp",
        "component_counts": {"h": 1, "k_minus": 1, "k_plus": 1},
    }))
    result = run(["classify", "--diagram", str(doc)], load_catalog(tmp_path))
    assert result.exit_code == 2, result.payload
    assert result.payload["error"].startswith("InvalidParams: the classify outcome's d has more than 4300 digits")


NINES = "9" * 4300  # the most digits the default limit lets a flag value have


@pytest.mark.parametrize("argv, detail", [
    (["brieskorn", "--m", NINES, "--d", "1"], "the top homology degree 2m-1"),
    (["gh-case", "--l-minus", NINES, "--l-plus", "1", "--h", "0"], "a gh-case forced dimension"),
    (["gh-case", "--l-minus", "1", "--l-plus", NINES, "--h", "1"], "a gh-case forced dimension"),
    (["mv-check", "--n", "5", "--p-h", "1", "--p-k-plus", f"1,{NINES}", "--p-k-minus", f"1,{NINES}"],
     "a Mayer-Vietoris rank"),
], ids=["brieskorn", "gh-case-h0", "gh-case-h1", "mv-check"])
def test_result_integers_too_long_to_print_exit_2(argv, detail):
    # every flag value is read, but a result computed from them has one digit more than the interpreter prints
    result = run(argv)
    assert result.exit_code == 2
    assert result.payload["error"].startswith(f"InvalidParams: {detail} has more than 4300 digits")


def test_a_result_too_long_to_print_exits_2_with_json_in_a_fresh_process():
    env = dict(os.environ, PYTHONPATH=str(Path(cohomone.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "cohomone.cli", "brieskorn", "--m", NINES, "--d", "1"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert json.loads(done.stderr)["error"].startswith("InvalidParams: the top homology degree 2m-1 has more than")


def _integer_flag_lines(value: str, filler: str):
    """A command line for each int flag of the command table and each integer-list flag of mv-check: that flag
    takes ``value``; the flag it needs and the required flags of the other groups take ``filler``."""
    for command, entry in _COMMANDS.items():
        flags = entry.flags
        for name, flag in flags.items():
            if flag.kind is int or command == "mv-check" and flag.kind is str:
                given = {name: value, **({flag.needs: filler} if flag.needs else {})}
                groups = {flags[n].group or n for n in given}
                for other, f in flags.items():
                    if f.required and (f.group or other) not in groups and f.needs in (None, *given):
                        given[other] = filler
                        groups.add(f.group or other)
                yield [command, *(part for pair in given.items() for part in pair)]


@pytest.mark.parametrize("filler", ["1", "5"])
def test_every_integer_flag_at_the_digit_limit_exits_0_or_2_with_a_printable_payload(filler):
    # a value of as many digits as int() reads: each result is printed or refused, never a traceback
    nines = "9" * sys.get_int_max_str_digits()
    for argv in _integer_flag_lines(nines, filler):
        result = run(argv)
        assert result.exit_code in (0, 2), argv[:2]
        if result.exit_code == 0:
            render(result.payload)


# -- fuzzed command lines -------------------------------------------------------------

#: flag values: small integers (so that no draw runs long), negative ones among them, and texts that some
#: flags read and others refuse
VALUES = st.integers(-40, 40).map(str) | st.sampled_from([
    "x", "1.5", "", "1,0,1", "1,a", "3,5", "2,3,5", "G2", "SU(3)xSU(2)", "SU(6", "su6-sp3", "t2-in-su3", "nope",
])


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("documents")
    texts = {
        "row.json": '{"catalog": "t5-row1"}', "brieskorn.json": '{"family": "brieskorn", "m": 6, "d": 4}',
        "seven.json": '{"family": "seven", "p_minus": -3, "q_minus": 1, "p_plus": 5, "q_plus": 1}',
        "array.json": "[1, 2]", "broken.json": "{not json",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    return [str(root / name) for name in [*texts, "missing.json"]]


@st.composite
def command_lines(draw, documents):
    """An argv drawn from the command table: known and unknown subcommands and flags, missing and
    malformed values, `--flag=value`, prefix abbreviations, repeats, help and exclusive pairs."""
    command = draw(st.sampled_from([*_COMMANDS, "no-such-command", "-h", "--help"]))
    flags = list(_COMMANDS.get(command, _COMMANDS["mv-check"]).flags)
    argv = [command]
    for _ in range(draw(st.integers(0, 7))):
        known = st.sampled_from(flags)
        odd = st.sampled_from(["--foo", "-h", "extra"]) | known.map(lambda f: f[:-1])  # f[:-1]: an abbreviation
        name = draw(st.one_of(known, known, known, odd))
        value = draw(st.none() | VALUES | st.sampled_from(documents))
        if value is None:
            argv.append(name)
        elif draw(st.booleans()):
            argv += [name, value]
        else:
            argv.append(f"{name}={value}")
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_command_lines_exit_0_1_or_2_with_json(documents, data):
    argv = data.draw(command_lines(documents))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert isinstance(json.loads(err.getvalue())["error"], str)
    else:
        assert isinstance(json.loads(out.getvalue()), dict)


# -- fuzzed diagram documents ---------------------------------------------------------

#: any JSON value: every scalar type, and lists and objects of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
FAMILY_KEYS = {
    "brieskorn": ("m", "d", "variant"), "seven": ("p_minus", "q_minus", "p_plus", "q_plus"),
    "tensor-su": ("n",), "tensor-sp": ("n",), "unknown": ("n", "m"),
}


@st.composite
def annotation(draw):
    """A ``component_counts`` or ``nonorientable`` value: any JSON value, or an object over its keys."""
    keys = st.sampled_from(["h", "k_minus", "k_plus", "x"])
    return draw(JSON_VALUES | st.dictionaries(keys, JSON_VALUES | st.integers(-2, 3), max_size=4))


@st.composite
def record_documents(draw):
    """A shipped record, as an inline document, with keys removed, or replaced by any JSON value or an annotation
    of the wrong shape."""
    document = dict(draw(st.sampled_from(list(INLINE.values()))))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(document) or ["g"]))
        if draw(st.booleans()):
            document.pop(key, None)
        else:
            document[key] = draw(annotation() if key in ("component_counts", "nonorientable") else JSON_VALUES)
    return document


@st.composite
def family_documents(draw):
    """A family document whose keys are drawn: absent, small integers, or any JSON value."""
    family = draw(st.sampled_from(sorted(FAMILY_KEYS)))
    document = {"family": family}
    for key in FAMILY_KEYS[family]:
        value = draw(st.none() | st.integers(-3, 12) | st.sampled_from(["standard", "spin7", "g2"]) | JSON_VALUES)
        if value is not None or draw(st.booleans()):  # None: the key is absent, or a JSON null
            document[key] = value
    return document


#: where a nested value sits: the whole document, or the value of a key that the CLI or a record reads
NESTING_PLACES = ["%s", '{"catalog": %s}', '{"family": %s}', '{"family": "brieskorn", "m": %s, "d": 1}',
                  '{"g": %s, "h": "t2-in-su3"}', '{"g": "SU(3)", "h": "t2-in-su3", "component_counts": %s}']


@st.composite
def nested_documents(draw):
    """The text of a document holding arrays or objects nested up to 6000 deep: shallow, about as deep as
    the JSON reader recurses, or deeper."""
    depth = draw(st.integers(1, 6000) | st.integers(900, 1100))
    if draw(st.booleans()):
        value = "[" * depth + "]" * depth
    else:
        value = '{"a": ' * depth + "1" + "}" * depth
    return draw(st.sampled_from(NESTING_PLACES)) % value


@settings(max_examples=300, deadline=None)
@given(text=record_documents().map(json.dumps) | family_documents().map(json.dumps) | nested_documents(),
       command=st.sampled_from(["classify", "primitivity"]))
def test_fuzzed_diagram_documents_exit_0_or_2_with_json(text, command):
    with mock.patch("sys.stdin", io.StringIO(text)):
        result = run([command, "--diagram", "-"])
    assert result.exit_code in (0, 2), result.payload
    json.dumps(result.payload)
    if result.exit_code == 2:
        assert isinstance(result.payload["error"], str)


GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())["diagrams"]


@st.composite
def declared_documents(draw):
    """(document, key table, object to which a key is added, expected (exit code, payload)) of a diagram document
    each of whose keys its kind declares: a reference, a shipped record inline, or a family document whose
    integer keys are drawn and optional keys left out."""
    kind = draw(st.sampled_from(["reference", "inline", *FAMILIES]))
    if kind in ("reference", "inline"):
        record_id = draw(st.sampled_from(sorted(SHIPPED)))
        expected = (0, GOLDEN[record_id]["classify"])  # as the benchmark's golden file records it
        if kind == "reference":
            document = {"catalog": record_id}
            return document, _REFERENCE, document, expected
        document = json.loads(json.dumps(INLINE[record_id]))
        nested = draw(st.sampled_from([None, "component_counts", "nonorientable"]))
        if nested is None:
            return document, INLINE_RECORD, document, expected
        document.setdefault(nested, {})
        return document, {"component_counts": _COUNTS, "nonorientable": _FLAGS}[nested], document[nested], expected
    table = FAMILIES[kind].keys
    document = {"family": kind, **{key: draw(st.integers(-3, 12)) for key, value in table.items() if value is int}}
    try:
        diagram = FAMILIES[kind].factory(*list(document.values())[1:])
        expected = (0, {"group": str(diagram.g), "ell_minus": diagram.ell_minus, "ell_plus": diagram.ell_plus,
                        "manifold_dim": diagram.manifold_dim, "outcome": classify_diagram(diagram).as_dict()})
    except CohomoneError as exc:
        expected = (2, {"error": f"{type(exc).__name__}: {exc}"})
    return document, table, document, expected


@settings(max_examples=150, deadline=None)
@given(drawn=declared_documents(), key=st.text(max_size=8), value=JSON_VALUES)
def test_one_undeclared_key_exits_2_naming_it(drawn, key, value):
    document, table, target, expected = drawn
    assume(key not in table and key not in ("catalog", "family"))  # those two choose the kind of document
    with mock.patch("sys.stdin", io.StringIO(json.dumps(document))):
        assert run(["classify", "--diagram", "-"]) == expected
    target[key] = value
    with mock.patch("sys.stdin", io.StringIO(json.dumps(document))):
        result = run(["classify", "--diagram", "-"])
    assert result.exit_code == 2
    assert f"has unknown key {key!r} (allowed: {', '.join(map(repr, table))})" in result.payload["error"]
