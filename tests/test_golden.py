"""The output contract: CLI payloads and digests recorded in ``perfbench/golden.json``.

The file is only read here; ``perfbench/make_golden.py`` writes it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cohomone.catalog import default_catalog
from cohomone.cli import render, run
from cohomone.verify import build_report

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())
CAT = default_catalog()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_tables_report_digest():
    assert sha256(render(build_report(CAT))) == GOLDEN["verify_tables_sha256"]


def test_every_diagram_record_is_recorded():
    assert set(GOLDEN["diagrams"]) == {r.id for r in CAT.diagram_records()}
    assert len(GOLDEN["diagrams"]) == 13


@pytest.mark.parametrize("record_id", sorted(GOLDEN["diagrams"]))
def test_classify_and_primitivity_payloads(tmp_path, record_id):
    document = tmp_path / "d.json"
    document.write_text(json.dumps({"catalog": record_id}))
    for command, payload in GOLDEN["diagrams"][record_id].items():
        result = run([command, "--diagram", str(document)], CAT)
        assert (result.exit_code, result.payload) == (0, payload), command


@pytest.mark.parametrize("command, count", [("quotient", 51), ("hilbert", 21)])
def test_embedding_payload_digests(command, count):
    digests = GOLDEN[f"{command}_sha256"]
    assert len(digests) == count
    for embedding_id, digest in digests.items():
        assert sha256(render(run([command, "--embedding", embedding_id], CAT).payload)) == digest, embedding_id
