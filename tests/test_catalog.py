import io
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from collections.abc import Mapping
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohomone
from cohomone import lie_catalog
from cohomone.catalog import _COUNTS, _DIAGRAMS_FILE, _EMBEDDING, _EMBEDDINGS_FILE, _FLAGS, _ORBIT, _OUTCOMES, _RECORD
from cohomone.catalog import HILBERT_STEP_BUDGET, INLINE_RECORD, Catalog, data_dir, default_catalog, load_catalog
from cohomone.classification import CORANK2_FAMILIES, corank2_sources, enumerate_corank2
from cohomone.cli import run
from cohomone.diagram import ClassificationOutcome
from cohomone.errors import InvalidDiagram, InvalidEmbedding, InvalidLabel, InvalidParams, Unsupported
from cohomone.lie_catalog import NamedEmbedding, is_declared_injective, parse_group, validate_embedding
from cohomone.rational_homotopy import hilbert_factors


def test_catalog_loads_and_indexes():
    cat = default_catalog()
    assert len(cat.embeddings()) >= 50
    assert len(cat.diagram_records()) == 13
    emb = cat.embedding("su6-sp3")
    assert emb.ambient == parse_group("SU(6)")
    assert emb.subgroup == parse_group("Sp(3)")


def test_every_shipped_embedding_obeys_rank_bounds():
    cat = default_catalog()
    for emb in cat.embeddings():
        validate_embedding(emb)  # raises on violation
        sub, amb = Counter(emb.subgroup.degrees), Counter(emb.ambient.degrees)
        for k, r in emb.homotopy_map_ranks:
            assert 0 <= r <= min(sub.get(k, 0), amb.get(k, 0)), emb.id


def test_unknown_ids_raise():
    cat = default_catalog()
    with pytest.raises(InvalidLabel):
        cat.embedding("no-such-embedding")
    with pytest.raises(InvalidDiagram):
        cat.diagram_record("no-such-diagram")


def test_family_instantiation():
    family = "spin(2m+1)/spin(2m-3)"
    assert len(CORANK2_FAMILIES) == 4 and CORANK2_FAMILIES[family][0] == 4
    instances = {m: e for e, source, m in corank2_sources(7, default_catalog()) if source == family}
    e = instances[4]
    assert e.ambient == parse_group("Spin(9)")
    assert e.subgroup == parse_group("Spin(5)")
    assert e.id == "spin(2m+1)/spin(2m-3)@m=4" and is_declared_injective(e)
    assert list(instances) == [4, 5, 6, 7]
    assert [x.ambient.rank for x in instances.values()] == [4, 5, 6, 7]



@pytest.mark.parametrize("family", list(CORANK2_FAMILIES))
def test_each_family_yields_a_corank2_row_at_every_m_up_to_the_rank_bound(family):
    least, pair = CORANK2_FAMILIES[family]
    instances = [(e, m) for e, source, m in corank2_sources(9, default_catalog()) if source == family]
    assert [m for _, m in instances] == list(range(least, least + len(instances))) and len(instances) >= 2
    assert pair(least + len(instances))[0].rank > 9
    for e, m in instances:
        validate_embedding(e)
        assert e.id == f"{family}@m={m}" and (e.ambient, e.subgroup) == pair(m) and is_declared_injective(e)
        assert e.ambient.rank - e.subgroup.rank == 2
    rows = [row for row in enumerate_corank2(9, default_catalog()) if row.family == family]
    assert [row.param for row in rows] == [m for _, m in instances]

def test_a_report_instantiates_only_the_family_instances_it_keeps(monkeypatch):
    # the first m past max_rank is found from its groups alone, not built and checked as an embedding
    cat = default_catalog()
    kept = sorted(row.embedding_id for row in enumerate_corank2(9, cat) if row.param is not None)
    built, validate = [], lie_catalog.validate_embedding

    def counted_validate(embedding):
        built.append(embedding.id)
        validate(embedding)

    monkeypatch.setattr(lie_catalog, "validate_embedding", counted_validate)
    assert cohomone.verify.build_report(cat)["summary"]["ok"]
    assert kept and sorted(i for i in built if "@m=" in i) == kept


def edited_data(directory, name, edit):
    """Copy the shipped data files into ``directory``, applying ``edit`` to the parsed file ``name``."""
    for file in ("embeddings.json", "diagrams.json"):
        shutil.copy(data_dir() / file, directory / file)
    data = json.loads((directory / name).read_text())
    edit(data)
    (directory / name).write_text(json.dumps(data))
    return directory


def test_duplicate_records_rejected_at_load(tmp_path):
    def repeat_first(key):
        return lambda data: data[key].append(data[key][0])

    def add_swapped_copy(data):
        first = data["diagrams"][0]
        swapped = dict(first, id="swapped-copy")
        for a, b in (("k_minus", "k_plus"), ("h_in_k_minus", "h_in_k_plus")):
            swapped[a], swapped[b] = first[b], first[a]
        for key in ("component_counts", "nonorientable"):
            swapped[key] = dict(first[key], k_minus=first[key]["k_plus"], k_plus=first[key]["k_minus"])
        data["diagrams"].append(swapped)

    with pytest.raises(InvalidLabel, match="embeddings.json: duplicate id"):
        load_catalog(edited_data(tmp_path, "embeddings.json", repeat_first("embeddings")))
    with pytest.raises(InvalidDiagram, match="diagrams.json: duplicate id"):
        load_catalog(edited_data(tmp_path, "diagrams.json", repeat_first("diagrams")))
    with pytest.raises(InvalidDiagram, match="swapped-copy"):
        load_catalog(edited_data(tmp_path, "diagrams.json", add_swapped_copy))


#: the subcommands that read the catalog: each loads it first, so a malformed one exits 2 from all five
CATALOG_READERS = (["quotient", "--embedding", "t2-in-su3"], ["hilbert", "--embedding", "t2-in-su3"],
                   ["classify", "--diagram", "no-such-document.json"],
                   ["primitivity", "--diagram", "no-such-document.json"], ["verify-tables"])


def record_edit(key, record_id, edit):
    """An ``edited_data`` edit applying ``edit`` to the record ``record_id`` of the array ``key``."""
    return lambda data: edit(next(r for r in data[key] if r["id"] == record_id))


def stored_outcome(record_id, outcome):
    """A ``diagrams.json`` edit storing ``outcome`` in the record ``record_id``."""
    return record_edit("diagrams", record_id, lambda r: r.update(outcome=outcome))


#: (file, edit, error, detail) of a malformed stored verdict, which the load refuses whatever subcommand reads it
BAD_VERDICTS = [
    ("diagrams.json", stored_outcome("t5-row1", {"kind": "g2-quotient"}), InvalidDiagram, "index"),
    ("diagrams.json", stored_outcome("t5-row1", {"kind": "brieskorn", "m": "x", "d": 3}), InvalidDiagram, "'x'"),
    ("diagrams.json", stored_outcome("t5-row1", {"kind": "seven-family", "torsion": 3}), InvalidDiagram,
     "unknown outcome kind 'seven-family'"),
    ("diagrams.json", stored_outcome("t5-row1", {"kind": "g2-quotient", "index": 3, "note": "x"}), InvalidDiagram,
     "note"),
    # each kind has its own key table: a field of another kind is undeclared, and a missing one is named
    ("diagrams.json", stored_outcome("wu-s3s1", {"kind": "wu", "m": 3}), InvalidDiagram,
     "diagrams[10] outcome has unknown key 'm' (allowed: 'kind')"),
    ("diagrams.json", stored_outcome("t5-row4", {"kind": "linear-sphere"}), InvalidDiagram,
     "diagrams[3] outcome has no 'description' key"),
    ("diagrams.json", stored_outcome("t5-row1", {"kind": "g2-quotient", "index": True}), InvalidDiagram,
     "diagrams[0] outcome key 'index' must be a JSON integer, got True"),
    ("diagrams.json", stored_outcome("t5-row2", {"kind": "not-rational-sphere", "reason": 5}), InvalidDiagram,
     "diagrams[1] outcome key 'reason' must be a JSON string, got 5"),
    ("diagrams.json", stored_outcome("t5-row1", {"kind": "unmatched"}), InvalidDiagram,
     "diagrams[0]: unknown outcome kind 'unmatched' (stored kinds: 'linear-sphere', 'brieskorn', 'wu', "
     "'g2-quotient', 'not-rational-sphere')"),
    ("diagrams.json", stored_outcome("t5-row1", {"index": 3}), InvalidDiagram, "unknown outcome kind None"),
    ("diagrams.json", stored_outcome("t5-row1", {"kind": ["wu"]}), InvalidDiagram, "unknown outcome kind ['wu']"),
    # a well-typed outcome is built at load, so the invariants of its kind are checked there
    ("diagrams.json", stored_outcome("t5-row1", {"kind": "brieskorn", "m": 3, "d": 2}), InvalidParams,
     "diagrams[0] outcome: Brieskorn outcomes require m even or d odd"),
    ("diagrams.json", stored_outcome("t5-row1", {"kind": "g2-quotient", "index": 2}), InvalidParams,
     "diagrams[0] outcome: the G2/SU(2) quotients carry subgroup index 1 or 3"),
    # the outcome decides the flag: a record states one or the other
    ("diagrams.json", record_edit("diagrams", "t5-row2", lambda r: r.update(rational_sphere=True)), InvalidDiagram,
     "diagrams[1] states 'rational_sphere', which its 'outcome' decides"),
]


def retagged(record_id, *tags):
    """An ``embeddings.json`` edit giving the record ``record_id`` the tags ``tags``."""
    return record_edit("embeddings", record_id, lambda r: r.update(tags=list(tags)))


ALLOWED_TAGS = "(allowed: 'block', 'corank2', 'diagonal', 'proper-projections', 'spinor')"
#: (file, edit, error, detail) of a tag outside the vocabulary, and of a diagram record that still has tags
BAD_TAGS = [
    # a lattice entry is an embedding with contents: a misspelled lattice tag would make primitivity "unknown"
    ("embeddings.json", retagged("t5-l-su2su2", "latice", "block"), InvalidLabel,
     f"embeddings[50]: t5-l-su2su2: unknown tag 'latice' {ALLOWED_TAGS}"),
    ("diagrams.json", record_edit("diagrams", "case6-su3", lambda r: r.update(tags=["case6", "fiber:su3-mod-t2"])),
     InvalidDiagram, "diagrams[5] has unknown key 'tags' (allowed: 'id', 'g', 'h', 'k_minus', 'k_plus', "
                     "'h_in_k_minus', 'h_in_k_plus', 'component_counts', 'nonorientable', 'outcome', "
                     "'rational_sphere', 'orbit_poincare')"),
]


@pytest.mark.parametrize(
    "name, edit, error, detail",
    [
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.pop("subgroup")), InvalidLabel,
         "has no 'subgroup' key"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(ambient=6)), InvalidLabel,
         "'ambient' must be a JSON string"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(tags=["block", 3])),
         InvalidLabel, "'tags' must be a JSON array of strings"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(map_ranks={"5": "x"})),
         InvalidLabel, "'map_ranks'"),
        # a key str.isdigit accepts but int refuses: a superscript digit, or more digits than int reads
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(map_ranks={"\u00b3": 1})),
         InvalidLabel, "embeddings[16] key 'map_ranks' must be"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(map_ranks={"3" * 4301: 1})),
         InvalidLabel, "embeddings[16] key 'map_ranks' must be"),
        # a key with a leading zero would name the same integer as another key, and the last one would win
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(map_ranks={"3": 1, "03": 0})),
         InvalidLabel, "embeddings[16] key 'map_ranks' must be \"injective\" or an object of integers, "
                       "got {'3': 1, '03': 0}"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(map_ranks={"05": 1})),
         InvalidLabel, "embeddings[16] key 'map_ranks' must be \"injective\" or an object of integers, "
                       "got {'05': 1}"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(map_ranks={"four": 1})),
         InvalidLabel, "embeddings[16] key 'map_ranks' must be \"injective\" or an object of integers, "
                       "got {'four': 1}"),
        # a group argument of more digits than int reads does not parse
        pytest.param("embeddings.json",
                     record_edit("embeddings", "su6-sp3", lambda r: r.update(ambient=f"SU({'9' * 5000})")),
                     InvalidLabel, f"embeddings[16] key 'ambient': cannot parse group term 'SU({'9' * 5000})'",
                     id="ambient-argument-of-5000-digits"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(ambient=f"SU({'9' * 5000}m)")),
         InvalidLabel, "embeddings[16] key 'ambient': cannot parse group term 'SU(999"),
        ("diagrams.json", record_edit("diagrams", "wu-s3s1", lambda r: r.update(g=f"B{'9' * 5000}")),
         InvalidLabel, "diagrams[10] key 'g': cannot parse group term 'B999"),
        # a winding, a slope and the ids a lattice entry contains are typed keys, read at load
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(winding=True)),
         InvalidLabel, "embeddings[16] key 'winding' must be a JSON integer, got True"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(winding="1")),
         InvalidLabel, "embeddings[16] key 'winding' must be a JSON integer, got '1'"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(slope=[5])),
         InvalidLabel, "embeddings[16]: su6-sp3: slope must be a pair of ints or None, got (5,)"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(slope=[5, 1, 1])),
         InvalidLabel, "embeddings[16]: su6-sp3: slope must be a pair of ints or None, got (5, 1, 1)"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(slope=["5", 1])),
         InvalidLabel, "embeddings[16] key 'slope' must be a JSON array of integers, got ['5', 1]"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(contains="x")),
         InvalidLabel, "embeddings[16] key 'contains' must be a JSON array of strings, got 'x'"),
        # a lattice entry contains embeddings of the file: an id that names none would make primitivity "unknown"
        ("embeddings.json",
         record_edit("embeddings", "t5-l-su2su2", lambda r: r.update(contains=["t5-h-b", "t5-km-23", "no-such-id"])),
         InvalidLabel, "embeddings[50] key 'contains': unknown embedding id 'no-such-id'"),
        # a tag is a label of the vocabulary: a misspelled one, an unread one and a value written as a tag are
        # refused, not read as absent
        *BAD_TAGS,
        ("embeddings.json", retagged("su3-kplus-u2", "blok"), InvalidLabel,
         f"embeddings[5]: su3-kplus-u2: unknown tag 'blok' {ALLOWED_TAGS}"),
        ("embeddings.json", retagged("t5-kp-pi", "diagnal"), InvalidLabel,
         f"embeddings[40]: t5-kp-pi: unknown tag 'diagnal' {ALLOWED_TAGS}"),
        ("embeddings.json", retagged("f4-kplus-spin9", "block", "spinr"), InvalidLabel,
         f"embeddings[13]: f4-kplus-spin9: unknown tag 'spinr' {ALLOWED_TAGS}"),
        ("embeddings.json", retagged("t2-in-su3", "proper-projection"), InvalidLabel,
         f"embeddings[0]: t2-in-su3: unknown tag 'proper-projection' {ALLOWED_TAGS}"),
        ("embeddings.json", retagged("su6-sp3", "corank-2"), InvalidLabel,
         f"embeddings[16]: su6-sp3: unknown tag 'corank-2' {ALLOWED_TAGS}"),
        ("embeddings.json", retagged("t5-l-su2su2", "lattice", "block"), InvalidLabel,
         f"embeddings[50]: t5-l-su2su2: unknown tag 'lattice' {ALLOWED_TAGS}"),
        ("embeddings.json", retagged("t5-h-a", "proper-projections", "weights:(z~2,z2,1)|(z,z~)"), InvalidLabel,
         f"embeddings[34]: t5-h-a: unknown tag 'weights:(z~2,z2,1)|(z,z~)' {ALLOWED_TAGS}"),
        ("embeddings.json", retagged("su6-sp3", "block", "winding:1"), InvalidLabel,
         f"embeddings[16]: su6-sp3: unknown tag 'winding:1' {ALLOWED_TAGS}"),
        ("embeddings.json", retagged("su6-sp3", "contains:x"), InvalidLabel,
         f"embeddings[16]: su6-sp3: unknown tag 'contains:x' {ALLOWED_TAGS}"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(comment=["real-form"])),
         InvalidLabel, "embeddings[16] key 'comment' must be a JSON string, got ['real-form']"),
        ("diagrams.json", record_edit("diagrams", "wu-s3s1", lambda r: r["orbit_poincare"].pop("n")),
         InvalidDiagram, "orbit_poincare has no 'n' key"),
        ("diagrams.json", record_edit("diagrams", "wu-s3s1", lambda r: r["orbit_poincare"].update(h=[1, "1"])),
         InvalidDiagram, "'h' must be a JSON array of integers"),
        ("diagrams.json", record_edit("diagrams", "wu-s3s1", lambda r: r.update(rational_sphere="yes")),
         InvalidDiagram, "'rational_sphere' must be a JSON boolean"),
        ("diagrams.json", record_edit("diagrams", "wu-s3s1", lambda r: r.update(outcome="wu")),
         InvalidDiagram, "'outcome' must be a JSON object"),
        *BAD_VERDICTS,
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(subgroup="XYZ(3)")),
         InvalidLabel, "embeddings[16] key 'subgroup': cannot parse group term 'XYZ(3)'"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(ambient="XYZ(3)")),
         InvalidLabel, "embeddings[16] key 'ambient': cannot parse group term 'XYZ(3)'"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(subgroup="SU(q-2)")),
         InvalidLabel, "embeddings[16] key 'subgroup': cannot parse group term 'SU(q-2)'"),
        # a group term in the parameter m is no group: the corank-2 families are built in code
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(ambient="SU(m)")),
         InvalidLabel, "embeddings[16] key 'ambient': cannot parse group term 'SU(m)'"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(subgroup="SU(2m-4)")),
         InvalidLabel, "embeddings[16] key 'subgroup': cannot parse group term 'SU(2m-4)'"),
        ("embeddings.json", record_edit("embeddings", "su5-sp2", lambda r: r.update(subgroup="Sp(m-2)")),
         InvalidLabel, "embeddings[17] key 'subgroup': cannot parse group term 'Sp(m-2)'"),
        # a group of dimension above MAX_SPHERE_DIM is refused before its degree list is built
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(ambient="SU(1001)",
                                                                                     subgroup="SU(1000)")),
         InvalidLabel, "embeddings[16] key 'ambient': the group has dimension above 1000000"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(subgroup="SU(1001)")),
         InvalidLabel, "embeddings[16] key 'subgroup': the group has dimension above 1000000"),
        # the message holds no dimension, which may have more digits than the interpreter prints
        pytest.param("embeddings.json",
                     record_edit("embeddings", "su6-sp3", lambda r: r.update(ambient=f"SU(1{'0' * 2200})")),
                     InvalidLabel, "embeddings[16] key 'ambient': the group has dimension above 1000000",
                     id="ambient-of-dimension-10^4400"),
        # an equal-rank embedding whose Hilbert series takes more steps than the budget: this one made hilbert run
        # 1.3 s and print 6.6 MB, and verify-tables run 1.2 s, before the loader counted the steps
        ("embeddings.json", lambda data: data["embeddings"].append(
            {"id": "su200-t199", "ambient": "SU(200)", "subgroup": "T199", "map_ranks": {"1": 0}}),
         InvalidLabel, "embeddings[51]: its Hilbert series takes 15840798 steps, over the budget of 2000000"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(subgroup="SU(7)")),
         InvalidEmbedding, "embeddings[16]: su6-sp3: subgroup dimension exceeds ambient dimension"),
        # a subgroup of smaller dimension may still outgrow the ambient group in rank
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(subgroup="T(6)")),
         InvalidEmbedding, "embeddings[16]: su6-sp3: subgroup rank exceeds ambient rank"),
        ("embeddings.json",
         record_edit("embeddings", "su6-sp3", lambda r: r.update(subgroup="SU(2)xSU(2)xSU(2)xSU(2)xSU(2)xSU(2)")),
         InvalidEmbedding, "embeddings[16]: su6-sp3: subgroup rank exceeds ambient rank"),
        ("diagrams.json", record_edit("diagrams", "wu-s3s1", lambda r: r.update(g="XYZ(3)")),
         InvalidLabel, "diagrams[10] key 'g': cannot parse group term 'XYZ(3)'"),
        ("diagrams.json", record_edit("diagrams", "wu-s3s1", lambda r: r.update(h="no-such-id")),
         InvalidLabel, "diagrams[10] key 'h': unknown embedding id 'no-such-id'"),
        # every object may hold only the keys its kind declares
        ("diagrams.json",
         record_edit("diagrams", "wu-s3s1", lambda r: r.update(component_count=r.pop("component_counts"))),
         InvalidDiagram, "diagrams[10] has unknown key 'component_count' (allowed: 'id', 'g', 'h', 'k_minus', "
                         "'k_plus', 'h_in_k_minus', 'h_in_k_plus', 'component_counts', 'nonorientable', 'outcome', "
                         "'rational_sphere', 'orbit_poincare')"),
        ("diagrams.json", record_edit("diagrams", "wu-s3s1", lambda r: r["component_counts"].update(kplus=2)),
         InvalidDiagram, "diagrams[10] component_counts has unknown key 'kplus' (allowed: 'h', 'k_minus', 'k_plus')"),
        ("diagrams.json", record_edit("diagrams", "wu-s3s1", lambda r: r["nonorientable"].update(h=True)),
         InvalidDiagram, "diagrams[10] nonorientable has unknown key 'h' (allowed: 'k_minus', 'k_plus')"),
        ("diagrams.json", record_edit("diagrams", "wu-s3s1", lambda r: r["orbit_poincare"].update(g=[1])),
         InvalidDiagram, "diagrams[10] orbit_poincare has unknown key 'g' (allowed: 'h', 'k_plus', 'k_minus', 'n')"),
        ("diagrams.json", lambda data: data.update(diagram=[]),
         InvalidDiagram, "diagrams.json has unknown key 'diagram' (allowed: 'version', 'comment', 'diagrams')"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(map_rank={})),
         InvalidLabel, "embeddings[16] has unknown key 'map_rank' (allowed: 'id', 'ambient', 'subgroup', "
                       "'map_ranks', 'tags', 'winding', 'slope', 'contains', 'comment')"),
        # the keys of the removed family records are no embedding keys
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(param_min=3)),
         InvalidLabel, "embeddings[16] has unknown key 'param_min' (allowed: 'id', 'ambient', 'subgroup', "
                       "'map_ranks', 'tags', 'winding', 'slope', 'contains', 'comment')"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(tags_at={"4": ["multiple"]})),
         InvalidLabel, "embeddings[16] has unknown key 'tags_at'"),
        ("embeddings.json", record_edit("embeddings", "su6-sp3", lambda r: r.update(param_max=9)),
         InvalidLabel, "embeddings[16] has unknown key 'param_max'"),
        ("embeddings.json", lambda data: data.update(families=[]),
         InvalidLabel, "embeddings.json has unknown key 'families' (allowed: 'version', 'comment', 'embeddings')"),
        ("embeddings.json", lambda data: data.update(family=[]),
         InvalidLabel, "embeddings.json has unknown key 'family' (allowed: 'version', 'comment', 'embeddings')"),
        ("embeddings.json", lambda data: data.update(comment=["a comment"]),
         InvalidLabel, "embeddings.json key 'comment' must be a JSON string"),
    ],
)
def test_malformed_record_rejected_at_load(tmp_path, monkeypatch, name, edit, error, detail):
    edited_data(tmp_path, name, edit)
    with pytest.raises(error, match=name) as caught:
        load_catalog(tmp_path)
    assert detail in str(caught.value)
    # every subcommand that reads the catalog loads it first: exit 2, not a traceback
    monkeypatch.setenv("COHOMONE_DATA_DIR", str(tmp_path))
    for argv in CATALOG_READERS:
        result = run(argv)
        assert result.exit_code == 2 and detail in result.payload["error"], argv
    # the others never load it
    assert run(["degrees", "--group", "G2"]).exit_code == 0


@pytest.mark.parametrize("name, old, new, key", [
    # json.loads keeps the last of two equal keys
    ("diagrams.json", '{"id": "t5-row1", "g": "SU(3)xSU(2)",', '{"id": "t5-row1", "g": "G2", "g": "SU(3)xSU(2)",', "g"),
    ("diagrams.json", '"version": 1,', '"version": 1, "version": 1,', "version"),
    ("embeddings.json", '"id": "su6-sp3",', '"id": "su6-sp3", "id": "su6-sp3",', "id"),
])
def test_repeated_key_rejected_at_load(tmp_path, monkeypatch, name, old, new, key):
    edited_data(tmp_path, name, lambda data: None)
    text = (data_dir() / name).read_text()
    assert text.count(old) == 1
    (tmp_path / name).write_text(text.replace(old, new))
    error = InvalidLabel if name == "embeddings.json" else InvalidDiagram
    with pytest.raises(error, match=f"{name}: cannot read catalog file: object key '{key}' is repeated"):
        load_catalog(tmp_path)
    monkeypatch.setenv("COHOMONE_DATA_DIR", str(tmp_path))
    assert run(["verify-tables"]).exit_code == 2


#: each kind of object in the data files and its key table: (file, path, table), where the path is empty for the
#: top level, names the array for its records, and then a key of those records for the object under it; a stored
#: outcome has one table per kind, so the test first writes a well-typed outcome of the table's kind there
CATALOG_OBJECTS = [
    ("embeddings.json", (), _EMBEDDINGS_FILE),
    ("embeddings.json", ("embeddings",), _EMBEDDING),
    ("diagrams.json", (), _DIAGRAMS_FILE),
    ("diagrams.json", ("diagrams",), _RECORD),
    ("diagrams.json", ("diagrams", "component_counts"), _COUNTS),
    ("diagrams.json", ("diagrams", "nonorientable"), _FLAGS),
    ("diagrams.json", ("diagrams", "orbit_poincare"), _ORBIT),
    *(("diagrams.json", ("diagrams", "outcome"), table) for table in _OUTCOMES.values()),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_undeclared_key_in_a_catalog_object_is_refused_naming_it(tmp_path_factory, data):
    name, path, table = data.draw(st.sampled_from(CATALOG_OBJECTS))
    key = data.draw(st.text(max_size=8).filter(lambda key: key not in table))
    value = data.draw(st.none() | st.integers() | st.text(max_size=4) | st.lists(st.integers(), max_size=2))

    def add_key(file):
        target = file
        if path:
            target = data.draw(st.sampled_from([r for r in file[path[0]] if all(step in r for step in path[1:])]))
            for step in path[1:]:
                target = target[step]
        kind = next((kind for kind, kind_table in _OUTCOMES.items() if kind_table is table), None)
        if kind is not None:
            target.clear()
            target.update({field: {str: "x", int: 1}[json_type] for field, json_type in table.items()}, kind=kind)
        target[key] = value

    directory = edited_data(tmp_path_factory.mktemp("catalog"), name, add_key)
    with pytest.raises(InvalidLabel if name == "embeddings.json" else InvalidDiagram) as caught:
        load_catalog(directory)
    assert f"has unknown key {key!r} (allowed: {', '.join(map(repr, table))})" in str(caught.value)


def cli_process(argv, data, seed="0"):
    """``python -m cohomone.cli argv`` in a fresh interpreter reading the catalog in ``data``."""
    env = dict(os.environ, COHOMONE_DATA_DIR=str(data), PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(cohomone.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "cohomone.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=60)


@pytest.mark.parametrize("edit, detail", [
    (retagged("su6-sp3", "winding:3", "block", "winding:1"),
     f"embeddings[16]: su6-sp3: unknown tag 'winding:1', 'winding:3' {ALLOWED_TAGS}"),
    # the message lists the two sorted, in whatever order the record writes them
    (retagged("su5-sp2", "winding:1", "corank2", "winding:3"),
     f"embeddings[17]: su5-sp2: unknown tag 'winding:1', 'winding:3' {ALLOWED_TAGS}"),
])
def test_two_winding_tags_exit_2_alike_under_every_hash_seed(tmp_path, edit, detail):
    edited_data(tmp_path, "embeddings.json", edit)
    runs = [cli_process(["classify", "--diagram", "no-such-document.json"], tmp_path, seed) for seed in "12"]
    assert [done.returncode for done in runs] == [2, 2]
    assert runs[0].stderr == runs[1].stderr and detail in runs[0].stderr


@pytest.mark.parametrize("name, edit, error, detail", BAD_VERDICTS + BAD_TAGS)
def test_a_malformed_stored_verdict_exits_2_from_every_catalog_reader_in_a_fresh_process(tmp_path, name, edit, error,
                                                                                        detail):
    edited_data(tmp_path, name, edit)
    for argv in CATALOG_READERS:
        done = cli_process(argv, tmp_path)
        assert done.returncode == 2 and f"{error.__name__}: " in done.stderr and detail in done.stderr, argv
    assert cli_process(["degrees", "--group", "G2"], tmp_path).returncode == 0  # reads no catalog


def exchange_witnesses(record):
    record["h_in_k_minus"], record["h_in_k_plus"] = record["h_in_k_plus"], record["h_in_k_minus"]


#: (record id, edit) of a ``diagrams.json`` record that then breaks a rule of ``diagram.validate``
INVALID_RECORDS = [
    pytest.param("t5-row1", lambda r: r.update(g="SU(1000000)"), id="g-unrelated-to-its-embeddings"),
    pytest.param("su5-lambda2", lambda r: r.update(k_plus=r["h"]), id="k_plus-equal-to-h"),
    pytest.param("t5-row1", exchange_witnesses, id="witnesses-exchanged"),
]


@pytest.mark.parametrize("record_id, edit", INVALID_RECORDS)
def test_every_catalog_reader_refuses_a_record_that_breaks_a_rule_naming_it(tmp_path, monkeypatch, record_id, edit):
    # each record is validated once, at load: no reader answers for it, and none ends in a traceback
    edited_data(tmp_path, "diagrams.json", record_edit("diagrams", record_id, edit))
    index = [r["id"] for r in json.loads((data_dir() / "diagrams.json").read_text())["diagrams"]].index(record_id)
    where = f"diagrams.json: diagrams[{index}]: [containment-shape] "
    with pytest.raises(InvalidDiagram) as caught:
        load_catalog(tmp_path)
    assert where in str(caught.value)
    monkeypatch.setenv("COHOMONE_DATA_DIR", str(tmp_path))
    for argv in CATALOG_READERS:
        result = run(argv)
        assert result.exit_code == 2 and result.payload["error"].startswith("InvalidDiagram: "), argv
        assert where in result.payload["error"], argv


T5_ROW1 = {key: value for key, value in json.loads((data_dir() / "diagrams.json").read_text())["diagrams"][0].items()
           if key in INLINE_RECORD}


@pytest.mark.parametrize("document", [
    pytest.param(dict(T5_ROW1, g="SU(5)"), id="g-unrelated-to-its-embeddings"),
    pytest.param(dict(T5_ROW1, h_in_k_minus=T5_ROW1["h_in_k_plus"], h_in_k_plus=T5_ROW1["h_in_k_minus"]),
                 id="witnesses-exchanged"),
])
def test_primitivity_refuses_an_invalid_inline_document_as_classify_does(document):
    results = []
    for command in ("classify", "primitivity"):
        with mock.patch("sys.stdin", io.StringIO(json.dumps(document))):
            results.append(run([command, "--diagram", "-"], default_catalog()))
    assert results[0] == results[1]
    assert results[0].exit_code == 2 and results[0].payload["error"].startswith("InvalidDiagram: [containment-shape] ")


#: the identity of a group of dimension 999,999, inside the load bound: counting its 700 distinct degrees with
#: tuple.count over its 510,699 made load_catalog take 10.3 s and quotient --embedding big 7.0 s (2-vCPU VM)
BIG_IDENTITY = {"id": "big", "ambient": "SU(700)xT510000", "subgroup": "SU(700)xT510000", "map_ranks": "injective"}


def test_a_group_at_the_dimension_bound_loads_and_is_read_in_bounded_time(tmp_path):
    edited_data(tmp_path, "embeddings.json", lambda data: data["embeddings"].append(BIG_IDENTITY))
    start = time.perf_counter()
    catalog = load_catalog(tmp_path)  # once, so that each reader is timed apart from the load
    assert time.perf_counter() - start < 2
    assert catalog.embedding("big").ambient is catalog.embedding("big").subgroup  # one group per distinct text
    for argv, exit_code in zip([*CATALOG_READERS, ["quotient", "--embedding", "big"]], [0, 0, 2, 2, 0, 0], strict=True):
        start = time.perf_counter()
        result = run(argv, catalog)
        assert result.exit_code == exit_code and time.perf_counter() - start < 2, argv
    payload = result.payload  # of quotient --embedding big: the identity quotient is a point
    assert (payload["odd_degrees"], payload["even_degrees"], payload["heuristic"]) == ([], [], False)
    start = time.perf_counter()
    assert cli_process(["quotient", "--embedding", "big"], tmp_path).returncode == 0
    assert time.perf_counter() - start < 2


def test_records_that_share_a_group_text_share_one_group(tmp_path):
    # each distinct group text is parsed once per load: 20 copies of BIG_IDENTITY, one group and one degree list
    # per text read, took 0.68 s to load with a 105.8 MB peak (2-vCPU VM)
    copies = [dict(BIG_IDENTITY, id=f"big-{i}") for i in range(20)]
    edited_data(tmp_path, "embeddings.json", lambda data: data["embeddings"].extend(copies))
    start = time.perf_counter()
    catalog = load_catalog(tmp_path)
    assert time.perf_counter() - start < 1
    groups = [group for copy in copies for group in catalog.embedding(copy["id"])[1:3]]
    assert len({id(group) for group in groups}) == 1 and groups[0] == parse_group(BIG_IDENTITY["ambient"])


def test_no_loaded_diagram_record_holds_a_raw_json_object():
    # every stored object is read into a value type by its key table at load, none kept as the dict it was parsed to
    def walk(value, where):
        assert not isinstance(value, Mapping), where
        if isinstance(value, (tuple, frozenset)):
            for i, item in enumerate(value):
                walk(item, f"{where}[{i}]")

    for record in default_catalog().diagram_records():
        assert record.outcome is None or type(record.outcome) is ClassificationOutcome, record.id
        walk(record, record.id)


#: the parameterized records of an older embeddings.json; the four corank-2 families are now built in code
OLD_FAMILIES = [
    {"id": "su(m)/su(m-2)", "ambient": "SU(m)", "subgroup": "SU(m-2)", "param_min": 3, "map_ranks": "injective",
     "tags": ["block", "corank2", "m>=3"], "tags_at": {"4": ["multiple"]}},
    {"id": "spin(2m+1)/spin(2m-3)", "ambient": "Spin(2m+1)", "subgroup": "Spin(2m-3)", "param_min": 4,
     "map_ranks": "injective", "tags": ["block", "corank2", "m>=4"]},
    {"id": "sp(m)/sp(m-2)", "ambient": "Sp(m)", "subgroup": "Sp(m-2)", "param_min": 2, "map_ranks": "injective",
     "tags": ["block", "corank2", "m>=2"], "tags_at": {"3": ["multiple"]}},
    {"id": "spin(2m)/spin(2m-3)", "ambient": "Spin(2m)", "subgroup": "Spin(2m-3)", "param_min": 4,
     "map_ranks": "injective", "tags": ["block", "corank2", "m>=4"]},
]


def test_a_catalog_that_still_has_families_exits_2_from_every_catalog_reader(tmp_path, monkeypatch):
    # refused, not ignored: its families would otherwise be dropped without a word
    edited_data(tmp_path, "embeddings.json", lambda data: data.update(families=OLD_FAMILIES))
    monkeypatch.setenv("COHOMONE_DATA_DIR", str(tmp_path))
    for argv in CATALOG_READERS:
        result = run(argv)
        assert result.exit_code == 2, argv
        assert "embeddings.json has unknown key 'families'" in result.payload["error"], argv


@pytest.mark.parametrize("name", ["embeddings.json", "diagrams.json"])
def test_unsupported_version_rejected_at_load(tmp_path, name):
    assert default_catalog().version == 1
    with pytest.raises(Unsupported, match=name):
        load_catalog(edited_data(tmp_path, name, lambda data: data.update(version=2)))


def hilbert_steps(embedding):
    """The steps of its Hilbert series: the factors left after cancellation times (dim G/H + 1)."""
    numerator, denominator = hilbert_factors(embedding)
    return (len(numerator) + len(denominator)) * (embedding.ambient.dimension - embedding.subgroup.dimension + 1)


def test_the_hilbert_budget_admits_su100_over_t99_and_the_shipped_embeddings_far_inside_it(tmp_path):
    steps = {e.id: hilbert_steps(e) for e in default_catalog().embeddings() if e.ambient.rank == e.subgroup.rank}
    assert len(steps) == 21 and max(steps.values()) == steps["spin8-in-f4"] == 100
    su100 = {"id": "su100-t99", "ambient": "SU(100)", "subgroup": "T99", "map_ranks": {"1": 0}}
    catalog = load_catalog(edited_data(tmp_path, "embeddings.json", lambda data: data["embeddings"].append(su100)))
    assert hilbert_steps(catalog.embedding("su100-t99")) == 1960398 <= HILBERT_STEP_BUDGET


def test_catalog_is_read_only():
    cat = default_catalog()
    assert not [name for name in dir(cat) if name.startswith("register")]
    with pytest.raises(AttributeError):
        cat._embeddings = {}
    with pytest.raises(TypeError):
        cat._embeddings["x"] = cat.embedding("su6-sp3")
    cat.embeddings().clear()  # a fresh list each call
    assert len(cat.embeddings()) == 51


def test_data_dir_override(tmp_path, monkeypatch):
    for name in ("embeddings.json", "diagrams.json"):
        shutil.copy(data_dir() / name, tmp_path / name)
    # drop one diagram in the override copy
    trimmed = json.loads((tmp_path / "diagrams.json").read_text())
    trimmed["diagrams"] = [d for d in trimmed["diagrams"] if d["id"] != "wu-s3s1"]
    (tmp_path / "diagrams.json").write_text(json.dumps(trimmed))
    monkeypatch.setenv("COHOMONE_DATA_DIR", str(tmp_path))
    cat = load_catalog()
    assert len(cat.diagram_records()) == 12
    with pytest.raises(InvalidDiagram):
        cat.diagram_record("wu-s3s1")


def test_lattice_lookup_scoped_by_group():
    cat = default_catalog()
    assert [e.id for e in cat.lattice_for(parse_group("SU(3)xSU(2)"))] == ["t5-l-su2su2"]
    assert cat.lattice_for(parse_group("G2")) == []
    # the lattice entries are the embeddings with contents
    assert [e.id for e in cat.embeddings() if e.contains] == ["t5-l-su2su2"]


def test_many_lattice_entries_of_one_group_are_indexed_in_linear_time():
    # each entry is appended to its group's list; extending a tuple per entry took 4 s for 40,000 (2-vCPU VM)
    su3 = parse_group("SU(3)")
    entries = {f"e{i:05d}": NamedEmbedding(f"e{i:05d}", su3, parse_group("T2"), contains=frozenset({"e00000"}))
               for i in range(40000)}
    start = time.perf_counter()
    catalog = Catalog(1, entries, {})
    assert time.perf_counter() - start < 1
    assert catalog.lattice_for(su3) == list(entries.values())
