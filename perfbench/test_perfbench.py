"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cohomone  # noqa: E402
import cohomone.diagram  # noqa: E402
import cohomone.lie_catalog  # noqa: E402
from cohomone.cli import render, run  # noqa: E402
from cohomone.polynomial import IntegerPolynomial  # noqa: E402

from tracing import Tracer, self_times  # noqa: E402
from workloads import MALFORMED_COMMANDS, MALFORMED_DOCUMENTS, WORKLOADS, Op, golden  # noqa: E402


def test_self_time_subtracts_child_coverage():
    spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["mid", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["mid", 5.0, 8.0, 0, 0],
        ["leaf", 6.0, 9.0, 3, 0],  # overruns its parent: only [6, 8] is covered
    ]
    stats = self_times(spans)
    assert stats["outer"] == [1, 10.0 - 3.0 - 3.0]
    assert stats["mid"] == [2, (3.0 - 1.0) + (3.0 - 2.0)]
    assert stats["leaf"] == [2, 1.0 + 3.0]


def test_self_time_merges_overlapping_children():
    spans = [["p", 0.0, 10.0, -1, 0], ["c", 1.0, 5.0, 0, 0], ["c", 3.0, 6.0, 0, 0]]
    assert self_times(spans)["p"] == [1, 10.0 - 5.0]


def test_same_seed_gives_same_plan():
    for workload in WORKLOADS.values():
        first, again, other = (workload.plan(seed, 3) for seed in (7, 7, 8))
        assert first.ops == again.ops and first.documents == again.documents, workload.name
        if workload.name != "verify-tables":  # the same report every time, by design
            assert first.ops != other.ops, workload.name


def test_oracles_reject_corrupted_results(tmp_path):
    stream = WORKLOADS["classify-stream"]
    op = Op("classify", ("classify", "d.json"), {"exit": 0, "fields": {"outcome": {"kind": "brieskorn", "m": 6, "d": 4}}})
    good = run(["classify", "--diagram", _document(tmp_path, '{"family": "brieskorn", "m": 6, "d": 4}')])
    assert stream.check(op, good)
    bad = type(good)(0, {**good.payload, "outcome": {"kind": "brieskorn", "m": 6, "d": 5}})
    assert not stream.check(op, bad)
    assert not stream.check(op, type(good)(2, {"error": "x"}))

    report = cohomone.verify.build_report(cohomone.load_catalog())
    verify = WORKLOADS["verify-tables"]
    assert verify.check(Op("build_report", ()), report)
    report["checks"][0]["computed"] = -1
    assert not verify.check(Op("build_report", ()), report)


def test_cli_oracle_rejects_wrong_payload_and_exit_code():
    cold = WORKLOADS["cli-cold"]
    for op in cold.plan(3, 5).ops:
        if op.label == "brieskorn" and op.expect["exit"] == 0:
            break
    result = run(list(op.args))
    text = render(result.payload)
    ok = subprocess.CompletedProcess(op.args, 0, text, "")
    assert cold.check(op, ok)
    assert not cold.check(op, subprocess.CompletedProcess(op.args, 0, text.replace('"delta_at_one": ', '"delta_at_one": 1'), ""))
    assert not cold.check(op, subprocess.CompletedProcess(op.args, 1, text, ""))


def test_every_seed_sends_every_known_defect_input():
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    for workload, kinds in ((WORKLOADS["classify-stream"], MALFORMED_DOCUMENTS),
                            (WORKLOADS["cli-cold"], MALFORMED_COMMANDS)):
        shares = set()
        for seed in range(1, 21):
            ops = workload.plan_run(seed, seconds).ops
            known = [op for op in ops if op.known_defect]
            assert all(op.expect == {"exit": 2} for op in known)  # counted as failed, not hidden
            assert len({op.args[1:] for op in known}) == sum(k for _, k in kinds.values()), (workload.name, seed)
            shares.add(len(known) / len(ops))
        assert len(shares) == 1, workload.name  # the same known-defect share on every seed


def test_wrappers_patch_every_binding_and_restore_them():
    original = cohomone.lie_catalog.sphere_quotient
    method = IntegerPolynomial.__dict__["divmod"]
    assert cohomone.diagram.sphere_quotient is original and cohomone.sphere_quotient is original
    tracer = Tracer()
    tracer.install()
    try:
        for module in (cohomone, cohomone.diagram, cohomone.lie_catalog):
            assert module.sphere_quotient is not original
            assert module.sphere_quotient.__wrapped__ is original
        tracer.op = 0
        cohomone.delta_poly(cohomone.BrieskornParams(4, 5))
    finally:
        tracer.restore()
    for module in (cohomone, cohomone.diagram, cohomone.lie_catalog):
        assert module.sphere_quotient is original
    assert IntegerPolynomial.__dict__["divmod"] is method
    names = [span[0] for span in tracer.spans]
    assert names == ["brieskorn.delta_poly", "polynomial.IntegerPolynomial.divmod"]
    assert tracer.spans[1][3] == 0 and tracer.counters["brieskorn.delta_poly.coeffs_out"] == 5


def test_golden_matches_current_program():
    assert set(golden()["diagrams"]) == {r.id for r in cohomone.default_catalog().diagram_records()}


def _document(tmp_path: Path, text: str) -> str:
    path = tmp_path / "d.json"
    path.write_text(text)
    return str(path)
