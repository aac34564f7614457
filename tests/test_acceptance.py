"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager

from cohomone.brieskorn import (
    BrieskornParams,
    delta_at_one,
    delta_poly,
    homology,
    rational_sphere_gate,
)
from cohomone.catalog import default_catalog
from cohomone.classification import (
    SevenFamilyParams,
    classify_diagram,
    enumerate_corank2,
    realize_torsion,
    seven_family_torsion,
    table3_filter,
)
from cohomone.cli import render, run
from cohomone.diagram import double_disk_euler, gh_classify, mv_feasible
from cohomone.lie_catalog import transitive_sphere_pairs
from cohomone.polynomial import IntegerPolynomial
from cohomone.rational_homotopy import euler_characteristic, hilbert_series
from cohomone.verify import orbit_betti

CAT = default_catalog()


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.3f}s (budget {budget_seconds}s)"
    print(f"PASS criterion {number} [{elapsed:.3f}s < {budget_seconds}s]: {description}")


def test_criterion_1_table1_dimensions():
    with criterion(1, "transitive-sphere table: dim G - dim H = sphere dim for m <= 12", 1.0):
        rows = transitive_sphere_pairs(12)
        assert len({row.family for row in rows}) == 9
        for row in rows:
            assert row.group.dimension - row.isotropy.dimension == row.sphere_dim


def test_criterion_2_corank2_table():
    with criterion(2, "corank-2 table at rank 9: exactly 13 families, all columns match", 10.0):
        rows = enumerate_corank2(9, CAT)
        assert len({r.family for r in rows}) == 13

        sporadic = {
            "su6-so6": (9, 11, 2),
            "su6-sp3": (5, 9, 4),
            "su5-sp2": (5, 9, 4),
            "spin9-sp2": (11, 15, 4),
            "spin9-g2": (7, 15, 8),
            "spin8-g2": (7, 7, 0),
            "e6-f4": (9, 17, 8),
            "f4-g2": (15, 23, 8),
            "g2-trivial": (3, 11, 8),
        }
        closed_forms = {
            "su(m)/su(m-2)": lambda m: (2 * m - 3, 2 * m - 1, 2),
            "spin(2m+1)/spin(2m-3)": lambda m: (4 * m - 5, 4 * m - 1, 4),
            "sp(m)/sp(m-2)": lambda m: (4 * m - 5, 4 * m - 1, 4),
            "spin(2m)/spin(2m-3)": lambda m: (2 * m - 1, 4 * m - 5, 2 * m - 4),
        }
        ranges = {
            "su(m)/su(m-2)": range(3, 11),
            "spin(2m+1)/spin(2m-3)": range(4, 10),
            "sp(m)/sp(m-2)": range(2, 10),
            "spin(2m)/spin(2m-3)": range(4, 10),
        }
        expected = {(fam, None): cols for fam, cols in sporadic.items()}
        for fam, rng in ranges.items():
            for m in rng:
                expected[(fam, m)] = closed_forms[fam](m)
        computed = {(r.family, r.param): (r.ell_minus, r.total, r.ell_plus) for r in rows}
        assert computed == expected
        assert computed[("spin8-g2", None)] == (7, 7, 0)


def test_criterion_3_table3_filter():
    with criterion(3, "transitive-fiber filter keeps exactly the 6 surviving families", 1.0):
        kept = table3_filter(enumerate_corank2(9, CAT))
        families = {r.family for r in kept}
        assert families == {
            "su(m)/su(m-2)", "su5-sp2", "spin(2m+1)/spin(2m-3)",
            "spin9-sp2", "sp(m)/sp(m-2)", "spin(2m)/spin(2m-3)",
        }
        ids = {r.embedding_id for r in kept}
        assert ids == {
            "su(m)/su(m-2)@m=4", "su5-sp2", "spin(2m+1)/spin(2m-3)@m=4",
            "spin9-sp2", "sp(m)/sp(m-2)@m=4",
        } | {f"spin(2m)/spin(2m-3)@m={m}" for m in range(4, 10)}


def test_criterion_4_brieskorn_grid():
    with criterion(4, "Brieskorn grid 3<=m<=10, 1<=d<=50: delta, homology, gate", 2.0):
        for m in range(3, 11):
            for d in range(1, 51):
                p = BrieskornParams(m, d)
                assert delta_poly(p)(1) == delta_at_one(p)
                h = homology(p)
                ranks = {e.degree: e.free_rank for e in h.entries}
                top = p.sphere_dim
                assert ranks.get(0, 0) == 1 and ranks.get(top, 0) == 1
                if m % 2 == 0:
                    expected_middle = () if d == 1 else (d,)
                    assert h.torsion(m - 1) == expected_middle
                    assert ranks.get(m - 1, 0) == 0 and h.entry(m) is None
                elif d % 2 == 0:
                    assert ranks.get(m - 1, 0) == 1 and ranks.get(m, 0) == 1
                else:
                    assert h.entry(m - 1) is None and h.entry(m) is None
                if m == 4:
                    torsion = h.torsion(3)
                    order = torsion[0] if torsion else 1
                    assert order == d
                assert h.is_rational_sphere(top) == rational_sphere_gate(p)
                assert rational_sphere_gate(p) == (m % 2 == 0 or d % 2 == 1)


def test_criterion_5_seven_family():
    with criterion(5, "seven-family torsion: realize/measure round trip for t <= 1000", 1.0):
        for t in range(1, 1001):
            params = realize_torsion(t)
            assert seven_family_torsion(params) == t
            for v in (params.p_minus, params.q_minus, params.p_plus, params.q_plus):
                assert v % 4 == 1
        values = (-7, -3, 1, 5, 9)
        for p_minus in values:
            for p_plus in values:
                params = SevenFamilyParams(p_minus, 1, p_plus, 1)
                vanishes = p_minus**2 == p_plus**2
                assert (seven_family_torsion(params) == 0) == vanishes


def test_criterion_6_gh_classifier():
    with criterion(6, "fiber cases: forced dimensions match and are odd for l <= 50", 1.0):
        case6_dims = {"su3": 7, "sp2": 9, "g2": 13, "sp3": 13, "f4": 25}
        assert sorted(case6_dims.values()) == [7, 9, 13, 13, 25]
        for ell_minus in range(1, 51):
            for ell_plus in range(1, 51):
                for h in (0, 1, 2):
                    for result in gh_classify(ell_minus, ell_plus, h):
                        assert result.forced_dim % 2 == 1
                        lo, hi = sorted((ell_minus, ell_plus))
                        if result.case_index == 1:
                            assert result.forced_dim == 7
                        elif result.case_index == 2:
                            assert result.forced_dim == 5
                        elif result.case_index == 3:
                            assert result.forced_dim == 2 * hi + 3
                        elif result.case_index == 4:
                            same = ell_minus % 2 == ell_plus % 2
                            total = ell_minus + ell_plus
                            assert result.forced_dim == (total + 1 if same else 2 * total + 1)
                        elif result.case_index == 5:
                            assert result.forced_dim == ell_minus + 1
                        else:
                            assert result.forced_dim in (7, 9, 13, 25)
        assert [(r.case_index, r.forced_dim) for r in gh_classify(3, 2, 0)] == [(4, 11)]


def test_criterion_7_equal_rank_invariants():
    with criterion(7, "equal-rank Euler data and vanishing decomposition characteristic", 1.0):
        expected_chi = {
            "t2-in-su3": 6,
            "t2-in-sp2": 8,
            "t2-in-g2": 12,
            "sp1cubed-in-sp3": 6,
            "spin8-in-f4": 6,
        }
        for embedding_id, chi in expected_chi.items():
            assert euler_characteristic(CAT.embedding(embedding_id)) == chi
        for emb in CAT.embeddings():
            if emb.subgroup.rank != emb.ambient.rank:
                continue
            assert hilbert_series(emb)(1) == euler_characteristic(emb), emb.id
        for record in CAT.diagram_records():
            if record.diagram.manifold_dim % 2 == 1:
                assert double_disk_euler(record.diagram) == 0, record.id


def test_criterion_8_mv_feasibility():
    with criterion(8, "Mayer-Vietoris feasibility on shipped Betti data", 1.0):
        s3s3 = mv_feasible(
            IntegerPolynomial((1, 0, 0, 2, 0, 0, 1)),
            IntegerPolynomial((1, 0, 0, 1)),
            IntegerPolynomial((1, 0, 0, 1)),
            7,
        )
        assert s3s3.verdict == "feasible"
        for record in CAT.diagram_records():
            if not record.rational_sphere:
                continue
            betti = orbit_betti(record)
            assert betti is not None, record.id
            result = mv_feasible(betti.p_h, betti.p_k_plus, betti.p_k_minus, betti.n)
            assert result.verdict == "feasible", record.id
            top = max(betti.p_h.degree, betti.p_k_plus.degree, betti.p_k_minus.degree)
            alternating = sum(
                (-1) ** k
                * (betti.p_k_plus.coefficient(k) + betti.p_k_minus.coefficient(k) - betti.p_h.coefficient(k))
                for k in range(top + 1)
            )
            assert alternating == 1 + (-1) ** betti.n, record.id
        counter = mv_feasible(
            IntegerPolynomial((1, 0, 0, 1)),
            IntegerPolynomial((1, 0, 1)),
            IntegerPolynomial((1, 0, 1)),
            5,
        )
        assert counter.verdict == "infeasible" and counter.failing_degree == 2


def test_criterion_9_five_diagram_catalog():
    with criterion(9, "five-diagram catalog outcomes, invariant under the swap move", 1.0):
        expected = {
            "t5-row1": ("g2-quotient", 3),
            "t5-row2": ("not-rational-sphere", None),
            "t5-row3": ("not-rational-sphere", None),
            "t5-row4": ("linear-sphere", None),
            "t5-row5": ("g2-quotient", 1),
        }
        for record_id, (kind, index) in expected.items():
            diagram = CAT.diagram_record(record_id).diagram
            outcome = classify_diagram(diagram, CAT)
            assert outcome.kind == kind, record_id
            if index is not None:
                assert outcome.index == index
            assert classify_diagram(diagram.swap(), CAT) == outcome, record_id
        assert "tensor" in classify_diagram(CAT.diagram_record("t5-row4").diagram, CAT).description


def test_criterion_10_cli_determinism():
    with criterion(10, "verify-tables exits 0 with byte-identical reports", 60.0):
        first = run(["verify-tables"])
        second = run(["verify-tables"])
        assert first.exit_code == 0 and second.exit_code == 0
        assert first.payload["summary"]["ok"] is True
        assert render(first.payload) == render(second.payload)
