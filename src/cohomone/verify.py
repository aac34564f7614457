"""One-shot verification of every shipped table and closed-form invariant.

Builds a machine-readable report with one record per checked cell:
expected value (from embedded data or a closed form), computed value,
and a match flag.  The report is deterministic: fixed ordering, no
timestamps, plain JSON-serializable values.
"""

from __future__ import annotations

import time
from itertools import zip_longest
from typing import Optional

from .brieskorn import BrieskornParams, delta_at_one, delta_poly, homology, rational_sphere_gate
from .catalog import Catalog, DiagramRecord, OrbitBetti, default_catalog
from .classification import (
    SevenFamilyParams,
    case6_pairs,
    classify_diagram,
    enumerate_corank2,
    realize_torsion,
    seven_family_torsion,
    table3_filter,
)
from .diagram import double_disk_euler, gh_classify, mv_feasible
from .lie_catalog import NamedEmbedding, transitive_sphere_pairs
from .polynomial import IntegerPolynomial
from .rational_homotopy import euler_characteristic, hilbert_series, odd_product_poincare


# the ranges every report checks
_TABLE1_MAX_M = 12
_TABLE2_MAX_RANK = 9
_BRIESKORN_M, _BRIESKORN_D = range(3, 11), range(1, 51)
_SEVEN_FAMILY_T_MAX = 1000
_GH_ELL_MAX = 50


def _check(checks: list, check_id: str, expected, computed) -> None:
    checks.append(
        {
            "id": check_id,
            "expected": expected,
            "computed": computed,
            "match": expected == computed,
        }
    )


# -- Table 1 ----------------------------------------------------------------


def _check_table1(checks: list, catalog: Catalog) -> None:
    rows = transitive_sphere_pairs(_TABLE1_MAX_M)
    families = sorted({row.family for row in rows})
    _check(checks, "table1/family-count", 9, len(families))
    for row in rows:
        tag = f"table1/{row.family}" + (f"/m={row.m}" if row.m is not None else "")
        _check(
            checks,
            tag,
            row.sphere_dim,
            row.group.dimension - row.isotropy.dimension,
        )


# -- Tables 2 and 3 -----------------------------------------------------------

# expected (ell_minus, ell_minus + ell_plus, ell_plus) per sporadic pair
_TABLE2_SPORADIC = {
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

# family -> (min m, ambient rank in m, expected columns in m)
_TABLE2_FAMILIES = {
    "su(m)/su(m-2)": (3, lambda m: m - 1, lambda m: (2 * m - 3, 2 * m - 1, 2)),
    "spin(2m+1)/spin(2m-3)": (4, lambda m: m, lambda m: (4 * m - 5, 4 * m - 1, 4)),
    "sp(m)/sp(m-2)": (2, lambda m: m, lambda m: (4 * m - 5, 4 * m - 1, 4)),
    "spin(2m)/spin(2m-3)": (4, lambda m: m, lambda m: (2 * m - 1, 4 * m - 5, 2 * m - 4)),
}

_TABLE3_EXPECTED = {
    ("su(m)/su(m-2)", 4),
    ("su5-sp2", None),
    ("spin(2m+1)/spin(2m-3)", 4),
    ("spin9-sp2", None),
    ("sp(m)/sp(m-2)", 4),
    ("spin(2m)/spin(2m-3)", 4),
    ("spin(2m)/spin(2m-3)", 5),
    ("spin(2m)/spin(2m-3)", 6),
    ("spin(2m)/spin(2m-3)", 7),
    ("spin(2m)/spin(2m-3)", 8),
    ("spin(2m)/spin(2m-3)", 9),
}


def _expected_table2() -> dict[tuple[str, Optional[int]], tuple[int, int, int]]:
    expected: dict[tuple[str, Optional[int]], tuple[int, int, int]] = {
        (fam, None): cols for fam, cols in _TABLE2_SPORADIC.items()
    }
    for fam, (m, rank_of, columns) in _TABLE2_FAMILIES.items():
        while rank_of(m) <= _TABLE2_MAX_RANK:
            expected[(fam, m)] = columns(m)
            m += 1
    return expected


def _check_tables23(checks: list, catalog: Catalog) -> None:
    rows = enumerate_corank2(_TABLE2_MAX_RANK, catalog)
    computed = {(r.family, r.param): (r.ell_minus, r.total, r.ell_plus) for r in rows}
    expected = _expected_table2()
    _check(checks, "table2/family-count", 13, len({fam for fam, _ in computed}))
    for key in sorted(expected, key=lambda k: (k[0], k[1] or 0)):
        fam, param = key
        tag = f"table2/{fam}" + (f"/m={param}" if param is not None else "")
        _check(checks, tag, list(expected[key]), list(computed.get(key, ())))
    extras = sorted(set(computed) - set(expected), key=lambda k: (k[0], k[1] or 0))
    _check(checks, "table2/no-extra-rows", [], [f"{fam}@{param}" for fam, param in extras])
    kept = table3_filter(rows)
    computed = sorted(
        (r.family, r.param if r.param is not None else -1) for r in kept
    )
    expected = sorted((fam, param if param is not None else -1) for fam, param in _TABLE3_EXPECTED)
    _check(checks, "table3/rows", [list(e) for e in expected], [list(c) for c in computed])
    _check(checks, "table3/family-count", 6, len({fam for fam, _ in computed}))


# -- the five eleven-sphere diagrams ------------------------------------------

_TABLE5_EXPECTED = {
    "t5-row1": {"kind": "g2-quotient", "index": 3},
    "t5-row2": {"kind": "not-rational-sphere"},
    "t5-row3": {"kind": "not-rational-sphere"},
    "t5-row4": {"kind": "linear-sphere"},
    "t5-row5": {"kind": "g2-quotient", "index": 1},
}


def _check_table5(checks: list, catalog: Catalog) -> None:
    for record_id, expected in sorted(_TABLE5_EXPECTED.items()):
        record = catalog.diagram_record(record_id)
        outcome = classify_diagram(record.diagram, catalog).as_dict()
        swapped = classify_diagram(record.diagram.swap(), catalog).as_dict()
        computed = {k: outcome.get(k) for k in expected}
        _check(checks, f"table5/{record_id}", expected, computed)
        _check(checks, f"table5/{record_id}/swap-invariant", outcome, swapped)


# -- Brieskorn grid -----------------------------------------------------------


def _check_brieskorn(checks: list, catalog: Catalog) -> None:
    mismatches = []
    gate_mismatches = []
    order_mismatches = []
    for m in _BRIESKORN_M:
        bottom, top = (0, 1, ()), (2 * m - 1, 1, ())
        free_middle = ((m - 1, 1, ()), (m, 1, ()))
        for d in _BRIESKORN_D:
            p = BrieskornParams(m, d)
            groups = homology(p)
            at_one = delta_poly(p)(1)
            if at_one != delta_at_one(p):
                mismatches.append([m, d, "delta"])
            # derived from Delta(1): Z in degrees m-1 and m when it is 0, else Z/|Delta(1)| in degree m-1 (none if 1)
            middle = free_middle if at_one == 0 else ((m - 1, 0, (abs(at_one),)),) if abs(at_one) > 1 else ()
            if groups.entries != (bottom, *middle, top):
                mismatches.append([m, d, "homology"])
            if groups.is_rational_sphere(p.sphere_dim) != rational_sphere_gate(p):
                gate_mismatches.append([m, d])
            if m == 4:
                torsion = groups.torsion(3)
                order = torsion[0] if torsion else 1
                if order != d:
                    order_mismatches.append([m, d])
    _check(checks, "brieskorn/delta-and-homology-grid", [], mismatches)
    _check(checks, "brieskorn/rational-sphere-gate", [], gate_mismatches)
    _check(checks, "brieskorn/middle-order-at-m=4", [], order_mismatches)


# -- seven-manifold family -----------------------------------------------------


def _check_seven_family(checks: list, catalog: Catalog) -> None:
    bad = []
    for t in range(1, _SEVEN_FAMILY_T_MAX + 1):
        params = realize_torsion(t)
        if seven_family_torsion(params) != t:
            bad.append(t)
        for v in params:
            if v % 4 != 1:
                bad.append(t)
    _check(checks, "seven-family/roundtrip", [], bad)
    flat = SevenFamilyParams(1, 1, 1, 1)
    _check(checks, "seven-family/degenerate-r", 0, seven_family_torsion(flat))


# -- fiber-case classifier ------------------------------------------------------


def _check_gh(checks: list, catalog: Catalog) -> None:
    parity_failures = []
    formula_failures = []
    for ell_minus in range(1, _GH_ELL_MAX + 1):
        for ell_plus in range(1, _GH_ELL_MAX + 1):
            # derived from the loop factor loops(S^N): case 4's map hits its top class, degree N (odd) or 2N-1 (even)
            loop = ell_minus + ell_plus + 1
            want = loop if loop % 2 else 2 * loop - 1
            for h in (0, 1, 2):
                for case_index, forced_dim, _ in gh_classify(ell_minus, ell_plus, h):
                    if forced_dim % 2 == 0:
                        parity_failures.append([ell_minus, ell_plus, h, case_index])
                    if case_index == 4 and forced_dim != want:
                        formula_failures.append([ell_minus, ell_plus, h])
    _check(checks, "gh/all-forced-dims-odd", [], parity_failures)
    _check(checks, "gh/case4-parity-dichotomy", [], formula_failures)
    g2_query = [(r.case_index, r.forced_dim) for r in gh_classify(3, 2, 0)]
    _check(checks, "gh/query-3-2-0", [[4, 11]], [list(x) for x in g2_query])
    case6 = gh_classify(4, 4, 0, fiber_hint="sp3-mod-sp1cubed")
    _check(
        checks,
        "gh/query-4-4-0-hinted",
        [[4, 9], [5, 5], [6, 13]],
        [[r.case_index, r.forced_dim] for r in case6],
    )


# -- equal-rank invariants -------------------------------------------------------

_EQUAL_RANK_EXPECTED = {
    "t2-in-su3": 6,
    "t2-in-sp2": 8,
    "t2-in-g2": 12,
    "sp1cubed-in-sp3": 6,
    "spin8-in-f4": 6,
}


def _check_equal_rank(checks: list, catalog: Catalog) -> None:
    for embedding_id, expected_chi in sorted(_EQUAL_RANK_EXPECTED.items()):
        embedding = catalog.embedding(embedding_id)
        _check(checks, f"equal-rank/chi/{embedding_id}", expected_chi, euler_characteristic(embedding))
    for embedding in catalog.embeddings():
        if embedding.subgroup.rank != embedding.ambient.rank:
            continue
        _check(
            checks,
            f"equal-rank/series-at-1/{embedding.id}",
            euler_characteristic(embedding),
            hilbert_series(embedding)(1),
        )
    for pair in case6_pairs():  # l is the lowest positive degree of H*(G/H), and case 6 forces dim G/H + 1
        series = hilbert_series(NamedEmbedding(pair.fiber_tag, pair.group, pair.isotropy)).coefficients
        ell = next((k for k in range(1, len(series)) if series[k]), 0)
        forced = pair.group.dimension - pair.isotropy.dimension + 1
        _check(checks, f"equal-rank/case6-fiber-dim/{pair.fiber_tag}", True,
               (pair.fiber_dim, pair.total_dim) == (ell, forced))
    for record in catalog.diagram_records():
        chi = double_disk_euler(record.diagram)
        if record.diagram.manifold_dim % 2:
            _check(checks, f"equal-rank/double-disk-euler/{record.id}", 0, chi)


# -- Mayer-Vietoris feasibility ---------------------------------------------------


def orbit_betti(record: DiagramRecord) -> Optional[OrbitBetti]:
    """Rational Betti polynomials of G/H and G/K+- of a catalogued diagram, with its dimension n.

    The record's stored data if it has any; else the Hilbert series of the three orbits at equal
    rank, or, when both singular orbits are orientable and the fibers S^l- and S^l+ have opposite
    parities, sphere products: G/H ~ S^l- x S^l+ x S^(l- + l+) and G/K-+ ~ S^l+- x S^(l- + l+).
    None in any other regime; ``mv-check`` takes Betti data of any regime from the command line.
    """
    if record.orbit_poincare is not None:
        return record.orbit_poincare
    d = record.diagram
    n = d.manifold_dim
    if d.h.subgroup.rank == d.g.rank:
        return OrbitBetti(*map(hilbert_series, d.orbit_inclusions()), n)
    if d.nonorientable_count == 0 and d.ell_minus % 2 != d.ell_plus % 2:
        total = d.ell_minus + d.ell_plus
        return OrbitBetti(odd_product_poincare((d.ell_minus, d.ell_plus, total)),
                          odd_product_poincare((d.ell_minus, total)), odd_product_poincare((d.ell_plus, total)), n)
    return None


def _check_mv(checks: list, catalog: Catalog) -> None:
    for record in catalog.diagram_records():
        if not record.rational_sphere:
            continue
        betti = orbit_betti(record)
        if betti is None:
            _check(checks, f"mv/feasible/{record.id}", "derivable", "no-betti-data")
            continue
        result = mv_feasible(betti.p_h, betti.p_k_plus, betti.p_k_minus, betti.n)
        _check(checks, f"mv/feasible/{record.id}", "feasible", result.verdict)
        columns = zip_longest(betti.p_h.coefficients, betti.p_k_plus.coefficients, betti.p_k_minus.coefficients,
                              fillvalue=0)
        lhs = sum((-1) ** k * (b_plus + b_minus - b_h) for k, (b_h, b_plus, b_minus) in enumerate(columns))
        rhs = 1 + (-1) ** betti.n
        _check(checks, f"mv/alternating-sum/{record.id}", rhs, lhs)
    counterexample = mv_feasible(
        IntegerPolynomial((1, 0, 0, 1)),
        IntegerPolynomial((1, 0, 1)),
        IntegerPolynomial((1, 0, 1)),
        5,
    )
    _check(checks, "mv/counterexample-verdict", "infeasible", counterexample.verdict)
    _check(checks, "mv/counterexample-degree", 2, counterexample.failing_degree)


# -- entry point -------------------------------------------------------------------


#: the report's sections, in report order; each appends its checks
_SECTIONS = (
    ("table1", _check_table1),
    ("tables2-3", _check_tables23),
    ("table5", _check_table5),
    ("brieskorn", _check_brieskorn),
    ("seven-family", _check_seven_family),
    ("gh", _check_gh),
    ("equal-rank", _check_equal_rank),
    ("mv", _check_mv),
)


def build_report(catalog: Optional[Catalog] = None, timings: Optional[dict] = None) -> dict:
    """Run every table/formula verification and assemble the report.

    A ``timings`` dict, when given, receives each section's wall time in
    seconds under its name in ``_SECTIONS``; the report is the same either way.
    """
    catalog = catalog or default_catalog()
    checks: list = []
    for name, section in _SECTIONS:
        start = time.perf_counter()
        section(checks, catalog)
        if timings is not None:
            timings[name] = time.perf_counter() - start
    failed = [c["id"] for c in checks if not c["match"]]
    return {
        "catalog_version": catalog.version,
        "checks": checks,
        "summary": {
            "total": len(checks),
            "passed": len(checks) - len(failed),
            "failed": failed,
            "ok": not failed,
        },
    }
