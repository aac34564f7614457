
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomone.catalog import default_catalog
from cohomone.diagram import (
    GroupDiagram,
    double_disk_euler,
    gh_classify,
    mv_feasible,
    primitivity,
    validate,
)
from cohomone.errors import InvalidDiagram, InvalidLattice, InvalidParams
from cohomone.lie_catalog import GroupType, NamedEmbedding, parse_group
from cohomone.polynomial import IntegerPolynomial
from cohomone.classification import brieskorn_diagram

CAT = default_catalog()


def catalog_diagram(record_id):
    return CAT.diagram_record(record_id).diagram


def fixed_point_diagram():
    """K+ = K- = G with G/H a sphere (the two-fixed-point suspension shape)."""
    g = parse_group("SU(2)")
    identity = NamedEmbedding("su2-id", g, g, g.degree_counts)
    h = NamedEmbedding(
        "circle-in-su2-principal", g, parse_group("T1"), ((1, 0),),
        frozenset({"block", "proper-projections"}),
    )
    return GroupDiagram(
        g=g, h=h, k_minus=identity, k_plus=identity,
        h_in_k_minus=h, h_in_k_plus=h,
    )


# -- validation -----------------------------------------------------------------


def test_catalog_diagrams_validate():
    for record in CAT.diagram_records():
        assert validate(record.diagram) == [], record.id


def test_brieskorn_diagrams_validate():
    for m, d in [(3, 1), (4, 5), (5, 3), (6, 6), (6, 7)]:
        assert validate(brieskorn_diagram(m, d, "standard")) == [], (m, d)
    assert validate(brieskorn_diagram(8, 3, "spin7")) == []
    assert validate(brieskorn_diagram(7, 5, "g2")) == []


def unchecked(d, **changes):
    """``d._replace(**changes)`` built past the check of ``GroupDiagram``: a probe of a diagram the type refuses."""
    return tuple.__new__(GroupDiagram, [changes.pop(name, value) for name, value in zip(d._fields, d)])


def rules(d, **changes):
    """The rule ids of the violations of ``d`` with ``changes``; the checked constructor refuses it listing each."""
    violations = validate(unchecked(d, **changes))
    with pytest.raises(InvalidDiagram) as caught:
        d._replace(**changes)
    assert str(caught.value) == "; ".join(map(str, violations))
    return {v.rule for v in violations}


def test_zero_dimensional_fiber_rejected():
    d = catalog_diagram("case6-su3")
    t2 = parse_group("T2")
    witness = NamedEmbedding("t2-id", t2, t2, ((1, 2),), frozenset({"block"}))
    assert "fiber-dimension" in rules(d, k_plus=d.h, h_in_k_plus=witness)


def test_connectedness_rule_for_big_fibers():
    d = catalog_diagram("case6-sp3")  # both fibers are 4-spheres
    assert "connectedness" in rules(d, components_k_minus=2)


def test_component_pattern_for_single_circle_fiber():
    d = brieskorn_diagram(6, 3, "standard")  # counts (2, 1, 2)
    assert validate(d) == []
    assert "component-pattern" in rules(d, components_h=3)
    assert "component-pattern" in rules(d, components_k_minus=2)


def test_effectiveness_declaration_required():
    d = catalog_diagram("case6-su3")
    h_undeclared = NamedEmbedding("t2-in-su3-undeclared", d.h.ambient, d.h.subgroup, d.h.homotopy_map_ranks)
    assert "effectiveness-declaration" in rules(d, h=h_undeclared)


def test_sphere_recognition_failure_reported():
    d = catalog_diagram("su5-lambda2")
    # present H inside K+ through an inclusion of no sphere class: not a table sphere
    fake_witness = NamedEmbedding("sp1sp1-in-sp2-nonstd", parse_group("Sp(2)"), parse_group("Sp(1)xSp(1)"), ((3, 1),))
    assert "sphere-recognition" in rules(d, h_in_k_plus=fake_witness)


def test_shape_mismatch_reported():
    d = catalog_diagram("case6-su3")
    wrong = CAT.embedding("spin8-in-spin9")
    assert "containment-shape" in rules(d, h_in_k_plus=wrong)


def test_fixed_point_diagram_is_valid():
    assert validate(fixed_point_diagram()) == []


# -- fiber-case classification -----------------------------------------------------


def case_dims(ell_minus, ell_plus, h, fiber=None):
    return [(r.case_index, r.forced_dim) for r in gh_classify(ell_minus, ell_plus, h, fiber)]


def test_gh_examples():
    assert case_dims(3, 2, 0) == [(4, 11)]
    assert case_dims(1, 1, 2) == [(1, 7)]
    assert case_dims(5, 1, 1) == [(3, 13)]
    assert case_dims(4, 4, 0, "sp3-mod-sp1cubed") == [(4, 9), (5, 5), (6, 13)]


def test_gh_no_compatible_case():
    assert case_dims(4, 1, 1) == []  # even fiber over a circle, one flip
    assert case_dims(3, 3, 2) == []
    assert case_dims(2, 5, 1) == []


def test_gh_symmetry_in_fiber_labels():
    for ell_minus in range(1, 12):
        for ell_plus in range(1, 12):
            for h in (0, 1, 2):
                assert case_dims(ell_minus, ell_plus, h) == case_dims(ell_plus, ell_minus, h)


def test_gh_case6_all_fibers_listed_at_ell_2():
    results = gh_classify(2, 2, 0)
    sixes = [(r.fiber_model, r.forced_dim) for r in results if r.case_index == 6]
    assert [dim for _, dim in sixes] == [7, 9, 13]
    assert case_dims(8, 8, 0, "f4-mod-spin8")[-1] == (6, 25)


def test_gh_forced_dims_always_odd_small_grid():
    for ell_minus in range(1, 21):
        for ell_plus in range(1, 21):
            for h in (0, 1, 2):
                for r in gh_classify(ell_minus, ell_plus, h):
                    assert r.forced_dim % 2 == 1


def test_gh_rejects_bad_input():
    with pytest.raises(InvalidParams):
        gh_classify(0, 1, 0)
    with pytest.raises(InvalidParams):
        gh_classify(1, 1, 3)
    with pytest.raises(InvalidParams, match="unknown fiber tag 'sp3-mod-sp1cube'"):
        gh_classify(4, 4, 0, "sp3-mod-sp1cube")


def equal_parity_product_diagram():
    """Equal-parity orientable diagram whose total space is the forced sphere.

    SU(2) x SU(2) over a torus with the two obvious sphere projections;
    G/H is S^2 x S^2-like, total space dimension 2 + 2 + 1.
    """
    g = parse_group("SU(2)xSU(2)")
    u2 = parse_group("U(2)")
    h = NamedEmbedding("t2-in-su2su2", g, parse_group("T2"), ((1, 0),), frozenset({"proper-projections"}))
    k_minus = NamedEmbedding("su2t1-a", g, u2, ((1, 0), (3, 1)), frozenset({"block"}))
    k_plus = NamedEmbedding("su2t1-b", g, u2, ((1, 0), (3, 1)), frozenset({"block"}))
    witness = CAT.embedding("t2-in-u2")
    return GroupDiagram(g=g, h=h, k_minus=k_minus, k_plus=k_plus,
                        h_in_k_minus=witness, h_in_k_plus=witness)


def test_case4_equal_parity_orbit_dimensions():
    # diagrams whose total dimension equals the equal-parity forced value
    # satisfy dim G/K+ + dim G/K- = dim G/H
    candidates = [r.diagram for r in CAT.diagram_records()] + [equal_parity_product_diagram()]
    matched = 0
    for d in candidates:
        if validate(d) or d.nonorientable_count:
            continue
        if d.ell_minus % 2 != d.ell_plus % 2:
            continue
        if d.manifold_dim != d.ell_minus + d.ell_plus + 1:
            continue
        matched += 1
        dim_h = d.g.dimension - d.h.subgroup.dimension
        dim_kp = d.g.dimension - d.k_plus.subgroup.dimension
        dim_km = d.g.dimension - d.k_minus.subgroup.dimension
        assert dim_kp + dim_km == dim_h
    assert matched >= 1


# -- primitivity ----------------------------------------------------------------------


def test_primitivity_witness_on_row3():
    d = catalog_diagram("t5-row3")
    result = primitivity(d, CAT.lattice_for(d.g))
    assert result.verdict == "non-primitive"
    assert result.witness == "t5-l-su2su2"


def test_primitivity_no_witness_is_unknown():
    d = catalog_diagram("t5-row1")
    assert primitivity(d, CAT.lattice_for(d.g)).verdict == "unknown"
    assert (
        primitivity(d, CAT.lattice_for(d.g), assert_rational_sphere=True).verdict
        == "primitive-required"
    )


def test_primitivity_with_full_singular_group():
    d = fixed_point_diagram()
    assert primitivity(d, []).verdict == "primitive-required"


def test_primitivity_brieskorn_against_shipped_lattice():
    d = brieskorn_diagram(6, 4, "standard")
    assert primitivity(d, CAT.lattice_for(d.g)).verdict == "unknown"


def test_primitivity_rejects_foreign_lattice_entry():
    d = catalog_diagram("case6-su3")
    foreign = CAT.embedding("t5-l-su2su2")
    with pytest.raises(InvalidLattice):
        primitivity(d, [foreign])


# -- equivalence: the canonical descriptor and catalog matching -------------------------


def test_equivalence_moves():
    d = catalog_diagram("t5-row1")
    record = CAT.matching_record(d)
    assert record is not None and record.id == "t5-row1"
    assert d.descriptor() != d.swap().descriptor()
    assert d.canonical_descriptor() == d.swap().canonical_descriptor()
    assert CAT.matching_record(d.swap()) is record
    other = catalog_diagram("t5-row5")
    assert other.canonical_descriptor() != d.canonical_descriptor()
    assert CAT.matching_record(other).id == "t5-row5"


def test_equivalence_swap_applied_to_both_sides():
    d1, d2 = catalog_diagram("t5-row1"), catalog_diagram("t5-row5")
    assert d1.swap().canonical_descriptor() != d2.swap().canonical_descriptor()
    assert d1.swap().canonical_descriptor() != d2.canonical_descriptor()
    assert [CAT.matching_record(d.swap()).id for d in (d1, d2)] == ["t5-row1", "t5-row5"]


# -- Euler characteristic of the decomposition ----------------------------------------------


def test_double_disk_euler_case6():
    for record_id, dim in (("case6-su3", 7), ("case6-f4", 25)):
        d = catalog_diagram(record_id)
        assert (double_disk_euler(d), d.manifold_dim) == (0, dim)
        assert double_disk_euler(d) == 1 + (-1) ** d.manifold_dim


def test_double_disk_euler_fixed_points():
    # two fixed points over an even sphere orbit: chi = 1 + 1 - 2 = 0 = chi(S^3)
    d = fixed_point_diagram()
    assert (double_disk_euler(d), d.manifold_dim, 1 + (-1) ** d.manifold_dim) == (0, 3, 0)


def test_double_disk_euler_odd_orbit_suspension():
    g = parse_group("SU(2)")
    identity = NamedEmbedding("su2-id", g, g, g.degree_counts)
    trivial = NamedEmbedding(
        "trivial-in-su2", g, GroupType(), (), frozenset({"proper-projections"})
    )
    witness = NamedEmbedding("trivial-in-su2-w", g, GroupType(), (), frozenset({"block"}))
    d = GroupDiagram(
        g=g, h=trivial, k_minus=identity, k_plus=identity,
        h_in_k_minus=witness, h_in_k_plus=witness,
    )
    # chi = 1 + 1 - 0 over the 3-sphere orbit; total space is S^4
    assert (double_disk_euler(d), d.manifold_dim, 1 + (-1) ** d.manifold_dim) == (2, 4, 2)


# -- Mayer-Vietoris feasibility ------------------------------------------------------------


def P(*coeffs):
    return IntegerPolynomial(coeffs)


def test_mv_feasible_examples():
    result = mv_feasible(P(1, 0, 0, 2, 0, 0, 1), P(1, 0, 0, 1), P(1, 0, 0, 1), 7)
    assert result.verdict == "feasible" and result.failing_degree is None

    result = mv_feasible(P(1, 0, 0, 1), P(1, 0, 1), P(1, 0, 1), 5)
    assert result.verdict == "infeasible"
    assert result.failing_degree == 2

    # suspension shape: two points over a rational 4-sphere boundary
    result = mv_feasible(P(1, 0, 0, 0, 1), P(1), P(1), 5)
    assert result.verdict == "feasible"


def test_mv_rank_profile_solves_the_system():
    p_h, p_kp, p_km, n = P(1, 0, 2, 0, 2, 0, 1), P(1, 0, 1, 0, 1), P(1, 0, 1, 0, 1), 7
    result = mv_feasible(p_h, p_kp, p_km, n)
    assert result.verdict == "feasible"
    delta_prev = 0
    for k, (r, s, delta) in enumerate(result.rank_profile):
        b_m = 1 if k in (0, n) else 0
        assert b_m == delta_prev + r
        assert p_kp.coefficient(k) + p_km.coefficient(k) == r + s
        assert p_h.coefficient(k) == s + delta
        delta_prev = delta


def test_mv_alternating_sum_identity_when_feasible():
    cases = [
        (P(1, 0, 2, 0, 2, 0, 1), P(1, 0, 1, 0, 1), P(1, 0, 1, 0, 1), 7),
        (P(1, 0, 0, 2, 0, 0, 1), P(1, 0, 0, 1), P(1, 0, 0, 1), 7),
        (P(1, 1, 0, 1, 1), P(1, 0, 0, 1), P(1, 1), 5),
    ]
    for p_h, p_kp, p_km, n in cases:
        assert mv_feasible(p_h, p_kp, p_km, n).verdict == "feasible"
        top = max(p_h.degree, p_kp.degree, p_km.degree)
        lhs = sum(
            (-1) ** k * (p_kp.coefficient(k) + p_km.coefficient(k) - p_h.coefficient(k))
            for k in range(top + 1)
        )
        assert lhs == 1 + (-1) ** n


def mv_brute_force(p_h, p_kp, p_km, n):
    """Is there any non-negative (r_k, s_k, delta_k) for every degree k that solves the exactness system?

    Each rank is tried over its whole range: r_k and s_k up to b_k(K+) + b_k(K-), delta_k up to b_k(H).
    Above the top degree every Betti number is zero, which forces the last delta to be zero.
    """
    top = max(n, p_h.degree, p_kp.degree, p_km.degree) + 1

    def search(k, delta_prev):
        if k > top:
            return delta_prev == 0
        b_m, b_k, b_h = 1 if k in (0, n) else 0, p_kp.coefficient(k) + p_km.coefficient(k), p_h.coefficient(k)
        return any(
            search(k + 1, delta)
            for r in range(b_k + 1) for s in range(b_k + 1) for delta in range(b_h + 1)
            if b_m == delta_prev + r and b_k == r + s and b_h == s + delta
        )

    return search(0, 0)


betti = st.lists(st.integers(0, 1), min_size=1, max_size=6).map(lambda c: IntegerPolynomial([1, *c]))


@settings(max_examples=300, deadline=None)
@given(betti, betti, betti, st.integers(1, 8))  # a few percent of the draws are feasible
def test_mv_feasible_agrees_with_brute_force(p_h, p_kp, p_km, n):
    assert (mv_feasible(p_h, p_kp, p_km, n).verdict == "feasible") == mv_brute_force(p_h, p_kp, p_km, n)


def test_mv_rejects_bad_input():
    with pytest.raises(InvalidParams):
        mv_feasible(P(1, -1), P(1), P(1), 3)
    with pytest.raises(InvalidParams):
        mv_feasible(P(1), P(1), P(1), 0)
