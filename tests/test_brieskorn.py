import sympy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from cohomone.brieskorn import (
    BrieskornParams,
    GradedAbelianGroup,
    HomologyEntry,
    delta_at_one,
    delta_poly,
    homology,
    rational_sphere_gate,
)
from cohomone.diagram import MAX_SPHERE_DIM
from cohomone.errors import InvalidParams, Unsupported
from cohomone.polynomial import IntegerPolynomial


def oracle_delta(m: int, d: int):
    """Monodromy polynomial straight from the product over d-th roots of unity.

    Delta(t) = prod_{w^d = 1, w != 1} (t - w (-1)^m), assembled as the
    resultant of x^(d-1) + ... + 1 (whose roots are exactly those w)
    against t - (-1)^m x.  Independent of the package's division route.
    """
    t, x = sympy.symbols("t x")
    cyclotomic_like = sum(x**i for i in range(d))
    sign = (-1) ** m
    res = sympy.resultant(cyclotomic_like, t - sign * x, x)
    poly = sympy.Poly(sympy.expand(res), t)
    return [int(c) for c in reversed(poly.all_coeffs())]


def test_delta_poly_examples():
    assert delta_poly(BrieskornParams(4, 3)).as_list() == [1, 1, 1]
    assert delta_poly(BrieskornParams(5, 2)).as_list() == [-1, 1]
    assert delta_poly(BrieskornParams(4, 1)).as_list() == [1]
    assert delta_poly(BrieskornParams(6, 1)).as_list() == [1]


def test_delta_poly_against_root_product_oracle():
    for m in range(3, 11):
        for d in range(1, 13):
            assert delta_poly(BrieskornParams(m, d)).as_list() == oracle_delta(m, d), (m, d)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 40), st.integers(1, 300))
def test_delta_poly_times_t_minus_s_is_t_to_the_d_minus_s_to_the_d(m, d):
    s = (-1) ** m
    product = delta_poly(BrieskornParams(m, d)) * IntegerPolynomial((-s, 1))
    assert product.coefficients == (-(s**d),) + (0,) * (d - 1) + (1,)


def test_delta_poly_degree():
    for m in (3, 4, 5):
        for d in (1, 2, 7, 12):
            assert delta_poly(BrieskornParams(m, d)).degree == d - 1


@pytest.mark.parametrize(
    "m, d, expected",
    [(4, 5, 5), (5, 4, 0), (5, 7, 1), (3, 2, 0), (6, 50, 50), (9, 9, 1)],
)
def test_delta_at_one_closed_form(m, d, expected):
    assert delta_at_one(BrieskornParams(m, d)) == expected


def test_delta_at_one_matches_polynomial_on_grid():
    for m in range(3, 11):
        for d in range(1, 51):
            p = BrieskornParams(m, d)
            assert delta_poly(p)(1) == delta_at_one(p), (m, d)


def entries(m, d):
    return [(e.degree, e.free_rank, e.torsion) for e in homology(BrieskornParams(m, d)).entries]


def test_homology_examples():
    assert entries(4, 5) == [(0, 1, ()), (3, 0, (5,)), (7, 1, ())]
    # m odd, d even: the S^(m-1) x S^m pattern
    assert entries(3, 2) == [(0, 1, ()), (2, 1, ()), (3, 1, ()), (5, 1, ())]
    # d = 1 is the sphere
    assert entries(5, 1) == [(0, 1, ()), (9, 1, ())]
    assert entries(4, 1) == [(0, 1, ()), (7, 1, ())]
    # m odd, d odd: homotopy sphere
    assert entries(5, 7) == [(0, 1, ()), (9, 1, ())]


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 200), st.integers(1, 5000))
def test_homology_is_the_case_table_of_the_module_docstring(m, d):
    # m even: Z/d in degree m-1, no entry at d = 1; m odd, d even: Z in degrees m-1 and m; m odd, d odd: none
    if m % 2 == 0:
        middle = [(m - 1, 0, (d,))] if d > 1 else []
    else:
        middle = [(m - 1, 1, ()), (m, 1, ())] if d % 2 == 0 else []
    groups = homology(BrieskornParams(m, d))
    assert entries(m, d) == [(0, 1, ()), *middle, (2 * m - 1, 1, ())]
    assert type(groups) is GradedAbelianGroup and type(groups.entries) is tuple
    for entry in groups.entries:
        assert type(entry) is HomologyEntry and type(entry.degree) is type(entry.free_rank) is int
        assert type(entry.torsion) is tuple and all(type(t) is int for t in entry.torsion)


def test_homology_middle_order_matches_delta():
    for m in range(3, 9):
        for d in range(1, 30):
            p = BrieskornParams(m, d)
            h = homology(p)
            ranks = {e.degree: e.free_rank for e in h.entries}
            value = delta_at_one(p)
            if value == 0:
                assert ranks.get(m - 1, 0) == 1 and ranks.get(m, 0) == 1
            elif value == 1:
                assert h.entry(m - 1) is None
            else:
                assert h.torsion(m - 1) == (value,)


def oracle_middle_homology(m: int, d: int):
    """(free rank, torsion) of H_(m-1) as the cokernel of the monodromy minus the identity.

    By Sebastiani-Thom the monodromy of z0^d + z1^2 + ... + zm^2 on the reduced homology of the
    Milnor fibre is (-1)^m C, with C the companion matrix of 1 + t + ... + t^(d-1), and H_(m-1)
    of the link is the cokernel of (-1)^m C - I (Milnor 1968, Brieskorn 1966).  Its Smith normal
    form is computed by sympy, independently of the closed forms in the package.
    """
    n = d - 1
    companion = sympy.zeros(n, n)
    for i in range(n):
        companion[i, n - 1] = -1
        if i:
            companion[i, i - 1] = 1
    snf = smith_normal_form((-1) ** m * companion - sympy.eye(n), domain=sympy.ZZ)
    diagonal = [abs(snf[i, i]) for i in range(n)]
    return diagonal.count(0), tuple(sorted(x for x in diagonal if x > 1))


def test_middle_homology_matches_the_monodromy_cokernel():
    for m in range(3, 9):
        for d in range(2, 16):
            h = homology(BrieskornParams(m, d))
            free_rank = {e.degree: e.free_rank for e in h.entries}.get(m - 1, 0)
            assert (free_rank, h.torsion(m - 1)) == oracle_middle_homology(m, d), (m, d)


def test_connectivity_no_low_entries():
    for m in range(3, 9):
        for d in (1, 2, 3, 10):
            h = homology(BrieskornParams(m, d))
            for e in h.entries:
                assert e.degree == 0 or e.degree >= m - 1


def test_rational_sphere_gate():
    for m in range(3, 9):
        for d in range(1, 20):
            p = BrieskornParams(m, d)
            assert homology(p).is_rational_sphere(p.sphere_dim) == rational_sphere_gate(p)
            assert rational_sphere_gate(p) == (m % 2 == 0 or d % 2 == 1)


def test_param_validation():
    with pytest.raises(Unsupported):
        BrieskornParams(2, 5)
    with pytest.raises(InvalidParams):
        BrieskornParams(4, 0)


def test_delta_poly_refuses_dense_output_above_cap():
    assert delta_poly(BrieskornParams(3, MAX_SPHERE_DIM)).degree == MAX_SPHERE_DIM - 1
    with pytest.raises(InvalidParams):
        delta_poly(BrieskornParams(4, MAX_SPHERE_DIM + 1))
