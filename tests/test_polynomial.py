import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomone.errors import InvalidParams
from cohomone.polynomial import IntegerPolynomial, one_plus_power, product
from cohomone.rational_homotopy import odd_product_poincare

P = IntegerPolynomial


def test_trailing_zeros_trimmed():
    assert P((1, 2, 0, 0)).coefficients == (1, 2)
    assert P((0, 0)).coefficients == ()
    assert P(()).degree == -1


def test_ring_operations():
    a = P((1, 2, 3))
    b = P((0, 1))
    assert (a * b).coefficients == (0, 1, 2, 3)
    assert (a * P(())).coefficients == (P(()) * a).coefficients == (P(()) * P(())).coefficients == ()


def test_mul_matches_schoolbook_on_grid():
    polys = [P(c) for c in [(1,), (1, 1), (2, -1, 3), (0, 0, 1), (1, -1, 0, 2)]]
    for a in polys:
        for b in polys:
            prod = a * b
            for k in range(prod.degree + 1):
                expected = sum(a.coefficient(i) * b.coefficient(k - i) for i in range(k + 1))
                assert prod.coefficient(k) == expected


def test_evaluation():
    p = P((1, -2, 3))
    assert p(0) == 1
    assert p(2) == 1 - 4 + 12
    assert P(())(5) == 0


def test_helpers():
    assert one_plus_power(3).coefficients == (1, 0, 0, 1)
    assert product([]).coefficients == (1,)
    assert product([one_plus_power(1), one_plus_power(2)]).coefficients == (1, 1, 1, 1)


@pytest.mark.parametrize("call", [lambda: one_plus_power(0), lambda: one_plus_power(-3),
                                  lambda: odd_product_poincare((2, 0))],
                         ids=["one_plus_power(0)", "one_plus_power(-3)", "odd_product_poincare((2, 0))"])
def test_a_sphere_of_no_positive_dimension_is_a_typed_error(call):
    # a CohomoneError, which the front end prints with exit 2, not a ValueError that ends in a traceback
    with pytest.raises(InvalidParams, match="the exponent of 1 \\+ t\\^k must be positive"):
        call()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 5) | st.booleans(), max_size=12), st.integers(0, 6))
def test_trailing_zeros_trimmed_and_coefficients_made_int(coefficients, zeros):
    poly = P(coefficients + [0] * zeros + [False] * zeros)
    expected = [int(c) for c in coefficients]
    while expected and expected[-1] == 0:
        expected.pop()
    assert poly.coefficients == tuple(expected)
    assert all(type(c) is int for c in poly.coefficients)
    assert poly.degree == len(expected) - 1
