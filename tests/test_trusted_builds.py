"""Each value a producer builds past its type's checks equals what the checked constructor gives, type for type."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohomone.brieskorn import BrieskornParams, delta_poly
from cohomone.catalog import default_catalog
from cohomone.classification import SevenFamilyParams, corank2_sources, realize_torsion, seven_family_torsion
from cohomone.diagram import CASE6_FIBERS, GHCaseResult, gh_classify
from cohomone.errors import InvalidParams
from cohomone.polynomial import IntegerPolynomial
from cohomone.rational_homotopy import QuotientHomotopy, quotient_homotopy

CAT = default_catalog()
BRIESKORN = st.builds(BrieskornParams, st.integers(3, 200), st.integers(1, 5000))


@settings(max_examples=300, deadline=None)
@given(BRIESKORN)
def test_delta_poly_equals_its_checked_build(p):
    poly = delta_poly(p)
    assert poly == IntegerPolynomial(poly.coefficients)
    assert type(poly) is IntegerPolynomial and type(poly.coefficients) is tuple
    assert all(type(c) is int for c in poly.coefficients) and poly.coefficients[-1] != 0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**12))
@example(1)
@example(2)
def test_realize_torsion_equals_its_checked_build(t):
    params = realize_torsion(t)
    assert params == SevenFamilyParams(*params)
    assert type(params) is SevenFamilyParams and all(type(v) is int for v in params)
    assert seven_family_torsion(params) == t


def _gh_oracle(ell_minus, ell_plus, h, hint):
    """The cases of the paper's table, each tried on its own: (case, forced dimension, fiber)."""
    lo, hi = sorted((ell_minus, ell_plus))
    total = ell_minus + ell_plus
    cases = [
        (h == 0 and total % 2 == 0, (4, total + 1, (ell_minus, ell_plus, total + 1))),
        (h == 0 and total % 2 == 1, (4, 2 * total + 1, (ell_minus, ell_plus, total + 1))),
        (h == 0 and lo == hi and lo % 2 == 0, (5, lo + 1, (lo, lo + 1))),
        *((h == 0 and lo == hi == ell and hint in (None, tag), (6, forced, description))
          for ell, tag, description, forced in CASE6_FIBERS),
        (h == 2 and lo == hi == 1, (1, 7, (3, 3, 7))),
        (h == 1 and lo == hi == 1, (2, 5, (1, 3, 5))),
        (h == 1 and lo == 1 and hi >= 3 and hi % 2 == 1, (3, 2 * hi + 3, (1, 2 * hi + 1, 2 * hi + 3))),
    ]
    return [case for holds, case in cases if holds]


LABELS = st.integers(1, 120)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.tuples(LABELS, LABELS), LABELS.map(lambda ell: (ell, ell)), LABELS.map(lambda ell: (1, ell))),
       st.sampled_from((0, 1, 2)), st.sampled_from((None, *(tag for _, tag, _, _ in CASE6_FIBERS))), st.booleans())
@example((4, 4), 0, "sp3-mod-sp1cubed", False)
@example((2, 2), 0, None, False)
@example((1, 1), 2, None, True)
@example((1, 7), 1, None, True)
def test_gh_classify_equals_the_case_table(labels, h, hint, swapped):
    ell_minus, ell_plus = labels[::-1] if swapped else labels
    results = gh_classify(ell_minus, ell_plus, h, hint)
    assert type(results) is list and all(type(r) is GHCaseResult for r in results)
    assert [tuple(r) for r in results] == _gh_oracle(ell_minus, ell_plus, h, hint)


@pytest.mark.parametrize("args, text", [
    ((0, 3, 0), "fiber dimensions must be at least 1"),
    ((3, 0, 1, "no-such-tag"), "fiber dimensions must be at least 1"),
    ((3, 3, 3), "the non-orientable orbit count h must be 0, 1 or 2"),
    ((5, 7, 3), "the non-orientable orbit count h must be 0, 1 or 2"),
    ((3, 3, 3, "g2"), "unknown fiber tag 'g2'; the case-6 fiber tags are su3-mod-t2, sp2-mod-t2, g2-mod-t2, "
                      "sp3-mod-sp1cubed, f4-mod-spin8"),
])
def test_gh_classify_error_texts(args, text):
    with pytest.raises(InvalidParams) as caught:
        gh_classify(*args)
    assert str(caught.value).startswith(text)


def _quotient_oracle(inclusion):
    """The exact-sequence count of ``quotient_homotopy``, with multiplicities from ``Counter``s."""
    amb, sub = Counter(inclusion.ambient.degrees), Counter(inclusion.subgroup.degrees)
    declared = dict(inclusion.homotopy_map_ranks)
    odd, even, heuristic = [], [], False
    for k in set(amb) | set(sub):
        bound = min(amb[k], sub[k])
        r = declared.get(k, bound)
        heuristic = heuristic or (k not in declared and bound > 0)
        odd += [k] * (amb[k] - r)
        even += [k + 1] * (sub[k] - r)
    return QuotientHomotopy(tuple(sorted(odd)), tuple(sorted(even)), heuristic)


def test_quotient_homotopy_equals_the_counter_count():
    inclusions = CAT.embeddings() + [e for e, _, _ in corank2_sources(12, CAT)]
    assert len(inclusions) > 60
    for inclusion in inclusions:
        qh = quotient_homotopy(inclusion)
        assert qh == _quotient_oracle(inclusion), inclusion.id
        assert type(qh) is QuotientHomotopy and type(qh.odd_degrees) is type(qh.even_degrees) is tuple
