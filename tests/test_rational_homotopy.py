import time

import sympy as sp
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from cohomone.catalog import default_catalog
from cohomone.errors import InvalidEmbedding, Unsupported
from cohomone.lie_catalog import (
    GroupType,
    NamedEmbedding,
    SimpleGroupLabel,
    is_declared_injective,
    parse_group,
    transitive_sphere_pairs,
)
from cohomone.rational_homotopy import (
    euler_characteristic,
    hilbert_series,
    odd_product_poincare,
    quotient_homotopy,
)
from test_trusted_builds import _quotient_oracle


def space(embedding_id):
    return default_catalog().embedding(embedding_id)


def identity_space(expr):
    g = parse_group(expr)
    return NamedEmbedding(f"id-{expr}", g, g, g.degree_counts)


# -- quotient homotopy ---------------------------------------------------------


def test_each_table1_quotient_has_the_rational_homotopy_of_its_sphere():
    # across layers: the sphere-action table against quotient_homotopy, under the map of the largest rank in each
    # degree; an odd sphere S^n has one generator, in degree n, an even one two, in degrees 2n - 1 and n
    for row in transitive_sphere_pairs(12):
        g, h, n = row.group.degrees, row.isotropy.degrees, row.sphere_dim
        ranks = [(k, min(g.count(k), h.count(k))) for k in set(h)]
        if n % 2:  # the isotropy's generators inject
            assert sorted(ranks) == list(row.isotropy.degree_counts), row
        expected = ((n,), ()) if n % 2 else ((2 * n - 1,), (n,))
        assert quotient_homotopy(NamedEmbedding("row", row.group, row.isotropy, ranks)) == (*expected, False), row


def test_quotient_homotopy_examples():
    qh = quotient_homotopy(space("su6-sp3"))
    assert (qh.odd_degrees, qh.even_degrees, qh.heuristic) == ((5, 9), (), False)

    qh = quotient_homotopy(space("spin8-g2"))
    assert (qh.odd_degrees, qh.even_degrees) == ((7, 7), ())

    qh = quotient_homotopy(identity_space("Sp(3)"))
    assert qh.odd_degrees == () and qh.even_degrees == () and not qh.heuristic

    qh = quotient_homotopy(space("t2-in-su3"))
    assert (qh.odd_degrees, qh.even_degrees) == ((3, 5), (2, 2))


def test_quotient_homotopy_heuristic_flag():
    g, h = parse_group("SU(4)"), parse_group("SU(2)")
    undeclared = NamedEmbedding("su2-in-su4-bare", g, h)
    qh = quotient_homotopy(undeclared)
    assert qh.heuristic
    assert qh.odd_degrees == (5, 7)  # maximal-rank default kills degree 3

    declared = NamedEmbedding("su2-in-su4-decl", g, h, ((3, 1),))
    assert not quotient_homotopy(declared).heuristic


def test_quotient_homotopy_torus_circle_shifts_to_degree_two():
    qh = quotient_homotopy(space("t2-in-sp2"))
    assert qh.even_degrees == (2, 2)
    assert qh.odd_degrees == (3, 7)


def test_dimension_bookkeeping_over_catalog():
    # sum(odd) - sum(even - 1) equals dim G/H for every shipped inclusion
    # with fully declared ranks
    for emb in default_catalog().embeddings():
        qh = quotient_homotopy(emb)
        if qh.heuristic:
            continue
        formal_dimension = sum(qh.odd_degrees) - sum(e - 1 for e in qh.even_degrees)
        assert formal_dimension == emb.ambient.dimension - emb.subgroup.dimension, emb.id


def test_injective_pairs_have_no_even_part():
    for emb in default_catalog().embeddings():
        if not is_declared_injective(emb):
            continue
        qh = quotient_homotopy(emb)
        assert qh.even_degrees == (), emb.id
        assert len(qh.odd_degrees) == emb.ambient.rank - emb.subgroup.rank, emb.id


def test_declared_rank_bound_error():
    # over-declared ranks are rejected as soon as the record is built
    with pytest.raises(InvalidEmbedding):
        NamedEmbedding("overdeclared", parse_group("SU(3)"), parse_group("SU(2)"), ((5, 1),))


# -- Hilbert series --------------------------------------------------------------


def sympy_series(g: GroupType, h: GroupType):
    t = sp.symbols("t")
    num = sp.prod([1 - t ** (d + 1) for d in g.degrees])
    den = sp.prod([1 - t ** (e + 1) for e in h.degrees])
    quotient = sp.cancel(num / den)
    poly = sp.Poly(quotient, t)
    return list(reversed(poly.all_coeffs()))


@pytest.mark.parametrize(
    "embedding_id, expected",
    [
        ("t2-in-su3", [1, 0, 2, 0, 2, 0, 1]),
        ("t2-in-sp2", [1, 0, 2, 0, 2, 0, 2, 0, 1]),
        ("sp1cubed-in-sp3", [1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 1]),
        ("spin8-in-f4", [1] + [0] * 7 + [2] + [0] * 7 + [2] + [0] * 7 + [1]),
        ("su3-kplus-u2", [1, 0, 1, 0, 1]),
    ],
)
def test_hilbert_series_frozen_values(embedding_id, expected):
    assert hilbert_series(space(embedding_id)).as_list() == expected


def test_hilbert_series_identity_quotient():
    assert hilbert_series(identity_space("Spin(8)")).as_list() == [1]


def test_hilbert_series_against_sympy_oracle():
    for emb in default_catalog().embeddings():
        if emb.subgroup.rank != emb.ambient.rank:
            continue
        computed = hilbert_series(emb).as_list()
        assert computed == sympy_series(emb.ambient, emb.subgroup), emb.id


def test_hilbert_series_top_degree_is_quotient_dimension():
    for emb in default_catalog().embeddings():
        if emb.subgroup.rank != emb.ambient.rank:
            continue
        assert hilbert_series(emb).degree == emb.ambient.dimension - emb.subgroup.dimension, emb.id


def test_hilbert_series_cancels_in_time_linear_in_rank():
    # the loader counts the factors of every equal-rank catalog embedding, of rank up to 10^6; cancelling them with
    # list.remove moved the rest of the list once per degree: 3.8 s for a torus of rank 2 x 10^5 in itself (2-vCPU
    # VM), and four times that at twice the rank
    torus = GroupType((), 400_000)
    start = time.perf_counter()
    assert hilbert_series(NamedEmbedding("torus", torus, torus)).coefficients == (1,)
    assert time.perf_counter() - start < 1


def test_quotient_homotopy_counts_in_time_linear_in_rank():
    # a pair inside the catalog's dimension bound: counting each of the 700 distinct degrees with tuple.count over
    # the 510,699 degrees of SU(700)xT510000 took 8.7 s (2-vCPU VM)
    pair = NamedEmbedding("big", parse_group("SU(700)xT510000"), GroupType((), 510_000), [(1, 510_000)])
    start = time.perf_counter()
    qh = quotient_homotopy(pair)
    assert time.perf_counter() - start < 1
    assert qh == _quotient_oracle(pair) == (tuple(range(3, 1400, 2)), (), False)


def test_hilbert_series_needs_equal_rank():
    with pytest.raises(Unsupported):
        hilbert_series(space("su6-sp3"))


def test_hilbert_series_rejects_inconsistent_pair():
    # equal rank, but the division leaves a remainder: bad inclusion data
    pretend = NamedEmbedding("fake-pair", parse_group("SU(4)"), parse_group("Sp(1)xSp(1)xSp(1)"))
    with pytest.raises(InvalidEmbedding):
        hilbert_series(pretend)


#: simple factors of rank at most 4, the exceptional ones included
SMALL_LABELS = [SimpleGroupLabel(f, r) for f in "ABCD" for r in range(1, 5)] + [
    SimpleGroupLabel("G2", 2), SimpleGroupLabel("F4", 4)]
groups = st.lists(st.sampled_from(SMALL_LABELS), min_size=1, max_size=3).map(GroupType)
EQUAL_RANK_PAIRS = [e for e in default_catalog().embeddings() if e.subgroup.rank == e.ambient.rank]


def maximal_torus_pair(g: GroupType) -> NamedEmbedding:
    return NamedEmbedding(f"torus-in-{g}", g, GroupType((), g.rank))


def product_pair(pairs) -> NamedEmbedding:
    ambient, subgroup = GroupType(), GroupType()
    for e in pairs:
        ambient, subgroup = ambient * e.ambient, subgroup * e.subgroup
    return NamedEmbedding("x".join(e.id for e in pairs), ambient, subgroup)


@st.composite
def of_rank(draw, rank: int) -> GroupType:
    """A product of simple factors whose ranks add up to ``rank``."""
    labels = []
    while rank:
        labels.append(draw(st.sampled_from([label for label in SMALL_LABELS if label.rank <= rank])))
        rank -= labels[-1].rank
    return GroupType(tuple(labels))


equal_rank_pairs = groups.map(maximal_torus_pair) | st.lists(
    st.sampled_from(EQUAL_RANK_PAIRS), min_size=1, max_size=3).map(product_pair)


@settings(max_examples=60, deadline=None)
@given(equal_rank_pairs)
def test_hilbert_series_matches_sympy_and_euler_characteristic(pair):
    series = hilbert_series(pair)
    assert series.as_list() == sympy_series(pair.ambient, pair.subgroup)
    assert series(1) == euler_characteristic(pair)
    assert series.degree == pair.ambient.dimension - pair.subgroup.dimension


@settings(max_examples=100, deadline=None)
@given(groups.flatmap(lambda g: st.tuples(st.just(g), of_rank(g.rank))))
def test_hilbert_series_raises_exactly_when_the_quotient_is_not_polynomial(groups_of_equal_rank):
    g, h = groups_of_equal_rank
    assume(h.dimension <= g.dimension)
    pair = NamedEmbedding("random-pair", g, h)
    t = sp.symbols("t")
    ratio = sp.cancel(sp.prod([1 - t ** (d + 1) for d in g.degrees]) / sp.prod([1 - t ** (e + 1) for e in h.degrees]))
    if sp.fraction(ratio)[1].free_symbols:  # a denominator in t is left: not a polynomial
        event("not polynomial")
        with pytest.raises(InvalidEmbedding, match="random-pair: Hilbert series is not polynomial"):
            hilbert_series(pair)
        return
    coefficients = sympy_series(g, h)
    event(f"polynomial, valid: {coefficients[0] == 1 and min(coefficients) >= 0}")
    if coefficients[0] == 1 and min(coefficients) >= 0:
        assert hilbert_series(pair).as_list() == coefficients
    else:
        with pytest.raises(InvalidEmbedding, match="not a valid Poincare polynomial"):
            hilbert_series(pair)


# -- Euler characteristics ---------------------------------------------------------


def test_euler_characteristic_examples():
    assert euler_characteristic(space("t2-in-su3")) == 6
    assert euler_characteristic(space("t2-in-g2")) == 12
    assert euler_characteristic(space("su6-sp3")) == 0  # corank 2
    assert euler_characteristic(identity_space("G2")) == 1


def test_euler_matches_series_at_one_for_equal_rank_pairs():
    for emb in default_catalog().embeddings():
        if emb.subgroup.rank != emb.ambient.rank:
            continue
        assert hilbert_series(emb)(1) == euler_characteristic(emb), emb.id


# -- sphere-product Poincare polynomials ---------------------------------------------


def test_odd_product_poincare():
    assert odd_product_poincare([3, 4, 7]).as_list() == [1, 0, 0, 1, 1, 0, 0, 2, 0, 0, 1, 1, 0, 0, 1]
    assert odd_product_poincare([]).as_list() == [1]
    assert odd_product_poincare([3, 5]).as_list() == [1, 0, 0, 1, 0, 1, 0, 0, 1]

