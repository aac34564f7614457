import copy
import itertools
import math
import pickle
import time
from collections import Counter

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from sympy.liealgebras.cartan_type import CartanType
from sympy.liealgebras.weyl_group import WeylGroup

from cohomone import classification, lie_catalog
from cohomone.catalog import default_catalog
from cohomone.cli import run
from cohomone.errors import InvalidEmbedding, InvalidLabel
from cohomone.lie_catalog import (
    EMBEDDING_TAGS,
    TRIVIAL_GROUP,
    GroupType,
    NamedEmbedding,
    SimpleGroupLabel,
    SphereActionRow,
    parse_group,
    special_orthogonal,
    special_unitary,
    sphere_quotient,
    spheres_acted_on,
    symplectic,
    transitive_sphere_pairs,
)
from cohomone.rational_homotopy import hilbert_factors, quotient_homotopy
from test_trusted_builds import _quotient_oracle


EXCEPTIONAL_LABELS = [SimpleGroupLabel(f, r) for f, r in [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]]


def all_test_labels():
    labels = [SimpleGroupLabel("A", n) for n in range(1, 10)]
    labels += [SimpleGroupLabel("B", n) for n in range(1, 10)]
    labels += [SimpleGroupLabel("C", n) for n in range(1, 10)]
    labels += [SimpleGroupLabel("D", n) for n in range(1, 10)]
    return labels + EXCEPTIONAL_LABELS


# -- canonicalization ---------------------------------------------------------


@pytest.mark.parametrize(
    "label, expected",
    [
        (("D", 3), "A3"),
        (("A", 5), "A5"),
        (("D", 2), "A1xA1"),
        (("B", 1), "A1"),
        (("C", 1), "A1"),
        (("C", 2), "B2"),
        (("D", 1), "T1"),
        (("B", 2), "B2"),
    ],
)
def test_canonicalize(label, expected):
    assert str(GroupType((SimpleGroupLabel(*label),))) == expected


def test_canonicalize_idempotent():
    for label in all_test_labels():
        once = GroupType((label,))
        again = GroupType(once.factors, once.torus_rank)
        assert once == again


def test_invalid_labels():
    # a raw label of rank 0 is refused by the builder of raw labels, and so through degrees --group
    for family in "ABCD":
        with pytest.raises(InvalidLabel, match=f"^rank must be positive, got {family}0$"):
            parse_group(f"{family}0")
    assert run(["degrees", "--group", "A0"]) == (2, {"error": "InvalidLabel: rank must be positive, got A0"})
    # an exceptional label of another rank, or an unknown family, is no term of the grammar
    for text in ("E5", "Z3"):
        with pytest.raises(InvalidLabel, match=f"cannot parse group term '{text}'"):
            parse_group(text)


def test_exceptional_isomorphisms_collapse_in_parser():
    assert parse_group("Spin(6)") == parse_group("SU(4)")
    assert parse_group("Spin(5)") == parse_group("Sp(2)")
    assert parse_group("Spin(4)") == parse_group("SU(2)xSU(2)")
    assert parse_group("Spin(3)") == parse_group("SU(2)") == parse_group("S3") == parse_group("Sp(1)")
    assert parse_group("SO(2)") == parse_group("T1") == parse_group("U(1)")
    assert parse_group("U(3)") == parse_group("SU(3)xT1")
    assert parse_group("e") == parse_group("SU(1)") == parse_group("Sp(0)") == GroupType()


# -- degrees / dimension / Weyl order -----------------------------------------


#: each named term of a group expression and the builder of its group
TERM_BUILDERS = {"SU": special_unitary, "SO": special_orthogonal, "Spin": special_orthogonal, "Sp": symplectic,
                 "U": lambda n: special_unitary(n) * GroupType((), 1) if n > 0 else special_unitary(n),
                 "T": lambda n: GroupType((), n)}


#: 1-4 terms of a group expression: (name, integer argument, written in parentheses)
TERMS = st.lists(st.tuples(st.sampled_from(sorted(TERM_BUILDERS)), st.integers(0, 14), st.booleans()),
                 min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(TERMS, st.sampled_from(["x", "×"]))
def test_a_product_of_terms_is_the_product_of_their_groups(terms, sign):
    # each integer argument written bare or in parentheses
    text = sign.join(f"{name}({n})" if parenthesized else f"{name}{n}" for name, n, parenthesized in terms)
    try:
        expected = TRIVIAL_GROUP
        for name, n, _ in terms:
            expected = expected * TERM_BUILDERS[name](n)
    except InvalidLabel:  # SU(0), SO(0), U(0): a group the builder does not define
        with pytest.raises(InvalidLabel):
            parse_group(text)
    else:
        assert parse_group(text) == expected


def test_arguments_are_bare_or_in_balanced_parentheses():
    for text in ("SU(6", "Sp3)", "U(2)xT1)", "SU((6))", "Spin(2m+1", "SU(m)", "Spin(2m+1)", "SU(m)xT1", "B(2)"):
        with pytest.raises(InvalidLabel, match="cannot parse group term"):
            parse_group(text)
    assert parse_group("SU6") == parse_group("SU(6)")
    assert parse_group("Sp3") == parse_group("Sp(3)") and parse_group("U2xT1") == parse_group("U(2)xT1")


def test_a_product_of_many_terms_parses_in_linear_time():
    # the terms' factors are joined into one list; summing their tuples took 2.1 s for these 60,000 terms (2-vCPU VM)
    text = "x".join(["SU(3)", "Sp(2)", "T1"] * 20000)
    start = time.perf_counter()
    group = parse_group(text)
    assert time.perf_counter() - start < 1
    assert group == GroupType((SimpleGroupLabel("A", 2), SimpleGroupLabel("B", 2)) * 20000, 20000)


@st.composite
def term_products(draw):
    """The product of 1-4 terms, each a group its builder defines, times a torus of rank up to 10^4."""
    group = GroupType((), draw(st.integers(0, 10**4)))
    for name, n, _ in draw(TERMS):
        assume(n > 0 or name in ("Sp", "T"))  # SU(0), SO(0) and U(0) are not defined
        group = group * TERM_BUILDERS[name](n)
    return group


@settings(max_examples=100, deadline=None)
@given(term_products(), term_products(), st.data())
def test_every_multiplicity_reader_agrees_with_counters_of_the_degrees(g, h, data):
    # an oracle apart from GroupType.degree_counts: the multiplicities are Counters of the two degree lists
    if not (h.dimension <= g.dimension and h.rank <= g.rank):  # an ambient group the subgroup fits in
        g, h = (h, g) if g.dimension <= h.dimension and g.rank <= h.rank else (g * h, h)
    amb, sub = Counter(g.degrees), Counter(h.degrees)
    for group, counts in ((g, amb), (h, sub)):
        assert group.degree_counts == tuple(sorted(counts.items())), group
    assert hilbert_factors(NamedEmbedding("pair", g, h)) == (sorted((amb - sub).elements()),
                                                               sorted((sub - amb).elements()))
    # declared ranks within the bounds, some degrees left undeclared
    bounds = {k: min(amb[k], sub[k]) for k in sorted(amb | sub)}
    ranks = [(k, r) for k, bound in bounds.items()
             if (r := data.draw(st.none() | st.integers(0, bound), label=f"rank in degree {k}")) is not None]
    inclusion = NamedEmbedding("pair", g, h, ranks)
    assert quotient_homotopy(inclusion) == _quotient_oracle(inclusion)
    # one rank over its bound, in a degree of either group or of neither, refused with the multiplicities named
    k = data.draw(st.sampled_from([*bounds, 2]), label="over-declared degree")
    r = bounds.get(k, 0) + data.draw(st.integers(1, 3), label="excess")
    with pytest.raises(InvalidEmbedding) as caught:
        NamedEmbedding("pair", g, h, [(j, s) for j, s in ranks if j != k] + [(k, r)])
    assert str(caught.value) == f"pair: degree-{k} map rank {r} exceeds multiplicity bound min({sub[k]}, {amb[k]})"


def test_degree_examples():
    assert parse_group("G2").degrees == (3, 11)
    assert parse_group("Spin(8)").degrees == (3, 7, 7, 11)
    assert GroupType().degrees == ()
    assert parse_group("SU(4)").degrees == (3, 5, 7)
    assert parse_group("Sp(3)").degrees == (3, 7, 11)
    assert parse_group("E7").degrees == (3, 11, 15, 19, 23, 27, 35)
    assert parse_group("T2").degrees == (1, 1)


def test_degree_count_equals_rank():
    for label in all_test_labels():
        g = GroupType((label,))
        assert len(g.degrees) == g.rank


@st.composite
def group_products(draw):
    """A product of 0-4 simple factors (SU, SO, Sp or exceptional, low ranks folded as built) times a torus."""
    factor = st.one_of(
        st.builds(special_unitary, st.integers(1, 12)), st.builds(special_orthogonal, st.integers(1, 14)),
        st.builds(symplectic, st.integers(0, 10)),
        st.sampled_from(EXCEPTIONAL_LABELS).map(lambda label: GroupType((label,))),
    )
    group = GroupType((), draw(st.integers(0, 4)))
    for simple in draw(st.lists(factor, max_size=4)):
        group = group * simple
    return group


@settings(max_examples=200, deadline=None)
@given(group_products())
def test_dimension_equals_sum_of_degrees(drawn):
    # ties the dimension table to the degree table, independently of both
    for g in [*(GroupType((label,)) for label in all_test_labels()), parse_group("SU(3)xSp(2)xT2"), drawn]:
        assert g.dimension == sum(g.degrees), g


def test_weyl_order_examples():
    assert parse_group("SU(3)").weyl_order == 6
    assert parse_group("F4").weyl_order == 1152
    assert GroupType().weyl_order == 1
    assert parse_group("E8").weyl_order == 696729600
    assert parse_group("T2").weyl_order == 1


#: the Weyl order of each exceptional family, written out
EXCEPTIONAL_WEYL_ORDERS = {"G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600}


def closed_form_weyl_order(label):
    """|W| of a label by its family's closed form, apart from the degrees the package reads it off."""
    family, n = label
    if family == "A":
        return math.factorial(n + 1)
    if family in ("B", "C"):
        return 2**n * math.factorial(n)
    if family == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return EXCEPTIONAL_WEYL_ORDERS[family]


@settings(max_examples=200, deadline=None)
@given(group_products())
def test_weyl_order_is_the_product_of_closed_forms(drawn):
    # the Weyl order read off the degrees equals the product of its factors' closed forms, for every type
    for g in [*(GroupType((label,)) for label in all_test_labels()), drawn]:
        assert g.weyl_order == math.prod(map(closed_form_weyl_order, g.factors)), g


# -- an independent oracle: each label's root system ---------------------------------

#: the least rank of each classical family that sympy's CartanType builds; the lower ranks are the folds below
SYMPY_LEAST_RANK = {"A": 2, "B": 2, "C": 3, "D": 3}


def positive_root_counts(cartan):
    """The number of positive roots of height 1, 2, ..., built up from the simple roots by root strings: the
    alpha_i-string through a root goes p steps down and p - <root, alpha_i^vee> steps up."""
    rank = len(cartan)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots, level, counts = set(simple), simple, []
    while level:
        counts.append(len(level))
        higher = set()
        for root in level:
            for i, alpha in enumerate(simple):
                down = 0
                while tuple(c - (down + 1) * a for c, a in zip(root, alpha)) in roots:
                    down += 1
                if down > sum(c * cartan[j][i] for j, c in enumerate(root)):
                    higher.add(tuple(c + a for c, a in zip(root, alpha)))
        roots |= higher
        level = sorted(higher)
    return counts


def root_system_invariants(label):
    """(dimension, degrees, Weyl order) from sympy's root data: rank + 2 #roots, 2e + 1 for the exponents e, the
    dual partition of the root counts by height, and the order of sympy's Weyl group."""
    counts = positive_root_counts(CartanType(str(label)).cartan_matrix().tolist())
    exponents = [sum(n >= j for n in counts) for j in range(1, label.rank + 1)]
    return (label.rank + 2 * sum(counts), tuple(sorted(2 * e + 1 for e in exponents)),
            int(WeylGroup(str(label)).group_order()))


@pytest.mark.parametrize("label", [label for label in all_test_labels()
                                   if label.rank >= SYMPY_LEAST_RANK.get(label.family, 0)], ids=str)
def test_each_label_has_the_invariants_of_its_root_system(label):
    invariants = (label.dimension, tuple(sorted(label.degrees)), GroupType((label,)).weyl_order)
    assert invariants == root_system_invariants(label)


def standard_cartan(label):
    """The Cartan matrix 2(a_i, a_j) / (a_j, a_j) of the standard simple roots a_i of a classical label, in the
    coordinates e_1, e_2, ...: the e_i - e_(i+1), then for B, C and D e_n, 2e_n and e_(n-1) + e_n."""
    family, n = label
    e = [[int(i == k) for k in range(n + 1)] for i in range(n + 1)]
    roots = [[x - y for x, y in zip(e[i], e[i + 1])] for i in range(n if family == "A" else n - 1)]
    if family != "A":
        roots.append({"B": e[n - 1], "C": [2 * x for x in e[n - 1]],
                      "D": [x + y for x, y in zip(e[n - 2], e[n - 1])]}[family])
    return [[2 * sum(x * y for x, y in zip(a, b)) // sum(y * y for y in b) for b in roots] for a in roots]


def dynkin_data(labels):
    """The block-diagonal Cartan matrix of ``labels`` up to relabeling: its least form under a permutation."""
    entries, size = {}, 0
    for block in map(standard_cartan, labels):
        entries.update({(size + i, size + j): v for i, row in enumerate(block) for j, v in enumerate(row)})
        size += len(block)
    return min(tuple(entries.get((i, j), 0) for i in p for j in p) for p in itertools.permutations(range(size)))


#: the classical labels up to rank 3 but D1, a circle
LOW_RANK = [SimpleGroupLabel(family, n) for family in "ABCD" for n in range(2 if family == "D" else 1, 4)]


def test_the_low_rank_folds_identify_exactly_the_labels_of_equal_dynkin_data():
    # Spin(3) = Sp(1) = SU(2), Sp(2) = Spin(5), Spin(4) = SU(2)^2 and Spin(6) = SU(4), told by their Cartan matrices
    groups = [labels for k in (1, 2, 3) for labels in itertools.combinations_with_replacement(LOW_RANK, k)
              if sum(label.rank for label in labels) <= 3]
    data = {labels: dynkin_data(labels) for labels in groups}
    for a, b in itertools.combinations(groups, 2):
        assert (GroupType(a) == GroupType(b)) == (data[a] == data[b]), (a, b)
    for label in LOW_RANK:  # where sympy builds the label, the standard roots give its Cartan matrix
        if label.rank >= SYMPY_LEAST_RANK[label.family]:
            assert standard_cartan(label) == CartanType(str(label)).cartan_matrix().tolist(), label


# -- cached invariants and memoized constructors ---------------------------------


def recomputed(group):
    """(rank, dimension, degrees, degree counts, Weyl order, text) worked out afresh from the factors."""
    degree_list = [1] * group.torus_rank + [d for f in group.factors for d in f.degrees]
    parts = [str(f) for f in group.factors] + ([f"T{group.torus_rank}"] if group.torus_rank else [])
    return (sum(f.rank for f in group.factors) + group.torus_rank,
            sum(f.dimension for f in group.factors) + group.torus_rank, tuple(sorted(degree_list)),
            tuple(sorted(Counter(degree_list).items())), math.prod(map(closed_form_weyl_order, group.factors)),
            "x".join(parts) if parts else "e")


def cached(group):
    return group.rank, group.dimension, group.degrees, group.degree_counts, group.weyl_order, str(group)


@settings(max_examples=200, deadline=None)
@given(group_products(), group_products())
def test_cached_invariants_match_a_recomputation_and_cannot_be_set(drawn, other):
    for g in (drawn, other):
        assert cached(g) == recomputed(g)  # the first read caches them
    derived = [drawn * other, other * drawn, drawn._replace(torus_rank=drawn.torus_rank + 1),
               drawn._replace(factors=other.factors), copy.copy(drawn), copy.deepcopy(drawn),
               pickle.loads(pickle.dumps(drawn))]
    assert [vars(g) for g in derived[-3:]] == [{}] * 3  # copies and pickles carry the two fields, not the cache
    for g in [drawn, other, *derived]:
        assert cached(g) == recomputed(g), g
        for name in ("factors", "torus_rank", "rank", "dimension", "degrees", "degree_counts", "weyl_order", "_text",
                     "new_name"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(g, name, 0)
        for name in ("rank", "degrees", "degree_counts", "weyl_order", "_text", "new_name"):
            with pytest.raises(AttributeError, match="immutable"):
                delattr(g, name)
        assert cached(g) == recomputed(g)


#: every memoized constructor, with an argument it refuses
MEMOIZED_REFUSALS = [
    (special_orthogonal, (0,), InvalidLabel), (special_unitary, (0,), InvalidLabel),
    (lie_catalog._unitary, (0,), InvalidLabel),
    (lie_catalog._sphere_row, ("so", 1), InvalidLabel), (lie_catalog._sphere_row, ("nope", 3), KeyError),
    (classification._brieskorn_orbits, (2, "standard"), InvalidLabel),
    (classification._tensor_su_orbits, (1,), InvalidLabel),
]


@pytest.mark.parametrize("build, args, error", MEMOIZED_REFUSALS, ids=lambda v: getattr(v, "__name__", None))
def test_memoized_constructor_raises_on_every_call(build, args, error):
    # lru_cache keeps no exception, so a bad argument is refused each time and takes no entry
    before = build.cache_info().currsize
    for _ in range(3):
        with pytest.raises(error):
            build(*args)
    assert build.cache_info().currsize == before


#: (memoized constructor, arguments equal and hash-equal to int ones, those int arguments)
ODD_ARGUMENTS = [
    (special_orthogonal, (3.0,), (3,)),
    (special_orthogonal, (True,), (1,)),
    (special_unitary, (5.0,), (5,)),
    (symplectic, (True,), (1,)),
    (lie_catalog._unitary, (3.0,), (3,)),
    (lie_catalog._sphere_row, ("so", 5.0), ("so", 5)),
    (lie_catalog._sphere_row, ("sp", True), ("sp", 1)),
    (classification._brieskorn_orbits, (5.0, "standard"), (5, "standard")),
    (classification._tensor_su_orbits, (5.0,), (5,)),
    (classification._tensor_sp_orbits, (3.0,), (3,)),
]


@pytest.mark.parametrize("build, odd, args", ODD_ARGUMENTS, ids=lambda v: getattr(v, "__name__", None))
def test_memoized_constructors_keep_int_keys_apart(build, odd, args):
    # typed caches: a float or bool argument takes an entry of its own and never answers for the ints
    build.cache_clear()
    build(*odd)
    assert repr(build(*args)) == repr(build.__wrapped__(*args))  # SO(5.0) would hold the label B2.0
    assert build.cache_info().currsize == 2


# -- the transitive-sphere table ----------------------------------------------


def test_table_has_nine_families_and_consistent_dimensions():
    rows = transitive_sphere_pairs(12)
    assert len({row.family for row in rows}) == 9
    for row in rows:
        assert row.group.dimension - row.isotropy.dimension == row.sphere_dim
        assert type(row) is SphereActionRow and type(row.sphere_dim) is int and type(row.embedding_classes) is frozenset


#: the families of Table 1 whose group carries a passenger factor: row m's group, written as the paper writes it,
#: and its dimension; the isotropy is the same group at m - 1
_PASSENGER_FAMILIES = {
    "su-u1": (lambda m: f"U({m})", lambda m: m * m),
    "sp-u1": (lambda m: f"Sp({m})xU(1)", lambda m: m * (2 * m + 1) + 1),
    "sp-sp1": (lambda m: f"Sp({m})xSp(1)", lambda m: m * (2 * m + 1) + 3),
}


@pytest.mark.parametrize("family", _PASSENGER_FAMILIES)
def test_passenger_rows_are_the_papers_groups(family):
    # the passenger U(1) or Sp(1) reaches no report check or verdict: without it every sphere dimension still holds
    text, dimension = _PASSENGER_FAMILIES[family]
    rows = [row for row in transitive_sphere_pairs(12) if row.family == family]
    assert [row.m for row in rows] == list(range(rows[0].m, 13)) and rows[0].m <= 2
    for row in rows:
        assert (row.group.dimension, row.isotropy.dimension) == (dimension(row.m), dimension(row.m - 1)), row
        assert (row.group, row.isotropy) == (parse_group(text(row.m)), parse_group(text(row.m - 1))), row


@pytest.mark.parametrize(
    "group, isotropy, dim",
    [
        ("Spin(9)", "Spin(7)", 15),
        ("G2", "SU(3)", 6),
        ("Spin(7)", "G2", 7),
        ("SU(5)", "SU(4)", 9),
        ("Sp(3)", "Sp(2)", 11),
        ("SO(7)", "SO(6)", 6),
    ],
)
def test_table_rows_present(group, isotropy, dim):
    rows = transitive_sphere_pairs(12)
    matches = [r for r in rows if r.group == parse_group(group) and r.isotropy == parse_group(isotropy)]
    assert dim in {r.sphere_dim for r in matches}


def test_rows_of_a_sphere_dimension_are_the_table_rows_of_that_dimension_in_table_order():
    # the memoized per-dimension lookup against a scan of the instantiated table, sporadic rows last
    table = transitive_sphere_pairs(301)  # so(m) acts on S^(m-1): every family row of dimension <= 300
    for ell in range(1, 301):
        rows = lie_catalog._sphere_rows_of_dimension(ell)
        assert type(rows) is tuple and rows == tuple(row for row in table if row.sphere_dim == ell), ell
    huge = 4 * 10**20 - 1  # S^huge is the unit sphere of R^(4k), C^(2k) and H^k for k = 10^20
    assert [(row.family, row.m, row.sphere_dim) for row in lie_catalog._sphere_rows_of_dimension(huge)] == [
        ("so", 4 * 10**20, huge), ("su", 2 * 10**20, huge), ("su-u1", 2 * 10**20, huge),
        ("sp", 10**20, huge), ("sp-u1", 10**20, huge), ("sp-sp1", 10**20, huge)]


def test_sphere_quotient_examples():
    g2_block = NamedEmbedding("g2-in-spin7", parse_group("Spin(7)"), parse_group("G2"), tags=frozenset({"block"}))
    assert sphere_quotient(g2_block) == 7
    su2_block = NamedEmbedding("su2-in-su3", parse_group("SU(3)"), parse_group("SU(2)"), tags=frozenset({"block"}))
    assert sphere_quotient(su2_block) == 5
    so3_max = NamedEmbedding("so3-max-in-su3", parse_group("SU(3)"), parse_group("SO(3)"))  # no sphere class
    assert sphere_quotient(so3_max) is None


def test_sphere_quotient_spinor_vs_block():
    spin9 = parse_group("Spin(9)")
    spin7 = parse_group("Spin(7)")
    spinor = NamedEmbedding("spin7-spinor", spin9, spin7, tags=frozenset({"spinor"}))
    block = NamedEmbedding("spin7-block", spin9, spin7, tags=frozenset({"block"}))
    assert sphere_quotient(spinor) == 15
    # the block inclusion gives the 8-sphere's tangent bundle, not a sphere
    assert sphere_quotient(block) is None


def test_sphere_quotient_with_passenger_factor():
    ambient = parse_group("T1xSO(4)")
    sub = NamedEmbedding("so4-passenger", ambient, parse_group("SO(4)"), tags=frozenset({"block"}))
    assert sphere_quotient(sub) == 1


@pytest.mark.parametrize(
    "group, expected",
    [
        ("Spin(7)", {6, 7}),
        ("Spin(9)", {8, 15}),
        ("E8", set()),
        ("SU(2)", {2, 3}),
        ("Sp(2)", {4, 7}),
        ("SU(4)", {5, 7}),
    ],
)
def test_spheres_acted_on(group, expected):
    assert spheres_acted_on(parse_group(group)) == expected


# -- named embeddings -----------------------------------------------------------


def test_embedding_rank_bound_enforced():
    with pytest.raises(InvalidEmbedding):
        NamedEmbedding(
            "bad-rank",
            parse_group("SU(3)"),
            parse_group("SU(2)"),
            homotopy_map_ranks=((3, 2),),
        )
    with pytest.raises(InvalidEmbedding):
        NamedEmbedding("too-big", parse_group("SU(2)"), parse_group("SU(3)"))


def test_embedding_typed_tag_fields():
    su3, su2 = parse_group("SU(3)"), parse_group("SU(2)")
    emb = NamedEmbedding("tagged", su3, su2, tags=frozenset({"block"}), winding=5)
    assert (emb.winding, emb.slope, emb.contains) == (5, None, frozenset())
    assert emb.tags == {"block"}
    # a value-carrying prefix is a field, never a tag, and a tag outside the vocabulary is refused
    for label in ("winding:1", "slope:5,1", "contains:t5-h-b", "lattice", "maximal"):
        with pytest.raises(InvalidLabel, match=f"tagged: unknown tag '{label}' \\(allowed: 'block', 'corank2', "):
            NamedEmbedding("tagged", su3, su2, tags=frozenset({"block", label}))
    # every class of a sphere-action row is a label a tag may hold
    assert set().union(*(row.embedding_classes for row in transitive_sphere_pairs(12))) <= EMBEDDING_TAGS


def test_group_helpers():
    assert special_orthogonal(8) == parse_group("Spin(8)")
    assert special_unitary(6).rank == 5
    assert symplectic(4).dimension == 36


# -- the sphere lookup against a brute-force scan of the table ----------------------

STANDARDNESS_TAGS = ("block", "diagonal", "spinor")


def reference_passenger_match(ambient, sub, row):
    """The multiset definition: ambient = row.group x P and sub = row.isotropy x P."""
    amb, group = Counter(ambient.factors), Counter(row.group.factors)
    subgroup, isotropy = Counter(sub.factors), Counter(row.isotropy.factors)
    torus = ambient.torus_rank - row.group.torus_rank
    return (
        not group - amb and not isotropy - subgroup and amb - group == subgroup - isotropy
        and torus >= 0 and torus == sub.torus_rank - row.isotropy.torus_rank
    )


def reference_sphere_quotient(ambient, embedding):
    ell = ambient.dimension - embedding.subgroup.dimension
    for row in transitive_sphere_pairs(2 * ambient.rank + 3):
        if row.sphere_dim != ell or not row.embedding_classes & embedding.tags:
            continue
        if reference_passenger_match(ambient, embedding.subgroup, row):
            return ell
    return None


def classical_group(kind, n):
    return {"SO": special_orthogonal, "SU": special_unitary, "Sp": symplectic, "T": lambda k: GroupType((), k)}[kind](n)


classical_terms = st.tuples(st.sampled_from(("SO", "SU", "Sp", "T")), st.integers(1, 9))


@st.composite
def sphere_pairs(draw):
    """(ambient, subgroup): a table-like pair (G(m), G(m-1)) or a random one, times passenger factors."""
    if draw(st.booleans()):
        kind, m = draw(st.sampled_from(("SO", "SU", "Sp"))), draw(st.integers(2, 12))
        ambient, sub = classical_group(kind, m), classical_group(kind, m - 1)
    else:
        ambient = GroupType()
        for term in draw(st.lists(classical_terms, max_size=3)):
            ambient = ambient * classical_group(*term)
        sub = GroupType()
        for term in draw(st.lists(classical_terms, max_size=2)):
            sub = sub * classical_group(*term)
    for term in draw(st.lists(classical_terms, max_size=2)):
        passenger = classical_group(*term)
        ambient, sub = ambient * passenger, sub * passenger
    if draw(st.integers(0, 3)) == 0:  # passengers of equal dimension that differ: Spin(2k+1) and Sp(k)
        k = draw(st.integers(3, 5))
        ambient, sub = ambient * special_orthogonal(2 * k + 1), sub * symplectic(k)
    return ambient, sub


@settings(max_examples=300, deadline=None)
@given(sphere_pairs(), st.sets(st.sampled_from(STANDARDNESS_TAGS)))
def test_sphere_quotient_matches_table_scan(pair, tags):
    ambient, sub = pair
    assume(sub.dimension <= ambient.dimension and sub.rank <= ambient.rank)  # an embedding
    embedding = NamedEmbedding("drawn", ambient, sub, tags=frozenset(tags))
    expected = reference_sphere_quotient(ambient, embedding)
    event(f"sphere: {expected is not None}")
    assert sphere_quotient(embedding) == expected


def test_sphere_quotient_matches_table_scan_on_catalog_embeddings():
    matched = 0
    for embedding in default_catalog().embeddings():
        for tags in [embedding.tags] + [embedding.tags | {tag} for tag in STANDARDNESS_TAGS]:
            tagged = NamedEmbedding(embedding.id, embedding.ambient, embedding.subgroup,
                                    embedding.homotopy_map_ranks, tags)
            expected = reference_sphere_quotient(embedding.ambient, tagged)
            assert sphere_quotient(tagged) == expected, (embedding.id, sorted(tags))
            matched += expected is not None
    assert matched > 0


simple_labels = st.one_of(
    st.builds(SimpleGroupLabel, st.sampled_from("ABCD"), st.integers(1, 40)),
    st.sampled_from([SimpleGroupLabel(f, r) for f, r in (("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8))]),
)


@settings(max_examples=200, deadline=None)
@given(simple_labels)
def test_spheres_acted_on_matches_table_scan(label):
    group = GroupType((label,))
    assume(group.is_simple())  # D1 and D2 are not
    rows = transitive_sphere_pairs(2 * group.rank + 3)
    assert spheres_acted_on(group) == {row.sphere_dim for row in rows if row.group == group}
