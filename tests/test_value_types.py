"""The value-type contract: checked construction, immutability, field-wise equality and hashing."""

import pytest

from cohomone.brieskorn import BrieskornParams
from cohomone.classification import ClassificationOutcome, CorankTwoRow, SevenFamilyParams
from cohomone.errors import InvalidEmbedding, InvalidLabel, InvalidParams, Unsupported
from cohomone.lie_catalog import GroupType, NamedEmbedding, SimpleGroupLabel, parse_group
from cohomone.polynomial import IntegerPolynomial

SU2, SU3, SU4 = (parse_group(f"SU({n})") for n in (2, 3, 4))

#: (a valid value, field changes that make it invalid, the error they raise, a part of its message)
CASES = [
    (SimpleGroupLabel("A", 2), {"family": "X"}, InvalidLabel, "unknown family 'X'"),
    (SimpleGroupLabel("A", 2), {"rank": 0}, InvalidLabel, "rank must be positive, got A0"),
    (SimpleGroupLabel("G2", 2), {"rank": 3}, InvalidLabel, "G2 has fixed rank 2"),
    (SU3, {"torus_rank": -1}, InvalidLabel, "torus rank must be non-negative"),
    (NamedEmbedding("e", SU3, SU2), {"subgroup": SU4}, InvalidEmbedding,
     "e: subgroup dimension exceeds ambient dimension"),
    (NamedEmbedding("e", SU3, SU2), {"homotopy_map_ranks": ((3, 2),)}, InvalidEmbedding,
     "e: degree-3 map rank 2 exceeds multiplicity bound"),
    (NamedEmbedding("e", SU3, SU2), {"tags": frozenset({"block", "winding:1"})}, InvalidLabel,
     r"e: unknown tag 'winding:1' \(allowed: 'block', 'corank2', 'diagonal', 'proper-projections', 'spinor'\)"),
    (NamedEmbedding("e", SU3, SU2), {"winding": True}, InvalidLabel, "e: winding must be an int or None, got True"),
    (NamedEmbedding("e", SU3, SU2), {"slope": (5,)}, InvalidLabel, "e: slope must be a pair of ints or None"),
    (NamedEmbedding("e", SU3, SU2), {"slope": [5, 1]}, InvalidLabel, "e: slope must be a pair of ints or None"),
    (NamedEmbedding("e", SU3, SU2), {"contains": {"h"}}, InvalidLabel,
     "e: contains must be a frozenset of embedding ids"),
    (IntegerPolynomial((1, 2)), {"coefficients": ("x",)}, ValueError, "invalid literal"),
    (BrieskornParams(4, 5), {"m": 1}, Unsupported, "m must be at least 3"),
    (BrieskornParams(4, 5), {"d": 0}, InvalidParams, "d must be at least 1, got 0"),
    (SevenFamilyParams(1, 1, 5, 1), {"p_plus": 3}, InvalidParams, "p_plus = 3 is not congruent to 1 mod 4"),
    (SevenFamilyParams(1, 1, 5, 1), {"q_plus": 2, "q_minus": 7}, InvalidParams, "q_minus = 7 is not congruent"),
    (CorankTwoRow(SU4, SU2, 5, 12, 7, "su4-su2", "su4-su2", None), {"ell_plus": 6}, InvalidParams,
     "su4-su2: inconsistent degree columns"),
    (CorankTwoRow(SU4, SU2, 5, 12, 7, "su4-su2", "su4-su2", None), {"ell_minus": 4, "ell_plus": 8},
     InvalidParams, "su4-su2: ell_minus must be odd"),
    (ClassificationOutcome("brieskorn", m=4, d=5), {"kind": "nope"}, InvalidParams, "unknown outcome kind 'nope'"),
    (ClassificationOutcome("brieskorn", m=4, d=5), {"d": None}, InvalidParams,
     "brieskorn outcomes require d of type int, got None"),
    (ClassificationOutcome("brieskorn", m=4, d=5), {"m": 3, "d": 4}, InvalidParams,
     "Brieskorn outcomes require m even or d odd"),
    (ClassificationOutcome("wu"), {"reason": "x"}, InvalidParams, "wu outcomes take no reason, got 'x'"),
]


@pytest.mark.parametrize("value, changes, error, message", CASES,
                         ids=[f"{type(value).__name__}-{'-'.join(changes)}" for value, changes, *_ in CASES])
def test_validated_type_keeps_its_contract(value, changes, error, message):
    cls = type(value)
    with pytest.raises(error, match=message):
        cls(**{**value._asdict(), **changes})
    with pytest.raises(error, match=message):  # _replace builds through the checks too
        value._replace(**changes)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    again = cls(**value._asdict())
    assert again == value and hash(again) == hash(value) and again._replace() == value


def test_value_types_stay_canonical_and_ordered():
    # _replace canonicalizes as the constructor does: Spin(6) = SU(4), Spin(3) = SU(2)
    replaced = GroupType()._replace(factors=(SimpleGroupLabel("D", 3), SimpleGroupLabel("B", 1)))
    assert replaced == SU4 * SU2 and replaced.factors == (SimpleGroupLabel("A", 1), SimpleGroupLabel("A", 3))
    assert IntegerPolynomial((1, 0))._replace(coefficients=(2, 0, 0)) == IntegerPolynomial((2,))
    labels = [SimpleGroupLabel(*label) for label in (("E6", 6), ("B", 3), ("A", 3), ("D", 4), ("A", 1), ("B", 2))]
    assert [str(label) for label in sorted(labels)] == ["A1", "A3", "B2", "B3", "D4", "E6"]
    # tuple concatenation and repetition are not polynomial or group arithmetic
    for a, b in ((IntegerPolynomial((1,)), IntegerPolynomial((1,))), (SU2, SU2)):
        with pytest.raises(TypeError, match="unsupported operand"):
            a + b  # noqa: B018
        with pytest.raises(TypeError, match="unsupported operand"):
            2 * a  # noqa: B018
