"""The public result records: construction, immutability, ==, hash and repr."""

import pytest

from knotcalc.alexander import StaircaseData
from knotcalc.homology import KnotLikeReport, TowerReport
from knotcalc.localequiv import RepResult, standard_rep
from knotcalc.localmaps import LocalMapWitness, Prepared
from knotcalc.parsing import CableAtom, DAlias, KnotExpr, StdLiteral, Thin, Torus
from knotcalc.standard import build_standard

# field names in order, and how many leading fields ==, hash and repr cover
RECORDS = [
    (StaircaseData, ("b", "c"), 2),
    (TowerReport, ("side", "tower_generator", "tower_top_grading", "etas", "tower_dual"), 5),
    (KnotLikeReport, ("is_knot_like", "applied_shift", "reasons", "mod_u", "mod_v"), 5),
    (LocalMapWitness, ("assignment", "v_shift"), 2),
    (Prepared, ("c", "q", "m_u", "m_v", "tower", "tower_dual"), 6),
    (RepResult, ("params", "witnesses", "trace"), 3),
    (Torus, ("p", "q"), 2),
    (CableAtom, ("inner", "p", "q"), 3),
    (Thin, ("tau",), 1),
    (StdLiteral, ("params",), 1),
    (DAlias, (), 0),
    (KnotExpr, ("terms",), 1),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, names, compared", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, names, compared):
    values = [object() for _ in names]
    by_position, by_keyword = cls(*values), cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    for r in (by_position, by_keyword):
        assert [getattr(r, name) for name in names] == values


@pytest.mark.parametrize("cls, names, compared", RECORDS, ids=IDS)
def test_fields_cannot_be_reassigned(cls, names, compared):
    r = cls(*[object() for _ in names])
    for name in names:
        with pytest.raises(AttributeError):
            setattr(r, name, 0)


@pytest.mark.parametrize("cls, names, compared", RECORDS, ids=IDS)
def test_equality_hash_and_repr_cover_the_compared_fields(cls, names, compared):
    values = [object() for _ in names]
    r = cls(*values)
    assert hash(r) == hash(cls(*values))
    for i in range(len(names)):
        other = cls(*values[:i], object(), *values[i + 1:])
        assert (other == r) == (i >= compared), names[i]
        assert (other != r) == (i < compared), names[i]
        if i >= compared:
            assert hash(other) == hash(r)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names[:compared], values))
    assert repr(r) == f"{cls.__name__}({shown})"


def test_rep_results_of_one_complex_are_equal():
    c = build_standard((1, -2, 2, -1))
    first, second = standard_rep(c), standard_rep(c)
    assert first.witnesses is not second.witnesses
    assert first == second
    assert hash(first) == hash(second)
