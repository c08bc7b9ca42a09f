import random

import pytest
from hypothesis import given, strategies as st

from conftest import box, direct_sum, scramble
from knotcalc.algebra import (
    Bigrading,
    Complex,
    UNIT,
    dual,
    mono,
    mono_for_grading,
    mono_mul,
    reduce,
    revalidate,
    tensor,
    unit_complex,
    validate,
    xor_term,
)
from knotcalc.errors import (
    DegreeViolationError,
    DSquaredNonzeroError,
    DuplicateGeneratorError,
    UnknownGeneratorError,
)
from knotcalc.homology import apply_shift
from knotcalc.parsing import serialize_complex
from knotcalc.standard import build_standard


def _shape(c):
    """Canonical form ignoring generator names."""
    return (
        tuple(tuple(g.grading) for g in c.gens),
        tuple(sorted((s, t, m) for s, row in c.diff.items() for t, m in row.items())),
    )


# --- monomials ---------------------------------------------------------------


def test_monomial_gradings():
    assert UNIT.grading() == Bigrading(0, 0)
    assert mono("U", 3).grading() == Bigrading(-6, 0)
    assert mono("V", 2).grading() == Bigrading(0, -4)


def test_uv_is_zero():
    assert mono_mul(mono("U", 1), mono("V", 1)) is None
    assert mono_mul(mono("U", 2), mono("U", 3)) == mono("U", 5)
    assert mono_mul(UNIT, mono("V", 2)) == mono("V", 2)


def test_zero_exponent_normalizes_to_unit():
    assert mono("U", 0) is UNIT
    assert mono("V", 0) is UNIT


def test_mono_for_grading_round_trip():
    for m in (UNIT, mono("U", 4), mono("V", 1)):
        assert mono_for_grading(m.grading()) == m
    assert mono_for_grading(Bigrading(-1, 0)) is None
    assert mono_for_grading(Bigrading(-2, -2)) is None
    assert mono_for_grading(Bigrading(2, 0)) is None


# --- validate ----------------------------------------------------------------


def test_validate_paper_arrow():
    c = validate(
        [("x0", (0, -6)), ("x1", (-1, -5))],
        [("x1", [(mono("U", 1), "x0")])],
    )
    assert len(c) == 2
    assert c.is_reduced


def test_validate_single_generator_is_reduced():
    c = validate([("a", (0, 0))])
    assert c.is_reduced and len(c) == 1


def test_validate_degree_violation():
    with pytest.raises(DegreeViolationError):
        validate(
            [("x0", (0, -5)), ("x1", (0, -5))],
            [("x1", [(mono("U", 1), "x0")])],
        )


@pytest.mark.parametrize(
    "m, want",
    [
        (mono("U", 1), "gr(U^1) + gr(tgt) = Bigrading(gru=-2, grv=-5), need Bigrading(gru=-1, grv=-6)"),
        (mono("V", 2), "gr(V^2) + gr(tgt) = Bigrading(gru=0, grv=-9), need Bigrading(gru=-1, grv=-6)"),
        (mono("1", 0), "gr(1) + gr(tgt) = Bigrading(gru=0, grv=-5), need Bigrading(gru=-1, grv=-6)"),
    ],
)
def test_validate_degree_violation_message(m, want):
    with pytest.raises(DegreeViolationError) as info:
        validate([("x0", (0, -5)), ("x1", (0, -5))], [("x1", [(m, "x0")])])
    assert str(info.value) == (
        f"differential entry 'x1' -> 'x0' violates the (-1,-1) degree rule: {want}"
    )
    assert (info.value.src, info.value.tgt) == ("x1", "x0")


def test_validate_duplicate_generator():
    with pytest.raises(DuplicateGeneratorError):
        validate([("a", (0, 0)), ("a", (1, 1))])


def test_validate_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        validate([("a", (0, 0))], [("b", [(UNIT, "a")])])


def test_validate_d_squared():
    # b -> a -> z with unit arrows and no cancelling path
    with pytest.raises(DSquaredNonzeroError):
        validate(
            [("z", (0, 0)), ("a", (1, 1)), ("b", (2, 2))],
            [("a", [(UNIT, "z")]), ("b", [(UNIT, "a")])],
        )


# --- reduce ------------------------------------------------------------------


def test_reduce_cancels_acyclic_pair():
    c = validate(
        [("a", (0, 0)), ("b", (1, 1)), ("c", (0, 0))],
        [("b", [(UNIT, "a")])],
    )
    r = reduce(c)
    assert [g.name for g in r.gens] == ["c"]


def test_reduce_fixed_point_on_standard():
    c = build_standard((1, -1))
    assert _shape(reduce(c)) == _shape(c)


def test_reduce_composite_arrow():
    # cancelling (x, a) with dx = a + U y and dw = U^2 a leaves dw = U^3 y
    c = validate(
        [("a", (0, 0)), ("x", (1, 1)), ("y", (2, 0)), ("w", (-3, 1))],
        [("x", [(UNIT, "a"), (mono("U", 1), "y")]), ("w", [(mono("U", 2), "a")])],
    )
    r = reduce(c)
    assert [g.name for g in r.gens] == ["y", "w"]
    assert r.diff == {r.index("w"): {r.index("y"): mono("U", 3)}}


def test_reduce_idempotent():
    rng = random.Random(7)
    c = direct_sum(build_standard((1, -2, 2, -1)), box(2, 1, tag="k"))
    c = scramble(c, rng)
    r1 = reduce(c)
    assert len(reduce(r1)) == len(r1)


def test_reduce_recovers_scrambled_unit_pairs():
    # plant an acyclic unit pair at an existing grading, mix it in with
    # random basis changes, and check reduce strips exactly that pair
    rng = random.Random(31)
    base = build_standard((1, -2, 2, -1))
    gamma = tuple(base.gens[2].grading)
    pair = validate(
        [("q", gamma), ("p", (gamma[0] + 1, gamma[1] + 1))],
        [("p", [(UNIT, "q")])],
    )
    c = scramble(direct_sum(base, pair), rng, steps=40)
    r = reduce(c)
    assert len(r) == len(base)
    from knotcalc.localequiv import standard_rep

    assert standard_rep(r).params == (1, -2, 2, -1)


def test_reduce_preserves_gradings_and_validates():
    c = validate(
        [("a", (0, 0)), ("b", (1, 1)), ("c", (0, 0))],
        [("b", [(UNIT, "a")])],
    )
    r = reduce(c)
    revalidate(r)
    assert r.gens[0].grading == Bigrading(0, 0)


def _reduce_by_rescan(c):
    """Cancel the unit arrow of least source, then least target, rescanning
    every row for it and stripping every row after each cancellation."""
    gens = list(c.gens)
    diff = {s: dict(row) for s, row in c.diff.items()}
    while True:
        pair = None
        for s in range(len(gens)):
            row = diff.get(s)
            if gens[s] is None or not row:
                continue
            units = [t for t in sorted(row) if row[t].kind == "1"]
            if units:
                pair = (s, units[0])
                break
        if pair is None:
            break
        x, a = pair
        dx = diff.get(x, {})
        for y in list(diff):
            if y in (x, a) or gens[y] is None or a not in diff[y]:
                continue
            row = diff[y]
            coeff = row[a]
            for b, mb in dx.items():
                if b in (x, a):
                    continue
                p = mono_mul(coeff, mb)
                if p is not None:
                    xor_term(row, b, p)
            del row[a]
            if not row:
                del diff[y]
        diff.pop(x, None)
        diff.pop(a, None)
        for row in diff.values():
            row.pop(x, None)
            row.pop(a, None)
        gens[x] = gens[a] = None
    keep = [i for i, g in enumerate(gens) if g is not None]
    renum = {old: new for new, old in enumerate(keep)}
    return Complex(
        tuple(gens[i] for i in keep),
        {renum[s]: {renum[t]: m for t, m in row.items()} for s, row in diff.items() if row},
    )


def _assert_reduce_matches_rescan(c):
    got, want = reduce(c), _reduce_by_rescan(c)
    assert serialize_complex(got) == serialize_complex(want)
    # the same arrows in the same dict order, not just the same complex
    assert [(s, list(row.items())) for s, row in got.diff.items()] == [
        (s, list(row.items())) for s, row in want.diff.items()
    ]


def _unit_pair(grading, tag):
    gu, gv = grading
    return validate([(f"{tag}q", (gu, gv)), (f"{tag}p", (gu + 1, gv + 1))], [(f"{tag}p", [(UNIT, f"{tag}q")])])


@given(st.sampled_from([(1, -1), (1, -2, 2, -1), (2, -1, 1, -2), (1, -3, 3, -1)]),
       st.integers(0, 2**31), st.integers(1, 4))
def test_reduce_matches_rescan_on_scrambled_inputs(p, seed, pairs):
    rng = random.Random(seed)
    base = build_standard(p)
    extra = [_unit_pair(tuple(rng.choice(base.gens).grading), f"u{i}") for i in range(pairs)]
    c = scramble(direct_sum(base, box(1, 2, tag="k"), *extra), rng)
    assert not c.is_reduced
    _assert_reduce_matches_rescan(c)


def test_reduce_matches_rescan_on_products():
    rng = random.Random(5)
    pair = _unit_pair((0, 0), "u")
    for p, q in [((1, -1), (2, -2)), ((1, -2, 2, -1), (-1, 1)), ((2, -1, 1, -2), (1, -1, 1, -1))]:
        c = tensor(direct_sum(build_standard(p), pair), direct_sum(build_standard(q), pair))
        _assert_reduce_matches_rescan(c)
        _assert_reduce_matches_rescan(scramble(c, rng, steps=len(c.gens)))


# --- tensor ------------------------------------------------------------------


def test_tensor_unit_is_identity():
    c = build_standard((1, -2, 2, -1))
    t = tensor(unit_complex(), c)
    assert _shape(t) == _shape(c)
    t2 = tensor(c, unit_complex())
    assert _shape(t2) == _shape(c)


def test_tensor_generator_count_and_gradings():
    a = build_standard((2, -2))
    b = build_standard((1, -1))
    t = tensor(a, b)
    assert len(t) == len(a) * len(b)
    # bigrading of a pair is the sum
    for i, x in enumerate(a.gens):
        for j, y in enumerate(b.gens):
            assert t.gens[i * len(b) + j].grading == x.grading + y.grading
    revalidate(t)


def test_tensor_product_of_squares_validates():
    t = tensor(build_standard((1, -3, 3, -1)), build_standard((2, -2)))
    revalidate(t)
    assert len(t) == 15


def test_tensor_refuses_colliding_names():
    # "a" with "b|c" and "a|b" with "c" are both named "a|b|c"
    c1 = validate([("a", (0, 0)), ("a|b", (0, 0))])
    c2 = validate([("c", (0, 0)), ("b|c", (0, 0))])
    with pytest.raises(DuplicateGeneratorError) as e:
        tensor(c1, c2)
    assert e.value.name == "a|b|c"


# --- dual --------------------------------------------------------------------


def test_dual_of_standard_is_negated_params():
    d = dual(build_standard((1, -2, 2, -1)))
    expect = build_standard((-1, 2, -2, 1))
    assert _shape(d) == _shape(expect)


def test_dual_of_unit():
    assert _shape(dual(unit_complex())) == _shape(unit_complex())


def test_dual_of_neg_trefoil_shape():
    assert _shape(dual(build_standard((-1, 1)))) == _shape(build_standard((1, -1)))


def test_dual_involution():
    c = tensor(build_standard((2, -1)), build_standard((-1, 2)))
    assert _shape(dual(dual(c))) == _shape(c)


# --- randomized structure properties -----------------------------------------

_params = st.lists(
    st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=0, max_size=4
).map(lambda xs: tuple(xs[: len(xs) // 2 * 2]))


@given(_params, _params)
def test_tensor_count_property(p, q):
    a, b = build_standard(p), build_standard(q)
    assert len(tensor(a, b)) == len(a) * len(b)


@given(_params)
def test_dual_involution_property(p):
    c = build_standard(p)
    assert _shape(dual(dual(c))) == _shape(c)


@given(_params)
def test_operations_revalidate(p):
    c = build_standard(p)
    revalidate(reduce(c))
    revalidate(dual(c))
    revalidate(tensor(c, c))
    shifted = apply_shift(c, (2, -4))
    revalidate(shifted)
    assert serialize_complex(apply_shift(shifted, (-2, 4))) == serialize_complex(c)
