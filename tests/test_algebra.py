import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import apply_map, box, check_complex, direct_sum, mono_for_grading, noisy_files, scramble
from knotcalc import algebra, standard
from knotcalc.algebra import (
    MAX_PARAMETER,
    Bigrading,
    Complex,
    Generator,
    Monomial,
    UNIT,
    dual,
    mono,
    mono_mul,
    power,
    reduce,
    tensor,
    unit_complex,
    validate,
    xor_term,
)
from knotcalc.errors import (
    DegreeViolationError,
    DSquaredNonzeroError,
    DuplicateGeneratorError,
    KnotCalcError,
    UnknownGeneratorError,
)
from knotcalc.homology import apply_shift
from knotcalc.parsing import parse_complex_file, serialize_complex
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


def _mono_by_construction(kind, exponent):
    """mono as a fresh Monomial: the rule the interned table must keep."""
    if kind not in ("1", "U", "V") or exponent < 0 or (kind == "1" and exponent != 0):
        raise ValueError(kind, exponent)
    return UNIT if exponent == 0 else Monomial(kind, exponent)


def _mono_mul_by_construction(a, b):
    if a.kind == "1":
        return b
    if b.kind == "1":
        return a
    return Monomial(a.kind, a.exponent + b.exponent) if a.kind == b.kind else None


exponents = st.integers(0, 60)


@given(st.sampled_from("UV"), st.integers(1, 60))
def test_power_is_one_object_per_monomial(kind, exponent):
    m = power(kind, exponent)
    assert m is power(kind, exponent) and m is mono(kind, exponent)
    assert m == Monomial(kind, exponent) and type(m) is Monomial


@given(st.sampled_from(["1", "U", "V", "W"]), exponents)
def test_mono_matches_construction(kind, exponent):
    try:
        want = _mono_by_construction(kind, exponent)
    except ValueError:
        with pytest.raises(ValueError):
            mono(kind, exponent)
        return
    assert mono(kind, exponent) == want


@given(st.sampled_from("1UV"), exponents, st.sampled_from("1UV"), exponents)
def test_mono_mul_matches_construction(k1, e1, k2, e2):
    a, b = mono(k1, e1 if k1 != "1" else 0), mono(k2, e2 if k2 != "1" else 0)
    got = mono_mul(a, b)
    assert got == _mono_mul_by_construction(a, b)
    if got is not None and got.kind != "1":
        assert got is power(got.kind, got.exponent)


def test_interned_tables_stay_bounded():
    # a long-lived process that meets ever larger exponents and parameters
    # keeps at most MAX_PARAMETER monomials of each kind and steps of each parity
    for e in range(1, 4 * MAX_PARAMETER, 7):
        assert power("U", e) == Monomial("U", e) and power("V", e) == Monomial("V", e)
        assert mono_mul(mono("V", e), mono("V", e)) == Monomial("V", 2 * e)
    big = 3 * MAX_PARAMETER
    assert build_standard((big, -1, 1, -big)).diff[1][0] == Monomial("U", big)
    for b in [*range(-big, 0), *range(1, big)]:
        assert standard.step(1, b) == ((1 - 2 * b, 1) if b > 0 else (-1 - 2 * b, -1))
        standard.step(2, b)
    assert all(len(table) <= MAX_PARAMETER for table in algebra._POWERS.values())
    assert all(len(table) <= 2 * MAX_PARAMETER + 1 for table in standard._STEPS)  # |b| <= bound
    assert power("U", big) is not power("U", big)  # built again, never stored


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


def test_validate_repeated_arrow():
    # the gradings fix an arrow's monomial, so every repeat of an arrow is the
    # same arrow: an even number of copies cancels and an odd number leaves one
    gens = [("a", (0, 0)), ("b", (-1, -1))]
    for copies in range(1, 6):
        c = validate(gens, [("a", [(UNIT, "b")] * copies)])
        assert c.diff == ({0: {1: UNIT}} if copies % 2 else {}), copies
    assert parse_complex_file("gen a 0 0\ngen b -1 -1\nd a = 1 b + 1 b\n").diff == {}
    # a repeat with another monomial breaks the degree rule
    with pytest.raises(DegreeViolationError) as info:
        parse_complex_file("gen a 0 0\ngen b -1 -1\nd a = 1 b + U^1 b\n")
    assert str(info.value) == (
        "differential entry 'a' -> 'b' violates the (-1,-1) degree rule:"
        " gr(U^1) + gr(tgt) = Bigrading(gru=-3, grv=-1), need Bigrading(gru=-1, grv=-1)"
    )


def test_validate_duplicate_generator():
    with pytest.raises(DuplicateGeneratorError):
        validate([("a", (0, 0)), ("a", (1, 1))])
    # the first repeat in declaration order is named
    with pytest.raises(DuplicateGeneratorError) as e:
        validate([("a", (0, 0)), ("b", (0, 0)), ("b", (1, 1)), ("a", (1, 1))])
    assert e.value.name == "b"


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


def _path(m1, m2):
    """a -> b -> c with arrows m1 then m2, at the gradings the degree rule forces."""
    (u2, v2), (u1, v1) = m2.grading(), m1.grading()
    b = (u2 + 1, v2 + 1)
    a = (u1 + b[0] + 1, v1 + b[1] + 1)
    return [("c", (0, 0)), ("b", b), ("a", a)], [("a", [(m1, "b")]), ("b", [(m2, "c")])]


@pytest.mark.parametrize("m1, m2", [(mono("U", 1), mono("V", 2)), (mono("V", 3), mono("U", 1))])
def test_validate_accepts_paths_that_vanish_under_uv(m1, m2):
    c = validate(*_path(m1, m2))
    assert len(c.diff) == 2


@pytest.mark.parametrize(
    "m1, m2",
    [(mono("U", 1), mono("U", 2)), (mono("V", 1), mono("V", 1)), (UNIT, mono("V", 2)), (mono("U", 2), UNIT)],
)
def test_validate_refuses_paths_that_survive_uv(m1, m2):
    with pytest.raises(DSquaredNonzeroError) as e:
        validate(*_path(m1, m2))
    assert e.value.witness == "a"


@pytest.mark.parametrize("paths, ok", [(2, True), (3, False)])
def test_validate_counts_unit_paths_over_f2(paths, ok):
    mids = [f"b{i}" for i in range(paths)]
    gens = [("c", (0, 0))] + [(b, (1, 1)) for b in mids] + [("a", (2, 2))]
    diff = [("a", [(UNIT, b) for b in mids])] + [(b, [(UNIT, "c")]) for b in mids]
    if ok:
        validate(gens, diff)
    else:
        with pytest.raises(DSquaredNonzeroError):
            validate(gens, diff)


def test_validate_normalizes_raw_monomials():
    gens = [("b", (0, 0)), ("a", (1, 1))]
    c = validate(gens, [("a", [(Monomial("U", 0), "b")])])
    assert c.diff[1][0] is UNIT
    for bad in (Monomial("U", -1), Monomial("W", 1), Monomial("1", 2)):
        with pytest.raises(ValueError):
            validate(gens, [("a", [(bad, "b")])])


# the malformed raw monomials, and the ones that raise nothing
_MALFORMED = (Monomial("U", -1), Monomial("W", 1), Monomial("1", 2))
_WELL_FORMED = (UNIT, Monomial("U", 0), Monomial("V", 0), Monomial("U", 1), Monomial("V", 2))


@st.composite
def _raw_complexes(draw):
    """Raw (generators, differential) for validate, with a drawn set of
    flaws.  Generator i has grading (2u - h, 2v - h), with u, v in {0, 1}
    and level h = i mod 3, so an arrow one level down often has a monomial
    that fits the degree rule, and paths of two arrows can break d^2 = 0.
    A source may have several rows, and a term carries the monomial that
    fits its target, with U^0 or V^0 for some units, so repeats cancel.
    The flaws: a name declared twice, an undeclared source "y" and target
    "z", which name their kind of error, malformed monomials, and
    monomials or targets that break the degree rule."""
    flaws = {f for f in ("duplicate", "unknown", "malformed", "degree") if draw(st.integers(0, 3)) == 1}
    n = draw(st.integers(1, 7))
    uv = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=n, max_size=n))
    generators = [(f"g{i}", (2 * u - i % 3, 2 * v - i % 3)) for i, (u, v) in enumerate(uv)]
    if "duplicate" in flaws:
        generators.insert(draw(st.integers(0, n)), (f"g{draw(st.integers(0, n - 1))}", (0, 0)))
    gradings = dict(reversed(generators))  # the first declaration of each name
    names = [*gradings, "z"] if "unknown" in flaws else [*gradings]  # the targets

    def fit(source, target):
        if source in gradings and target in gradings:
            (su, sv), (tu, tv) = gradings[source], gradings[target]
            return mono_for_grading(Bigrading(su - 1 - tu, sv - 1 - tv))
        return None

    fits = {s: [t for t in names if fit(s, t) is not None] for s in [*gradings, "y"]}
    sources = [s for s in gradings if fits[s] or {"degree", "unknown"} & flaws] or [*gradings]
    if "unknown" in flaws:
        sources.append("y")
    # a row at each source in some order, then a few more rows of the same sources
    sources = draw(st.permutations(sources)) + draw(st.lists(st.sampled_from(sources), max_size=3))
    differential = []
    for source in sources:
        targets = names if not fits[source] or {"degree", "unknown"} & flaws else fits[source]
        terms = []
        for target in draw(st.lists(st.sampled_from(targets), max_size=4)):
            m = fit(source, target)
            if m is None or "degree" in flaws and draw(st.booleans()):
                m = draw(st.sampled_from(_WELL_FORMED))
            elif m is UNIT:
                m = draw(st.sampled_from(_WELL_FORMED[:3]))
            if "malformed" in flaws and draw(st.integers(0, 3)) == 1:
                m = draw(st.sampled_from(_MALFORMED))
            terms.append((m, target))
        differential.append((source, terms))
    return generators, differential


def _validated(build, generators, differential):
    """The outcome of *build*: the error, or the complex with the key order
    of its differential and the item order of each row."""
    try:
        c = build(generators, differential)
    except (KnotCalcError, ValueError) as e:
        return type(e), str(e)
    return c.gens, [(s, list(row.items())) for s, row in c.diff.items()]


@settings(max_examples=300)
@given(_raw_complexes())
def test_validate_matches_the_rule_by_rule_check(raw):
    assert _validated(validate, *raw) == _validated(check_complex, *raw)


def _d_squared_by_apply_map(c):
    """The d^2 check as d(d(s)) computed by apply_map: the name of the least
    source where it is nonzero, or None."""
    for s in sorted(c.diff):
        if apply_map(c.diff, c.diff[s]):
            return c.gens[s].name
    return None


def revalidate(c):
    """Re-run every check of validate on an existing complex."""
    return parse_complex_file(serialize_complex(c))


def _d_squared_witness(c):
    try:
        revalidate(c)
    except DSquaredNonzeroError as e:
        return e.witness
    return None


def _assert_d_squared_matches_apply_map(c, rng, edits=15):
    """The check agrees with apply_map on c and on c with one arrow of legal
    degree added or removed, for *edits* random arrows."""
    assert _d_squared_witness(c) is None and _d_squared_by_apply_map(c) is None
    n = len(c.gens)
    for _ in range(edits):
        s, t = rng.randrange(n), rng.randrange(n)
        m = mono_for_grading(c.gens[s].grading - Bigrading(1, 1) - c.gens[t].grading)
        if m is None:
            continue
        diff = {x: dict(row) for x, row in c.diff.items()}
        xor_term(diff.setdefault(s, {}), t, m)
        edited = Complex(c.gens, {x: row for x, row in diff.items() if row})
        assert _d_squared_witness(edited) == _d_squared_by_apply_map(edited)


@given(st.sampled_from([(1, -1), (1, -2, 2, -1), (2, -1, 1, -2), (-1, 3, -3, 1)]), st.integers(0, 2**31))
def test_d_squared_matches_apply_map(p, seed):
    rng = random.Random(seed)
    base = build_standard(p)
    c = scramble(direct_sum(base, box(1, 2, tag="k"), _unit_pair(tuple(base.gens[1].grading), "u")), rng)
    prod = tensor(build_standard(p), c)
    for cx in (c, reduce(c), prod, reduce(prod), dual(c)):
        _assert_d_squared_matches_apply_map(cx, rng)


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


def test_reduce_without_unit_arrows_returns_its_input_after_the_d_squared_check():
    c = build_standard((1, -2, 2, -1))
    r = reduce(c)  # nothing to cancel
    assert (r.gens, r.diff) == (c.gens, c.diff)
    # a -> b -> c by V then V: one path, so d^2(a) = V^2 c; Complex skips validate
    gens = tuple(Generator(name, Bigrading(0, v)) for name, v in (("a", 0), ("b", -3), ("c", -6)))
    bad = Complex(gens, {0: {1: mono("V", 1)}, 1: {2: mono("V", 1)}})
    with pytest.raises(DSquaredNonzeroError, match="starting at generator 'a'"):
        reduce(bad)


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
@example((1, -1), 32, 2)  # a cancellation here creates a unit arrow, which reduce queues
def test_reduce_matches_rescan_on_scrambled_inputs(p, seed, pairs):
    rng = random.Random(seed)
    base = build_standard(p)
    extra = [_unit_pair(tuple(rng.choice(base.gens).grading), f"u{i}") for i in range(pairs)]
    c = scramble(direct_sum(base, box(1, 2, tag="k"), *extra), rng)
    assert not c.is_reduced
    _assert_reduce_matches_rescan(c)


def test_reduce_matches_rescan_on_noisy_files():
    # the files as parsed, before reduce cancels 121 generators to 75
    for _, text in noisy_files():
        c = parse_complex_file(text)
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
