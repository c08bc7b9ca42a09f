import itertools
import random

import pytest

from conftest import apply_map, box, direct_sum, mono_for_grading, scramble
from knotcalc import gf2, localmaps
from knotcalc.alexander import recipe_factors
from knotcalc.algebra import (
    UNIT,
    Bigrading,
    dual,
    mono,
    reduce,
    tensor,
    unit_complex,
    validate,
)
from knotcalc.errors import (
    BudgetExceededError,
    NotKnotLikeError,
    UnknownGeneratorError,
    VerificationFailedError,
)
from knotcalc.homology import MOD_U, apply_shift, element_grading
from knotcalc.localmaps import (
    LocalMapWitness,
    brute_force_local_map,
    exists_local_map,
    exists_short_local_map,
    prepare_target,
    verify_local_map,
)
from knotcalc.localequiv import standard_rep
from knotcalc.standard import GT, build_standard, lex_cmp
from knotcalc.witness import Prepared, build_witness, check_witness

# small parameter pool used for exhaustive cross-checks
SMALL = [()] + [(a, b) for a in (1, -1, 2, -2) for b in (1, -1, 2, -2)]


def test_unit_into_trefoil_like():
    w = exists_local_map(unit_complex(), build_standard((1, -1)))
    assert w is not None
    assert verify_local_map(unit_complex(), build_standard((1, -1)), w)


def test_trefoil_like_into_unit_fails():
    assert exists_local_map(build_standard((1, -1)), unit_complex()) is None


def test_identity_map_exists():
    for p in [(), (1, -1), (1, -2, 2, -1), (-2, 1)]:
        c = build_standard(p)
        w = exists_local_map(c, c)
        assert w is not None and verify_local_map(c, c, w)


def test_rejects_non_knot_like():
    two = direct_sum(unit_complex(), unit_complex())
    with pytest.raises(NotKnotLikeError):
        exists_local_map(two, unit_complex())
    with pytest.raises(NotKnotLikeError):
        exists_local_map(unit_complex(), box(1, 1))


def test_order_matches_lex_on_standards():
    for p, q in itertools.product(SMALL, SMALL):
        expect = lex_cmp(p, q) != GT
        got = exists_local_map(build_standard(p), build_standard(q)) is not None
        assert got == expect, (p, q)


def test_order_duality():
    pool = [(), (1, -1), (2, -2), (-1, 2), (1, -2, 2, -1)]
    for p, q in itertools.product(pool, pool):
        s, c = build_standard(p), build_standard(q)
        fwd = exists_local_map(s, c) is not None
        rev = exists_local_map(dual(c), dual(s)) is not None
        assert fwd == rev, (p, q)


def test_composition_soundness():
    chains = [((), (1, -1), (1, -1, 1, -1)), ((-1, 1), (), (2, -1)), ((1, -2), (1, -1), (1, -1, 2, -2))]
    for a, b, c in chains:
        sa, sb, sc = map(build_standard, (a, b, c))
        if exists_local_map(sa, sb) and exists_local_map(sb, sc):
            assert exists_local_map(sa, sc) is not None


# --- short maps ----------------------------------------------------------------


def test_short_map_examples():
    c11 = build_standard((1, -1))
    w = exists_short_local_map((1,), c11)
    assert w is not None
    assert exists_short_local_map((1, 1), c11) is None


def test_short_map_prefix_of_own_params():
    c = build_standard((1, -2, 2, -1))
    for k in range(1, 5):
        assert exists_short_local_map((1, -2, 2, -1)[:k], c) is not None


def test_short_map_empty_params():
    assert exists_short_local_map((), build_standard((1, -1))) is not None


def test_short_maps_detect_next_parameter():
    # against C(2,-2): the first parameter is 2, so the shorter arrow (which
    # is greater in the unusual order) must not admit a short map ...
    c = build_standard((2, -2))
    assert exists_short_local_map((1,), c) is None
    assert exists_short_local_map((2,), c) is not None
    # ... while the longer arrow does, by hitting U times the pair source;
    # it loses to 2 in the descending candidate scan
    assert exists_short_local_map((3,), c) is not None


# --- slots --------------------------------------------------------------------


def _slots_by_scan(dom, tower, tgt):
    """Test every (source, target) pair, targets in (grading, index) order,
    numbering the slots across all sources."""
    v_shift = tgt.q - element_grading(dom, MOD_U, tower).grv
    by_grading = sorted(range(len(tgt.c.gens)), key=lambda t: (tuple(tgt.c.gens[t].grading), t))
    by_source, bit = [], 0
    for g in dom.gens:
        want = g.grading + Bigrading(0, v_shift)
        by_source.append([])
        for t in by_grading:
            m = mono_for_grading(want - tgt.c.gens[t].grading)
            if m is not None:
                by_source[-1].append((t, bit, m))
                bit += 1
    return v_shift, by_source, bit


def _assert_slots_match(src, tgt):
    # the solver's V-shift is tgt.q - src.q; the scan derives it from the
    # domain's tower instead
    by_source, nbits = localmaps._slots(src, tgt)
    assert nbits  # the comparison is not vacuous
    assert (tgt.q - src.q, by_source, nbits) == _slots_by_scan(src.c, src.tower, tgt)


def _short_domain(p):
    """The domain of short_map(p, tgt): C(p) anchored at gr(x_0) = (0, 0),
    whose tower is x_0."""
    return Prepared(build_standard(p, v_anchor=0), 0, 0, 0, {0: 0}, {0: 0})


def test_slots_match_scan_on_standard_pairs():
    prepared = [prepare_target(build_standard(p)) for p in SMALL]
    for src, tgt in itertools.product(prepared, prepared):
        _assert_slots_match(src, tgt)


def test_slots_match_scan_on_shifted_products():
    pool = [(1, -1), (2, -2), (-1, 2), (1, -2, 2, -1), (2, 1)]
    products = [
        prepare_target(apply_shift(tensor(build_standard(p), build_standard(q)), (2, -4)))
        for p, q in itertools.combinations(pool, 2)
    ]
    for src, tgt in itertools.product(products, products + [prepare_target(build_standard((1, -1)))]):
        _assert_slots_match(src, tgt)


def test_slots_match_scan_on_short_map_domains():
    targets = [prepare_target(build_standard(q)) for q in [(1, -2, 2, -1), (2, -1, -1, 2)]]
    targets.append(prepare_target(tensor(build_standard((2, -2)), build_standard((1, -1)))))
    for tgt in targets:
        for p in [(1,), (-2,), (1, -1), (2, -1, 1), (1, -2, 2, -1), (-1, 2, 1, -2, 3)]:
            _assert_slots_match(_short_domain(p), tgt)


def _backward_maps():
    """(input, representative) prepared for standard_rep's map back: noisy
    complexes (a standard complex, boxes and a contractible pair, scrambled)
    and the fold steps of two recipes, each into its representative."""
    inputs = []
    for seed, p in enumerate([(1, -2, 2, -1), (2, -1, 1, -2), (1, -3, 2, -2, 3, -1)]):
        c = direct_sum(build_standard(p), box(1 + seed, 2, tag="k"), box(2, 1, tag="m"),
                       validate([("u", (3, 1)), ("w", (2, 0))], [("u", [(UNIT, "w")])]))
        inputs.append(scramble(c, random.Random(seed)))
    for recipe in ["Cable(D;2,5) - T(2,5)", "T(3,4) + T(2,5) - T(2,7)"]:
        first, *rest = recipe_factors(recipe)
        for p in rest:
            inputs.append(tensor(build_standard(first), build_standard(p)))
            first = standard_rep(inputs[-1]).params
    for c in inputs:
        yield prepare_target(reduce(c)), prepare_target(build_standard(standard_rep(c).params))


def test_slots_match_scan_on_backward_maps():
    for big, rep in _backward_maps():
        assert len(big.c.gens) > 2 * len(rep.c.gens)
        _assert_slots_match(big, rep)


def test_backward_witness_matches_rows_at_every_source(monkeypatch):
    real, solved = gf2.solve_affine, []

    def recording(rows, nvars):
        solved.append(rows)
        return real(rows, nvars)

    monkeypatch.setattr(gf2, "solve_affine", recording)
    idle = 0
    for big, rep in _backward_maps():
        witness = localmaps.map_between(big, rep)
        by_source, nbits = localmaps._slots(big, rep)
        rows = []
        for s in range(len(big.c.gens)):
            at_s = localmaps._source_rows(s, big.c.diff.get(s, {}), by_source, rep, None)
            rows += [(mask, 0) for mask in at_s.values()]
            idle += not at_s
        rows.append(localmaps._tower_row(big.tower, by_source, rep))
        # the solver got every row, in the same order: the sources it skipped have none
        assert solved.pop() == rows
        assert witness == build_witness(big, rep, localmaps._images(by_source, real(rows, nbits)))
    assert idle  # the comparison is not vacuous


# --- oracle --------------------------------------------------------------------


def test_brute_force_budget():
    big = build_standard((1, -1, 1, -1, 1, -1))
    with pytest.raises(BudgetExceededError):
        brute_force_local_map(big, tensor(big, big), budget=8)


def test_brute_force_matches_solver_exhaustively():
    checked = 0
    for p, q in itertools.product(SMALL, SMALL):
        s, c = build_standard(p), build_standard(q)
        try:
            got = brute_force_local_map(s, c) is not None
        except BudgetExceededError:
            continue
        assert got == (exists_local_map(s, c) is not None), (p, q)
        checked += 1
    assert checked == len(SMALL) ** 2


def test_brute_force_on_units():
    assert brute_force_local_map(unit_complex(), unit_complex()) is not None
    assert brute_force_local_map(build_standard((1, -1)), unit_complex()) is None


# --- witnesses -----------------------------------------------------------------


def test_witness_structure():
    s = build_standard((1, -1))
    c = build_standard((1, -2, 2, -1))
    w = exists_local_map(s, c)
    assert w is not None
    image = dict(w.assignment)
    assert image["x0"]  # the tower generator must go somewhere
    assert verify_local_map(s, c, w)


def test_witness_verification_rejects_tampering():
    s = build_standard((1, -1))
    c = build_standard((1, -2, 2, -1))
    w = exists_local_map(s, c)
    from knotcalc.localmaps import LocalMapWitness

    broken = LocalMapWitness(
        assignment=tuple((src, ()) for src, _ in w.assignment),
        v_shift=w.v_shift,
    )
    assert not verify_local_map(s, c, broken)


# --- the sparse definition check against the every-source loop ---------------


def _check_witness_every_source(src, tgt, witness, relaxed=None):
    """The definition check that tests the chain condition at every source."""
    dom, f = src.c, {}
    for src_name, terms in witness.assignment:
        s = dom.index(src_name)
        f[s] = {}
        want = dom.gens[s].grading + Bigrading(0, witness.v_shift)
        for m, tgt_name in terms:
            t = tgt.c.index(tgt_name)
            if m.grading() + tgt.c.gens[t].grading != want:
                return False
            f[s][t] = m
    for s in range(len(dom.gens)):
        kind = relaxed[1] if relaxed and relaxed[0] == s else None
        lhs = apply_map(tgt.c.diff, f.get(s, {}), kind)
        if lhs != apply_map(f, apply_map(dom.diff, {s: UNIT}, kind)):
            return False
    image_mod_u = {}
    for g, k in src.tower.items():
        for t, m in f.get(g, {}).items():
            if m.kind == "U":
                continue
            exp = k + m.exponent if m.kind == "V" else k
            if t in image_mod_u and image_mod_u[t] == exp:
                del image_mod_u[t]
            elif t in image_mod_u:
                return False
            else:
                image_mod_u[t] = exp
    coeff = {}
    for t, vexp in image_mod_u.items():
        if t in tgt.tower_dual:
            total = vexp + tgt.tower_dual[t]
            coeff[total] = coeff.get(total, 0) ^ 1
    return {e: v for e, v in coeff.items() if v} == {0: 1}


def _two_generator_tower():
    """A scrambled C(1,-1) plus a box, whose mod-U tower {0: 0, 4: 0} has
    two generators.  A self-map can send both to generator 4, the one
    generator of the tower's dual, where their images cancel in the tower
    condition."""
    c = reduce(scramble(direct_sum(build_standard((1, -1)), box(1, 2)), random.Random(7)))
    prepared = prepare_target(c)
    assert prepared.tower == {0: 0, 4: 0} and prepared.tower_dual == {4: 0}
    return prepared


def _small_instances():
    """(src, tgt, relaxed) for full maps between SMALL standard
    complexes and a nine-generator product, both ways, for the self-maps of
    _two_generator_tower, and for short maps from prefixes of SMALL."""
    prepared = [prepare_target(build_standard(p)) for p in SMALL]
    product = prepare_target(reduce(tensor(build_standard((2, -2)), build_standard((1, -1)))))
    towers = _two_generator_tower()
    pairs = [*itertools.product(prepared, prepared), *((product, t) for t in prepared),
             *((t, product) for t in prepared), (towers, towers)]
    for src, tgt in pairs:
        yield src, tgt, None
    for p, tgt in itertools.product(SMALL, prepared):
        for k in range(1, len(p) + 1):
            yield _short_domain(p[:k]), tgt, (k, "V" if k % 2 == 0 else "U")


def test_sparse_check_matches_every_source_loop():
    verdicts = {True: 0, False: 0}
    for src, tgt, relaxed in _small_instances():
        by_source, nbits = localmaps._slots(src, tgt)
        for mask in range(1 << nbits):
            w = build_witness(src, tgt, localmaps._images(by_source, mask))
            got = check_witness(src, tgt, w, relaxed)
            assert got == _check_witness_every_source(src, tgt, w, relaxed)
            verdicts[got] += 1
    assert verdicts[True] > 100 and verdicts[False] > 1000


def test_sparse_check_rejects_a_map_nonzero_only_on_a_target():
    # C(1,-1): x1 -> U x0 and x1 -> V x2.  Sending x0 to itself and the rest
    # to 0 meets the tower condition and the chain condition at x0 and x2,
    # but at x1, where f is 0, f(d x1) = U x0 while d f(x1) = 0.
    c = prepare_target(build_standard((1, -1)))
    assert c.c.diff[1] and 0 in c.c.diff[1]
    w = LocalMapWitness(assignment=(("x0", ((UNIT, "x0"),)), ("x1", ()), ("x2", ())), v_shift=0)
    assert not _check_witness_every_source(c, c, w)
    assert not check_witness(c, c, w)
    # the identity itself passes both
    ident = LocalMapWitness(
        assignment=tuple((g.name, ((UNIT, g.name),)) for g in c.c.gens), v_shift=0
    )
    assert check_witness(c, c, ident)


def test_sparse_check_still_looks_up_every_source_name():
    c = prepare_target(build_standard((1, -1)))
    w = LocalMapWitness(assignment=(("x0", ((UNIT, "x0"),)), ("nope", ())), v_shift=0)
    with pytest.raises(UnknownGeneratorError):
        check_witness(c, c, w)


def _source(dom, tower):
    """dom with the given mod-U tower as the source of a check, which reads
    only a source's complex and tower (the witness carries its V-shift)."""
    return Prepared(dom, 0, 0, 0, tower, {})


def test_check_refuses_a_term_of_the_wrong_grading():
    # The exhaustive test above draws every witness from the slots, so every
    # term it checks has the right grading.  Here C(1,-1) plus a lone
    # generator z, where both U x0 and V x2 fit; x0 and x2 have no arrow
    # out and nothing points at z, so the chain and tower conditions cannot
    # see z's term and only the grading check refuses a wrong monomial.
    tgt = prepare_target(build_standard((1, -1)))
    (_, g0), (_, g1), (_, g2) = tgt.c.gens
    assert not tgt.c.diff.get(0) and not tgt.c.diff.get(2)
    dom = validate([("x0", g0), ("x1", g1), ("x2", g2), ("z", (g0.gru - 2, g0.grv))],
                   [("x1", [(mono("U", 1), "x0"), (mono("V", 1), "x2")])])
    assert tuple(dom.gens[3].grading) == (g2.gru, g2.grv - 2)

    def check(*image_of_z):
        ident = tuple((g.name, ((UNIT, g.name),)) for g in tgt.c.gens)
        w = LocalMapWitness(assignment=(*ident, ("z", image_of_z)), v_shift=0)
        return check_witness(_source(dom, {0: 0}), tgt, w)

    assert check() and check((mono("U", 1), "x0")) and check((mono("V", 1), "x2"))
    assert check((mono("U", 1), "x0"), (mono("V", 1), "x2"))
    for wrong in [(mono("U", 2), "x0"), (mono("V", 1), "x0"), (UNIT, "x0"),
                  (mono("V", 2), "x2"), (mono("U", 1), "x2"), (UNIT, "x2"), (UNIT, "x1")]:
        assert not check(wrong), wrong
        assert not check((mono("U", 1), "x0"), wrong), wrong
    with pytest.raises(UnknownGeneratorError):
        check((mono("U", 1), "nope"))


def test_check_refuses_two_tower_exponents_at_one_target():
    # A homogeneous tower never sends two terms to one target with different
    # V-powers under a map that keeps the gradings, so the check refuses a
    # source tower that does.  Here the tower a + V b of two lone generators,
    # with b two below a, maps to the unit complex by a -> x0 and
    # b -> V x0: the gradings and chain condition hold, and the tower's
    # image meets x0 as V^0 and V^2.
    tgt = prepare_target(unit_complex())
    dom = validate([("a", (0, 0)), ("b", (0, -2))], [])

    def check(*image_of_b):
        w = LocalMapWitness(assignment=(("a", ((UNIT, "x0"),)), ("b", image_of_b)), v_shift=0)
        src = _source(dom, {0: 0, 1: 1})
        verdict = check_witness(src, tgt, w)
        assert verdict == _check_witness_every_source(src, tgt, w)
        return verdict

    assert check()
    assert not check((mono("V", 1), "x0"))


def test_bad_solver_witness_raises(monkeypatch):
    # the certificate check must not vanish under python -O
    monkeypatch.setattr("knotcalc.witness.check_witness", lambda *args: False)
    with pytest.raises(VerificationFailedError):
        exists_local_map(unit_complex(), build_standard((1, -1)))


def test_check_refuses_an_ambiguous_witness():
    # over F2, x0 -> x0 + x0 is the zero map, and a source listed twice has
    # no one image; the check must not read either as the identity
    c = build_standard((1, -1))
    ident = tuple((g.name, ((UNIT, g.name),)) for g in c.gens)
    assert verify_local_map(c, c, LocalMapWitness(ident, 0))
    doubled = (("x0", ((UNIT, "x0"), (UNIT, "x0"))), *ident[1:])
    relisted = (("x0", ()), *ident)
    assert not verify_local_map(c, c, LocalMapWitness(doubled, 0))
    assert not verify_local_map(c, c, LocalMapWitness(relisted, 0))


def test_witnesses_are_deterministic():
    s = build_standard((1, -1))
    c = reduce(tensor(build_standard((2, -2)), build_standard((1, -1))))
    assert exists_local_map(s, c) == exists_local_map(s, c)
    assert exists_short_local_map((1, -1), c) == exists_short_local_map((1, -1), c)


def test_maps_into_products():
    # inclusion-grade checks against a genuinely non-standard target
    t = reduce(tensor(build_standard((2, -2)), build_standard((1, -1))))
    assert exists_local_map(build_standard((1, -1)), t) is not None
    assert exists_local_map(build_standard((1, -1, 2, 1, -1, -2, 1, -1)), t) is not None
    assert exists_local_map(build_standard((1, -2)), t) is None
