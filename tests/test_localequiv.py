import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import box, direct_sum, scramble
from knotcalc import localequiv, witness
from knotcalc.alexander import _fold, _fold_order, eval_recipe, recipe_factors
from knotcalc.algebra import dual, reduce, tensor, tensor_many, unit_complex
from knotcalc.errors import LengthCapExceededError, NotKnotLikeError, VerificationFailedError
from knotcalc.homology import apply_shift
from knotcalc.localequiv import PositionTrace, compare, standard_rep
from knotcalc.localmaps import (
    PrefixSystem,
    exists_local_map,
    identity_maps,
    map_between,
    mirror_maps,
    prepare_standard,
    prepare_target,
    short_map,
    verify_local_map,
)
from knotcalc.standard import EQ, GT, LT, build_standard, lex_cmp, negate, phi, shift
from test_homology import fig2


def test_rep_of_standard_is_itself():
    for p in [(), (1, -1), (-2, 1), (1, -2, 2, -1), (1, -2, -1, 1, 2, -1)]:
        assert standard_rep(build_standard(p)).params == p


def test_rep_product_examples():
    r = standard_rep(tensor(build_standard((2, -2)), build_standard((1, -1))))
    assert r.params == (1, -1, 2, 1, -1, -2, 1, -1)
    r = standard_rep(tensor(build_standard((1, -3, 3, -1)), build_standard((2, -2))))
    assert r.params == (1, -3, 2, -2, 3, -1)


def test_rep_fig2_is_trivial():
    assert standard_rep(fig2()).params == ()


def test_rep_witnesses_verify():
    c = tensor(build_standard((2, -2)), build_standard((1, -1)))
    r = standard_rep(c)
    s = build_standard(r.params)
    fwd, bwd = r.witnesses
    assert verify_local_map(s, reduce(c), fwd)
    assert verify_local_map(reduce(c), s, bwd)


def test_rep_trace_records_candidates():
    r = standard_rep(build_standard((2, -2)))
    first = r.trace[0]
    assert first.position == 1
    # a bisection of 1, 2, 0, -2, -1 (greatest to least): the middle, then
    # toward the greater candidates while they pass
    assert first.candidates == ((0, True), (2, True), (1, False))
    assert first.accepted == 2
    last = r.trace[-1]
    assert last.accepted is None  # termination via the stop test
    assert last.candidates == ((0, True), (2, False))


def test_rep_normalizes_input():
    c = apply_shift(build_standard((1, -2, 2, -1)), (4, -2))
    assert standard_rep(c).params == (1, -2, 2, -1)


def test_rep_reduces_input():
    from knotcalc.algebra import Monomial, validate

    c = validate(
        [("a", (0, 0)), ("b", (1, 1)), ("e", (0, 0))],
        [("b", [(Monomial("1", 0), "a")])],
    )
    assert standard_rep(c).params == ()


def test_rep_rejects_non_knot_like():
    with pytest.raises(NotKnotLikeError):
        standard_rep(box(1, 1))


def test_rep_idempotent_at_parameter_level():
    for p in [(1, -1), (2, -1), (1, -2, 2, -1)]:
        c = tensor(build_standard(p), build_standard((1, -1)))
        rep = standard_rep(c).params
        assert standard_rep(build_standard(rep)).params == rep


def test_rep_duality():
    for p in [(1, -1), (1, -2, 2, -1), (2, -1, 1, -2)]:
        c = build_standard(p)
        assert standard_rep(dual(c)).params == negate(p)
    c = tensor(build_standard((2, -2)), build_standard((1, -1)))
    assert standard_rep(dual(c)).params == negate(standard_rep(c).params)


def test_rep_inverse_law():
    for p in [(1, -1), (2, -2), (1, -2, 2, -1)]:
        c = build_standard(p)
        assert standard_rep(tensor(c, dual(c))).params == ()


def test_rep_of_scrambled_sum_recovers_params():
    rng = random.Random(2024)
    for p in [(1, -1), (2, -1, 1, -2), (1, -3, 2, -2, 3, -1)]:
        c = direct_sum(build_standard(p), box(1, 2, tag="k"), box(2, 1, tag="m"))
        c = scramble(c, rng)
        assert standard_rep(c).params == p


def test_phi_homomorphism_sample():
    rng = random.Random(5)
    pool = [(1, -1), (2, -2), (-1, 1), (1, -2), (-2, 2), (2, -1)]
    for _ in range(12):
        a, b = rng.choice(pool), rng.choice(pool)
        r = standard_rep(tensor(build_standard(a), build_standard(b)))
        pa, pb, pr = phi(a), phi(b), phi(r.params)
        for j in set(pa) | set(pb) | set(pr):
            assert pr.get(j, 0) == pa.get(j, 0) + pb.get(j, 0), (a, b)


def test_shift_homomorphism_sample():
    cases = [((1, -1), (1, -1), 1), ((2, -2), (1, -1), 2), ((1, -2), (2, -1), 1)]
    for a, b, m in cases:
        lhs = standard_rep(
            tensor(build_standard(shift(a, m)), build_standard(shift(b, m)))
        ).params
        rhs = shift(standard_rep(tensor(build_standard(a), build_standard(b))).params, m)
        assert lhs == rhs, (a, b, m)


# --- compare -------------------------------------------------------------------


def test_compare_examples():
    assert compare(unit_complex(), build_standard((1, -1))) == LT
    c = build_standard((1, -2, 2, -1))
    assert compare(c, c) == EQ
    square = tensor(build_standard((1, -1)), build_standard((1, -1)))
    assert compare(c, square) == GT


def _order_by_local_maps(c1, c2):
    """The total order read off local maps in both directions."""
    fwd = exists_local_map(reduce(c1), reduce(c2)) is not None
    bwd = exists_local_map(reduce(c2), reduce(c1)) is not None
    return {(True, True): EQ, (True, False): LT, (False, True): GT}[(fwd, bwd)]


def test_compare_cross_check():
    a = build_standard((1, -2))
    b = tensor(build_standard((1, -1)), build_standard((1, -1)))
    assert compare(a, b) == lex_cmp((1, -2), (1, -1, 1, -1)) == _order_by_local_maps(a, b)


def test_compare_total_on_small_pool():
    pool = [(), (1, -1), (-1, 1), (2, -2)]
    for p, q in itertools.product(pool, pool):
        a, b = build_standard(p), build_standard(q)
        assert compare(a, b) == lex_cmp(p, q) == _order_by_local_maps(a, b), (p, q)


# --- the incremental greedy against the one-shot loop --------------------------


def _has_map_from_standard(params, tgt):
    return map_between(prepare_target(build_standard(params)), tgt) is not None


def _greedy_by_one_shot_solves(c):
    """The greedy as one fresh solve per candidate: short_map for each b and
    a map from the standard complex for the stop test, then the same
    certification."""
    c = reduce(c)
    tgt = prepare_target(c)
    m_u, m_v = tgt.m_u, tgt.m_v
    params, trace = [], []
    while True:
        k = len(params)
        bound = m_u if k % 2 == 0 else m_v
        tested, accepted, stop = [], None, False
        for b in range(1, bound + 1):
            ok = short_map((*params, b), tgt) is not None
            tested.append((b, ok))
            if ok:
                accepted = b
                break
        if accepted is None and k % 2 == 0:
            stop = _has_map_from_standard(tuple(params), tgt)
            tested.append((0, stop))
        if accepted is None and not stop:
            for b in range(-bound, 0):
                ok = short_map((*params, b), tgt) is not None
                tested.append((b, ok))
                if ok:
                    accepted = b
                    break
        trace.append(PositionTrace(k + 1, tuple(tested), accepted))
        if stop:
            break
        assert accepted is not None
        params.append(accepted)
    s = prepare_target(build_standard(tuple(params)))
    return tuple(params), (map_between(s, tgt), map_between(tgt, s)), tuple(trace)


# The benchmark's deep-staircase family Cable(K;p,q) - T(p,q) and its
# wide-product sums, written out.
DEEP_RECIPES = [
    f"Cable({k};{p},{q}) - T({p},{q})"
    for k, p, q in [
        ("T(2,3)", 3, 8), ("T(2,3)", 4, 5), ("T(2,3)", 3, 10), ("T(2,5)", 4, 5),
        ("T(2,5)", 3, 7), ("T(2,3)", 3, 13), ("T(2,3)", 4, 7), ("T(2,3)", 4, 9),
        ("T(2,3)", 3, 11), ("T(2,3)", 4, 11), ("T(2,3)", 5, 6),
    ]
]
WIDE_RECIPES = [
    "T(3,4) - T(2,3) - T(2,7) - T(2,3)",
    "T(4,5) - T(2,5) + T(2,9)",
    "Cable(D;2,5) - T(2,9) - T(2,7)",
    "T(2,11) - T(2,7) + T(2,5)",
    "T(4,7) - Cable(D;2,5) - T(4,5)",
    "T(3,7) - T(3,4) + T(2,9)",
    "T(3,7) - Cable(D;2,5) - T(3,7)",
    "Cable(D;2,5) + T(4,7) - T(3,7)",
    "T(2,11) - T(2,7) - T(3,5)",
    "T(3,5) - T(2,7) + T(2,11)",
    "T(2,5) - T(2,5) - T(3,4) + T(3,4)",
    "T(4,7) + T(3,5) - T(4,7)",
    "T(2,5) - T(2,9) + T(2,11)",
    "T(2,7) - T(2,5) + T(3,4) + T(2,7)",
]


def _oracle_pool():
    for p in [(), (1, -1), (-2, 1), (1, -2, 2, -1), (2, -1, 1, -2), (1, -2, -1, 1, 2, -1)]:
        yield build_standard(p)
    for a, b in [((2, -2), (1, -1)), ((1, -3, 3, -1), (2, -2)), ((1, -2), (-2, 1))]:
        yield tensor(build_standard(a), build_standard(b))
    rng = random.Random(77)
    for p in [(1, -1), (2, -1, 1, -2), (1, -3, 2, -2, 3, -1), (-1, 2, -2, 1)]:
        yield scramble(direct_sum(build_standard(p), box(1, 2, tag="k"), box(2, 1, tag="m")), rng)
    for recipe in DEEP_RECIPES + WIDE_RECIPES:
        yield tensor_many(build_standard(p) for p in recipe_factors(recipe))


def _one_shot_answer(prefix, b, tgt):
    """Whether candidate b passes after prefix: a short map for b != 0, the
    stop test (a map from C(prefix)) for b == 0."""
    return short_map((*prefix, b), tgt) is not None if b else _has_map_from_standard(prefix, tgt)


def _assert_matches_one_shot_solves(r, c):
    """standard_rep's result *r* on *c* against the one-shot loop: params,
    witnesses, the accepted candidate of each position, and every probe it
    recorded (the search probes some candidates of each position, not all)."""
    params, witnesses, trace = _greedy_by_one_shot_solves(c)
    assert (r.params, r.witnesses) == (params, witnesses)
    accepted = [(t.position, t.accepted) for t in trace]
    assert [(t.position, t.accepted) for t in r.trace] == accepted
    tgt = prepare_target(reduce(c))
    known = {(t.position, b): ok for t in trace for b, ok in t.candidates}
    for t in r.trace:
        prefix = params[: t.position - 1]
        for b, ok in t.candidates:
            if (t.position, b) not in known:
                known[t.position, b] = _one_shot_answer(prefix, b, tgt)
            assert ok == known[t.position, b], (prefix, b)


def test_greedy_matches_one_shot_solves():
    for c in _oracle_pool():
        _assert_matches_one_shot_solves(standard_rep(c), c)


_symmetric_tuples = st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=3).map(
    lambda half: (*half, *negate(reversed(half)))
)


@settings(max_examples=100, deadline=None)
@given(_symmetric_tuples, _symmetric_tuples)
def test_mirrored_representative_matches_one_shot_solves(a, b):
    # the product of two symmetric complexes passes the search's symmetry
    # gate, so its representative may be read off a mirror
    c = tensor(build_standard(a), build_standard(b))
    _assert_matches_one_shot_solves(standard_rep(prepare_standard(a, b)), c)


def _certification_log(monkeypatch):
    """Record, in order, each forward map's prefix length and whether it
    exists, and whether each backward map exists."""
    log = []
    full_map, map_back = PrefixSystem.full_map, localequiv.map_between

    def logged_full_map(self, src):
        w = full_map(self, src)
        log.append(("forward", len(self.params), w is not None))
        return w

    def logged_map_back(tgt, src):
        w = map_back(tgt, src)
        log.append(("backward", w is not None))
        return w

    monkeypatch.setattr(PrefixSystem, "full_map", logged_full_map)
    monkeypatch.setattr(localequiv, "map_between", logged_map_back)
    return log


@pytest.mark.parametrize(
    "a, b, route, length",
    [
        # the mirror (-2, 2, -2, 2) at k = 2 has a forward map but no map back
        ((-2, 2), (-2, 2, 2, -2, -2, 2), [("forward", 4, True), ("backward", False)], 16),
        # the mirror (-2, 2, 3, -2, 2, -3, -2, 2) at k = 4 has no forward map
        ((-2, 2), (3, -3, -3, 3, 3, -3), [("forward", 8, False)], 20),
    ],
)
def test_a_rejected_mirror_leaves_the_search_as_it_was(monkeypatch, a, b, route, length):
    log = _certification_log(monkeypatch)
    r = standard_rep(prepare_standard(a, b))
    assert len(r.params) == length
    assert log == [*route, ("forward", length, True), ("backward", True)]
    monkeypatch.undo()
    _assert_matches_one_shot_solves(r, tensor(build_standard(a), build_standard(b)))


def test_a_deep_recipe_reads_its_second_half_off_the_mirror():
    r = eval_recipe(DEEP_RECIPES[0])
    mirrored = [t for t in r.trace if not t.candidates]
    assert mirrored and mirrored[-1] == PositionTrace(len(r.params) + 1, (), None)
    n = len(r.params)
    first = mirrored[0].position
    assert [t.position for t in mirrored] == list(range(first, n + 2))
    assert [t.accepted for t in mirrored[:-1]] == [-a for a in reversed(r.params[: n + 1 - first])]
    assert first == n // 2 + 3  # the two parameters after the middle were searched


def test_pushing_onto_a_copy_leaves_the_system_unchanged():
    tgt = prepare_standard((2, -1, 1, -2), (1, -2, 2, -1))
    rep = standard_rep(tgt).params
    system = PrefixSystem(tgt)
    for b in rep[:4]:
        system.push(b)

    def state(system):
        form = system.form
        slots = [list(source) for source in system.by_source]
        return list(system.params), slots, system.nbits, dict(form.pivots), form.pivmask

    before = state(system)
    twin = system.copy()
    for b in rep[4:]:
        twin.passes(b)
        twin.push(b)
    forward = twin.full_map(prepare_standard(rep))
    assert forward is not None and len(twin.form.pivots) > len(before[3])
    assert state(system) == before
    for b in rep[4:]:
        system.push(b)
    assert system.full_map(prepare_standard(rep)) == forward


def _random_prefix(rng, rep, bound):
    """A prefix of *rep* with its last few entries redrawn, so that both
    feasible and infeasible prefixes come up."""
    k = rng.randrange(len(rep) + 1)
    p = list(rep[:k])
    for i in range(max(0, k - rng.randrange(3)), k):
        p[i] = rng.choice([b for b in range(-bound, bound + 1) if b])
    return tuple(p)


def _drawn_prefixes():
    """Per target: its prepared form, the bound of the draws, and twelve
    prefixes of its representative with their last few entries redrawn."""
    rng = random.Random(11)
    targets = [
        tensor(build_standard((2, -2)), build_standard((1, -1))),
        tensor_many(build_standard(p) for p in recipe_factors(DEEP_RECIPES[1])),
        tensor_many(build_standard(p) for p in recipe_factors(WIDE_RECIPES[0])),
        scramble(direct_sum(build_standard((2, -1, 1, -2)), box(1, 2, tag="k")), rng),
    ]
    for c in targets:
        tgt = prepare_target(reduce(c))
        rep = standard_rep(c).params
        bound = max(tgt.m_u, tgt.m_v, 1)
        yield tgt, bound, [_random_prefix(rng, rep, bound) for _ in range(12)]


def test_prefix_system_feasibility_matches_one_shot_solves():
    for tgt, bound, drawn in _drawn_prefixes():
        window = [b for b in range(-bound - 1, bound + 2) if b]
        for prefix in drawn:
            # infeasible prefixes included: push marks them, passes then fails
            system = PrefixSystem(tgt)
            for a in prefix:
                for b in window:  # probes leave a candidate for push to reuse
                    system.passes(b)
                system.push(a)
            assert tuple(system.params) == prefix
            for b in window:
                want = short_map((*prefix, b), tgt) is not None
                assert system.passes(b) == want, (prefix, b)
            if len(prefix) % 2 == 0:
                assert system.passes(0) == _has_map_from_standard(prefix, tgt), prefix


def _assert_down_set(prefix, bound, tgt):
    """The candidates that pass after prefix, listed ascending in the order
    -1 < -2 < ... < -bound < 0 < bound < ... < 2 < 1 (0, the stop test, at
    even prefixes only), are a down-set: no candidate fails below one that
    passes."""
    stop = [0] if len(prefix) % 2 == 0 else []
    order = [*range(-1, -bound - 1, -1), *stop, *range(bound, 0, -1)]
    answers = [_one_shot_answer(prefix, b, tgt) for b in order]
    assert answers == sorted(answers, reverse=True), (prefix, list(zip(order, answers)))


def test_feasibility_is_a_down_set_in_the_order():
    # standard_rep bisects the candidates of each position, which finds the
    # largest passing candidate only if this holds
    for tgt, bound, drawn in _drawn_prefixes():
        for prefix in sorted({p[:k] for p in drawn for k in range(len(p) + 1)}):
            _assert_down_set(prefix, bound, tgt)
    for c in _oracle_pool():
        tgt = prepare_target(reduce(c))
        m_u, m_v = tgt.m_u, tgt.m_v
        rep = standard_rep(c).params
        for k in range(len(rep) + 1):
            _assert_down_set(rep[:k], m_v if k % 2 else m_u, tgt)


def test_probes_per_position_are_logarithmic_in_the_bound():
    # one bisection of the at most 2M + 1 candidates per position takes at
    # most ceil(log2(2M + 2)) probes, far below a scan over the whole window
    for recipe in ["T(100,101)", "T(200,201)", "Std(1000,-1,2,-1000) - Std(999,-3,3,-999)"]:
        c = tensor_many(build_standard(p) for p in recipe_factors(recipe))
        tgt = prepare_target(reduce(c))
        m_u, m_v = tgt.m_u, tgt.m_v
        assert max(m_u, m_v) >= 99
        for t in standard_rep(c).trace:
            bound = max(m_u if t.position % 2 else m_v, 1)
            assert len(t.candidates) <= math.ceil(math.log2(2 * bound + 2)), (recipe, t)


_standard_tuples = st.lists(
    st.integers(-6, 6).filter(bool), min_size=0, max_size=6
).map(lambda xs: tuple(xs[: len(xs) // 2 * 2]))


@settings(max_examples=50, deadline=None)
@given(_standard_tuples, _standard_tuples)
def test_phi_is_a_homomorphism(a, b):
    r = standard_rep(tensor(build_standard(a), build_standard(b)))
    pa, pb = phi(a), phi(b)
    want = {j: pa.get(j, 0) + pb.get(j, 0) for j in {*pa, *pb}}
    assert phi(r.params) == {j: v for j, v in want.items() if v}, (a, b)


@settings(max_examples=50, deadline=None)
@given(_standard_tuples)
def test_complex_times_its_dual_is_trivial(a):
    c = build_standard(a)
    assert standard_rep(tensor(c, dual(c))).params == ()


@settings(max_examples=100, deadline=None)
@given(_standard_tuples)
def test_group_law_answers_match_the_greedy(a):
    # eval_recipe answers a lone factor and an exact mirror pair without the
    # greedy search, from the group law; the greedy must agree, and both
    # certificates must pass their checks
    assert standard_rep(prepare_standard(a)).params == a
    assert standard_rep(prepare_standard(a, negate(a))).params == ()
    identity_maps(a)
    mirror_maps(a)


@functools.lru_cache(maxsize=None)
def _whole_rep(recipe):
    """Params of the standard representative of the recipe's whole product."""
    return standard_rep(tensor_many(build_standard(p) for p in recipe_factors(recipe))).params


def test_folded_recipe_matches_monolithic_product():
    # eval_recipe folds factor by factor; the whole product is the oracle
    for recipe in DEEP_RECIPES + WIDE_RECIPES + [
        "2*T(4,5) - T(3,4) - T(2,5)",
        "Cable(D;4,5) - T(4,5) + Cable(D;3,4) - T(3,4)",
        "T(2,5) + Std() + Std() - T(2,5)",
        "Thin(2) - Thin(2) + D",
        # exact mirror pairs and lone atoms, which skip the greedy search
        "Cable(D;6,7) - Cable(D;6,7) + T(2,5)",
        "3*T(3,4) - 2*T(3,4)",
        "T(4,7) + T(3,5) - T(4,7)",
        "Std(2,-1,1,-2)",
        "Cable(D;3,4)",
    ]:
        assert eval_recipe(recipe).params == _whole_rep(recipe), recipe


def test_every_fold_order_matches_monolithic_product():
    # local classes form an abelian group, so the planner may pick any order
    for recipe in WIDE_RECIPES + ["2*T(4,5) - T(3,4) - T(2,5)"]:
        factors = recipe_factors(recipe)
        assert 3 <= len(factors) <= 4
        for order in set(itertools.permutations(factors)):
            assert _fold(list(order)).params == _whole_rep(recipe), (recipe, order)


# --- prepare_standard against the homology sweep --------------------------------


def _read_fields(tgt):
    """Every field of a Prepared that the solver reads."""
    return tgt.c.gens, tgt.c.diff, tgt.q, tgt.m_u, tgt.m_v, tgt.tower, tgt.tower_dual


@functools.lru_cache(maxsize=None)
def _closed_form_step(a, b=None):
    """Check prepare_standard(a[, b]) against prepare_target of C(a) or of
    C(a) (x) C(b), field by field, and standard_rep of each against
    standard_rep of that complex, witnesses and trace included; return the
    representative's params."""
    c = build_standard(a) if b is None else tensor(build_standard(a), build_standard(b))
    closed = prepare_standard(a, b)
    assert _read_fields(closed) == _read_fields(prepare_target(c)), (a, b)
    r = standard_rep(closed)
    assert r == standard_rep(c), (a, b)
    return r.params


def test_closed_form_matches_the_sweep_on_every_fold_step():
    # every step of every fold order the permutation test runs, and of both
    # orders of each slice-family member, and every lone factor
    for recipe in WIDE_RECIPES + ["2*T(4,5) - T(3,4) - T(2,5)"] + DEEP_RECIPES:
        factors = recipe_factors(recipe)
        for p in factors:
            _closed_form_step(p)
        for first, *rest in set(itertools.permutations(factors)):
            params = first
            for p in rest:
                params = _closed_form_step(params, p)
            assert params == _whole_rep(recipe), recipe


@settings(max_examples=60, deadline=None)
@given(_standard_tuples, _standard_tuples, st.booleans())
def test_closed_form_matches_the_sweep_on_random_pairs(a, b, mirror):
    if mirror:
        b = negate(a)
    _closed_form_step(a)
    _closed_form_step(a, b)


def test_fold_order_is_a_permutation_that_keeps_short_lists():
    for recipe in WIDE_RECIPES + ["2*T(4,5) - T(3,4) - T(2,5)", "T(2,5) - T(3,4)", "D"]:
        factors = recipe_factors(recipe)
        order = _fold_order(factors)
        assert sorted(order) == sorted(factors), recipe
        if len(factors) <= 2:
            assert order == factors, recipe
    assert _fold_order([]) == []
    # the mirror pair sums to phi = 0, so it is folded first
    t47, t35, mirror = recipe_factors("T(4,7) + T(3,5) - T(4,7)")
    assert _fold_order([t47, t35, mirror]) == [t47, mirror, t35]


def _step_sizes(factors):
    """Generators of each fold step's tensor product, folding in the order given."""
    params, sizes = factors[0], []
    for p in factors[1:]:
        sizes.append((len(params) + 1) * (len(p) + 1))
        params = standard_rep(tensor(build_standard(params), build_standard(p))).params
    return sizes


def test_planned_fold_steps_are_smaller_than_written_ones():
    # a deterministic stand-in for the fold's speed: over the benchmark's
    # wide sums the planned steps hold 1,469 generators, the written 1,915
    written = planned = 0
    for recipe in WIDE_RECIPES:
        factors = recipe_factors(recipe)
        written += sum(_step_sizes(factors))
        planned += sum(_step_sizes(_fold_order(factors)))
    assert planned < 0.8 * written, (planned, written)


def test_flipping_any_feasibility_answer_fails_certification(monkeypatch):
    # standard_rep trusts PrefixSystem's answers and certifies only its
    # result, so any single wrong answer must make it raise, also under
    # python -O; eval_recipe certifies every step of its fold, so a wrong
    # answer in any step must make it raise too
    passes = PrefixSystem.passes

    def flip_answer(flip):
        asked = itertools.count()
        monkeypatch.setattr(
            PrefixSystem, "passes", lambda self, b: passes(self, b) ^ (next(asked) == flip)
        )
        return asked

    runs = []
    for recipe in ["Cable(D;3,4) - T(3,4)", "T(3,4) - T(2,5) + T(2,3)"]:
        c = tensor_many(build_standard(p) for p in recipe_factors(recipe))
        runs.append(lambda c=c: standard_rep(c))
    # one fold step once T(2,3) and -D cancel, then two fold steps with no
    # mirror pair, so that a flip in a second step must raise too
    runs.append(lambda: eval_recipe("T(3,4) - T(2,5) + T(2,3) - D"))
    runs.append(lambda: eval_recipe("T(3,4) - T(2,5) + T(2,7)"))
    for run in runs:
        asked = flip_answer(None)
        run()
        queries = next(asked)  # over every step of a fold, not only the last
        monkeypatch.undo()
        for flip in range(queries):
            flip_answer(flip)
            with pytest.raises((VerificationFailedError, LengthCapExceededError)):
                run()
            monkeypatch.undo()


def _is_standard_domain(dom):
    """Whether dom is a standard complex C(rep): generators x0 .. xn."""
    return all(g.name == f"x{i}" for i, g in enumerate(dom.gens))


@pytest.mark.parametrize("direction", ["both", "forward", "backward"])
def test_certification_cannot_be_skipped(monkeypatch, direction):
    # the forward witness read off the greedy's own echelon form and the
    # backward one from a fresh solve are each checked against the
    # definition, also under python -O: failing either check must raise.
    # On a product the forward map's domain is C(rep) and the backward
    # map's is the product, so each can be failed alone.
    check = witness.check_witness
    calls = []

    def failing(src, *args):
        forward = _is_standard_domain(src.c)
        calls.append(forward)
        if direction == "both" or forward == (direction == "forward"):
            return False
        return check(src, *args)

    monkeypatch.setattr(witness, "check_witness", failing)
    product = tensor(build_standard((2, -2)), build_standard((1, -1)))
    for run in (lambda: standard_rep(product), lambda: eval_recipe("T(3,4) - T(2,5) + T(2,3)")):
        calls.clear()
        with pytest.raises(VerificationFailedError):
            run()
        assert calls and calls[-1] == (direction != "backward")


@pytest.mark.parametrize("recipe", ["T(3,4)", "T(3,4) - T(3,4)", "T(2,5) - T(2,5) + T(3,4)"])
def test_group_law_certificates_cannot_be_skipped(monkeypatch, recipe):
    # a lone atom's identity maps and a mirror pair's coevaluation and
    # evaluation are checked against the definition, also under python -O
    monkeypatch.setattr(witness, "check_witness", lambda *args: False)
    with pytest.raises(VerificationFailedError):
        eval_recipe(recipe)
