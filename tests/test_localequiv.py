import itertools
import random

import pytest

from conftest import box, direct_sum, scramble
from knotcalc import gf2
from knotcalc.alexander import recipe_factors
from knotcalc.algebra import dual, reduce, tensor, tensor_many, unit_complex
from knotcalc.errors import NotKnotLikeError, VerificationFailedError
from knotcalc.homology import apply_shift
from knotcalc.localequiv import PositionTrace, compare, standard_rep
from knotcalc.localmaps import (
    PrefixSystem,
    map_between,
    map_from_standard,
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
    assert first.candidates[0] == (1, False)
    assert first.accepted == 2
    last = r.trace[-1]
    assert last.accepted is None  # termination via the stop test


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


def test_compare_cross_check():
    a = build_standard((1, -2))
    b = tensor(build_standard((1, -1)), build_standard((1, -1)))
    assert compare(a, b, cross_check=True) == lex_cmp((1, -2), (1, -1, 1, -1))


def test_compare_total_on_small_pool():
    pool = [(), (1, -1), (-1, 1), (2, -2)]
    for p, q in itertools.product(pool, pool):
        c = compare(build_standard(p), build_standard(q), cross_check=True)
        assert c == lex_cmp(p, q)


# --- the incremental greedy against the one-shot loop --------------------------


def _greedy_by_one_shot_solves(c):
    """The greedy as one fresh solve per candidate: short_map for each b and
    map_from_standard for the stop test, then the same certification."""
    c = reduce(c)
    tgt = prepare_target(c)
    m_u, m_v = max(tgt.etas_u, default=0), max(tgt.etas_v, default=0)
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
            stop = map_from_standard(tuple(params), tgt) is not None
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


def test_greedy_matches_one_shot_solves():
    for c in _oracle_pool():
        r = standard_rep(c)
        assert (r.params, r.witnesses, r.trace) == _greedy_by_one_shot_solves(c)


def _random_prefix(rng, rep, bound):
    """A prefix of *rep* with its last few entries redrawn, so that both
    feasible and infeasible prefixes come up."""
    k = rng.randrange(len(rep) + 1)
    p = list(rep[:k])
    for i in range(max(0, k - rng.randrange(3)), k):
        p[i] = rng.choice([b for b in range(-bound, bound + 1) if b])
    return tuple(p)


def test_prefix_system_matches_short_map_per_candidate():
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
        bound = max(*tgt.etas_u, *tgt.etas_v, 1)
        for _ in range(12):
            prefix = _random_prefix(rng, rep, bound)
            system = PrefixSystem.empty(tgt)
            for a in prefix:
                system = system.then(a)
            assert system.params == prefix
            for b in [b for b in range(-bound - 1, bound + 2) if b]:
                assert system.then(b).short_map() == short_map((*prefix, b), tgt), (prefix, b)
            if len(prefix) % 2 == 0:
                assert system.full_map() == map_from_standard(prefix, tgt), prefix


def test_corrupted_incremental_solution_raises(monkeypatch):
    # flipping a pivot bit leaves a non-solution, which the witness check
    # must catch on the incremental path too, also under python -O
    solution = gf2.Echelon.solution
    monkeypatch.setattr(
        gf2.Echelon, "solution", lambda self: solution(self) ^ (self.pivmask & -self.pivmask)
    )
    tgt = prepare_target(build_standard((1, -1)))
    with pytest.raises(VerificationFailedError):
        PrefixSystem.empty(tgt).then(1).short_map()
    with pytest.raises(VerificationFailedError):
        standard_rep(build_standard((1, -2, 2, -1)))
