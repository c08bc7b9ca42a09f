import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import basis_change, box, direct_sum, noisy_files, scramble
from heap_sweep import _invertible_mod_variable, _Reduction, sweep_report
from knotcalc.algebra import Bigrading, Complex, Generator, mono, reduce, tensor, unit_complex, validate
from knotcalc.algebra import xor_term
from knotcalc import gf2, homology
from knotcalc.errors import MultipleTowersError, NotKnotLikeError, NotReducedError
from knotcalc.errors import VerificationFailedError
from knotcalc.homology import (
    MOD_U,
    MOD_V,
    TowerReport,
    apply_shift,
    check_knot_like,
    simplify,
)
from knotcalc.localequiv import standard_rep
from knotcalc.localmaps import prepare_target
from knotcalc.parsing import parse_complex_file
from knotcalc.standard import build_standard

DATA = Path(__file__).parent / "data"


def fig2(base=(-1, -1)):
    """The five-generator square-plus-dot complex with diagonals dropped."""
    du, dv = base
    return validate(
        [
            ("a", (du + 1, dv - 5)),
            ("b", (du - 4, dv - 4)),
            ("c", (du - 5, dv + 1)),
            ("d", (du, dv)),
            ("e", (du + 1, dv + 1)),
        ],
        [
            ("b", [(mono("U", 3), "a"), (mono("V", 3), "c")]),
            ("a", [(mono("V", 3), "d")]),
            ("c", [(mono("U", 3), "d")]),
        ],
    )


def _torsion_pairs(c, report):
    """The heap sweep's torsion pairs (y, z, eta) of *report*'s side, with y
    and z the final basis vectors as sorted (index, exponent) pairs; simplify
    keeps only the etas, which must be these pairs' orders in their order."""
    red = _Reduction(c, report.side)
    pairs, _ = red.sweep()
    out = [
        (tuple(sorted(red.vector(red.basis, y).items())),
         tuple(sorted(red.vector(red.basis, z).items())), eta)
        for y, z, eta in pairs
    ]
    assert tuple(eta for _, _, eta in out) == report.etas
    return out


def _pair_names(c, report):
    out = set()
    for y, z, eta in _torsion_pairs(c, report):
        (gy,) = [c.gens[g].name for g, e in y if len(y) == 1]
        (gz,) = [c.gens[g].name for g, e in z if len(z) == 1]
        out.add((gy, gz, eta))
    return out


# --- simplify ---------------------------------------------------------------


def test_simplify_staircase_mod_v():
    c = build_standard((1, -2, 2, -1))
    r = simplify(c, MOD_V)
    assert dict(r.tower_generator) == {c.index("x4"): 0}
    assert r.tower_top_grading == Bigrading(-6, 0)
    assert _pair_names(c, r) == {("x1", "x0", 1), ("x3", "x2", 2)}


def test_simplify_unit_complex():
    c = unit_complex()
    for side in (MOD_U, MOD_V):
        r = simplify(c, side)
        assert r.etas == ()
        assert _torsion_pairs(c, r) == []
        assert dict(r.tower_generator) == {0: 0}


def test_simplify_fig2_mod_u():
    c = fig2()
    r = simplify(c, MOD_U)
    assert _pair_names(c, r) == {("b", "c", 3), ("a", "d", 3)}
    assert dict(r.tower_generator) == {c.index("e"): 0}


def test_simplify_requires_reduced():
    c = validate(
        [("a", (0, 0)), ("b", (1, 1)), ("c", (0, 0))],
        [("b", [(mono("1", 0), "a")])],
    )
    with pytest.raises(NotReducedError):
        simplify(c, MOD_U)


def test_simplify_refuses_a_bad_side():
    with pytest.raises(ValueError, match="bad side"):
        simplify(unit_complex(), "mod_w")


def test_simplify_refuses_a_differential_whose_square_is_not_zero():
    # a -> b -> c by V, so d^2 a = V^2 c: b is both the source of a pair and
    # the end of another.  validate refuses this complex, so it is built as is
    gens = (Generator("a", Bigrading(2, 2)), Generator("b", Bigrading(1, 3)),
            Generator("c", Bigrading(0, 4)))
    c = Complex(gens, {0: {1: mono("V", 1)}, 1: {2: mono("V", 1)}})
    with pytest.raises(VerificationFailedError, match="lost generators"):
        simplify(c, MOD_U)


def test_tower_checks_refuse_a_broken_tower_or_dual():
    # C(1,-1) plus a box whose b and d share the tower x0's level gr_U = 0: b
    # has a V-arrow to c, and a, one level up, has a V-arrow to d
    c = direct_sum(build_standard((1, -1)), box(1, 1, base=(0, -2)))
    r = simplify(c, MOD_U)
    tower, dual = dict(r.tower_generator), dict(r.tower_dual)
    assert tower == dual == {c.index("s0.x0"): 0}
    above = [a for a, g in enumerate(c.gens) if g.grading.gru == 1]
    b, d = c.index("s1.b"), c.index("s1.d")
    homology._check_tower(c, "V", tower, dual, above)
    with pytest.raises(VerificationFailedError, match="not a cycle"):
        homology._check_tower(c, "V", {**tower, b: 0}, dual, above)
    with pytest.raises(VerificationFailedError, match="boundary"):
        homology._check_tower(c, "V", tower, {**dual, d: 0}, above)
    with pytest.raises(VerificationFailedError, match="pair to 1"):
        homology._check_tower(c, "V", tower, {}, above)
    # d sits at gr_V -2, below the tower's 0: in the tower it would need V^-1
    height = [g.grading.grv for g in c.gens]
    assert homology._exponents(1 << d, height, 0, -1) == {d: 1}
    with pytest.raises(VerificationFailedError, match="no power"):
        homology._exponents(1 << d, height, 0, 1)
    with pytest.raises(VerificationFailedError, match="no power"):
        homology._exponents(1 << d, height, 1, -1)


def test_simplify_multiple_towers():
    c = direct_sum(unit_complex(), unit_complex())
    with pytest.raises(MultipleTowersError) as e:
        simplify(c, MOD_U)
    assert e.value.count == 2


def test_simplify_no_tower():
    with pytest.raises(MultipleTowersError) as e:
        simplify(box(2, 3), MOD_U)
    assert e.value.count == 0


def test_simplify_scrambled_complex_needs_basis_work():
    # after scrambling, the pairing is only visible through basis changes
    rng = random.Random(11)
    c = scramble(direct_sum(build_standard((2, -1, 1, -2)), box(1, 2, tag="k")), rng)
    for side, lengths in ((MOD_V, [1, 1, 1, 2]), (MOD_U, [1, 2, 2, 2])):
        r = simplify(c, side)
        assert sorted(r.etas) == lengths


def test_simplify_eta_multisets_of_standard():
    p = (1, -3, 2, -2, 3, -1)
    c = build_standard(p)
    assert sorted(simplify(c, MOD_V).etas) == sorted(abs(a) for a in p[0::2])
    assert sorted(simplify(c, MOD_U).etas) == sorted(abs(a) for a in p[1::2])


# --- check_knot_like / prepare_target ----------------------------------------


def test_check_knot_like_standard():
    rep = check_knot_like(build_standard((1, -2, 2, -1)))
    assert rep.is_knot_like and rep.applied_shift == (0, 0)


def test_check_knot_like_rejects_two_towers():
    rep = check_knot_like(direct_sum(unit_complex(), unit_complex()))
    assert not rep.is_knot_like
    assert any("rank 2" in r for r in rep.reasons)


def test_check_knot_like_solves_for_shift():
    c = apply_shift(fig2(), (3, -4))
    strict = check_knot_like(c, allow_shift=False)
    assert not strict.is_knot_like
    rep = check_knot_like(c, allow_shift=True)
    assert rep.is_knot_like and rep.applied_shift == (-3, 4)
    n = prepare_target(c).c
    again = check_knot_like(n, allow_shift=False)
    assert again.is_knot_like


def test_tower_gradings_after_normalize():
    c = prepare_target(apply_shift(build_standard((2, -2)), (2, 6))).c
    assert simplify(c, MOD_U).tower_top_grading.gru == 0
    assert simplify(c, MOD_V).tower_top_grading.grv == 0


# --- torsion bounds: prepare_target's m_u, m_v -------------------------------


def torsion_bounds(c):
    """(M_U, M_V), the largest torsion orders mod V and mod U."""
    prepared = prepare_target(c)
    return prepared.m_u, prepared.m_v


def test_torsion_bounds_examples():
    assert torsion_bounds(build_standard((1, -2, 2, -1))) == (2, 2)
    assert torsion_bounds(unit_complex()) == (0, 0)
    t = tensor(build_standard((2, -2)), build_standard((1, -1)))
    assert torsion_bounds(t) == (2, 2)


def test_mod_v_tower_top_is_P():
    from knotcalc.standard import P_of

    for p in [(), (1, -1), (2, -2), (1, -2, 2, -1), (2, -1, 1, -2)]:
        r = simplify(build_standard(p), MOD_V)
        assert r.tower_top_grading.gru == P_of(p)


def test_torsion_bounds_of_standard_are_param_maxima():
    for p in [(1, -1), (3, -2, 2, -3), (1, -4, -2, 1, 4, -1)]:
        c = build_standard(p)
        assert torsion_bounds(c) == (
            max(abs(a) for a in p[0::2]),
            max(abs(a) for a in p[1::2]),
        )


def test_simplify_dimension_preserved_per_grading():
    # simplify checks 2 pairs + towers = n itself; exercise it on a scrambled
    # sum where the reduction needs column additions
    rng = random.Random(3)
    c = scramble(direct_sum(build_standard((1, -2, 2, -1)), box(3, 1, tag="k")), rng)
    r = simplify(reduce(c), MOD_U)
    assert 2 * len(r.etas) + 1 == len(c.gens)


# --- the heap sweep's rank check on the stored basis vectors ----------------


def test_stored_vector_rank_matches_the_rank_of_all_rows():
    # basis[j] for a few stored j over all n declared generators, exponents
    # 0 (kept with the variable set to 0) or 1 (dropped); the other rows are
    # the unit rows 1 << j
    verdicts = {True: 0, False: 0}
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        basis = {
            j: {g: rng.choice((0, 0, 1)) for g in rng.sample(range(n), rng.randint(1, min(n, 3)))}
            for j in rng.sample(range(n), rng.randint(0, n))
        }
        masks = [sum(1 << g for g, e in basis.get(j, {j: 0}).items() if e == 0) for j in range(n)]
        got = _invertible_mod_variable(basis)
        assert got == (gf2.rank(masks) == n), (seed, basis)
        verdicts[got] += 1
    assert min(verdicts.values()) > 50


# --- the heap sweep against the rescan rule ----------------------------------


class _RescanReduction(_Reduction):
    """The sweep that rescans every active row for the least (exp, row, col)."""

    def sweep(self):
        active = set(range(len(self.c.gens)))
        pairs = []
        while True:
            pivot = None
            for i in sorted(active):
                for j, e in sorted(self.rows.get(i, {}).items()):
                    if j in active and (pivot is None or e < pivot[2] or
                                        (e == pivot[2] and (i, j) < pivot[:2])):
                        pivot = (i, j, e)
            if pivot is None:
                break
            i0, j0, eta = pivot
            for i in sorted(self.cols.get(j0, {})):
                if i != i0:
                    self.add_multiple(i, i0, self.cols[j0][i] - eta)
            for j in sorted(self.rows.get(i0, {})):
                if j != j0:
                    self.add_multiple(j0, j, self.rows[i0][j] - eta)
            pairs.append((i0, j0, eta))
            active.discard(i0)
            active.discard(j0)
        return pairs, sorted(active)


def _simplify_outcome(c, side, run=simplify):
    try:
        return run(c, side)
    except MultipleTowersError as e:
        return ("towers", e.count)


def _assert_sweeps_match(complexes):
    complexes = list(complexes)
    for side in (MOD_U, MOD_V):
        heap = [_simplify_outcome(c, side, sweep_report) for c in complexes]
        rescan = [_simplify_outcome(c, side, lambda c, side: sweep_report(c, side, _RescanReduction))
                  for c in complexes]
        assert rescan == heap


def _data_files():
    files = sorted(DATA.glob("*.cx"))
    assert files
    return [parse_complex_file(f.read_text()) for f in files]


def _scrambled_complexes():
    pool = [(1, -2, 2, -1), (2, -1, 1, -2), (1, -3, 2, -2, 3, -1)]
    complexes = []
    for seed, p in enumerate(pool * 3):
        rng = random.Random(seed)
        c = direct_sum(build_standard(p), box(1 + seed % 3, 2, tag="k"), box(2, 1, tag="m"))
        complexes.append(scramble(c, rng))
    complexes.append(box(2, 3))  # no tower at all
    # at the scale of a noisy bench file: 261 generators, 300 basis changes
    # tried, and 85 in the two sweeps
    c = direct_sum(build_standard((1, -2, 2, -1) * 5), *(box(1 + k % 3, 1 + k % 2) for k in range(60)))
    complexes.append(scramble(c, random.Random(9), steps=300))
    return complexes


def _noisy_reduced():
    return [reduce(parse_complex_file(text)) for _, text in noisy_files()]


def test_noisy_files_give_their_hidden_representative():
    for hidden, text in noisy_files():
        assert standard_rep(parse_complex_file(text)).params == hidden


def _products():
    pool = [(1, -1), (2, -2), (1, -2, 2, -1), (-1, 2), (2, 1, -1, -2)]
    return [tensor(build_standard(p), build_standard(q)) for p, q in itertools.combinations(pool, 2)]


def _tower_mixed():
    """Standard complexes plus a box whose bottom generator d is replaced by
    d + v x, x the tower generator of one side: the box's arrow into d then
    reaches x too, so the tower coordinate is more than x alone."""
    out = []
    for p in [(1, -1), (1, -2, 2, -1)]:
        s = build_standard(p)
        for x, kind in ((0, "V"), (len(p), "U")):
            gu, gv = s.gens[x].grading
            base = (gu, gv - 2) if kind == "V" else (gu - 2, gv)
            c = direct_sum(s, box(1, 1, base=base, tag="k"))
            c = basis_change(c, c.index("s1.kd"), c.index(f"s0.x{x}"), mono(kind, 1))
            out += [c, scramble(c, random.Random(len(out)))]
    return out


# the pools of the sweep tests above, and one whose tower coordinates are mixed
POOLS = [_data_files, _scrambled_complexes, _products, _tower_mixed, _noisy_reduced]


def test_sweep_matches_rescan_on_data_files():
    _assert_sweeps_match(_data_files())


def test_sweep_matches_rescan_on_scrambled_complexes():
    _assert_sweeps_match(_scrambled_complexes())


def test_sweep_matches_rescan_on_products():
    _assert_sweeps_match(_products())


def test_sweep_matches_rescan_on_noisy_files():
    _assert_sweeps_match(_noisy_reduced())


# --- the dual by row against the per-generator inverse scan ------------------


class _InverseScanReduction(_Reduction):
    """Also keeps each declared generator over the final basis, by the scan
    that substitutes b_p = b_p' + v^delta b_q into every expression.

    dual holds only the coordinates a basis change touched; vector reads the
    identity's {j: 0} for the others, so every (j, g) pair is compared."""

    checked = 0

    def __init__(self, c, side):
        super().__init__(c, side)
        self.inverse = [{i: 0} for i in range(len(c.gens))]

    def add_multiple(self, p, q, delta):
        super().add_multiple(p, q, delta)
        for expr in self.inverse:
            if p in expr:
                xor_term(expr, q, expr[p] + delta)

    def sweep(self):
        out = super().sweep()
        n = len(self.c.gens)
        for j in range(n):
            for g in range(n):
                assert self.vector(self.dual, j).get(g) == self.inverse[g].get(j), (j, g)
        _InverseScanReduction.checked += 1
        return out


@pytest.mark.parametrize("pool", POOLS)
def test_dual_matches_inverse_scan(pool):
    complexes = pool()
    before = _InverseScanReduction.checked
    for c in complexes:
        for side in (MOD_U, MOD_V):
            _simplify_outcome(c, side, lambda c, side: sweep_report(c, side, _InverseScanReduction))
    assert _InverseScanReduction.checked - before == 2 * len(complexes)


def _pairing(dual, elem):
    """The tower coordinate of an element: exponent -> coefficient in F2."""
    dual = dict(dual)
    coeff = {}
    for g, e in elem:
        if g in dual:
            xor_term(coeff, e + dual[g], 1)
    return coeff


@pytest.mark.parametrize("pool", POOLS)
def test_tower_dual_is_dual_to_the_final_basis(pool):
    reports = []
    for c in pool():
        for side in (MOD_U, MOD_V):
            r = _simplify_outcome(c, side)
            if isinstance(r, TowerReport):
                reports.append((c, r))
    assert reports
    for c, r in reports:
        assert _pairing(r.tower_dual, r.tower_generator) == {0: 1}
        for y, z, _ in _torsion_pairs(c, r):
            assert _pairing(r.tower_dual, y) == {}
            assert _pairing(r.tower_dual, z) == {}


# --- the column reduction against the heap sweep and a rank count -----------


def _prepared_outcome(c):
    """prepare_target's q, m_u and m_v and standard_rep's result, or the
    NotKnotLikeError both raise."""
    try:
        prepared = prepare_target(c)
    except NotKnotLikeError as e:
        return ("not knot-like", str(e))
    return prepared.q, prepared.m_u, prepared.m_v, standard_rep(c)


def _assert_matches_heap_sweep(complexes, monkeypatch):
    for c in complexes:
        for side in (MOD_U, MOD_V):
            new, old = _simplify_outcome(c, side), _simplify_outcome(c, side, sweep_report)
            if isinstance(old, TowerReport):
                assert isinstance(new, TowerReport)
                assert (new.side, new.etas, new.tower_top_grading) == (old.side, old.etas, old.tower_top_grading)
                # the two tower cycles may differ by a boundary, which every
                # cocycle that pairs to 1 with the tower sends to 0
                assert _pairing(old.tower_dual, new.tower_generator) == {0: 1}
                assert _pairing(new.tower_dual, old.tower_generator) == {0: 1}
            else:
                assert new == old
        new = _prepared_outcome(c)
        with monkeypatch.context() as m:
            m.setattr(homology, "simplify", sweep_report)
            assert _prepared_outcome(c) == new


@pytest.mark.parametrize("pool", POOLS)
def test_simplify_matches_the_heap_sweep(monkeypatch, pool):
    _assert_matches_heap_sweep(pool(), monkeypatch)


# scrambled direct sums of one or two standard complexes and up to four boxes
_scrambled_sums = st.builds(
    lambda tuples, boxes, seed: scramble(
        direct_sum(*map(build_standard, tuples), *(box(i, j, base=base) for i, j, base in boxes)),
        random.Random(seed),
    ),
    st.lists(
        st.lists(st.integers(-3, 3).filter(bool), max_size=6).map(lambda xs: tuple(xs[: len(xs) // 2 * 2])),
        min_size=1, max_size=2,
    ),
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
             max_size=4),
    st.integers(0, 2**16),
)


@settings(max_examples=100, deadline=None)
@given(_scrambled_sums)
def test_simplify_matches_the_heap_sweep_on_scrambled_sums(c):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_matches_heap_sweep([c], monkeypatch)


def _quotient_dim(c, side, k):
    """dim_F H(C/(U, V^k)) for side mod_u (C/(V, U^k) for mod_v): n k - 2 rank
    of the differential over the basis {v^i g : i < k}, v^i g as bit g k + i."""
    kind = "V" if side == MOD_U else "U"
    rows = []
    for g in range(len(c.gens)):
        row = c.diff.get(g, {})
        for i in range(k):
            rows.append(sum(1 << (t * k + i + m.exponent) for t, m in row.items()
                            if m.kind == kind and i + m.exponent < k))
    return len(c.gens) * k - 2 * gf2.rank(rows)


def _barcode_by_ranks(c, side):
    """(etas ascending, towers) of one side, read off
    dim_F H(C/(U, V^k)) = k towers + 2 sum(min(eta, k)) for k = 1 .. top,
    where top exceeds every eta: an eta is half a drop of gr_U - gr_V."""
    at, up = (0, 1) if side == MOD_U else (1, 0)
    keys = [g.grading[at] - g.grading[up] for g in c.gens]
    top = (max(keys) - min(keys)) // 2 + 1
    dims = [0] + [_quotient_dim(c, side, k) for k in range(1, top + 1)]
    steps = [b - a for a, b in zip(dims, dims[1:])]  # towers + 2 #{eta >= k}
    towers = steps[-1]
    at_least = [(step - towers) // 2 for step in steps] + [0]
    etas = tuple(k + 1 for k in range(top) for _ in range(at_least[k] - at_least[k + 1]))
    return etas, towers


def _assert_matches_rank_count(complexes):
    for c in complexes:
        for side in (MOD_U, MOD_V):
            etas, towers = _barcode_by_ranks(c, side)
            r = _simplify_outcome(c, side)
            if towers == 1:
                assert r.etas == etas
            else:
                assert r == ("towers", towers)


@pytest.mark.parametrize("pool", [_data_files, _products, _tower_mixed])
def test_simplify_matches_the_rank_count(pool):
    _assert_matches_rank_count(pool())


@settings(max_examples=100, deadline=None)
@given(_scrambled_sums)
def test_simplify_matches_the_rank_count_on_scrambled_sums(c):
    _assert_matches_rank_count([c])
