"""Acceptance criteria, one test per criterion.

Every quantity here is an exact integer or integer vector, so every
tolerance is exact equality.  Each test prints one PASS/FAIL line (visible
with pytest -s).  Run:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from knotcalc.algebra import dual, reduce, tensor, unit_complex
from knotcalc.alexander import cable_delta, eval_recipe, staircase_params, torus_delta
from knotcalc.errors import BudgetExceededError
from knotcalc.localequiv import standard_rep
from knotcalc.localmaps import brute_force_local_map, exists_local_map, prepare_target
from knotcalc.parsing import parse_complex_file
from knotcalc.standard import (
    EQ,
    GT,
    LT,
    N_of,
    P_of,
    build_standard,
    gc_lower,
    is_symmetric,
    lex_cmp,
    negate,
    phi,
    shift,
    tau_of,
    uc_lower,
)

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {desc}")
        raise
    print(f"[criterion {num:2d}] PASS  {desc}")


# --- shared computations (cached across criteria) ---------------------------------


@pytest.fixture(scope="module")
def product_reps():
    pairs = [
        ((2, -2), (1, -1)),
        ((1, -3, 3, -1), (2, -2)),
        ((1, -1), (1, -1)),
    ]
    return {
        pq: standard_rep(tensor(build_standard(pq[0]), build_standard(pq[1]))).params
        for pq in pairs
    }


@pytest.fixture(scope="module")
def torus_pipeline():
    return {n: staircase_params(torus_delta(n, n + 1)) for n in range(2, 7)}


@pytest.fixture(scope="module")
def cable_pipeline():
    trefoil = torus_delta(2, 3)
    return {n: staircase_params(cable_delta(n, n + 1, trefoil)) for n in range(2, 7)}


@pytest.fixture(scope="module")
def ts_reps():
    return {
        n: eval_recipe(f"Cable(D;{n},{n + 1}) - T({n},{n + 1})").params
        for n in range(2, 6)
    }


@pytest.fixture(scope="module")
def mixed_rep():
    return eval_recipe("T(2,5) - T(4,5) + Cable(T(2,3);2,5)").params


@pytest.fixture(scope="module")
def fig2_rep():
    c = parse_complex_file((DATA / "fig2.cx").read_text())
    return standard_rep(c).params


@pytest.fixture(scope="module")
def corpus():
    fig1 = parse_complex_file((DATA / "fig1.cx").read_text())
    fig2 = parse_complex_file((DATA / "fig2.cx").read_text())
    return [
        ("unit", unit_complex()),
        ("C(1,-1)", build_standard((1, -1))),
        ("C(-1,1)", build_standard((-1, 1))),
        ("C(2,-2)", build_standard((2, -2))),
        ("C(1,-2,2,-1)", build_standard((1, -2, 2, -1))),
        ("C(1,-3,2,-2,3,-1)", build_standard((1, -3, 2, -2, 3, -1))),
        ("C(2,-2)xC(1,-1)", tensor(build_standard((2, -2)), build_standard((1, -1)))),
        ("fig1", fig1),
        ("fig2", fig2),
    ]


# --- criteria ----------------------------------------------------------------------


def test_c01_product_identities(product_reps):
    with criterion(1, "standard representatives of the three tensor products"):
        assert product_reps[((2, -2), (1, -1))] == (1, -1, 2, 1, -1, -2, 1, -1)
        assert product_reps[((1, -3, 3, -1), (2, -2))] == (1, -3, 2, -2, 3, -1)
        assert product_reps[((1, -1), (1, -1))] == (1, -1, 1, -1)


def test_c02_torus_knot_pipeline(torus_pipeline):
    with criterion(2, "torus knots T(n,n+1), n = 2..6: phi, tau, N"):
        for n, params in torus_pipeline.items():
            assert phi(params) == {j: 1 for j in range(1, n)}
            assert tau_of(params) == n * (n - 1) // 2
            assert N_of(params) == n - 1


def test_c03_cables_of_d(cable_pipeline):
    with criterion(3, "cables of D: closed form for n = 3..6, proof values at n = 2"):
        assert phi(cable_pipeline[2]) == {1: 1, 2: 1}
        for n in range(3, 7):
            expected = {1: n, n: 1}
            for j in range(2, n - 1):
                expected[j] = 1
            assert phi(cable_pipeline[n]) == expected


def test_c04_topologically_slice_family(ts_reps):
    with criterion(4, "K_n = Cable(D;n,n+1) - T(n,n+1), n = 2..5: phi matrix"):
        matrix = {}
        for n, params in ts_reps.items():
            ph = phi(params)
            assert ph.get(n, 0) == 1
            assert all(v == 0 for j, v in ph.items() if j > n)
            for j in range(2, 6):
                matrix[(n, j)] = ph.get(j, 0)
        for n in range(2, 6):
            assert matrix[(n, n)] == 1
            for j in range(n + 1, 6):
                assert matrix[(n, j)] == 0


def test_c05_mixed_recipe(mixed_rep):
    with criterion(5, "T(2,5) - T(4,5) + Cable(T(2,3);2,5): phi = {1:2, 2:-1}"):
        assert phi(mixed_rep) == {1: 2, 2: -1}


def test_c06_vanishing_example(fig2_rep):
    with criterion(6, "square-plus-dot fixture is locally trivial"):
        assert fig2_rep == ()
        assert phi(fig2_rep) == {}


def test_c07_tau_p_consistency(
    product_reps, torus_pipeline, cable_pipeline, ts_reps, mixed_rep, fig2_rep
):
    reps = (
        list(product_reps.values())
        + list(torus_pipeline.values())
        + list(cable_pipeline.values())
        + list(ts_reps.values())
        + [mixed_rep, fig2_rep]
    )
    with criterion(7, "tau = sum j*phi_j and P = gr_U(x_n) on all symmetric reps"):
        checked = 0
        for params in reps:
            if not is_symmetric(params):
                continue
            tau_from_counts = sum(j * v for j, v in phi(params).items())
            p_from_grading = build_standard(params).gens[len(params)].grading.gru
            assert tau_of(params) == tau_from_counts
            assert P_of(params) == p_from_grading
            assert p_from_grading == -2 * tau_from_counts
            checked += 1
        assert checked >= 15


def _random_even_params(rng, max_len=4, pool=(1, -1, 2, -2, 3, -3)):
    n = rng.choice(range(0, max_len + 1, 2))
    return tuple(rng.choice(pool) for _ in range(n))


def test_c08_phi_homomorphism():
    rng = random.Random(88)
    with criterion(8, "phi and P additive on 200 random products"):
        for _ in range(200):
            a = _random_even_params(rng)
            b = _random_even_params(rng)
            r = standard_rep(tensor(build_standard(a), build_standard(b))).params
            pa, pb, pr = phi(a), phi(b), phi(r)
            for j in set(pa) | set(pb) | set(pr):
                assert pr.get(j, 0) == pa.get(j, 0) + pb.get(j, 0), (a, b)
            assert P_of(r) == P_of(a) + P_of(b), (a, b)


def test_c09_total_order():
    rng = random.Random(99)
    with criterion(9, "two-sided map tests realize the lexicographic total order"):
        samples = [_random_even_params(rng) for _ in range(40)]
        pairs = [(rng.choice(samples), rng.choice(samples)) for _ in range(200)]
        built = {p: build_standard(p) for p in samples}
        leq = {}
        for a, b in pairs:
            fwd = exists_local_map(built[a], built[b]) is not None
            bwd = exists_local_map(built[b], built[a]) is not None
            assert fwd or bwd, (a, b)  # totality
            direct = EQ if (fwd and bwd) else (LT if fwd else GT)
            assert direct == lex_cmp(a, b), (a, b)
            leq[(a, b)] = fwd
            leq[(b, a)] = bwd
        for _ in range(60):
            a, b, c = (rng.choice(samples) for _ in range(3))
            fab = leq.get((a, b), lex_cmp(a, b) != GT)
            fbc = leq.get((b, c), lex_cmp(b, c) != GT)
            fac = leq.get((a, c), lex_cmp(a, c) != GT)
            if fab and fbc:
                assert fac, (a, b, c)


def test_c10_duality_and_inverses(corpus):
    with criterion(10, "rep(dual C) = -rep(C) and rep(C x dual C) = () on the corpus"):
        for name, c in corpus:
            params = standard_rep(c).params
            assert standard_rep(dual(c)).params == negate(params), name
            assert standard_rep(tensor(c, dual(c))).params == (), name


def test_c11_shift_homomorphism():
    rng = random.Random(11)
    cases = [
        ((1, -1), (1, -1), 1),
        ((2, -2), (1, -1), 2),
        ((1, -2), (2, -1), 1),
        ((1, -3, 3, -1), (1, -1), 3),
        ((2, -1), (-1, 2), 2),
        ((1, -2, 2, -1), (1, -1), 2),
    ]
    with criterion(11, "rep(Sh_m A x Sh_m B) = Sh_m rep(A x B); P-shift identity"):
        for a, b, m in cases:
            lhs = standard_rep(
                tensor(build_standard(shift(a, m)), build_standard(shift(b, m)))
            ).params
            rhs = shift(
                standard_rep(tensor(build_standard(a), build_standard(b))).params, m
            )
            assert lhs == rhs, (a, b, m)
        for _ in range(150):
            p = _random_even_params(rng)
            m = rng.randint(1, 3)
            tail = sum(v for j, v in phi(p).items() if j >= m)
            assert P_of(shift(p, m)) - P_of(p) == -2 * tail, (p, m)


def test_c12_oracle_equivalence():
    pool = [()] + [(a, b) for a in (1, -1, 2, -2) for b in (1, -1, 2, -2)]
    with criterion(12, "solver agrees with the exhaustive oracle within 24 bits"):
        checked = skipped = 0
        for p, q in itertools.product(pool, pool):
            s, c = build_standard(p), build_standard(q)
            try:
                oracle = brute_force_local_map(s, c) is not None
            except BudgetExceededError:
                skipped += 1
                continue
            assert (exists_local_map(s, c) is not None) == oracle, (p, q)
            checked += 1
        assert checked == len(pool) ** 2 - skipped and checked >= 280


def test_c13_thin_knots():
    with criterion(13, "Thin(t) for t = -3..3: phi_1 = t, nothing above"):
        for t in range(-3, 4):
            params = eval_recipe(f"Thin({t})").params
            ph = phi(params)
            assert ph.get(1, 0) == t
            assert all(j == 1 for j in ph)


def test_c14_bounds(corpus):
    with criterion(14, "N bounded by torsion order; genus and unknotting bounds"):
        for name, c in corpus:
            params = standard_rep(c).params
            m_u = prepare_target(reduce(c)).m_u
            n = N_of(params)
            assert n <= m_u, name
            assert gc_lower(params) == Fraction(n, 2), name
            assert uc_lower(params) == n, name
