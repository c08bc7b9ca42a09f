from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from knotcalc.algebra import Bigrading, Monomial, power
from knotcalc.parsing import parse_complex_file, serialize_complex
from knotcalc.standard import (
    EQ,
    GT,
    LT,
    N_of,
    P_of,
    arrow,
    bang_cmp,
    bang_key,
    build_standard,
    format_params,
    gc_lower,
    is_symmetric,
    lex_cmp,
    negate,
    parse_params,
    phi,
    shift,
    step,
    tau_of,
    uc_lower,
)

ints = st.integers(-9, 9).filter(lambda a: a != 0)
params_any = st.lists(ints, min_size=0, max_size=6).map(tuple)
params_even = params_any.map(lambda p: p[: len(p) // 2 * 2])


# --- build_standard ----------------------------------------------------------


def test_gradings_1221():
    c = build_standard((1, -2, 2, -1))
    assert [tuple(g.grading) for g in c.gens] == [
        (0, -6), (-1, -5), (-2, -2), (-5, -1), (-6, 0),
    ]


def test_gradings_121121():
    # the two anchors plus the (-1,-1) degree rule force every value; e.g.
    # d(x1) = U x0 + V^2 x2 pins gr(x2) = gr(x1) - (1,1) - (0,-4) = (-2, 0)
    c = build_standard((1, -2, -1, 1, 2, -1))
    assert [tuple(g.grading) for g in c.gens] == [
        (0, -4), (-1, -3), (-2, 0), (-1, -1), (0, -2), (-3, -1), (-4, 0),
    ]


def test_empty_params_is_unit():
    c = build_standard(())
    assert len(c) == 1 and c.gens[0].grading == Bigrading(0, 0)


def test_differential_directions():
    c = build_standard((-1, 1))
    # d x0 = U x1, d x2 = V x1
    assert c.diff[c.index("x0")] == {c.index("x1"): ("U", 1)}
    assert c.diff[c.index("x2")] == {c.index("x1"): ("V", 1)}
    assert [tuple(g.grading) for g in c.gens] == [(0, 2), (1, 1), (2, 0)]


def test_truncated_anchor():
    c = build_standard((1, -2, 2), v_anchor=0)
    assert tuple(c.gens[0].grading) == (0, 0)
    assert len(c) == 4


def test_step_and_arrow_match_their_closed_forms():
    for i in range(1, 9):
        kind = "U" if i % 2 == 1 else "V"
        for b in [*range(1, 31), *range(-30, 0)]:
            sign = 1 if b > 0 else -1
            g = step(i, b)
            assert g == ((-2 * b + sign, sign) if i % 2 == 1 else (sign, -2 * b + sign))
            assert type(g) is Bigrading and g is step(i + 2, b)
            s, t, m = arrow(i, b)
            assert (s, t) == ((i, i - 1) if b > 0 else (i - 1, i))
            assert m == Monomial(kind, abs(b)) and m is power(kind, abs(b))
            # the arrow's degree rule, gr(m) + gr(t) = gr(s) - (1, 1), forces the step
            mu, mv = m.grading()
            assert g == ((mu + 1, mv + 1) if b > 0 else (-mu - 1, -mv - 1))


def test_zero_param_rejected():
    with pytest.raises(ValueError):
        build_standard((1, 0))
    with pytest.raises(ValueError):
        build_standard((1,))  # odd length needs a truncation anchor


@given(params_even)
def test_built_standard_is_reduced_and_anchored(p):
    c = build_standard(p)
    assert c.is_reduced
    assert c.gens[0].grading.gru == 0
    assert c.gens[-1].grading.grv == 0


def _ordered(c):
    """gens and diff of c, with its rows and their terms in dict order."""
    return c.gens, [(s, list(row.items())) for s, row in c.diff.items()]


@given(st.lists(ints, max_size=12), st.booleans())
def test_built_standard_equals_its_validated_file(p, truncated):
    # build_standard does not call validate, so check here what validate
    # checks (the degree rule, d^2 = 0) and that it keeps the dict order
    p = tuple(p) if truncated else tuple(p[: len(p) // 2 * 2])
    c = build_standard(p, v_anchor=0 if truncated else None)
    assert _ordered(c) == _ordered(parse_complex_file(serialize_complex(c)))
    assert [g.name for g in c.gens] == [f"x{i}" for i in range(len(p) + 1)]


# --- the unusual order --------------------------------------------------------


def _fraction_key(a):
    """The oracle: the order as the usual order on the keys 1/a, with 1/0 = 0."""
    return Fraction(1, a) if a else Fraction(0)


def test_bang_chain():
    chain = [-1, -2, -3, 0, 3, 2, 1]
    for a, b in zip(chain, chain[1:]):
        assert bang_cmp(a, b) == LT
    assert bang_cmp(0, 0) == EQ
    assert bang_cmp(3, 2) == LT
    ints = [*range(-40, 41), -10**12, -1025, 1025, 10**12]
    assert sorted(ints, key=bang_key) == sorted(ints, key=_fraction_key)


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_bang_trichotomy(a, b):
    c1, c2 = bang_cmp(a, b), bang_cmp(b, a)
    assert (c1 == LT) == (_fraction_key(a) < _fraction_key(b))
    assert c1 == -c2
    assert (c1 == EQ) == (a == b)


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_bang_transitive(a, b, c):
    if bang_cmp(a, b) != GT and bang_cmp(b, c) != GT:
        assert bang_cmp(a, c) != GT


def test_lex_examples():
    assert lex_cmp((), (1, -1)) == LT
    assert lex_cmp((1, -1), (1, -2)) == LT
    assert lex_cmp((1, -2, 2, -1), (1, -2, -1, 1, 2, -1)) == GT


@given(params_any, params_any, params_any)
def test_lex_total_order(p, q, r):
    assert lex_cmp(p, q) == -lex_cmp(q, p)
    if lex_cmp(p, q) != GT and lex_cmp(q, r) != GT:
        assert lex_cmp(p, r) != GT


def test_lex_trailing_zero_convention():
    assert lex_cmp((1, -1), (1, -1, 1, -1)) == LT
    assert lex_cmp((1, -1), (1, -1, -1, 1)) == GT


# --- invariants ---------------------------------------------------------------


def test_phi_examples():
    assert phi((1, -2, 2, -1)) == {1: 1, 2: 1}
    assert phi((-1, 1)) == {1: -1}
    ph = phi((1, -2, -1, 1, 2, -1))
    assert ph.get(1, 0) == 0 and ph[2] == 1


def test_P_examples():
    assert P_of((1, -1)) == -2
    assert P_of(()) == 0
    assert P_of((1, -2, 2, -1)) == -6


def test_tau_examples():
    assert tau_of((1, -2, 2, -1)) == 3
    assert tau_of(()) == 0
    assert tau_of((1, -1, 1, -1)) == 2


def test_N_and_bounds():
    assert N_of((1, -2, 2, -1)) == 2
    assert N_of(()) == 0
    assert gc_lower((1, -2, 2, -1)) == Fraction(1)
    assert gc_lower((1, -1)) == Fraction(1, 2)
    assert uc_lower((1, -2, 2, -1)) == 2


def test_shift_examples():
    assert shift((1, -1), 1) == (2, -2)
    assert shift((1, -3, 3, -1), 2) == (1, -4, 4, -1)
    assert shift((1, -2, 2, -1), 3) == (1, -2, 2, -1)


def test_one_sided_shifts_compose():
    p = (2, -3, 1, -2)
    assert shift(shift(p, 2, "u"), 2, "v") == shift(p, 2)
    assert shift(p, 2, "u") == (3, -3, 1, -2)
    assert shift(p, 2, "v") == (2, -4, 1, -3)


def test_symmetry_examples():
    assert is_symmetric((1, -2, 2, -1))
    assert not is_symmetric((1, 1))
    assert is_symmetric((1, -1, 2, 1, -1, -2, 1, -1))
    assert is_symmetric(())


# --- algebraic identities -----------------------------------------------------


@given(params_even, st.integers(1, 4))
def test_phi_shift_identity(p, m):
    ph, ph_shift = phi(p), phi(shift(p, m))
    top = max([abs(a) for a in p], default=0) + 2
    for j in range(1, top + 2):
        if j < m:
            assert ph_shift.get(j, 0) == ph.get(j, 0)
        elif j == m:
            assert ph_shift.get(j, 0) == 0
        else:
            assert ph_shift.get(j, 0) == ph.get(j - 1, 0)


@given(params_even, st.integers(1, 4))
def test_P_shift_identity(p, m):
    tail = sum(v for j, v in phi(p).items() if j >= m)
    assert P_of(shift(p, m)) - P_of(p) == -2 * tail


@given(params_even)
def test_duality_negation(p):
    assert P_of(p) + P_of(negate(p)) == 0
    assert phi(negate(p)) == {j: -v for j, v in phi(p).items()}


@given(params_even)
def test_symmetric_params_have_balanced_signs(p):
    q = p + tuple(-a for a in reversed(p))
    assert is_symmetric(q)
    assert sum(1 if a > 0 else -1 for a in q) == 0
    assert tau_of(q) == sum(j * v for j, v in phi(q).items())


# --- text syntax ---------------------------------------------------------------


def test_param_round_trip():
    for text in ("", "1,-2,2,-1", "5"):
        assert format_params(parse_params(text)) == text


def test_param_parse_whitespace_and_errors():
    assert parse_params(" 1 , -2 ") == (1, -2)
    with pytest.raises(ValueError):
        parse_params("1,x")
