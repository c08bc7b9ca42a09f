from math import gcd

import pytest
from hypothesis import given, strategies as st

from knotcalc import alexander
from knotcalc.alexander import (
    MAX_RECIPE_GENS,
    LaurentPoly,
    cable_delta,
    eval_recipe,
    lspace_phi,
    parse_poly,
    recipe_factors,
    staircase_data,
    staircase_params,
    torus_delta,
)
from knotcalc.errors import NotCoprimeError, NotStaircaseError, RecipeTooLargeError
from knotcalc.standard import is_symmetric, phi, tau_of


def P(text):
    return parse_poly(text)


# --- polynomial arithmetic -----------------------------------------------------


def test_poly_parse_and_str_round_trip():
    for text in ("t^6-t^5+t^3-t+1", "1", "t^2-t+1", "t^8-t^7+t^4-t+1"):
        assert str(P(text)) == text


def test_poly_arithmetic():
    a, b = P("t^2-t+1"), P("t+1")
    assert a * b == P("t^3+1")
    assert a + b == P("t^2+2")
    assert (a - a) == LaurentPoly()
    assert a.substitute_power(2) == P("t^4-t^2+1")
    assert a.eval_at_one() == 1


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(-5, 5)), max_size=6),
       st.lists(st.tuples(st.integers(0, 8), st.integers(-5, 5)), max_size=6))
def test_poly_mul_commutes(xs, ys):
    a = LaurentPoly(dict(xs))
    b = LaurentPoly(dict(ys))
    assert a * b == b * a
    assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()


# --- torus knots -----------------------------------------------------------------


def test_torus_delta_34():
    assert torus_delta(3, 4) == P("t^6-t^5+t^3-t+1")


def test_torus_delta_23_25():
    assert torus_delta(2, 3) == P("t^2-t+1")
    assert torus_delta(2, 5) == P("t^4-t^3+t^2-t+1")


def test_torus_delta_symmetric_and_normalized():
    for p, q in [(2, 3), (3, 4), (2, 5), (3, 5), (4, 5), (5, 6), (2, 7)]:
        d = torus_delta(p, q)
        assert d == torus_delta(q, p)
        assert d.degree() == (p - 1) * (q - 1)
        assert d.coeffs[0] == 1
        assert d.eval_at_one() == 1


def test_torus_delta_matches_consecutive_formula():
    # sum_{i<n} t^{ni} - t * sum_{i<n-1} t^{(n+1)i}
    for n in range(2, 8):
        direct = LaurentPoly({n * i: 1 for i in range(n)}) - LaurentPoly(
            {(n + 1) * i + 1: 1 for i in range(n - 1)}
        )
        assert torus_delta(n, n + 1) == direct


def test_torus_delta_rejects_common_factor():
    with pytest.raises(NotCoprimeError):
        torus_delta(4, 6)


def test_torus_delta_unknot():
    assert torus_delta(1, 5) == LaurentPoly.one


# --- cables ----------------------------------------------------------------------


def test_cable_delta_expansion():
    assert cable_delta(2, 5, torus_delta(2, 3)) == P("t^8-t^7+t^4-t+1")


def test_cable_delta_trefoil_of_trefoil():
    assert cable_delta(2, 3, torus_delta(2, 3)) == P("t^6-t^5+t^3-t+1")


def test_cable_delta_of_unknot():
    assert cable_delta(3, 4, LaurentPoly.one) == torus_delta(3, 4)


def test_cable_delta_paper_value_34():
    got = cable_delta(3, 4, torus_delta(2, 3))
    assert got == P("t^12-t^11+t^8-t^7+t^6-t^5+t^4-t+1")


def test_cable_rejects_common_factor():
    with pytest.raises(NotCoprimeError):
        cable_delta(2, 4, torus_delta(2, 3))


# --- staircases ------------------------------------------------------------------


def test_staircase_t34():
    assert staircase_params(P("t^6-t^5+t^3-t+1")) == (1, -2, 2, -1)


def test_staircase_cable():
    assert staircase_params(P("t^8-t^7+t^4-t+1")) == (1, -3, 3, -1)
    assert staircase_data(P("t^8-t^7+t^4-t+1")).c == (1, 3)


def test_staircase_unknot():
    assert staircase_params(P("1")) == ()


def test_staircase_rejections():
    with pytest.raises(NotStaircaseError):
        staircase_params(P("t^2+t+1"))  # not alternating
    with pytest.raises(NotStaircaseError):
        staircase_params(P("t^3-t^2+t-1"))  # even number of terms
    with pytest.raises(NotStaircaseError):
        staircase_params(P("t^2-t"))  # no constant term
    with pytest.raises(NotStaircaseError):
        staircase_params(P("t^6-t^5+t^4-t^3+1"))  # not palindromic


def test_staircase_outputs_are_symmetric():
    for p, q in [(2, 3), (3, 4), (4, 5), (5, 6), (2, 7), (3, 5)]:
        params = staircase_params(torus_delta(p, q))
        assert is_symmetric(params)
        assert tau_of(params) == (p - 1) * (q - 1) // 2


def test_lspace_phi_examples():
    assert lspace_phi(torus_delta(3, 4)) == {1: 1, 2: 1}
    assert lspace_phi(torus_delta(5, 6)) == {1: 1, 2: 1, 3: 1, 4: 1}
    assert lspace_phi(cable_delta(4, 5, torus_delta(2, 3))) == {1: 4, 2: 1, 4: 1}


def test_lspace_phi_nonnegative_and_consistent():
    for p, q in [(2, 3), (3, 4), (2, 5), (4, 5)]:
        d = torus_delta(p, q)
        ph = lspace_phi(d)
        assert all(v >= 0 for v in ph.values())
        assert ph == phi(staircase_params(d))


# --- recipes ---------------------------------------------------------------------


def test_recipe_factors():
    fs = recipe_factors("2*T(2,3) - D")
    assert fs == [(1, -1), (1, -1), (-1, 1)]


def test_recipe_thin():
    assert recipe_factors("Thin(-2)") == [(-1, 1, -1, 1)]
    assert recipe_factors("Thin(0)") == [()]


def test_recipe_std_literal():
    assert recipe_factors("Std(1,-2,2,-1)") == [(1, -2, 2, -1)]


def test_recipe_cable_of_std_rejected():
    with pytest.raises(NotStaircaseError):
        recipe_factors("Cable(Thin(1);2,3)")


def test_eval_recipe_inverse():
    assert eval_recipe("T(2,3) - T(2,3)").params == ()


def test_eval_recipe_d_alias():
    assert eval_recipe("D").params == (1, -1)


def test_pipeline_phi_additive_on_staircase_sums():
    from knotcalc.algebra import tensor
    from knotcalc.localequiv import standard_rep
    from knotcalc.standard import build_standard

    for (p1, q1), (p2, q2) in [((2, 3), (3, 4)), ((2, 5), (2, 3))]:
        da, db = torus_delta(p1, q1), torus_delta(p2, q2)
        prod = tensor(
            build_standard(staircase_params(da)), build_standard(staircase_params(db))
        )
        got = phi(standard_rep(prod).params)
        pa, pb = lspace_phi(da), lspace_phi(db)
        want = {j: pa.get(j, 0) + pb.get(j, 0) for j in set(pa) | set(pb)}
        assert got == {j: v for j, v in want.items() if v}


def test_eval_recipe_k3():
    r = eval_recipe("Cable(D;3,4) - T(3,4)")
    ph = phi(r.params)
    assert ph[3] == 1
    assert all(j <= 3 for j in ph)


# --- checks against the paper, computed independently ---------------------------


def _semigroup_gap_runs(p, q):
    """Counts of maximal runs of consecutive gaps of the semigroup <p, q>, by
    length: phi_j of the torus knot T(p, q)."""
    conductor = (p - 1) * (q - 1)
    members = {a * p + b * q for a in range(q) for b in range(p)}
    runs, length = {}, 0
    for n in range(conductor + 1):
        if n not in members:
            length += 1
        elif length:
            runs[length] = runs.get(length, 0) + 1
            length = 0
    return runs


@pytest.mark.parametrize(
    "p, q", [(p, q) for q in range(3, 10) for p in range(2, q) if gcd(p, q) == 1]
)
def test_torus_knots_against_the_semigroup(p, q):
    params = eval_recipe(f"T({p},{q})").params
    assert params == staircase_params(torus_delta(p, q))
    assert tau_of(params) == (p - 1) * (q - 1) // 2
    assert phi(params) == _semigroup_gap_runs(p, q)


# --- the recipe size guard ------------------------------------------------------


def test_recipe_size_guard_names_size_and_limit():
    with pytest.raises(RecipeTooLargeError, match=r"at least 19683 generators, over the limit of 10000"):
        eval_recipe("1000000*T(2,3)")
    # 7 * 7 * 7 * 7 * 5 = 12005, refused before anything is built
    with pytest.raises(RecipeTooLargeError, match=r"12005 generators"):
        recipe_factors("4*T(4,5) + T(3,4)")
    # size-1 factors never grow the product, but are still counted
    with pytest.raises(RecipeTooLargeError, match=r"recipe names 10001 factors"):
        recipe_factors("T(2,3) + 10000*Std()")
    assert MAX_RECIPE_GENS == 10_000


def test_recipe_size_guard_boundary(monkeypatch):
    monkeypatch.setattr(alexander, "MAX_RECIPE_GENS", 15)
    assert eval_recipe("T(2,3) - T(2,5)").params == (-1, 1)
    assert len(recipe_factors("15*Std()")) == 15
    with pytest.raises(RecipeTooLargeError, match=r"at least 45 generators, over the limit of 15"):
        eval_recipe("T(2,3) - T(2,5) + D")
