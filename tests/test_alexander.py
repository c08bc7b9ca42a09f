import re
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
from knotcalc.errors import (
    NotCoprimeError,
    NotStaircaseError,
    ParameterTooLargeError,
    RecipeTooLargeError,
)
from knotcalc.localequiv import MAX_PARAMETER, standard_rep
from knotcalc.localmaps import prepare_standard
from knotcalc.parsing import CableAtom, DAlias, Thin, Torus, parse_knot_expr
from knotcalc.standard import build_standard, is_symmetric, phi, tau_of


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


@pytest.mark.parametrize("recipe, named", [
    ("Std(1,2,3)", "(1, 2, 3)"),
    ("Std(1,2,3) - Std(1,2,3)", "(1, 2, 3)"),
    ("Std(-1,-2,-3) + Std(1,2,3)", "(-1, -2, -3)"),
])
def test_an_odd_factor_is_named_as_written(recipe, named):
    # a lone factor and a mirror pair skip the fold, but their complexes are
    # still built in written order, so the error names the factor the fold did
    with pytest.raises(ValueError, match=re.escape(f"must have even length, got {named}")):
        eval_recipe(recipe)


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


@pytest.mark.parametrize("n", range(2, 10))
def test_slice_family_phi(n):
    # the paper's topologically slice K_n = Cable(D;n,n+1) - T(n,n+1):
    # phi = {1: n-1} + {n-1: -1} + {n: 1}, so phi_n != 0 and nothing above n
    expected: dict[int, int] = {}
    for j, v in [(1, n - 1), (n - 1, -1), (n, 1)]:
        expected[j] = expected.get(j, 0) + v
    params = eval_recipe(f"Cable(D;{n},{n + 1}) - T({n},{n + 1})").params
    ph = phi(params)
    assert ph == {j: v for j, v in expected.items() if v}
    assert ph[n] != 0 and max(ph) == n
    assert tau_of(params) == n


def _lspace_cables():
    """(K, g(K), p, q) with p <= 4 and the two smallest q >= p(2g(K) - 1)
    coprime to p, so that Cable(K;p,q) is an L-space knot."""
    for knot, g in [("T(2,3)", 1), ("T(2,5)", 2), ("T(3,4)", 3)]:
        for p in range(2, 5):
            qs = [q for q in range(p * (2 * g - 1), p * (2 * g + 1)) if gcd(p, q) == 1]
            for q in qs[:2]:
                yield knot, g, p, q


@pytest.mark.parametrize("knot, g, p, q", list(_lspace_cables()))
def test_cable_tau_against_hom(knot, g, p, q):
    # Hom: tau(K_{p,q}) = p tau(K) + (p-1)(q-1)/2 when tau(K) = g(K), as for
    # these L-space knots; the second term is tau(T(p,q))
    tau_k = tau_of(eval_recipe(knot).params)
    assert tau_k == g
    assert tau_of(eval_recipe(f"Cable({knot};{p},{q}) - T({p},{q})").params) == p * tau_k


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
    # eval_recipe answers a lone atom without the greedy search, which must agree
    assert standard_rep(prepare_standard(params)).params == params
    assert tau_of(params) == (p - 1) * (q - 1) // 2
    assert phi(params) == _semigroup_gap_runs(p, q)


# --- the recipe size guard ------------------------------------------------------


def test_recipe_size_guard_names_size_and_limit(no_polynomial):
    with pytest.raises(RecipeTooLargeError, match=r"at least 19683 generators, over the limit of 10000"):
        eval_recipe("1000000*T(2,3)")
    # 7 * 7 * 7 * 7 * 5 = 12005, refused before anything is built
    with pytest.raises(RecipeTooLargeError, match=r"12005 generators"):
        recipe_factors("4*T(4,5) + T(3,4)")
    # size-1 factors never grow the product, but are still counted
    with pytest.raises(RecipeTooLargeError, match=r"recipe names 10001 factors"):
        recipe_factors("T(2,3) + 10000*Std()")
    assert MAX_RECIPE_GENS == 10_000


def test_recipe_size_guard_boundary(monkeypatch, no_polynomial):
    monkeypatch.setattr(alexander, "MAX_RECIPE_GENS", 15)
    assert eval_recipe("T(2,3) - T(2,5)").params == (-1, 1)
    assert len(recipe_factors("15*Std()")) == 15
    # after 3 * 5 generators no parameter is left, so D's walk stops at its
    # first run: 15 * (1 + 1)
    with pytest.raises(RecipeTooLargeError, match=r"at least 30 generators, over the limit of 15"):
        eval_recipe("T(2,3) - T(2,5) + D")


def test_long_thin_atom_is_refused_before_it_is_built(monkeypatch, no_polynomial):
    # Thin(t) has 2|t| parameters, so its size is known without building them
    built = []
    build = alexander.atom_params
    monkeypatch.setattr(alexander, "atom_params", lambda atom: built.append(atom) or build(atom))
    for expr, size in [("Thin(1000000)", 2000001), ("Thin(-1000000)", 2000001),
                       ("Thin(5000)", 10001), ("T(2,3) + Thin(2500)", 15003), ("4*Thin(10)", 194481)]:
        with pytest.raises(RecipeTooLargeError,
                           match=rf"at least {size} generators, over the limit of 10000$"):
            recipe_factors(expr)
        assert not any(isinstance(atom, Thin) for atom in built), expr
    assert recipe_factors("Thin(4999)") == [(1, -1) * 4999]
    assert recipe_factors("D - 2*Thin(2)") == [(1, -1), (-1, 1, -1, 1), (-1, 1, -1, 1)]


def test_torus_delta_times_its_denominator_is_its_numerator():
    # an oracle apart from the Lam-Leung closed form that torus_delta reads
    def cyc(n):
        return LaurentPoly({n: 1, 0: -1})

    for p in range(1, 30):
        for q in range(1, 120):
            if gcd(p, q) == 1:
                assert torus_delta(p, q) * cyc(p) * cyc(q) == cyc(p * q) * cyc(1), (p, q)


def test_large_torus_atom_is_refused_before_its_polynomial(no_polynomial):
    # the semigroup walk stops once the atom has more parameters than the
    # generators left allow, here 10000 of them, so the count it reports is
    # a lower bound; an atom walked whole reports its size
    for expr, size in [("T(2,10001)", 10001), ("T(10001,2)", 10001), ("2*T(3,5003)", 6671 ** 2),
                       ("T(700,9999)", 10001), ("T(9999,499)", 10001)]:
        with pytest.raises(RecipeTooLargeError,
                           match=rf"at least {size} generators, over the limit of 10000$"):
            recipe_factors(expr)
    with pytest.raises(NotCoprimeError, match=r"gcd\(3, 5001\) != 1"):
        recipe_factors("2*T(3,5001)")
    assert [len(p) for p in recipe_factors("T(2,9999)")] == [9998]
    assert recipe_factors("T(1,10001) + T(10001,1)") == [(), ()]


def test_large_cable_atom_is_refused_before_its_polynomial(no_polynomial):
    # a cable is walked on its semigroup like a torus atom, and stops at the
    # same count: 10000 parameters alone, 3333 after the 3 generators of
    # T(2,3).  Cable(T(2,4001);300,4001) once ran for minutes.
    for expr, size in [("Cable(D;2,1000001)", 10001),
                       ("Cable(T(2,5);3,300001)", 10001),
                       ("Cable(D;97,100003)", 10001),
                       ("Cable(T(2,3);200,200001)", 10001),
                       ("2*Cable(Cable(D;2,3);50,100001)", 10001),
                       ("Cable(D;700,9999)", 10001),
                       ("Cable(D;9999,700)", 10001),
                       ("2*Cable(D;3000,3001)", 10001),
                       ("Cable(D;3000,3001)", 10001),
                       ("Cable(T(2,4001);300,4001)", 10001),
                       ("T(2,3) + Cable(D;1000,10001)", 3 * 3334)]:
        with pytest.raises(RecipeTooLargeError,
                           match=rf"at least {size} generators, over the limit of 10000$"):
            recipe_factors(expr)
    # an atom that is not a well-formed cable keeps its own error
    with pytest.raises(NotCoprimeError, match=r"gcd\(200, 200000\) != 1"):
        recipe_factors("Cable(D;200,200000)")
    assert [len(p) for p in recipe_factors("Cable(D;2,9999)")] == [9998]


def test_malformed_atom_is_refused_before_anything_is_built(no_polynomial):
    # an atom's torus pairs are checked innermost first, before any
    # polynomial is built, even a companion's
    for expr, error, message in [
        ("Cable(T(700,9999);2,4)", NotCoprimeError, r"gcd\(2, 4\) != 1"),
        ("Cable(T(3,6);2,4)", NotCoprimeError, r"gcd\(3, 6\) != 1"),
        ("Cable(Thin(1);2,3)", NotStaircaseError,
         r"polynomial is not a staircase: no Alexander polynomial for Thin\(tau=1\) inside a cable"),
        ("Cable(D;0,1)", ValueError, "torus parameters must be positive"),
    ]:
        with pytest.raises(error, match=message + "$"):
            recipe_factors(expr)


def _built_delta(atom):
    """The polynomial of a T, D or Cable atom, built by recursion on the atom,
    companion first."""
    if isinstance(atom, Torus):
        return torus_delta(atom.p, atom.q)
    if isinstance(atom, DAlias):
        return torus_delta(2, 3)
    if isinstance(atom, CableAtom):
        return cable_delta(atom.p, atom.q, _built_delta(atom.inner))
    raise NotStaircaseError(f"no Alexander polynomial for {atom!r} inside a cable")


@given(st.one_of(
    st.just("D"),
    st.builds("T({},{})".format, st.integers(-2, 12), st.integers(-2, 120)),
    st.builds("Thin({})".format, st.integers(-60, 60)),
    st.builds("Cable({};{},{})".format,
              st.sampled_from(["T(1,2)", "D", "T(2,5)", "T(3,4)", "Cable(D;2,5)",
                               "T(2,4)", "T(0,3)", "Thin(2)", "Std(1,-1)", "Cable(T(2,4);3,5)"]),
              st.integers(-2, 12), st.integers(-2, 120)),
))
def test_atom_params_are_read_off_the_semigroup(text):
    atom = parse_knot_expr(text).terms[0][2]
    if isinstance(atom, Thin):
        assert len(alexander.atom_params(atom)) == 2 * abs(atom.tau)
        return
    try:
        delta = _built_delta(atom)
    except (ValueError, NotCoprimeError, NotStaircaseError) as e:
        # a malformed atom raises, read off the atom, what building it raises
        for read, arg in ((alexander.atom_params, atom), (recipe_factors, text)):
            with pytest.raises(type(e)) as info:
                read(arg)
            assert (type(info.value), str(info.value)) == (type(e), str(e))
        return
    params = alexander.atom_params(atom)
    assert params == staircase_params(delta)
    assert sum(map(abs, params)) == delta.degree()


def _grid_atoms():
    """Every coprime T(p,q) with p < 30 and q < 60, and every Cable(K;p,q)
    with p <= 8 and q < 60 over seven companions: 3,238 atoms."""
    companions = ["T(1,2)", "D", "T(2,5)", "T(3,4)", "Cable(D;2,5)", "T(2,7)", "Cable(T(2,3);3,5)"]
    yield from (f"T({p},{q})" for p in range(1, 30) for q in range(1, 60) if gcd(p, q) == 1)
    yield from (f"Cable({k};{p},{q})" for k in companions
                for p in range(1, 9) for q in range(1, 60) if gcd(p, q) == 1)


def test_atom_params_match_the_built_polynomial_on_a_grid():
    atoms = list(_grid_atoms())
    assert len(atoms) == 3238
    for text in atoms:
        atom = parse_knot_expr(text).terms[0][2]
        assert alexander.atom_params(atom) == staircase_params(_built_delta(atom)), text


@given(st.integers(2, 12), st.integers(3, 60))
def test_torus_parameters_are_at_least_q_minus_1(p, q):
    if p >= q or gcd(p, q) != 1:
        return
    params = alexander.atom_params(Torus(p, q))
    assert len(params) >= q - 1
    assert max(map(abs, params)) <= p - 1
    assert sum(map(abs, params)) == (p - 1) * (q - 1)


def _trivial_cables(depth):
    """T(2,3) inside *depth* (2,1)-cables: each doubles every gap and adds no
    generator, so the rep is (2^depth, -2^depth)."""
    return "Cable(" * depth + "T(2,3)" + ";2,1)" * depth


def test_parameter_bound_boundary(no_polynomial):
    assert MAX_PARAMETER == 1024 > 11  # far above every parameter of the menus
    assert eval_recipe("Std(1024,-1024)").params == (1024, -1024)
    assert eval_recipe(_trivial_cables(10)).params == (1024, -1024)
    for recipe, largest in [("Std(1025,-1025)", 1025), (_trivial_cables(11), 2048),
                            ("T(2,3) + Std(1,-2000,2000,-1)", 2000),
                            # S is built only to 1025 * 10000, inside the first run
                            (_trivial_cables(30), "of at least 10250000")]:
        with pytest.raises(ParameterTooLargeError, match=f"parameter {largest}, over the limit of 1024$"):
            recipe_factors(recipe)


def test_parameter_bound_in_standard_rep():
    # a complex file is bounded by its torsion orders, before the search
    assert standard_rep(build_standard((1024, -1024))).params == (1024, -1024)
    with pytest.raises(ParameterTooLargeError, match="torsion order 1025, over the limit of 1024"):
        standard_rep(build_standard((1, -1025, 1025, -1)))
