from pathlib import Path

import pytest

from knotcalc.alexander import parse_poly
from knotcalc.errors import ParseError, UnknownGeneratorError
from knotcalc.localequiv import standard_rep
from knotcalc.parsing import (
    CableAtom,
    DAlias,
    StdLiteral,
    Thin,
    Torus,
    parse_complex_file,
    parse_knot_expr,
    serialize_complex,
)

DATA = Path(__file__).parent / "data"


# --- complex files ---------------------------------------------------------------


def test_fig1_fixture_is_the_t34_staircase():
    c = parse_complex_file((DATA / "fig1.cx").read_text())
    assert len(c) == 5
    assert standard_rep(c).params == (1, -2, 2, -1)


def test_single_gen_file():
    c = parse_complex_file("gen a 0 0\n")
    assert len(c) == 1 and c.is_reduced


def test_unknown_generator_reported():
    with pytest.raises(UnknownGeneratorError):
        parse_complex_file("gen a 0 0\nd b = U^1 a\n")


def test_zero_differential_line():
    c = parse_complex_file("gen a 0 0\nd a = 0\n")
    assert c.diff == {}


def test_bad_lines_have_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_complex_file("gen a 0 0\nwhat is this\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_complex_file("gen a 0 0\ngen b 1 1\nd b = U a\n")
    assert e.value.line == 3


def test_duplicate_d_line_rejected():
    with pytest.raises(ParseError) as e:
        parse_complex_file("gen a 0 0\ngen b 1 1\nd b = 1 a\nd b = 0\n")
    assert e.value.line == 4


def test_round_trip_is_stable():
    text = (DATA / "fig1.cx").read_text()
    once = serialize_complex(parse_complex_file(text))
    twice = serialize_complex(parse_complex_file(once))
    assert once == twice
    # comments and spacing normalize away, content survives
    assert "gen a 0 -6" in once
    assert "d b = U^1 a + V^2 c" in once


def test_unit_arrows_serialize():
    c = parse_complex_file("gen a 0 0\ngen b 1 1\nd b = 1 a\n")
    assert "d b = 1 a" in serialize_complex(c)


# --- recipe expressions ------------------------------------------------------------


def test_parse_cable_minus_torus():
    e = parse_knot_expr("Cable(D;3,4) - T(3,4)")
    assert e.terms == (
        (1, 1, CableAtom(DAlias(), 3, 4)),
        (-1, 1, Torus(3, 4)),
    )


def test_parse_std_literal():
    e = parse_knot_expr("Std(1,-2,2,-1)")
    assert e.terms == ((1, 1, StdLiteral((1, -2, 2, -1))),)


def test_parse_multiplier():
    e = parse_knot_expr("2*T(2,3)+Thin(-1)")
    assert e.terms == ((1, 2, Torus(2, 3)), (1, 1, Thin(-1)))


def test_parse_nested_cable():
    e = parse_knot_expr("Cable(Cable(D;2,3);2,5)")
    ((sign, mult, atom),) = e.terms
    assert atom == CableAtom(CableAtom(DAlias(), 2, 3), 2, 5)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_knot_expr("T(2,3")
    with pytest.raises(ParseError, match="unknown atom 'Q' at column 1$"):
        parse_knot_expr("Q(1,2)")
    with pytest.raises(ParseError) as e:
        parse_knot_expr("T(2,3) -  Q(1,2)")
    assert e.value.column == 11
    with pytest.raises(ParseError):
        parse_knot_expr("T(2,3) %")
    with pytest.raises(ParseError):
        parse_knot_expr("0*T(2,3)")
    with pytest.raises(ParseError, match="expected an atom at column 10$"):
        parse_knot_expr("3*T(2,3)+")


def test_poly_errors_carry_columns():
    for text, message, column in [
        ("t^2 - t +", "expected a term", 10),
        ("t^ + 1", "missing exponent", 4),
        ("2t 3", "expected '+' or '-'", 4),
        ("  ", "empty polynomial", 3),
    ]:
        with pytest.raises(ParseError) as e:
            parse_poly(text)
        assert str(e.value) == f"{message} at column {column}"
        assert e.value.column == column and e.value.line is None


def test_whitespace_tolerance():
    assert parse_knot_expr(" T( 2 , 3 ) -  D ").terms == (
        (1, 1, Torus(2, 3)),
        (-1, 1, DAlias()),
    )
