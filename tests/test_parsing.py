import contextlib
import io
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import box, check_complex, direct_sum, scramble
from knotcalc.algebra import Monomial, mono
from knotcalc.alexander import parse_poly
from knotcalc.cli import run
from knotcalc.errors import (
    DegreeViolationError,
    DuplicateGeneratorError,
    KnotCalcError,
    ParseError,
    UnknownGeneratorError,
)
from knotcalc.localequiv import standard_rep
from knotcalc.parsing import (
    MAX_NESTING,
    CableAtom,
    DAlias,
    StdLiteral,
    Thin,
    Torus,
    parse_complex_file,
    parse_knot_expr,
    serialize_complex,
)
from knotcalc.standard import build_standard

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"

# A literal over Python's 4,300-digit limit for converting a string to int
LONG = "1" * 5000


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
    # "+" separates terms, so a name holding one is refused where it is declared
    with pytest.raises(ParseError) as e:
        parse_complex_file("gen c 0 0\ngen a+b 1 1\nd a+b = 1 c\n")
    assert str(e.value) == "bad gen line 'gen a+b 1 1' at line 2"
    with pytest.raises(ParseError) as e:
        parse_complex_file("gen a 0 0\nd a\n")
    assert str(e.value) == "bad d line 'd a' at line 2"
    for text, line in [(f"gen x {LONG} 0\n", 1), (f"gen a 0 0\ngen b 1 1\nd b = U^{LONG} a\n", 3)]:
        with pytest.raises(ParseError) as e:
            parse_complex_file(text)
        assert str(e.value) == f"integer literal too long at line {line}"


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


def test_readme_complex_file_example_parses():
    section = README.read_text(encoding="utf-8").split("### Complex file format", 1)[1]
    example = section.split("```", 2)[1]
    assert standard_rep(parse_complex_file(example)).params == (1, -2)


# --- complex files against the regex term grammar ------------------------------------

_GEN_RE = re.compile(r"gen\s+([^\s+]+)\s+(-?\d+)\s+(-?\d+)\s*$")
_D_RE = re.compile(r"d\s+(\S+)\s*=\s*(.*)$")
_TERM_RE = re.compile(r"(U\^(\d+)|V\^(\d+)|1)\s+(\S+)\s*$")


def _parse_by_regex(text):
    """parse_complex_file with every term matched by one regex, the grammar's
    first implementation, and the complex checked by conftest's
    check_complex, not by algebra.validate."""
    generators, differential, sources = [], [], set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("gen"):
            m = _GEN_RE.match(line)
            if not m:
                raise ParseError(f"bad gen line {raw!r}", line=lineno)
            generators.append((m.group(1), (int(m.group(2)), int(m.group(3)))))
        elif line.startswith("d"):
            m = _D_RE.match(line)
            if not m:
                raise ParseError(f"bad d line {raw!r}", line=lineno)
            src, rhs = m.group(1), m.group(2).strip()
            if src in sources:
                raise ParseError(f"duplicate differential for {src!r}", line=lineno)
            sources.add(src)
            terms = []
            if rhs != "0":
                for chunk in rhs.split("+"):
                    tm = _TERM_RE.match(chunk.strip())
                    if not tm:
                        raise ParseError(f"bad term {chunk.strip()!r}", line=lineno)
                    if tm.group(2):
                        monomial = mono("U", int(tm.group(2)))
                    elif tm.group(3):
                        monomial = mono("V", int(tm.group(3)))
                    else:
                        monomial = mono("1", 0)
                    terms.append((monomial, tm.group(4)))
            differential.append((src, terms))
        else:
            raise ParseError(f"unrecognized line {raw!r}", line=lineno)
    return check_complex(generators, differential)


def _outcome(parse, text):
    try:
        return "ok", serialize_complex(parse(text))
    except KnotCalcError as e:
        return type(e).__name__, str(e), getattr(e, "line", None)


_BASES = (
    (DATA / "fig1.cx").read_text(),
    "# two lines of comment\n\ngen a 0 0\ngen b 1 1\ngen e 0 0\nd a = 0\nd b = 1 a\n",
    serialize_complex(build_standard((2, -1, 1, -2))),
    serialize_complex(scramble(direct_sum(build_standard((1, -2, 2, -1)), box(1, 2)), random.Random(3))),
    # 1,001 generators, with unit arrows from the basis changes
    serialize_complex(scramble(
        direct_sum(build_standard((1, -2, 2, -1) * 25), *(box(1 + k % 3, 1 + k % 2, (k, -k)) for k in range(225))),
        random.Random(5), steps=300,
    )),
)

# (pattern, replacement): one edit replaces one match of the pattern
_EDITS = (
    (r" ", ""), (r" ", "  "), (r" ", "\t"), (r" ", " \t "),
    (r"(?<=\^)\d+", "0"), (r"(?<=\^)\d+", "-1"), (r"(?<=\^)\d+", "07"),
    (r"[UV](?=\^)", "W"), (r"(?<=[ =+])1(?= )", "U^0"), (r"(?<=[ =+])1(?= )", "V^00"),
    (r"(?<=\d) (?=\S)", ""), (r"(?<= 1) ", ""), (r"(?<=\d)(?= )", "g"), (r"(?<=[=+] 1)(?= )", "0"),
    (r"(?m)$", " extra"), (r" \+ ", " + + "), (r" \+ ", " +"), (r"= ", "= + "), (r" \+ ", " "),
    (r"\d", "\u0663"), (r"\d", "\uff13"), (r"\d", "\u00b2"), (r"\d", "\u2163"),
    (r"(?m)^", "# "), (r"(?m)^", "\t"), (r"(?m)^d ", "d  "), (r"(?m)^gen ", "gen\t"),
    # the errors validate raises, and their order: a duplicated gen line, an
    # undeclared target, a d line above the first gen line (a legal forward
    # reference), and a block whose second arrow breaks d^2 = 0
    (r"(?m)^gen .*\n", r"\g<0>\g<0>"), (r"(?<=\d )[^\s+\d-]\S*", r"\g<0>z"),
    (r"(?ms)^(gen .*?)^(d [^\n]*\n)", r"\2\1"),
    (r"(?m)^", "gen z2 2 2\ngen z1 1 1\ngen z0 0 0\nd z2 = 1 z1\nd z1 = 1 z0\n"),
    # "_" and "+" that int() reads but the grammar refuses
    (r"(?<=gen )\S", r"\g<0>_"), (r"(?<= )(?=\d)", "1_"), (r"(?<= )(?=-?\d)", "+"),
    # lines set aside: the first gen line moves below the first d line that
    # names it, and both it and the last gen line of its block get another
    # gr_V, so the line set aside breaks the degree rule ahead of a line
    # below it that breaks it at once
    (r"(?ms)^gen (\S+) (-?\d+) (-?\d+)\n(.*?)^(gen \S+ -?\d+ )(-?\d+)\n(?!gen )(.*?^d [^\n]*(?<= )\1(?=[ \n])[^\n]*\n)",
     r"\4\5\g<6>1\n\7gen \1 \2 \g<3>1\n"),
    # a d line's first exponent times ten, then a duplicate of its source
    (r"(?m)^d (\S+) = ([UV])\^(\d+) (.*\n)", r"d \1 = \2^\g<3>0 \4gen \1 0 0\n"),
)


def _edited(base, edits):
    text = base
    for which, k in edits:
        pattern, replacement = _EDITS[which]
        found = list(re.finditer(pattern, text))
        if found:
            m = found[k % len(found)]
            text = text[: m.start()] + m.expand(replacement) + text[m.end():]
    return text


@settings(deadline=5000)  # a 1,001-generator base is parsed three times
@given(st.sampled_from(_BASES), st.lists(st.tuples(st.integers(0, len(_EDITS) - 1), st.integers(0, 10**6)), max_size=4))
def test_edited_files_parse_like_the_regex_grammar(base, edits):
    text = _edited(base, edits)
    assert _outcome(parse_complex_file, text) == _outcome(_parse_by_regex, text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.cx"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run(["validate", str(path)]) in (0, 1, 2)


def _exact(parse, text):
    """The outcome of *parse* on *text*: the error, or the complex in full,
    with the key order of its differential and the item order of each row."""
    try:
        c = parse(text)
    except KnotCalcError as e:
        return type(e).__name__, str(e), getattr(e, "line", None)
    return c.gens, [(s, list(row.items())) for s, row in c.diff.items()]


@pytest.mark.parametrize("base", range(len(_BASES)))
def test_every_edit_builds_the_complex_of_the_regex_grammar(base):
    # serialize_complex sorts rows and skips key order, so compare in full
    for edit in range(len(_EDITS)):
        for k in (0, 1, 7):
            text = _edited(_BASES[base], [(edit, k)])
            assert _exact(parse_complex_file, text) == _exact(_parse_by_regex, text), (edit, k)


def test_errors_of_lines_set_aside_keep_their_place():
    # d b names a, declared below it with the wrong gr_V; d c breaks the
    # degree rule at once, but comes after d b
    text = "gen b 1 1\ngen c 0 0\nd b = 1 a\nd c = 1 b\ngen a 0 5\n"
    with pytest.raises(DegreeViolationError) as e:
        parse_complex_file(text)
    assert (e.value.src, e.value.tgt) == ("b", "a")
    # a duplicate gen line below both degree errors still comes first
    with pytest.raises(DuplicateGeneratorError, match="'c'"):
        parse_complex_file(text + "gen c 2 2\n")
    # and a syntax error below everything comes before all of them
    with pytest.raises(ParseError) as e:
        parse_complex_file(text + "gen c 2 2\nd\n")
    assert e.value.line == 7
    # a source declared below its d line keeps that line's place in diff
    c = parse_complex_file("gen c 0 0\ngen e 1 1\nd a = 1 c\nd e = 1 c\ngen a 1 1\n")
    assert list(c.diff) == [c.index("a"), c.index("e")] == [2, 1]
    assert _exact(parse_complex_file, "gen z 0 0\nd y = 1 z\nd x = 1 y\n") == (
        "UnknownGeneratorError", "unknown generator 'y'", None)


@pytest.mark.parametrize(
    "text, message",
    [
        ("gen a 0 0\ngen b 1 1\nd b = U^1a\n", "bad term 'U^1a' at line 3"),
        ("gen a 0 0\ngen b 1 1\nd b = 1 a b\n", "bad term '1 a b' at line 3"),
        ("gen a 0 0\ngen b 1 1\nd b = 10 a\n", "bad term '10 a' at line 3"),
        ("gen a 0 0\ngen b 1 1\nd b = U^1g a\n", "bad term 'U^1g a' at line 3"),
        ("gen a 0 0\ngen b 1 1\nd b = 1 a +  + 1 a\n", "bad term '' at line 3"),
        ("gen a 0 0\ngen b 1 1\nd b = W^2 a\n", "bad term 'W^2 a' at line 3"),
        ("gen a 0 0\ngen b 1 1\nd b = U^-1 a\n", "bad term 'U^-1 a' at line 3"),
        ("gen a 0 0\ngen b 1 1\nd b = U^\u00b2 a\n", "bad term 'U^\u00b2 a' at line 3"),
    ],
)
def test_bad_terms_name_the_term_and_line(text, message):
    with pytest.raises(ParseError) as e:
        parse_complex_file(text)
    assert str(e.value) == message and e.value.line == 3
    assert _outcome(parse_complex_file, text) == _outcome(_parse_by_regex, text)


def test_zero_exponents_and_unicode_digits_are_read_as_numbers():
    c = parse_complex_file("gen a 0 0\ngen b 1 1\ngen c \u0660 \u0662\nd b = U^0 a\t+\tV^00 a\nd c = U^\uff11 b\n")
    assert c.diff == {c.index("c"): {c.index("b"): Monomial("U", 1)}}


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
    # superscript digits are not decimal digits; \u0663 (Arabic-Indic 3) is
    for text, message in [("T(\u00b2,3)", "expected an integer at column 3"),
                          ("\u00b2*T(2,3)", "expected an atom at column 1"),
                          ("T(2,3\u00b9)", "expected ')', got '\u00b9' at column 6"),
                          (f"T(2,{LONG})", "integer literal too long at column 5"),
                          (f"{LONG}*T(2,3)", "integer literal too long at column 1")]:
        with pytest.raises(ParseError) as e:
            parse_knot_expr(text)
        assert str(e.value) == message, text
    assert parse_knot_expr("T(2,\u0663)").terms == ((1, 1, Torus(2, 3)),)


def test_poly_errors_carry_columns():
    for text, message, column in [
        ("t^2 - t +", "expected a term", 10),
        ("t^ + 1", "missing exponent", 4),
        ("2t 3", "expected '+' or '-'", 4),
        ("  ", "empty polynomial", 3),
        ("t^\u00b2+1", "missing exponent", 3),
        ("\u00b2t+1", "expected a term", 1),
        ("t^2 + 2\u00b2", "expected '+' or '-'", 8),
        (f"t^{LONG}+1", "integer literal too long", 3),
        (f"1 - {LONG}t", "integer literal too long", 5),
    ]:
        with pytest.raises(ParseError) as e:
            parse_poly(text)
        assert str(e.value) == f"{message} at column {column}"
        assert e.value.column == column and e.value.line is None


_FUZZ_ALPHABET = st.sampled_from(
    list("TCableThinStdD(),;*+-^ t0123456789") + ["\u00b2", "\u00b3", "\u00b9", "\u0663", "\uff11"]
)


@given(st.one_of(st.text(_FUZZ_ALPHABET, max_size=40), st.text(max_size=20)))
def test_parsers_return_or_raise_parse_errors_in_range(text):
    for parse in (parse_knot_expr, parse_poly):
        try:
            parse(text)
        except ParseError as e:
            assert e.line is None and 1 <= e.column <= len(text) + 1, (parse.__name__, text)


def test_whitespace_tolerance():
    assert parse_knot_expr(" T( 2 , 3 ) -  D ").terms == (
        (1, 1, Torus(2, 3)),
        (-1, 1, DAlias()),
    )


def test_nesting_limit():
    deepest = "Cable(" * (MAX_NESTING - 1) + "D" + ";2,1)" * (MAX_NESTING - 1)
    ((_, _, atom),) = parse_knot_expr(deepest).terms
    for _ in range(MAX_NESTING - 1):
        atom = atom.inner
    assert atom == DAlias()
    with pytest.raises(ParseError) as e:
        parse_knot_expr("Cable(" + deepest + ";2,1)")
    assert str(e.value) == f"atoms nested deeper than {MAX_NESTING} levels at column {6 * MAX_NESTING + 1}"
