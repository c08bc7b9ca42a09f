"""Text formats: complex files and knot recipe expressions.

Complex file grammar (line oriented):

    # comment
    gen IDENT GRU GRV
    d IDENT = 0
    d IDENT = TERM + TERM + ...      TERM := ("U^"K | "V^"K | "1") IDENT

K is a decimal number; U^0 and V^0 read as 1.  Comments take whole lines.
IDENT is a run of non-space characters other than "+", which separates terms.

Omitted d lines mean zero differential.  Serialization writes generators in
declaration order and one d line per source with a nonzero differential, so
serialize(parse(text)) is stable.

Errors give 1-based locations: the line in a complex file, the column in a
recipe.

Recipe grammar:

    expr := term (("+" | "-") term)*
    term := [UINT "*"] atom
    atom := "T(" p "," q ")" | "Cable(" atom ";" p "," q ")"
          | "Thin(" int ")" | "Std(" intlist ")" | "D"
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Union

from .algebra import UNIT, Complex, Monomial, mono, validate
from .errors import ParseError

_GEN_RE = re.compile(r"gen\s+([^\s+]+)\s+(-?\d+)\s+(-?\d+)\s*$")
_D_RE = re.compile(r"d\s+(\S+)\s*=\s*(.*)$")
_COEFFICIENT_RE = re.compile(r"([UV])\^(\d+)|1")


def int_literal(digits: str, line: Optional[int] = None, column: Optional[int] = None) -> int:
    """The value of a decimal literal; ParseError at *line* or *column* when
    it has more digits than Python converts (sys.get_int_max_str_digits)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("integer literal too long", line, column) from None


def _coefficient(token: str, line: int) -> Optional[Monomial]:
    """The monomial a term's coefficient names, or None for a bad coefficient."""
    m = _COEFFICIENT_RE.fullmatch(token)
    if m is None:
        return None
    kind, exponent = m.groups()
    return mono(kind, int_literal(exponent, line)) if kind else UNIT


def _read_coefficients(tokens: list[str], cache: dict[str, Monomial], line: int) -> Optional[list[Monomial]]:
    """The monomials of a canonical d line's coefficient tokens, or None from
    the first bad one on; each good token is parsed once and kept in *cache*."""
    out = []
    for token in tokens:
        m = cache.get(token)
        if m is None:
            m = _coefficient(token, line)
            if m is None:
                return None
            cache[token] = m
        out.append(m)
    return out


def parse_complex_file(text: str) -> Complex:
    """Parse and check a complex file in two passes.

    The first pass reads every line: canonical lines off their tokens, every
    other line through the grammar's regexes, which word every syntax error,
    raised at the first bad line.  It keeps, for each gen line, the name and
    grading, and for each d line, the source, monomials and target names.
    The second pass is one algebra.validate call, which resolves the names
    (a d line may name generators declared after it), checks degrees and
    d^2 = 0, and raises its errors in the order its docstring gives, so
    every syntax error comes before them.
    """
    # each d line field by field, so that no tuple is kept per line or term
    generators: list[tuple[str, tuple[int, int]]] = []
    sources: list[str] = []
    monomials: list[list[Monomial]] = []
    targets: list[list[str]] = []
    # each distinct coefficient token ("U^2", "1", ...) of a canonical line is parsed once
    coefficients: dict[str, Monomial] = {}
    coefficient = coefficients.__getitem__
    seen: set[str] = set()  # the sources of the d lines read so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        head, n = tokens[0], len(tokens)
        if head == "gen" and n == 4 and "+" not in raw and "_" not in raw:
            # int() reads what -?\d+ matches, and also "+" and "_", refused here
            try:
                generators.append((tokens[1], (int(tokens[2]), int(tokens[3]))))
                continue
            except ValueError:
                pass
        elif (head == "d" and n > 3 and tokens[2] == "=" and tokens[1] not in seen
              and (n == 4 and tokens[3] == "0"
                   or n % 3 == 2 and raw.count("+") == tokens[5::3].count("+") == n // 3 - 1)):
            # d NAME = 0, or d NAME = C N + C N + ...
            tokens_c = tokens[3:n - 1:3]
            try:
                row_monomials = [*map(coefficient, tokens_c)]
            except KeyError:
                row_monomials = _read_coefficients(tokens_c, coefficients, lineno)
            if row_monomials is not None:  # else the regex path words the error
                seen.add(tokens[1])
                sources.append(tokens[1])
                monomials.append(row_monomials)
                targets.append(tokens[4::3])
                continue
        line = raw.strip()
        if line.startswith("gen"):
            m = _GEN_RE.match(line)
            if not m:
                raise ParseError(f"bad gen line {raw!r}", line=lineno)
            name, gu, gv = m.groups()
            generators.append((name, (int_literal(gu, lineno), int_literal(gv, lineno))))
        elif line.startswith("d"):
            m = _D_RE.match(line)
            if not m:
                raise ParseError(f"bad d line {raw!r}", line=lineno)
            src, rhs = m.groups()
            rhs = rhs.strip()
            if src in seen:
                raise ParseError(f"duplicate differential for {src!r}", line=lineno)
            seen.add(src)
            row_monomials, row_targets = [], []
            if rhs != "0":
                for chunk in rhs.split("+"):
                    # a term is a coefficient and a name, split by whitespace
                    parts = chunk.split()
                    if len(parts) == 2:
                        monomial = _coefficient(parts[0], lineno)
                        if monomial is not None:
                            row_monomials.append(monomial)
                            row_targets.append(parts[1])
                            continue
                    raise ParseError(f"bad term {chunk.strip()!r}", line=lineno)
            sources.append(src)
            monomials.append(row_monomials)
            targets.append(row_targets)
        else:
            raise ParseError(f"unrecognized line {raw!r}", line=lineno)
    return validate(generators, zip(sources, map(zip, monomials, targets)))


def serialize_complex(c: Complex) -> str:
    lines = []
    for g in c.gens:
        lines.append(f"gen {g.name} {g.grading.gru} {g.grading.grv}")
    for s in range(len(c.gens)):
        row = c.diff.get(s)
        if not row:
            continue
        terms = " + ".join(f"{row[t]} {c.gens[t].name}" for t in sorted(row))
        lines.append(f"d {c.gens[s].name} = {terms}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Recipe expressions


class Torus(NamedTuple):
    p: int
    q: int


class CableAtom(NamedTuple):
    inner: "Atom"
    p: int
    q: int


class Thin(NamedTuple):
    tau: int


class StdLiteral(NamedTuple):
    params: tuple[int, ...]


class DAlias(NamedTuple):
    pass


Atom = Union[Torus, CableAtom, Thin, StdLiteral, DAlias]


class KnotExpr(NamedTuple):
    """Signed combination of atoms: (sign, multiplicity, atom) terms."""

    terms: tuple[tuple[int, int, Atom], ...]


class Scanner:
    """A position in recipe or polynomial text; whitespace may stand between
    tokens, and errors carry the 1-based column."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text):
            raise ParseError(f"expected {ch!r}, got end of input", column=self.pos + 1)
        if self.text[self.pos] != ch:
            raise ParseError(
                f"expected {ch!r}, got {self.text[self.pos]!r}", column=self.pos + 1
            )
        self.pos += 1

    def integer(self, signed: bool = True) -> int:
        self.skip_ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] in ("+", "-"):
            raise ParseError("expected an integer", column=start + 1)
        return int_literal(self.text[start:self.pos], column=start + 1)

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]


# The deepest nest of atoms a recipe may have, far below Python's recursion
# limit, which the recursive parse and evaluation of a nest would otherwise
# reach.  A cable with p, q >= 2 grows the complex at every level: a search
# over p <= 4, q < 40 finds no such nest deeper than 16 levels under
# alexander.MAX_RECIPE_GENS.
MAX_NESTING = 100


def _parse_atom(sc: Scanner, depth: int = 1) -> Atom:
    """Parse the atom at the scanner, *depth* levels deep in its nest.

    Raises ParseError at the column of the first atom nested deeper than
    MAX_NESTING (100) levels.
    """
    sc.skip_ws()
    start = sc.pos
    if depth > MAX_NESTING:
        raise ParseError(f"atoms nested deeper than {MAX_NESTING} levels", column=start + 1)
    head = sc.word()
    if head == "T":
        sc.expect("(")
        p = sc.integer()
        sc.expect(",")
        q = sc.integer()
        sc.expect(")")
        return Torus(p, q)
    if head == "Cable":
        sc.expect("(")
        inner = _parse_atom(sc, depth + 1)
        sc.expect(";")
        p = sc.integer()
        sc.expect(",")
        q = sc.integer()
        sc.expect(")")
        return CableAtom(inner, p, q)
    if head == "Thin":
        sc.expect("(")
        t = sc.integer()
        sc.expect(")")
        return Thin(t)
    if head == "Std":
        sc.expect("(")
        params = []
        if sc.peek() != ")":
            params.append(sc.integer())
            while sc.peek() == ",":
                sc.expect(",")
                params.append(sc.integer())
        sc.expect(")")
        return StdLiteral(tuple(params))
    if head == "D":
        return DAlias()
    raise ParseError(f"unknown atom {head!r}" if head else "expected an atom", column=start + 1)


def _parse_term(sc: Scanner) -> tuple[int, Atom]:
    sc.skip_ws()
    save = sc.pos
    mult = 1
    if sc.peek().isdecimal():
        mult = sc.integer(signed=False)
        if sc.peek() == "*":
            sc.expect("*")
        else:
            sc.pos = save
            mult = 1
    if mult < 1:
        raise ParseError("multiplier must be >= 1", column=save + 1)
    return mult, _parse_atom(sc)


def parse_knot_expr(text: str) -> KnotExpr:
    """Parse a recipe expression like "Cable(D;3,4) - T(3,4)"."""
    sc = Scanner(text)
    terms: list[tuple[int, int, Atom]] = []
    mult, atom = _parse_term(sc)
    terms.append((1, mult, atom))
    while True:
        sc.skip_ws()
        if sc.pos >= len(sc.text):
            break
        ch = sc.text[sc.pos]
        if ch not in "+-":
            raise ParseError(f"expected '+' or '-', got {ch!r}", column=sc.pos + 1)
        sc.pos += 1
        mult, atom = _parse_term(sc)
        terms.append((1 if ch == "+" else -1, mult, atom))
    return KnotExpr(terms=tuple(terms))
