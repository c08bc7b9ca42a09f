"""Alexander polynomials, staircases for L-space knots, and knot recipes.

Torus knot polynomials come from the exact quotient
(t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)), and cabling multiplies the
companion polynomial at t^p by the pattern torus polynomial.  An L-space
knot's complex is a staircase read off the gap sequence c_i of its
alternating Alexander polynomial; a recipe expression combines such atoms
with connected sums and mirrors and hands the tensor product to the
standard-representative machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Union

from . import parsing
from .algebra import tensor_many
from .errors import (
    NotCoprimeError,
    NotStaircaseError,
    ParseError,
    RecipeTooLargeError,
    VerificationFailedError,
)
from .localequiv import RepResult, standard_rep
from .standard import Params, build_standard, negate, phi


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable t.

    Immutable; zero coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        self.coeffs = {e: c for e, c in items if c}

    one = None  # set below

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def substitute_power(self, p: int) -> "LaurentPoly":
        """t -> t^p."""
        return LaurentPoly({e * p: c for e, c in self.coeffs.items()})

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def eval_at_one(self) -> int:
        return sum(self.coeffs.values())

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in decreasing exponent order."""
        return sorted(self.coeffs.items(), reverse=True)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.terms():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                body = ("" if mag == 1 else str(mag)) + ("t" if e == 1 else f"t^{e}")
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += sign + body
        return out

    def __repr__(self):
        return f"LaurentPoly({self})"


LaurentPoly.one = LaurentPoly({0: 1})


def parse_poly(text: str) -> LaurentPoly:
    """Parse the polynomial syntax, e.g. "t^8-t^7+t^4-t+1".

    Errors carry the 1-based column in *text*; the end of input is one past it.
    """
    s = text.replace(" ", "")
    cols = [k + 1 for k, ch in enumerate(text) if ch != " "] + [len(text) + 1]
    if not s:
        raise ParseError("empty polynomial", column=cols[0])
    out: dict[int, int] = {}
    i = 0
    first = True
    while i < len(s):
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
        elif not first:
            raise ParseError("expected '+' or '-'", column=cols[i])
        first = False
        coeff = None
        j = i
        while j < len(s) and s[j].isdigit():
            j += 1
        if j > i:
            coeff = int(s[i:j])
            i = j
        exp = 0
        if i < len(s) and s[i] == "t":
            i += 1
            exp = 1
            if i < len(s) and s[i] == "^":
                i += 1
                j = i
                while j < len(s) and s[j].isdigit():
                    j += 1
                if j == i:
                    raise ParseError("missing exponent", column=cols[i])
                exp = int(s[i:j])
                i = j
            if coeff is None:
                coeff = 1
        elif coeff is None:
            raise ParseError("expected a term", column=cols[i])
        out[exp] = out.get(exp, 0) + sign * coeff
    return LaurentPoly(out)


def _exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact polynomial division over the integers."""
    out: dict[int, int] = {}
    rem = dict(num.coeffs)
    dexp = den.degree()
    dlead = den.coeffs[dexp]
    while rem:
        e = max(rem)
        c = rem[e]
        if e < dexp or c % dlead:
            raise ValueError("division is not exact")
        q = c // dlead
        out[e - dexp] = q
        for de, dc in den.coeffs.items():
            k = e - dexp + de
            rem[k] = rem.get(k, 0) - q * dc
            if rem[k] == 0:
                del rem[k]
    return LaurentPoly(out)


def torus_delta(p: int, q: int) -> LaurentPoly:
    """Alexander polynomial of the (p, q) torus knot.

    Computed as (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)); the result has
    constant term 1 and degree (p-1)(q-1).  p = 1 or q = 1 gives the unknot
    polynomial 1.
    """
    if p < 1 or q < 1:
        raise ValueError("torus parameters must be positive")
    if gcd(p, q) != 1:
        raise NotCoprimeError(p, q)

    def cyc(n):
        return LaurentPoly({n: 1}) - LaurentPoly.one

    num = cyc(p * q) * cyc(1)
    den = cyc(p) * cyc(q)
    out = _exact_div(num, den)
    if out.coeffs.get(0) != 1 or out.degree() != (p - 1) * (q - 1):
        raise VerificationFailedError(f"torus_delta({p}, {q}) = {out} has the wrong shape")
    return out


def cable_delta(p: int, q: int, inner: LaurentPoly) -> LaurentPoly:
    """Alexander polynomial of the (p, q) cable with the given companion."""
    if gcd(p, q) != 1:
        raise NotCoprimeError(p, q)
    return inner.substitute_power(p) * torus_delta(p, q)


@dataclass(frozen=True)
class StaircaseData:
    """Exponent sequence b_0 > b_1 > ... and gaps c_i = b_{2i-2} - b_{2i-1}."""

    b: tuple[int, ...]
    c: tuple[int, ...]


def staircase_data(delta: LaurentPoly) -> StaircaseData:
    """Validate an L-space staircase polynomial and extract its gap sequence.

    Requires an odd number of terms with coefficients alternating +1/-1 from
    the leading term, constant term +1, and the palindromic symmetry
    t^deg * delta(1/t) = delta(t).
    """
    terms = delta.terms()
    if not terms:
        raise NotStaircaseError("zero polynomial")
    if len(terms) % 2 == 0:
        raise NotStaircaseError(f"{len(terms)} terms, need an odd count")
    for i, (_, c) in enumerate(terms):
        want = 1 if i % 2 == 0 else -1
        if c != want:
            raise NotStaircaseError(f"coefficient {c} at position {i}, want {want}")
    b = tuple(e for e, _ in terms)
    if b[-1] != 0:
        raise NotStaircaseError("constant term must be +1")
    deg = b[0]
    if sorted(deg - e for e in b) != sorted(b):
        raise NotStaircaseError("exponents are not palindromic")
    k = len(b) // 2
    c = tuple(b[2 * i] - b[2 * i + 1] for i in range(k))
    return StaircaseData(b=b, c=c)


def staircase_params(delta: LaurentPoly) -> Params:
    """Standard parameters of the staircase complex of an L-space knot.

    With gaps c_1 .. c_m the parameters interleave as
    (c_1, -c_m, c_2, -c_{m-1}, ..., c_m, -c_1); the result is symmetric.
    """
    c = staircase_data(delta).c
    m = len(c)
    out = []
    for i in range(m):
        out.append(c[i])
        out.append(-c[m - 1 - i])
    return tuple(out)


def lspace_phi(delta: LaurentPoly) -> dict[int, int]:
    """phi of an L-space knot: phi_j counts the gaps c_i equal to j."""
    out = phi(staircase_params(delta))
    if any(v < 0 for v in out.values()):
        raise VerificationFailedError(f"L-space phi {out} has a negative count")
    return out


def _atom_delta(atom: parsing.Atom) -> LaurentPoly:
    if isinstance(atom, parsing.Torus):
        return torus_delta(atom.p, atom.q)
    if isinstance(atom, parsing.DAlias):
        return torus_delta(2, 3)
    if isinstance(atom, parsing.CableAtom):
        return cable_delta(atom.p, atom.q, _atom_delta(atom.inner))
    raise NotStaircaseError(f"no Alexander polynomial for {atom!r} inside a cable")


def atom_params(atom: parsing.Atom) -> Params:
    """Standard parameters of a recipe atom."""
    if isinstance(atom, (parsing.Torus, parsing.CableAtom, parsing.DAlias)):
        return staircase_params(_atom_delta(atom))
    if isinstance(atom, parsing.Thin):
        t = atom.tau
        sign = 1 if t > 0 else -1
        out = []
        for i in range(abs(t)):
            out.extend((sign, -sign))
        return tuple(out)
    if isinstance(atom, parsing.StdLiteral):
        return tuple(atom.params)
    raise TypeError(f"unknown atom {atom!r}")


# The most generators a recipe's tensor product may have, and the most
# factors it may name.  A 3,675-generator product takes about 0.5 s and 30 MB,
# an 18,375-generator one 9 s and 430 MB; the tests, demos and benchmark
# menus stay at or under 1,225 generators.
MAX_RECIPE_GENS = 10_000


def recipe_factors(expr: Union[str, parsing.KnotExpr]) -> list[Params]:
    """Parameter lists of every tensor factor named by a recipe expression.

    Raises RecipeTooLargeError before the list is built when the factor
    sizes multiply past MAX_RECIPE_GENS, or the factors outnumber it.
    """
    if isinstance(expr, str):
        expr = parsing.parse_knot_expr(expr)
    factors: list[Params] = []
    size = 1
    for sign, mult, atom in expr.terms:
        p = atom_params(atom)
        if sign < 0:
            p = negate(p)
        for _ in range(mult if p else 0):
            size *= len(p) + 1
            if size > MAX_RECIPE_GENS:
                raise RecipeTooLargeError(
                    f"recipe needs at least {size} generators, over the limit of {MAX_RECIPE_GENS}"
                )
        if len(factors) + mult > MAX_RECIPE_GENS:
            raise RecipeTooLargeError(
                f"recipe names {len(factors) + mult} factors, over the limit of {MAX_RECIPE_GENS}"
            )
        factors.extend([p] * mult)
    return factors


def eval_recipe(expr: Union[str, parsing.KnotExpr]) -> RepResult:
    """Evaluate a recipe: tensor the complexes of its terms and compute the
    standard representative of the product."""
    factors = recipe_factors(expr)
    c = tensor_many(build_standard(p) for p in factors)
    return standard_rep(c)
