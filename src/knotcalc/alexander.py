"""Alexander polynomials, staircases for L-space knots, and knot recipes.

Torus knot polynomials come from the Lam-Leung closed form, and cabling
multiplies the companion polynomial at t^p by the pattern's.  An L-space
knot's complex is a staircase read off the gaps c_i of its alternating
polynomial; a recipe's T, D and Cable atoms read theirs off their
semigroups and build no polynomial.  A recipe's class is found by
cancelling exact mirror pairs of factors, then folding the factors left one
at a time through the standard-representative machinery; a lone factor
left is its own representative.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, inf
from typing import Mapping, NamedTuple, Union

from . import parsing
from .errors import (
    NotCoprimeError,
    NotStaircaseError,
    ParameterTooLargeError,
    ParseError,
    RecipeTooLargeError,
    VerificationFailedError,
)
from .localequiv import MAX_PARAMETER, RepResult, standard_rep
from .localmaps import identity_maps, mirror_maps, prepare_standard
from .standard import Params, negate, phi


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
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        # sorting the exponents alone is much faster than sorting terms()
        for e in sorted(coeffs, reverse=True):
            c = coeffs[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                body = ("" if mag == 1 else str(mag)) + ("t" if e == 1 else f"t^{e}")
            parts.append(("-" if c < 0 else "+") + body)
        out = "".join(parts)
        return out[1:] if out[0] == "+" else out

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
        while j < len(s) and s[j].isdecimal():
            j += 1
        if j > i:
            coeff = parsing.int_literal(s[i:j], column=cols[i])
            i = j
        exp = 0
        if i < len(s) and s[i] == "t":
            i += 1
            exp = 1
            if i < len(s) and s[i] == "^":
                i += 1
                j = i
                while j < len(s) and s[j].isdecimal():
                    j += 1
                if j == i:
                    raise ParseError("missing exponent", column=cols[i])
                exp = parsing.int_literal(s[i:j], column=cols[i])
                i = j
            if coeff is None:
                coeff = 1
        elif coeff is None:
            raise ParseError("expected a term", column=cols[i])
        out[exp] = out.get(exp, 0) + sign * coeff
    return LaurentPoly(out)


def _lam_leung(p: int, q: int) -> tuple[int, int]:
    """The r, s >= 0 with (p - 1)(q - 1) = rp + sq, for coprime p, q >= 1."""
    s = (pow(q, -1, p) - 1) % p
    return ((p - 1) * (q - 1) - s * q) // p, s


def _coprime_pair(p: int, q: int) -> tuple[int, int]:
    """(p, q), once p, q >= 1 and gcd(p, q) = 1 are checked in that order."""
    if p < 1 or q < 1:
        raise ValueError("torus parameters must be positive")
    if gcd(p, q) != 1:
        raise NotCoprimeError(p, q)
    return p, q


def torus_delta(p: int, q: int) -> LaurentPoly:
    """Alexander polynomial of the (p, q) torus knot.

    This is (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)), built term by term
    from its closed form (Lam-Leung): with r, s = _lam_leung(p, q) it is
    the sum of t^{ip + jq} over 0 <= i <= r, 0 <= j <= s less the sum of
    t^{ip + jq - pq} over r < i < q, s < j < p.  The result has constant
    term 1 and degree (p-1)(q-1).  p = 1 or q = 1 gives the unknot
    polynomial 1.
    """
    _coprime_pair(p, q)
    r, s = _lam_leung(p, q)
    coeffs = {i * p + j * q: 1 for i in range(r + 1) for j in range(s + 1)}
    coeffs.update({i * p + j * q - p * q: -1 for i in range(r + 1, q) for j in range(s + 1, p)})
    out = LaurentPoly(coeffs)
    if out.coeffs.get(0) != 1 or out.degree() != (p - 1) * (q - 1):
        raise VerificationFailedError(f"torus_delta({p}, {q}) = {out} has the wrong shape")
    return out


def cable_delta(p: int, q: int, inner: LaurentPoly) -> LaurentPoly:
    """Alexander polynomial of the (p, q) cable with the given companion."""
    if gcd(p, q) != 1:
        raise NotCoprimeError(p, q)
    return inner.substitute_power(p) * torus_delta(p, q)


class StaircaseData(NamedTuple):
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


def _torus_pairs(atom: parsing.Atom) -> list[tuple[int, int]]:
    """The torus pairs of a T, D or Cable atom, innermost first: D is
    [(2, 3)] and Cable(K;p,q) appends (p, q) to K's pairs.

    This is the one rule for which of these atoms are valid, applied before
    anything is built and innermost first: a torus is checked for p, q >= 1
    (ValueError) and then for gcd(p, q) = 1 (NotCoprimeError), a cable for
    the gcd and then for positivity, and a Thin or Std companion raises
    NotStaircaseError."""
    if isinstance(atom, parsing.DAlias):
        return [(2, 3)]
    if isinstance(atom, parsing.Torus):
        return [_coprime_pair(atom.p, atom.q)]
    if isinstance(atom, parsing.CableAtom):
        pairs = _torus_pairs(atom.inner)
        if gcd(atom.p, atom.q) != 1:
            raise NotCoprimeError(atom.p, atom.q)
        return [*pairs, _coprime_pair(atom.p, atom.q)]
    raise NotStaircaseError(f"no Alexander polynomial for {atom!r} inside a cable")


def _semigroup_params(pairs: list[tuple[int, int]], budget: float) -> tuple[Params, bool]:
    """The parameters of the atom with these torus pairs, read off its
    semigroup S, and whether they are whole: it stops after budget + 1.

    With the pairs (p_i, q_i) innermost first, S_0 = N and
    S_i = {p_i s + q_i j : s in S_(i-1), 0 <= j < p_i} has degree
    p_i deg_(i-1) + (p_i - 1)(q_i - 1).  No n is written twice, so the
    cable_delta fold is (1 - t) sum_{s in S, s < deg} t^s + t^deg, whose c_i
    (staircase_data) are the runs r_i of S below deg and, reversed, its gaps
    g_i; the parameters are (r_1, -g_1, ..., r_m, -g_m).  S is built only as
    far as (MAX_PARAMETER + 1)(budget + 1), which holds more than budget
    runs and gaps or one over MAX_PARAMETER.
    """
    degrees = [0]
    for p, q in pairs:
        degrees.append(p * degrees[-1] + (p - 1) * (q - 1))
    sizes = [min(degrees[-1], (MAX_PARAMETER + 1) * (budget + 1))]  # each level as far as read
    for (p, _), degree in zip(pairs[::-1], degrees[-2::-1]):
        sizes.append(min(degree, -(-sizes[-1] // p)))
    s = bytearray()
    for (p, q), n in zip(pairs, sizes[-2::-1]):
        old, s = s + b"\x01" * (-(-n // p) - len(s)), bytearray(n)  # S_(i-1) is 1 above its degree
        if p * p <= n:  # a slice per residue class q j mod p
            for j in range(min(p, -(-n // q))):
                s[q * j::p] = old[:len(range(q * j, n, p))]
        else:  # a slice per member below n / p, at most p of them
            for m in (m for m, bit in enumerate(old) if bit):
                s[p * m:p * m + p * q:q] = b"\x01" * len(range(p * m, min(n, p * m + p * q), q))
    pieces, x = [], 0
    while x < len(s) and len(pieces) <= budget:  # a run ends at a 0, a gap at a 1
        y = s.find(len(pieces) % 2, x)
        pieces.append((len(s) if y < 0 else y) - x)
        x += pieces[-1]
    whole = x == degrees[-1]
    if whole and pieces[::2] != pieces[1::2][::-1]:
        raise VerificationFailedError("the semigroup's runs are not its gaps in reverse")
    return tuple(-v if k % 2 else v for k, v in enumerate(pieces)), whole


def atom_params(atom: parsing.Atom) -> Params:
    """Standard parameters of a recipe atom; a T, D or Cable atom's are read
    off its semigroup."""
    if isinstance(atom, (parsing.Torus, parsing.CableAtom, parsing.DAlias)):
        return _semigroup_params(_torus_pairs(atom), inf)[0]
    if isinstance(atom, parsing.Thin):
        sign = 1 if atom.tau > 0 else -1
        return (sign, -sign) * abs(atom.tau)
    if isinstance(atom, parsing.StdLiteral):
        return tuple(atom.params)
    raise TypeError(f"unknown atom {atom!r}")


# The most generators a recipe's whole tensor product may have, and the most
# factors it may name.  eval_recipe never builds that product, only one
# step's at a time, but the sizes of its steps are not known before the
# steps are solved: each depends on the length of the previous step's
# representative.  The whole product bounds them all, and so bounds the
# total work before any of it starts; a guard on each step alone would let
# a recipe such as 5000*D run many growing steps before one was refused.
MAX_RECIPE_GENS = 10_000


def _grown_size(size: int, length: int, mult: int) -> int:
    """size times (length + 1) ** mult; RecipeTooLargeError once it passes
    MAX_RECIPE_GENS."""
    for _ in range(mult if length else 0):
        size *= length + 1
        if size > MAX_RECIPE_GENS:
            raise RecipeTooLargeError(
                f"recipe needs at least {size} generators, over the limit of {MAX_RECIPE_GENS}"
            )
    return size


def recipe_factors(expr: Union[str, parsing.KnotExpr]) -> list[Params]:
    """Parameter lists of every tensor factor named by a recipe expression.

    Raises RecipeTooLargeError before the list is built when the factor
    sizes multiply past MAX_RECIPE_GENS, or the factors outnumber it, and
    ParameterTooLargeError when a factor has a parameter over
    localequiv.MAX_PARAMETER in absolute value.
    """
    if isinstance(expr, str):
        expr = parsing.parse_knot_expr(expr)
    factors: list[Params] = []
    size = 1
    for sign, mult, atom in expr.terms:
        # a T, D or Cable atom is walked no further than the generators left
        if isinstance(atom, (parsing.Torus, parsing.CableAtom, parsing.DAlias)):
            p, whole = _semigroup_params(_torus_pairs(atom), MAX_RECIPE_GENS // size - 1)
            _grown_size(size, len(p), mult)
        else:
            if isinstance(atom, parsing.Thin):  # counted before it is built
                _grown_size(size, 2 * abs(atom.tau), mult)
            p, whole = atom_params(atom), True
        largest = max(map(abs, p), default=0)
        if largest > MAX_PARAMETER:  # as it is whenever the walk is not whole
            raise ParameterTooLargeError(f"recipe has a parameter {'' if whole else 'of at least '}"
                                         f"{largest}, over the limit of {MAX_PARAMETER}")
        size = _grown_size(size, len(p), mult)
        if sign < 0:
            p = negate(p)
        if len(factors) + mult > MAX_RECIPE_GENS:
            raise RecipeTooLargeError(
                f"recipe names {len(factors) + mult} factors, over the limit of {MAX_RECIPE_GENS}"
            )
        factors.extend([p] * mult)
    return factors


def _fold_order(factors: list[Params]) -> list[Params]:
    """The order eval_recipe folds *factors* in: a permutation of them.

    phi adds over the tensor product, so each partial product's phi is known
    before any step is solved; its weight sum_j |phi_j| bounds from below
    the U-arrows of that product's representative, and so the next step's
    size.  Ties go to the smaller step tensor, (len + 1) * (len + 1)
    generators (after the first pair only the factor's length differs),
    then to the earlier written position.

    The whole-product guard of recipe_factors admits at most 8 non-empty
    factors (3 ** 9 > MAX_RECIPE_GENS), so weighing the O(k ** 2) pairs
    and candidates costs nothing next to the fold; a guard on each step
    instead of the whole product would lift that bound.
    """
    if len(factors) <= 2:
        return list(factors)
    phis = [phi(p) for p in factors]

    def weight(ks) -> int:
        total: dict[int, int] = {}
        for k in ks:
            for j, v in phis[k].items():
                total[j] = total.get(j, 0) + v
        return sum(map(abs, total.values()))

    def size(k: int) -> int:
        return len(factors[k]) + 1

    order = list(min(
        combinations(range(len(factors)), 2),
        key=lambda ij: (weight(ij), size(ij[0]) * size(ij[1]), ij),
    ))
    while len(order) < len(factors):
        left = [k for k in range(len(factors)) if k not in order]
        order.append(min(left, key=lambda k: (weight([*order, k]), size(k), k)))
    return [factors[k] for k in order]


def _cancel_mirrors(factors: list[Params]) -> tuple[list[Params], list[Params]]:
    """The factors left once exact mirror pairs cancel, in written order,
    and the earlier factor of each cancelled pair, in the order matched.

    Each factor, in written order, cancels the earliest uncancelled earlier
    factor whose parameters are its negation."""
    rest: list[Params] = []
    pairs: list[Params] = []
    for p in factors:
        mirror = negate(p)
        if mirror in rest:
            rest.remove(mirror)
            pairs.append(mirror)
        else:
            rest.append(p)
    return rest, pairs


def _fold(factors: list[Params]) -> RepResult:
    """The standard representative of the tensor product of two or more
    non-empty *factors*, folded one factor at a time in the order given.

    Each step's complex is a product of two standard complexes, so its
    tower data is read off the two factors (prepare_standard) with no
    homology sweep."""
    params, *rest = factors
    for p in rest:
        result = standard_rep(prepare_standard(params, p))
        params = result.params
    return result


def eval_recipe(expr: Union[str, parsing.KnotExpr]) -> RepResult:
    """Evaluate a recipe: the standard representative of the tensor product
    of its terms' complexes.

    Empty factors C() are the unit of the tensor product and are skipped.
    Local classes form a group whose inverse is the dual, so two factors
    C(a) and C(-a), exact mirrors, cancel wherever they stand.  The pairs
    are matched in written order (_cancel_mirrors) before anything else,
    and each is certified by its coevaluation C() -> C(a) (x) C(-a) and
    evaluation back (localmaps.mirror_maps), both checked against the
    definition; C(a) is built first, so an invalid a is named as written.
    A local class holds exactly one standard complex, so a lone factor left
    is its own representative, certified by its identity map
    (localmaps.identity_maps).  Neither case runs the greedy search.

    Two or more factors left are folded one at a time: each step tensors
    the standard complex of the previous step's representative with the
    next factor and takes the standard representative of that.  This is
    sound because local equivalence respects the tensor product, so
    rep(A (x) B (x) C) = rep(C(rep(A (x) B)) (x) C).  Every step certifies
    its representative with two checked local maps (see standard_rep), so a
    wrong step raises before its result feeds the next one.

    Any order of the factors gives the same representative, but a step
    costs more the longer the previous step's representative is.  With
    three or more factors left the fold runs in the order _fold_order plans
    from the factors' phi invariants: first the pair whose phi sum has the
    least weight sum_j |phi_j|, then at each step the factor that keeps the
    running sum's weight least.  With two it runs in written order.

    The returned witnesses and trace are the last step's: the last greedy
    step's when two or more factors are left; else, with an empty trace,
    the lone factor's identity map in both directions, the last cancelled
    pair's (coevaluation, evaluation) when every factor cancels, or the
    identity of C() when the recipe has no non-empty factor.
    """
    rest, pairs = _cancel_mirrors([p for p in recipe_factors(expr) if p])
    certificates = [mirror_maps(a) for a in pairs]
    if len(rest) > 1:
        return _fold(_fold_order(rest))
    if pairs and not rest:
        return RepResult((), certificates[-1], ())
    params = rest[0] if rest else ()
    return RepResult(params, identity_maps(params), ())
