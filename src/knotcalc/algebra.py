"""Bigraded chain complexes over the ring R = F2[U,V]/(UV=0).

The ring carries the bigrading gr = (gr_U, gr_V) with gr(U) = (-2, 0) and
gr(V) = (0, -2).  A complex is a finitely generated free R-module with a
differential of degree (-1, -1).  Because generators are homogeneous, the
coefficient of a fixed target in the differential of a fixed source is
forced by the gradings to be a single monomial (1, U^a, or V^b), never a
sum; the representation below stores exactly one monomial per arrow.

Everything here is exact arithmetic over F2: adding an arrow twice removes
it.  Complexes are immutable after construction and all operations return
new complexes.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import (
    DegreeViolationError,
    DSquaredNonzeroError,
    DuplicateGeneratorError,
    UnknownGeneratorError,
)


class Bigrading(NamedTuple):
    gru: int
    grv: int

    def __add__(self, other):
        return Bigrading(self.gru + other[0], self.grv + other[1])

    def __sub__(self, other):
        return Bigrading(self.gru - other[0], self.grv - other[1])


class Monomial(NamedTuple):
    """A monomial 1, U^a, or V^b of R.  kind is one of '1', 'U', 'V'."""

    kind: str
    exponent: int

    def grading(self) -> Bigrading:
        if self.kind == "U":
            return Bigrading(-2 * self.exponent, 0)
        if self.kind == "V":
            return Bigrading(0, -2 * self.exponent)
        return Bigrading(0, 0)

    def __str__(self):
        if self.kind == "1":
            return "1"
        return f"{self.kind}^{self.exponent}"


UNIT = Monomial("1", 0)

# The largest torsion order localequiv.standard_rep accepts, and so the
# largest |parameter| it can return.  The search probes O(log M) candidates
# per position, so a large parameter alone is cheap, but the limit still
# bounds the torus atoms T(p,p+1): their representatives are 2(p - 1) long
# with parameters up to p - 1, and their cost grows faster than their size.
# T(1025,1026), the largest admitted, takes about 0.3 s on a 2-vCPU host;
# the generator limit alone would admit T(4999,5000), about 2-2.5 s.
MAX_PARAMETER = 1024

# U^e and V^e for 1 <= e <= MAX_PARAMETER, built once on first use, so that
# a greedy probe or a certificate check allocates no monomial for them and
# every arrow of an admitted representative is interned.  The bound keeps
# the tables finite however large the exponents a process sees.
_POWERS: dict[str, dict[int, Monomial]] = {"U": {}, "V": {}}


def power(kind: str, exponent: int) -> Monomial:
    """U^exponent or V^exponent (kind "U" or "V", exponent >= 1), the same
    object on every call when the exponent is at most MAX_PARAMETER."""
    table = _POWERS[kind]
    m = table.get(exponent)
    if m is None:
        m = tuple.__new__(Monomial, (kind, exponent))
        if exponent <= MAX_PARAMETER:
            table[exponent] = m
    return m


def mono(kind: str, exponent: int) -> Monomial:
    """Build a monomial; U^0 and V^0 normalize to the unit."""
    if kind not in ("1", "U", "V"):
        raise ValueError(f"bad monomial kind {kind!r}")
    if exponent < 0:
        raise ValueError(f"negative exponent {exponent}")
    if kind == "1" and exponent != 0:
        raise ValueError("unit monomial must have exponent 0")
    if exponent == 0:
        return UNIT
    return power(kind, exponent)


def mono_mul(a: Monomial, b: Monomial) -> Optional[Monomial]:
    """Product in R; returns None when it vanishes (the UV = 0 relation)."""
    if a.kind == "1":
        return b
    if b.kind == "1":
        return a
    if a.kind != b.kind:
        return None
    return power(a.kind, a.exponent + b.exponent)


class Generator(NamedTuple):
    name: str
    grading: Bigrading


class Complex:
    """An immutable bigraded complex over R.

    gens is a tuple of Generator in declaration order; diff maps a source
    index to {target index: Monomial}.  Use validate() to build one from
    raw data with all invariants checked.
    """

    __slots__ = ("gens", "diff", "_index")

    def __init__(self, gens: tuple[Generator, ...], diff: dict[int, dict[int, Monomial]],
                 index: Optional[dict[str, int]] = None):  # index: each name's position
        self.gens = gens
        self.diff = diff
        self._index = {g.name: i for i, g in enumerate(gens)} if index is None else index

    def __len__(self):
        return len(self.gens)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownGeneratorError(name) from None

    def shift_gradings(self, shift: tuple[int, int]) -> "Complex":
        """The complex with every grading moved by *shift*; it shares the
        differential and the index of names with this one."""
        du, dv = shift
        new = tuple.__new__  # skips each NamedTuple's Python-level __new__
        gens = tuple([new(Generator, (name, new(Bigrading, (gu + du, gv + dv))))
                      for name, (gu, gv) in self.gens])
        return Complex(gens, self.diff, self._index)

    def edges(self) -> Iterator[tuple[int, int, Monomial]]:
        """All arrows (source index, target index, monomial), in declaration order."""
        for s in range(len(self.gens)):
            row = self.diff.get(s)
            if row:
                for t in sorted(row):
                    yield s, t, row[t]

    @property
    def is_reduced(self) -> bool:
        return all(m.kind != "1" for _, _, m in self.edges())

    def __repr__(self):
        return f"Complex({len(self.gens)} generators, {sum(1 for _ in self.edges())} arrows)"


def xor_term(acc: dict, key, value) -> None:
    """Add *value* at *key* over F2: two terms at one key cancel.

    Gradings force colliding terms to be equal, so the values are not compared.
    """
    if key in acc:
        del acc[key]
    else:
        acc[key] = value


def _check_d_squared(c: Complex) -> None:
    """Raise DSquaredNonzeroError at the least source s with d(d(s)) != 0.

    Over F2, d(d(s)) is nonzero exactly when some target u is reached by an
    odd number of paths s -> t -> u whose product survives UV = 0, that is
    where either arrow is 1 or both have the same kind.
    """
    diff = c.diff
    for s in sorted(diff):
        odd: set[int] = set()
        for t, first in diff[s].items():
            row = diff.get(t)
            if not row:
                continue
            k1 = first.kind
            for u, second in row.items():
                k2 = second.kind
                if k1 == k2 or k1 == "1" or k2 == "1":
                    if u in odd:
                        odd.remove(u)
                    else:
                        odd.add(u)
        if odd:
            raise DSquaredNonzeroError(c.gens[s].name)


def validate(
    generators: Iterable[tuple[str, tuple[int, int]]],
    differential: Iterable[tuple[str, Iterable[tuple[Monomial, str]]]] = (),
) -> Complex:
    """Build a Complex from raw data, checking every structural invariant.

    Every generator is declared before any row is resolved, so a row may
    name generators listed after it.  Rows are then resolved in order, each
    term's target looked up, its degree checked and the term XORed into the
    source's row.  The rows of one source add up over F2, and a row left
    empty is dropped where it ends, so a later row of its source puts it last.

    Args:
        generators: (name, (gr_U, gr_V)) in declaration order.
        differential: (source name, [(monomial, target name), ...]).

    Raises, at once, the first DuplicateGeneratorError; else the first
    UnknownGeneratorError, malformed monomial (ValueError) or
    DegreeViolationError in row and then term order; else
    DSquaredNonzeroError.
    """
    new = tuple.__new__  # skips each NamedTuple's Python-level __new__
    index: dict[str, int] = {}  # each name's position, in declaration order
    gradings: list[Bigrading] = []
    for name, (gu, gv) in generators:
        if name in index:
            raise DuplicateGeneratorError(name)
        index[name] = len(gradings)
        gradings.append(new(Bigrading, (gu, gv)))

    diff: dict[int, dict[int, Monomial]] = {}
    for source, terms in differential:
        s = index.get(source)
        if s is None:
            raise UnknownGeneratorError(source)
        row = diff.setdefault(s, {})
        su, sv = gradings[s]
        su -= 1  # the degree rule: gr(m) + gr(tgt) = gr(src) - (1, 1)
        sv -= 1
        for m, target in terms:
            t = index.get(target)
            if t is None:
                raise UnknownGeneratorError(target)
            kind, exponent = m
            tu, tv = gradings[t]
            if kind == "U" and exponent > 0:
                tu -= 2 * exponent
            elif kind == "V" and exponent > 0:
                tv -= 2 * exponent
            elif m is not UNIT:
                m = mono(kind, exponent)  # U^0 and V^0 are the unit; anything else raises
            if tu != su or tv != sv:
                have, want = Bigrading(tu, tv), Bigrading(su, sv)
                raise DegreeViolationError(source, target, f"gr({m}) + gr(tgt) = {have}, need {want}")
            # xor_term inline: the gradings fix m, so a repeat is the same arrow
            if t in row:
                del row[t]
            else:
                row[t] = m
        if not row:
            del diff[s]

    gens = tuple(map(new, repeat(Generator), zip(index, gradings)))
    c = Complex(gens, diff, index)
    _check_d_squared(c)
    return c


def reduce(c: Complex) -> Complex:
    """Cancel unit arrows until the complex is reduced.

    Each cancellation removes an arrow x -> a with unit coefficient together
    with both generators, rewriting the remaining differential by the usual
    Gaussian formula d'(y) = d(y) + <d(y), a> * d(x).  Unit arrows are
    cancelled greedily in declaration order (least source, then least
    target), so the output is deterministic.
    The result is chain homotopy equivalent to the input.
    """
    # every unit arrow ever present as a heap of (source, target); stale
    # entries are skipped
    units = [(s, t) for s, row in c.diff.items() for t, m in row.items() if m.kind == "1"]
    heapq.heapify(units)
    gens = list(c.gens)
    diff = {s: dict(row) for s, row in c.diff.items()}
    # the sources that have pointed at each target
    into: dict[int, set[int]] = {}
    for s, row in diff.items():
        for t in row:
            into.setdefault(t, set()).add(s)

    while units:
        x, a = heapq.heappop(units)
        dx = diff.get(x, {})
        if a not in dx:
            continue
        for y in into.pop(a):
            row = diff.get(y)
            if y == x or not row or a not in row:
                continue
            coeff = row[a]
            for b, mb in dx.items():
                if b == a:
                    continue
                p = mono_mul(coeff, mb)
                if p is not None:
                    xor_term(row, b, p)
                    if b in row:
                        into.setdefault(b, set()).add(y)
                        if p.kind == "1":
                            heapq.heappush(units, (y, b))
            del row[a]
            if not row:
                del diff[y]
        for y in into.pop(x, ()):
            diff.get(y, {}).pop(x, None)
        diff.pop(x)
        diff.pop(a, None)
        gens[x] = None
        gens[a] = None

    keep = [i for i, g in enumerate(gens) if g is not None]
    renum = {old: new for new, old in enumerate(keep)}
    new_gens = tuple(gens[i] for i in keep)
    new_diff = {
        renum[s]: {renum[t]: m for t, m in row.items()}
        for s, row in diff.items()
        if row
    }
    out = Complex(new_gens, new_diff)
    _check_d_squared(out)
    return out


def tensor(c1: Complex, c2: Complex) -> Complex:
    """Tensor product over R; models connected sum of the underlying knots.

    Generators are pairs named "a|b" with added bigradings, and
    d(x (x) y) = dx (x) y + x (x) dy.  Raises DuplicateGeneratorError when
    two pairs get the same name (as "a" with "b|c" and "a|b" with "c" do).
    """
    new = tuple.__new__  # skips each NamedTuple's Python-level __new__
    gens: list[Generator] = []
    for x, (xu, xv) in c1.gens:
        for y, (yu, yv) in c2.gens:
            gens.append(new(Generator, (f"{x}|{y}", new(Bigrading, (xu + yu, xv + yv)))))
    n2 = len(c2.gens)

    diff: dict[int, dict[int, Monomial]] = {}
    for i in range(len(c1.gens)):
        row1 = c1.diff.get(i, {})
        base = i * n2  # the pair (i, j) has index base + j
        for j in range(n2):
            row = {t * n2 + j: m for t, m in row1.items()}
            for t, m in c2.diff.get(j, {}).items():
                row[base + t] = m
            if row:
                diff[base + j] = row
    out = Complex(tuple(gens), diff)
    if len(out._index) != len(gens):
        # _index keeps the last position of each name: report the first repeat
        dup = next(g.name for i, g in enumerate(gens) if out._index[g.name] != i)
        raise DuplicateGeneratorError(dup)
    _check_d_squared(out)
    return out


def unit_complex() -> Complex:
    """The ring R itself: one generator at grading (0, 0), zero differential."""
    return Complex((Generator("x0", Bigrading(0, 0)),), {})


def tensor_many(cs: Iterable[Complex]) -> Complex:
    out = None
    for c in cs:
        out = c if out is None else tensor(out, c)
    return unit_complex() if out is None else out


def dual(c: Complex) -> Complex:
    """The dual complex Hom_R(C, R); models orientation reversal.

    Generator x becomes x* with negated grading, and every arrow reverses:
    the coefficient of y* in d(x*) is the coefficient of x in d(y).
    """
    gens = tuple(Generator(g.name + "*", Bigrading(-g.grading.gru, -g.grading.grv)) for g in c.gens)
    diff: dict[int, dict[int, Monomial]] = {}
    for s, row in c.diff.items():
        for t, m in row.items():
            diff.setdefault(t, {})[s] = m
    out = Complex(gens, diff)
    _check_d_squared(out)
    return out
