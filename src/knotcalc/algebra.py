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

    def alexander(self) -> int:
        """Alexander degree (gr_U - gr_V)/2; defined only when parities agree."""
        d = self.gru - self.grv
        if d % 2:
            raise ValueError(f"Alexander degree undefined for grading {self}")
        return d // 2


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
    return Monomial(kind, exponent)


def mono_mul(a: Monomial, b: Monomial) -> Optional[Monomial]:
    """Product in R; returns None when it vanishes (the UV = 0 relation)."""
    if a.kind == "1":
        return b
    if b.kind == "1":
        return a
    if a.kind != b.kind:
        return None
    return Monomial(a.kind, a.exponent + b.exponent)


def mono_for_grading(g: Bigrading) -> Optional[Monomial]:
    """The unique monomial of grading *g*, or None if there is none."""
    if g.gru == 0 and g.grv == 0:
        return UNIT
    if g.grv == 0 and g.gru < 0 and g.gru % 2 == 0:
        return Monomial("U", -g.gru // 2)
    if g.gru == 0 and g.grv < 0 and g.grv % 2 == 0:
        return Monomial("V", -g.grv // 2)
    return None


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

    def __init__(self, gens: tuple[Generator, ...], diff: dict[int, dict[int, Monomial]]):
        self.gens = gens
        self.diff = diff
        self._index = {g.name: i for i, g in enumerate(gens)}

    def __len__(self):
        return len(self.gens)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownGeneratorError(name) from None

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


def _check_degree(src: Generator, tgt: Generator, m: Monomial) -> None:
    (su, sv), (tu, tv) = src.grading, tgt.grading
    if m.kind == "U":
        tu -= 2 * m.exponent
    elif m.kind == "V":
        tv -= 2 * m.exponent
    if tu != su - 1 or tv != sv - 1:
        want, have = Bigrading(su - 1, sv - 1), Bigrading(tu, tv)
        raise DegreeViolationError(src.name, tgt.name, f"gr({m}) + gr(tgt) = {have}, need {want}")


def xor_term(acc: dict, key, value) -> None:
    """Add *value* at *key* over F2: two terms at one key cancel.

    Gradings force colliding terms to be equal, so the values are not compared.
    """
    if key in acc:
        del acc[key]
    else:
        acc[key] = value


def apply_map(
    f: dict[int, dict[int, Monomial]], elem: dict[int, Monomial], kind: Optional[str] = None
) -> dict[int, Monomial]:
    """Image of the element sum(coeff * x_s) under the R-linear map f.

    f maps a source index to {target index: Monomial}, like Complex.diff.
    With *kind* given, only arrows of f with that monomial kind are used.
    """
    out: dict[int, Monomial] = {}
    for s, coeff in elem.items():
        for t, m in f.get(s, {}).items():
            if kind and m.kind != kind:
                continue
            p = mono_mul(coeff, m)
            if p is not None:
                xor_term(out, t, p)
    return out


def _check_d_squared(c: Complex) -> None:
    for s in sorted(c.diff):
        if apply_map(c.diff, c.diff[s]):
            raise DSquaredNonzeroError(c.gens[s].name)


def validate(
    generators: Iterable[tuple[str, tuple[int, int]]],
    differential: Iterable[tuple[str, Iterable[tuple[Monomial, str]]]] = (),
) -> Complex:
    """Build a Complex from raw data, checking every structural invariant.

    Args:
        generators: (name, (gr_U, gr_V)) in declaration order.
        differential: (source name, [(monomial, target name), ...]).

    Raises:
        DuplicateGeneratorError, UnknownGeneratorError, DegreeViolationError,
        DSquaredNonzeroError.
    """
    gens: list[Generator] = []
    seen: set[str] = set()
    for name, (gu, gv) in generators:
        if name in seen:
            raise DuplicateGeneratorError(name)
        seen.add(name)
        gens.append(Generator(name, Bigrading(gu, gv)))
    index = {g.name: i for i, g in enumerate(gens)}

    diff: dict[int, dict[int, Monomial]] = {}
    for src_name, terms in differential:
        if src_name not in index:
            raise UnknownGeneratorError(src_name)
        s = index[src_name]
        row = diff.setdefault(s, {})
        for m, tgt_name in terms:
            if tgt_name not in index:
                raise UnknownGeneratorError(tgt_name)
            t = index[tgt_name]
            m = mono(m.kind, m.exponent)
            _check_degree(gens[s], gens[t], m)
            if t in row:
                # adding the same arrow twice cancels over F2
                if row[t] != m:
                    raise DegreeViolationError(src_name, tgt_name, "conflicting monomials")
                del row[t]
            else:
                row[t] = m
        if not row:
            del diff[s]

    c = Complex(tuple(gens), diff)
    _check_d_squared(c)
    return c


def revalidate(c: Complex) -> Complex:
    """Re-run all checks on an existing complex (cheap safety net)."""
    return validate(
        [(g.name, tuple(g.grading)) for g in c.gens],
        [(c.gens[s].name, [(m, c.gens[t].name) for t, m in sorted(row.items())])
         for s, row in sorted(c.diff.items())],
    )


def reduce(c: Complex) -> Complex:
    """Cancel unit arrows until the complex is reduced.

    Each cancellation removes an arrow x -> a with unit coefficient together
    with both generators, rewriting the remaining differential by the usual
    Gaussian formula d'(y) = d(y) + <d(y), a> * d(x).  Unit arrows are
    cancelled greedily in declaration order (least source, then least
    target), so the output is deterministic.
    The result is chain homotopy equivalent to the input.
    """
    gens = list(c.gens)
    diff = {s: dict(row) for s, row in c.diff.items()}
    # sources that have pointed at each target, and every unit arrow ever
    # present as a heap of (source, target); stale entries are skipped
    into: dict[int, set[int]] = {}
    units: list[tuple[int, int]] = []
    for s, row in diff.items():
        for t, m in row.items():
            into.setdefault(t, set()).add(s)
            if m.kind == "1":
                units.append((s, t))
    heapq.heapify(units)

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
    gens: list[Generator] = []
    for x in c1.gens:
        for y in c2.gens:
            gens.append(Generator(f"{x.name}|{y.name}", x.grading + y.grading))
    n2 = len(c2.gens)

    def pid(i, j):
        return i * n2 + j

    diff: dict[int, dict[int, Monomial]] = {}
    for i in range(len(c1.gens)):
        for j in range(n2):
            row: dict[int, Monomial] = {}
            for t, m in c1.diff.get(i, {}).items():
                row[pid(t, j)] = m
            for t, m in c2.diff.get(j, {}).items():
                row[pid(i, t)] = m
            if row:
                diff[pid(i, j)] = row
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
