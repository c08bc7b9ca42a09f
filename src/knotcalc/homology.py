"""Simplified C/U and C/V: torsion orders, towers, knot-like checks.

Setting U = 0 leaves a complex over F[V] with the V-arrows (V = 0 leaves one
over F[U] with the U-arrows; the rest reads the same with U and V swapped).
Every arrow lowers gr_U and gr_V by 1, so a term V^e t of d(s) lies one level
lower, gr_U(t) = gr_U(s) - 1, and its key gr_U - gr_V is 2e lower.  With
V = 1 this is a complex over F filtered by that key, and its homology over
F[V] is the persistence barcode: a torsion summand F[V]/V^eta is a pair of
generators whose key drops by 2 eta, and a tower is a generator in no pair.
simplify finds the pairs by the standard column reduction, with the
generators sorted by key and each column a Python int with one bit per
position, so that a step is one XOR (Zomorodian and Carlsson, "Computing
persistent homology", 2005).  At the tower's level it redoes the columns
while keeping their additions, which gives a cycle for the tower, and reduces
the coboundary of that level in reverse order, which gives a cocycle dual to
it (de Silva, Morozov and Vejdemo-Johansson, "Dualities in persistent
(co)homology", 2011).  Both are checked before they are returned.  A complex
is knot-like when each side has exactly one tower, sitting in gr_U = 0 (mod
U side) and gr_V = 0 (mod V side).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .algebra import Bigrading, Complex, xor_term
from .errors import MultipleTowersError, NotReducedError, VerificationFailedError

MOD_U = "mod_u"  # work in C/U with the V-differential
MOD_V = "mod_v"  # work in C/V with the U-differential

# An element of C/U (resp. C/V) is a map {generator index: exponent of the
# surviving variable}; over F2 the coefficients are just these monomials.
Element = dict[int, int]


def _frozen(e: Element) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(e.items()))


def _quotient_grading(c: Complex, side: str, g: int, exp: int) -> Bigrading:
    gr = c.gens[g].grading
    if side == MOD_U:  # coefficient is V^exp
        return Bigrading(gr.gru, gr.grv - 2 * exp)
    return Bigrading(gr.gru - 2 * exp, gr.grv)


def element_grading(c: Complex, side: str, e: Element) -> Bigrading:
    grades = {_quotient_grading(c, side, g, k) for g, k in e.items()}
    if len(grades) != 1:
        raise ValueError(f"inhomogeneous element {e}")
    return grades.pop()


class TowerReport(NamedTuple):
    """Result of simplifying one side of a complex.

    tower_generator is a cycle of the quotient complex, written over the
    declared generators, whose class generates the tower.  tower_dual is a
    cocycle that is 0 on every boundary and pairs to 1 with it: (g, e) in it
    sends declared generator g to v^e times the tower (v the surviving
    variable), and a generator not listed to 0, so on a cycle it reads the
    coefficient of the tower's class.  Both are stored as sorted (index,
    exponent) pairs.  etas are the torsion orders, one per pair, ascending.
    """

    side: str
    tower_generator: tuple[tuple[int, int], ...]
    tower_top_grading: Bigrading
    etas: tuple[int, ...]
    tower_dual: tuple[tuple[int, int], ...]


def _column(row: Optional[dict], kind: str, pos: list[int]) -> int:
    """The arrows of *kind* in *row* as an int with bit pos[t] set for each
    target t."""
    col = 0
    if row:
        for t, m in row.items():
            if m.kind == kind:
                col |= 1 << pos[t]
            elif m.kind == "1":
                raise NotReducedError("simplify requires a reduced complex")
    return col


def _added(columns: list[tuple[int, int]]) -> int:
    """The standard reduction of (generator, column) pairs, in order: the
    generators whose columns it adds to the last one, directly or through a
    stored column, and that generator itself, as an int with bit g for g."""
    stored: dict[int, tuple[int, int]] = {}
    added = 0
    for g, col in columns:
        added = 1 << g
        while col:
            hit = stored.get(col.bit_length())
            if hit is None:
                stored[col.bit_length()] = (col, added)
                break
            col ^= hit[0]
            added ^= hit[1]
    return added


def _exponents(bits: int, height: list[int], top: int, sign: int) -> Element:
    """{g: e} for each bit g of *bits*, with 2e = sign * (height[g] - top);
    raises unless every e is a whole number >= 0."""
    out: Element = {}
    while bits:
        low = bits & -bits
        bits ^= low
        g = low.bit_length() - 1
        twice = sign * (height[g] - top)
        if twice < 0 or twice & 1:
            raise VerificationFailedError(f"generator {g} is at no power of the variable")
        out[g] = twice >> 1
    return out


def _check_tower(c: Complex, kind: str, tower: Element, dual: Element, above: list[int]) -> None:
    """Raise VerificationFailedError unless *tower* is a cycle, *dual*
    vanishes on the boundary of each generator in *above* (the level above
    the tower's) and the two pair to exactly 1; arrows not of *kind* are 0."""
    diff = c.diff
    boundary: dict[int, int] = {}
    for g, e in tower.items():
        for t, m in diff.get(g, {}).items():
            if m.kind == kind:
                xor_term(boundary, t, e + m.exponent)
    if boundary:
        raise VerificationFailedError("the tower is not a cycle")
    for a in above:
        value: dict[int, None] = {}
        for b, m in diff.get(a, {}).items():
            if m.kind == kind and b in dual:
                xor_term(value, m.exponent + dual[b], None)
        if value:
            raise VerificationFailedError(f"the tower's dual is not 0 on the boundary of {a}")
    pairing: dict[int, None] = {}
    for g, e in tower.items():
        if g in dual:
            xor_term(pairing, e + dual[g], None)
    if list(pairing) != [0]:
        raise VerificationFailedError("the tower and its dual do not pair to 1")


def simplify(c: Complex, side: str) -> TowerReport:
    """Simplify C/U (side="mod_u") or C/V (side="mod_v").

    Raises NotReducedError on a non-reduced complex and MultipleTowersError
    when the nontorsion rank differs from one.
    """
    if side == MOD_U:
        kind, at, up = "V", 0, 1  # level gr_U, height gr_V
    elif side == MOD_V:
        kind, at, up = "U", 1, 0
    else:
        raise ValueError(f"bad side {side!r}")
    gens, diff = c.gens, c.diff
    n = len(gens)
    level = [g.grading[at] for g in gens]
    height = [g.grading[up] for g in gens]
    key = [lv - h for lv, h in zip(level, height)]
    order = sorted(range(n), key=key.__getitem__)
    pos = [0] * n
    for p, i in enumerate(order):
        pos[i] = p
    # XOR each column with the stored column of its highest bit until it is
    # 0 or that bit is new; a stored column pairs its source with that bit
    stored: dict[int, int] = {}
    paired: set[int] = set()
    etas: list[int] = []
    for i in order:
        col = _column(diff.get(i), kind, pos)
        while col:
            top = col.bit_length() - 1
            other = stored.get(top)
            if other is None:
                stored[top] = col
                j = order[top]
                etas.append((key[i] - key[j]) >> 1)
                paired.add(i)
                paired.add(j)
                break
            col ^= other
    towers = n - len(paired)
    if 2 * len(etas) + towers != n:
        raise VerificationFailedError("the reduction lost generators")
    if towers != 1:
        raise MultipleTowersError(towers, side)
    w = next(i for i in order if i not in paired)
    # only w's level holds its cycle and cocycle: every kept arrow lowers the
    # level by exactly 1, so no other column meets its level's columns
    lv = level[w]
    here = [i for i in order if level[i] == lv]
    k = here.index(w)
    cycle = _added([(i, _column(diff.get(i), kind, pos)) for i in here[:k + 1]])
    # the coboundary of the level, a source's bit its reversed position so
    # that the highest bit is the earliest source
    above = [a for a in range(n) if level[a] == lv + 1]
    cob: dict[int, int] = {}
    for a in above:
        bit = 1 << (n - 1 - pos[a])
        for b, m in diff.get(a, {}).items():
            if m.kind == kind:
                cob[b] = cob.get(b, 0) | bit
    cocycle = _added([(b, cob.get(b, 0)) for b in reversed(here[k:])])
    tower = _exponents(cycle, height, height[w], 1)
    dual = _exponents(cocycle, height, height[w], -1)
    _check_tower(c, kind, tower, dual, above)
    return TowerReport(
        side=side,
        tower_generator=_frozen(tower),
        tower_top_grading=element_grading(c, side, tower),
        etas=tuple(sorted(etas)),
        tower_dual=_frozen(dual),
    )


class KnotLikeReport(NamedTuple):
    is_knot_like: bool
    applied_shift: tuple[int, int]
    reasons: tuple[str, ...]
    mod_u: Optional[TowerReport]
    mod_v: Optional[TowerReport]


def check_knot_like(c: Complex, allow_shift: bool = False) -> KnotLikeReport:
    """Check the single-tower conditions, optionally solving for the global
    grading shift that normalizes both towers.  Violations are reported, not
    raised; only a non-reduced input raises."""
    reports: dict[str, Optional[TowerReport]] = {}
    reasons: list[str] = []
    for side in (MOD_U, MOD_V):
        try:
            reports[side] = simplify(c, side)
        except MultipleTowersError as e:
            reports[side] = None
            reasons.append(f"{side}: nontorsion rank {e.count} != 1")
    mod_u, mod_v = reports[MOD_U], reports[MOD_V]
    shift = (0, 0)
    if mod_u is not None and mod_v is not None:
        sigma_u = -mod_u.tower_top_grading.gru
        sigma_v = -mod_v.tower_top_grading.grv
        if allow_shift:
            shift = (sigma_u, sigma_v)
        else:
            if sigma_u:
                reasons.append(f"mod_u tower sits at gr_U = {-sigma_u}, not 0")
            if sigma_v:
                reasons.append(f"mod_v tower sits at gr_V = {-sigma_v}, not 0")
    return KnotLikeReport(
        is_knot_like=not reasons,
        applied_shift=shift,
        reasons=tuple(reasons),
        mod_u=mod_u,
        mod_v=mod_v,
    )


def apply_shift(c: Complex, shift: tuple[int, int]) -> Complex:
    """Return the complex with every grading moved by the given global shift."""
    if tuple(shift) == (0, 0):
        return c
    return c.shift_gradings(shift)
