"""Existence of local maps and short local maps, decided over F2.

A local map f: S -> C is a grading-compatible R-equivariant chain map that
carries the generator of the nontorsion tower of H(S/U) to a generator of
the tower of H(C/U).  Once both complexes are normalized, the U-grading of
f is preserved on the nose and the V-grading shift is pinned by tower-top
alignment, so a candidate map is a choice of one bit per grading-feasible
(source generator, monomial * target generator) slot.  The chain-map
conditions are linear in those bits and the tower condition contributes a
single affine equation, so existence reduces to one GF(2) linear solve.

Short maps relax the chain condition at the final generator x_n of a
truncated standard complex: only the part of the condition in the direction
of the final arrow type is kept (the V-part when the parameter sequence has
even length, the U-part when odd).

PrefixSystem serves the greedy search of localequiv: the candidates
C(a_1 .. a_k, b) share the prefix's slots and its chain conditions at
x_0 .. x_{k-1}, so it keeps those in echelon form and adds only each
candidate's own rows.  Every map it finds is checked against the definition
like a one-shot solve's.

brute_force_local_map enumerates every bit assignment and checks the
definition directly; it is the independent oracle for the solver.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from . import gf2
from .algebra import UNIT, Bigrading, Complex, Monomial, apply_map, mono_mul
from .errors import BudgetExceededError, NotKnotLikeError, VerificationFailedError
from .homology import MOD_U, apply_shift, check_knot_like, element_grading
from .standard import Params, arrow, build_standard, step

Slot = tuple[int, int, Monomial]  # (source index, target index, monomial)


@dataclass(frozen=True)
class LocalMapWitness:
    """A concrete map assignment certifying S <= C.

    assignment maps each source generator name to its image, a sum of
    (monomial, target generator name) terms.  Every term satisfies
    gr(m) + gr(target) = gr(source) + (0, v_shift).
    """

    assignment: tuple[tuple[str, tuple[tuple[Monomial, str], ...]], ...]
    v_shift: int


@dataclass(frozen=True)
class Prepared:
    """A normalized knot-like complex with its tower data.

    The same value serves as the source or the target of a local map.
    tower is the mod-U tower element and tower_dual its coordinate on each
    generator, both as generator index -> V-exponent (see
    TowerReport.tower_dual); like the buckets they follow from c, so they
    are left out of repr and comparison.
    """

    c: Complex
    q: int  # gr_V of the mod-U tower top
    etas_u: tuple[int, ...]  # U-arrow torsion orders (from the mod-V report)
    etas_v: tuple[int, ...]  # V-arrow torsion orders (from the mod-U report)
    tower: dict[int, int] = field(repr=False, compare=False)
    tower_dual: dict[int, int] = field(repr=False, compare=False)
    # target indices bucketed by gr_U as sorted (gr_V, index), and by gr_V
    # as sorted (gr_U, index): _slots reads the feasible slots off these
    by_gru: dict[int, list[tuple[int, int]]] = field(repr=False, compare=False)
    by_grv: dict[int, list[tuple[int, int]]] = field(repr=False, compare=False)


def prepare_target(c: Complex) -> Prepared:
    """Normalize *c* and precompute its tower data, for either side of a map.

    Raises NotReducedError on a non-reduced complex and NotKnotLikeError
    when the tower conditions fail.
    """
    report = check_knot_like(c, allow_shift=True)
    if not report.is_knot_like:
        raise NotKnotLikeError(report.reasons)
    cn = apply_shift(c, report.applied_shift)
    mod_u = report.mod_u
    q = mod_u.tower_top_grading.grv + report.applied_shift[1]
    by_gru: dict[int, list[tuple[int, int]]] = {}
    by_grv: dict[int, list[tuple[int, int]]] = {}
    for t, g in enumerate(cn.gens):
        gu, gv = g.grading
        by_gru.setdefault(gu, []).append((gv, t))
        by_grv.setdefault(gv, []).append((gu, t))
    for bucket in (*by_gru.values(), *by_grv.values()):
        bucket.sort()
    return Prepared(
        c=cn,
        q=q,
        etas_u=report.mod_v.etas,
        etas_v=mod_u.etas,
        tower=dict(mod_u.tower_generator),
        tower_dual=dict(mod_u.tower_dual),
        by_gru=by_gru,
        by_grv=by_grv,
    )


def _v_shift(dom: Complex, dom_tower: dict[int, int], tgt: Prepared) -> int:
    """The V-shift of a map dom -> tgt, pinned by tower-top alignment."""
    return tgt.q - element_grading(dom, MOD_U, dom_tower).grv


def _gen_slots(want: Bigrading, tgt: Prepared) -> list[tuple[int, Monomial]]:
    """The feasible (target index, monomial) slots of one source whose image
    has grading *want*, in the target order (gr_U, gr_V, index): the unit and
    V^k slots share the wanted gr_U, the U^k slots have a larger one.
    """
    wu, wv = want
    out: list[tuple[int, Monomial]] = []
    same_u = tgt.by_gru.get(wu, ())
    for gv, t in same_u[bisect_left(same_u, (wv, 0)):]:
        if (gv - wv) % 2 == 0:
            out.append((t, Monomial("V", (gv - wv) // 2) if gv != wv else UNIT))
    same_v = tgt.by_grv.get(wv, ())
    for gu, t in same_v[bisect_right(same_v, (wu, len(tgt.c.gens))):]:
        if (gu - wu) % 2 == 0:
            out.append((t, Monomial("U", (gu - wu) // 2)))
    return out


def _slots(dom: Complex, dom_tower: dict[int, int], tgt: Prepared) -> tuple[int, list[Slot]]:
    """The V-shift pinned by tower-top alignment, and the grading-feasible
    slots, per source in the target order."""
    v_shift = _v_shift(dom, dom_tower, tgt)
    out: list[Slot] = []
    for s, g in enumerate(dom.gens):
        want = Bigrading(g.grading.gru, g.grading.grv + v_shift)
        out.extend((s, t, m) for t, m in _gen_slots(want, tgt))
    return v_shift, out


# The slots of one source as (target index, bit, monomial), the bit being the
# slot's position in the whole slot list.
SourceSlots = list[tuple[int, int, Monomial]]


def _source_rows(
    s: int,
    dom_row: dict[int, Monomial],
    by_source: Sequence[SourceSlots],
    tgt: Prepared,
    kind: Optional[str],
) -> list[tuple[int, int]]:
    """The chain condition d f(s) = f(d s) at source s as (mask, 0) rows,
    one per target generator it reaches.

    dom_row is d(s) in the domain.  With *kind* given only the arrows of that
    kind count, on both sides (the relaxed condition at a short map's final
    generator).
    """
    rows: dict[int, int] = {}
    # d f(s): push each slot monomial through the target differential
    for t, bit, m in by_source[s]:
        for u, d in tgt.c.diff.get(t, {}).items():
            if kind and d.kind != kind:
                continue
            if mono_mul(m, d) is not None:
                rows[u] = rows.get(u, 0) ^ (1 << bit)
    # f(d s): push the domain differential through the slots of s'
    for sp, e in dom_row.items():
        if kind and e.kind != kind:
            continue
        for t2, bit, m2 in by_source[sp]:
            if mono_mul(e, m2) is not None:
                rows[t2] = rows.get(t2, 0) ^ (1 << bit)
    return [(mask, 0) for mask in rows.values()]


def _tower_row(
    dom_tower: dict[int, int], by_source: Sequence[SourceSlots], tgt: Prepared
) -> tuple[int, int]:
    """The tower condition: f(tower) has unit coefficient on the target's tower."""
    mask = 0
    for g, k in dom_tower.items():
        if k != 0:
            continue
        for t, bit, m in by_source[g]:
            if tgt.tower_dual.get(t) == 0 and m.kind == "1":
                mask ^= 1 << bit
    return mask, 1


def _solve(
    dom: Complex,
    dom_tower: dict[int, int],
    tgt: Prepared,
    relaxed: Optional[tuple[int, str]],
) -> Optional[LocalMapWitness]:
    """Build and solve the linear system for a (short) local map dom -> tgt.

    dom_tower is the mod-U tower element of the domain (generator index ->
    V-exponent).  relaxed, when given, is (generator index, kind): only the
    chain condition in direction *kind* is imposed at that generator.
    """
    v_shift, slots = _slots(dom, dom_tower, tgt)
    by_source: list[SourceSlots] = [[] for _ in dom.gens]
    for i, (s, t, m) in enumerate(slots):
        by_source[s].append((t, i, m))
    system: list[tuple[int, int]] = []
    for s in range(len(dom.gens)):
        kind = relaxed[1] if relaxed and relaxed[0] == s else None
        system += _source_rows(s, dom.diff.get(s, {}), by_source, tgt, kind)
    system.append(_tower_row(dom_tower, by_source, tgt))

    solution = gf2.solve_affine(system, len(slots))
    if solution is None:
        return None
    return _certified(dom, dom_tower, tgt, relaxed, slots, solution, v_shift)


def _certified(
    dom: Complex,
    dom_tower: dict[int, int],
    tgt: Prepared,
    relaxed: Optional[tuple[int, str]],
    slots: list[Slot],
    solution: int,
    v_shift: int,
) -> LocalMapWitness:
    """The witness of a solution, checked against the definition."""
    witness = _witness_from_mask(dom, tgt.c, slots, solution, v_shift)
    if not _check_witness(dom, dom_tower, tgt, relaxed, witness):
        raise VerificationFailedError("solver produced a bad witness")
    return witness


def _witness_from_mask(
    dom: Complex, tgt: Complex, slots: list[Slot], mask: int, v_shift: int
) -> LocalMapWitness:
    images: dict[int, list[tuple[Monomial, str]]] = {}
    for i, (s, t, m) in enumerate(slots):
        if (mask >> i) & 1:
            images.setdefault(s, []).append((m, tgt.gens[t].name))
    assignment = tuple(
        (dom.gens[s].name, tuple(images.get(s, ()))) for s in range(len(dom.gens))
    )
    return LocalMapWitness(assignment=assignment, v_shift=v_shift)


# ---------------------------------------------------------------------------
# Definition-level checking (shared by the oracle and witness verification)


def _check_witness(
    dom: Complex,
    dom_tower: dict[int, int],
    tgt: Prepared,
    relaxed: Optional[tuple[int, str]],
    witness: LocalMapWitness,
) -> bool:
    """Check a candidate map directly against the definition."""
    f: dict[int, dict[int, Monomial]] = {}
    for src_name, terms in witness.assignment:
        s = dom.index(src_name)
        f[s] = {}
        want = dom.gens[s].grading + Bigrading(0, witness.v_shift)
        for m, tgt_name in terms:
            t = tgt.c.index(tgt_name)
            if m.grading() + tgt.c.gens[t].grading != want:
                return False
            f[s][t] = m

    for s in range(len(dom.gens)):
        kind = relaxed[1] if relaxed and relaxed[0] == s else None
        lhs = apply_map(tgt.c.diff, f.get(s, {}), kind)  # d f(s)
        rhs = apply_map(f, apply_map(dom.diff, {s: UNIT}, kind))  # f(d s)
        if lhs != rhs:
            return False

    # tower condition: the mod-U reduction of f(tower) must have unit
    # coefficient on the tower basis element of the target
    image_mod_u: dict[int, int] = {}
    for g, k in dom_tower.items():
        for t, m in f.get(g, {}).items():
            if m.kind == "U":
                continue
            exp = k + m.exponent if m.kind == "V" else k
            if t in image_mod_u and image_mod_u[t] == exp:
                del image_mod_u[t]
            elif t in image_mod_u:
                return False
            else:
                image_mod_u[t] = exp
    coeff: dict[int, int] = {}
    for t, vexp in image_mod_u.items():
        if t in tgt.tower_dual:
            total = vexp + tgt.tower_dual[t]
            coeff[total] = coeff.get(total, 0) ^ 1
    coeff = {e: v for e, v in coeff.items() if v}
    return coeff == {0: 1}


# ---------------------------------------------------------------------------
# Public interface


def map_between(src: Prepared, tgt: Prepared) -> Optional[LocalMapWitness]:
    """Witness for a local map src -> tgt between prepared complexes, or None."""
    return _solve(src.c, src.tower, tgt, relaxed=None)


def map_from_standard(params: Sequence[int], tgt: Prepared) -> Optional[LocalMapWitness]:
    """Witness for a local map C(params) -> tgt, or None (params of even length)."""
    return _solve(build_standard(params), {0: 0}, tgt, relaxed=None)


def short_map(params: Sequence[int], tgt: Prepared) -> Optional[LocalMapWitness]:
    """Witness for a short local map C(params) ~> tgt, or None.

    The domain is the truncated standard complex of the parameters, built
    with its grading anchored at x_0; the chain condition is imposed at
    x_0 .. x_{n-1} and only its V-part (even length) or U-part (odd length)
    at the final generator.  The tower condition is imposed at x_0.
    """
    p = tuple(params)
    n = len(p)
    return _solve(build_standard(p, v_anchor=0), {0: 0}, tgt, (n, "V" if n % 2 == 0 else "U"))


@dataclass(eq=False, repr=False)
class PrefixSystem:
    """The local-map systems from the standard complexes of one parameter
    prefix, kept in GF(2) echelon form for the greedy search.

    After the tower-top V-shift, the short map from C(p) or C(p, b) (anchored
    at gr(x_0) = (0, 0)) and the full map from C(p) want the same gradings, so
    the slots of x_0 .. x_n (n = len(p)) and their bits are the same in all of
    them.  form is the echelon form of the tower equation and the full chain
    conditions at x_0 .. x_{n-1}, or None when those are inconsistent; each
    system adds only its rows at x_n and at a new final generator.
    """

    tgt: Prepared
    params: Params
    want: Bigrading  # the grading of f(x_n)
    by_source: list[SourceSlots]
    form: Optional[gf2.Echelon]

    @classmethod
    def empty(cls, tgt: Prepared) -> "PrefixSystem":
        """The systems of the empty prefix, whose C() is x_0 alone."""
        want = Bigrading(0, tgt.q)
        by_source = [[(t, bit, m) for bit, (t, m) in enumerate(_gen_slots(want, tgt))]]
        form = gf2.Echelon().extend([_tower_row({0: 0}, by_source, tgt)])
        return cls(tgt, (), want, by_source, form)

    def _rows_at_last(
        self, by_source: list[SourceSlots], params: Params, kind: Optional[str]
    ) -> list[tuple[int, int]]:
        """The chain condition at x_n in C(params), params extending self.params."""
        n = len(self.params)
        row: dict[int, Monomial] = {}
        for i in (n, n + 1):
            if 1 <= i <= len(params):
                s, t, m = arrow(i, params[i - 1])
                if s == n:
                    row[t] = m
        return _source_rows(n, row, by_source, self.tgt, kind)

    @cached_property
    def closed(self) -> Optional[gf2.Echelon]:
        """form plus the full chain condition at x_n with no arrow out of
        x_n to a next generator: the full map from C(p), and the prefix form
        of every C(p, b) with b > 0."""
        if self.form is None:
            return None
        return self.form.extend(self._rows_at_last(self.by_source, self.params, None))

    def then(self, b: int) -> "PrefixSystem":
        """The systems of the prefix extended by b."""
        n = len(self.params)
        params = (*self.params, b)
        want = self.want + step(n + 1, b)
        nbits = sum(len(slots) for slots in self.by_source)
        new = [(t, nbits + j, m) for j, (t, m) in enumerate(_gen_slots(want, self.tgt))]
        by_source = [*self.by_source, new]
        if b > 0:
            form = self.closed
        elif self.form is None:
            form = None
        else:  # the arrow x_n -> x_{n+1} enters the condition at x_n
            form = self.form.extend(self._rows_at_last(by_source, params, None))
        return PrefixSystem(self.tgt, params, want, by_source, form)

    def _certified(
        self, dom: Complex, relaxed: Optional[tuple[int, str]], form: gf2.Echelon
    ) -> LocalMapWitness:
        slots = [(s, t, m) for s, src in enumerate(self.by_source) for t, _, m in src]
        v_shift = _v_shift(dom, {0: 0}, self.tgt)
        return _certified(dom, {0: 0}, self.tgt, relaxed, slots, form.solution(), v_shift)

    def short_map(self) -> Optional[LocalMapWitness]:
        """The witness short_map(params, tgt) would give, or None."""
        if self.form is None:
            return None
        n = len(self.params)
        kind = "V" if n % 2 == 0 else "U"
        form = self.form.extend(self._rows_at_last(self.by_source, self.params, kind))
        if form is None:
            return None
        return self._certified(build_standard(self.params, v_anchor=0), (n, kind), form)

    def full_map(self) -> Optional[LocalMapWitness]:
        """The witness map_from_standard(params, tgt) would give, or None."""
        if self.closed is None:
            return None
        return self._certified(build_standard(self.params), None, self.closed)


def exists_local_map(s: Complex, c: Complex) -> Optional[LocalMapWitness]:
    """Witness for S <= C in the local order, or None.

    Both complexes must be reduced and knot-like; gradings are normalized
    internally (the inputs are never modified).
    """
    tgt = prepare_target(c)
    return map_between(prepare_target(s), tgt)


def exists_short_local_map(params: Sequence[int], c: Complex) -> Optional[LocalMapWitness]:
    """Witness for a short local map C(params) ~> C, or None (see short_map)."""
    return short_map(params, prepare_target(c))


def verify_local_map(s: Complex, c: Complex, witness: LocalMapWitness) -> bool:
    """Re-check a full local-map witness against the definition."""
    tgt = prepare_target(c)
    src = prepare_target(s)
    return _check_witness(src.c, src.tower, tgt, None, witness)


def count_unknowns(s: Complex, c: Complex) -> int:
    """Number of free bits the solver would use for exists_local_map(s, c)."""
    tgt = prepare_target(c)
    src = prepare_target(s)
    return len(_slots(src.c, src.tower, tgt)[1])


def brute_force_local_map(
    s: Complex, c: Complex, budget: int = 24
) -> Optional[LocalMapWitness]:
    """Exhaustive oracle for exists_local_map.

    Enumerates every assignment of the grading-feasible slots and checks the
    local-map definition directly.  Refuses instances with more unknown bits
    than *budget*.
    """
    tgt = prepare_target(c)
    src = prepare_target(s)
    v_shift, slots = _slots(src.c, src.tower, tgt)
    if len(slots) > budget:
        raise BudgetExceededError(len(slots), budget)
    for mask in range(1 << len(slots)):
        witness = _witness_from_mask(src.c, tgt.c, slots, mask, v_shift)
        if _check_witness(src.c, src.tower, tgt, None, witness):
            return witness
    return None
