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

brute_force_local_map enumerates every bit assignment and checks the
definition directly; it is the independent oracle for the solver.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import gf2
from .algebra import UNIT, Bigrading, Complex, Monomial, apply_map, mono_mul
from .errors import BudgetExceededError, NotKnotLikeError, VerificationFailedError
from .homology import MOD_U, apply_shift, check_knot_like, element_grading
from .standard import build_standard

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


def _slots(dom: Complex, dom_tower: dict[int, int], tgt: Prepared) -> tuple[int, list[Slot]]:
    """The V-shift pinned by tower-top alignment, and the grading-feasible slots.

    Slots come per source in the target order (gr_U, gr_V, index): the unit
    and V^k slots share the wanted gr_U, the U^k slots have a larger one.
    """
    v_shift = tgt.q - element_grading(dom, MOD_U, dom_tower).grv
    out: list[Slot] = []
    for s, g in enumerate(dom.gens):
        wu, wv = g.grading.gru, g.grading.grv + v_shift
        same_u = tgt.by_gru.get(wu, ())
        for gv, t in same_u[bisect_left(same_u, (wv, 0)):]:
            if (gv - wv) % 2 == 0:
                out.append((s, t, Monomial("V", (gv - wv) // 2) if gv != wv else UNIT))
        same_v = tgt.by_grv.get(wv, ())
        for gu, t in same_v[bisect_right(same_v, (wu, len(tgt.c.gens))):]:
            if (gu - wu) % 2 == 0:
                out.append((s, t, Monomial("U", (gu - wu) // 2)))
    return v_shift, out


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
    by_source: dict[int, list[tuple[int, int, Monomial]]] = {}
    for i, (s, t, m) in enumerate(slots):
        by_source.setdefault(s, []).append((t, i, m))

    rows: dict[tuple[int, int], int] = {}

    def toggle(s: int, u: int, bit: int) -> None:
        key = (s, u)
        rows[key] = rows.get(key, 0) ^ (1 << bit)

    for s in range(len(dom.gens)):
        kind_filter = relaxed[1] if relaxed and relaxed[0] == s else None
        # d f(s): push each slot monomial through the target differential
        for t, bit, m in by_source.get(s, ()):
            for u, d in tgt.c.diff.get(t, {}).items():
                if kind_filter and d.kind != kind_filter:
                    continue
                if mono_mul(m, d) is not None:
                    toggle(s, u, bit)
        # f(d s): push the domain differential through the slots of s'
        for sp, e in dom.diff.get(s, {}).items():
            if kind_filter and e.kind != kind_filter:
                continue
            for t2, bit, m2 in by_source.get(sp, ()):
                if mono_mul(e, m2) is not None:
                    toggle(s, t2, bit)

    system = [(mask, 0) for mask in rows.values()]

    tower_mask = 0
    for g, k in dom_tower.items():
        if k != 0:
            continue
        for t, bit, m in by_source.get(g, ()):
            if tgt.tower_dual.get(t) == 0 and m.kind == "1":
                tower_mask ^= 1 << bit
    system.append((tower_mask, 1))

    solution = gf2.solve_affine(system, len(slots))
    if solution is None:
        return None
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
