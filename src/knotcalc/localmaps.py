"""Existence of local maps and short local maps, decided over F2.

Every map here runs from one Prepared to another; knotcalc.witness holds
the definition and its check.  Once both complexes are normalized, the
U-grading of f is preserved on the nose and the V-grading shift is
tgt.q - src.q, pinned by tower-top alignment, so a candidate map is a
choice of one bit per grading-feasible (source generator, monomial * target
generator) slot.  The chain-map conditions are linear in those bits and the
tower condition contributes a single affine equation, so existence reduces
to one GF(2) linear solve.  One rule, _gen_slots, lists the slots of a
source from the target's grading buckets, which each solve builds once from
the target's gradings; a one-shot solve applies it to each source in turn
and the greedy to each new final generator.  Rows are built only at the
sources with a slot and at the sources with an arrow into them; elsewhere
the chain condition has no term.

Short maps relax the chain condition at the final generator x_n of a
truncated standard complex, wrapped in a Prepared whose tower is x_0 at
gr_V 0: only the part of the condition in the direction of the final arrow
type is kept (the V-part when the parameter sequence has even length, the
U-part when odd).

Every witness returned comes from witness.certified_witness, which checks
it against the definition and raises VerificationFailedError if the check
fails: a solve's, full_map's, and the maps that identity_maps and
mirror_maps write down with no solve for a lone recipe factor and an exact
mirror pair.

PrefixSystem serves the greedy search of localequiv: the candidates
C(a_1 .. a_k, b) share the prefix's slots and its chain conditions at
x_0 .. x_{k-1}, so it keeps those in one echelon form that grows in place
as the prefix does, and tests each candidate's own rows against it.  Each
candidate is decided by whether its system is consistent, with no witness
built.  Only the final representative gets one: after the passing stop
test, full_map adds the full map's last rows to the form and reads the
checked forward witness off it.  The greedy certifies its result with that
map and a checked map back; a wrong answer on the way would give a
standard complex that is not locally equivalent to the input, so that
certification would fail.

brute_force_local_map enumerates every bit assignment and checks each with
witness.check_witness; it is the independent oracle for the solver.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

from . import gf2
from .algebra import UNIT, Complex, Monomial, power, tensor
from .errors import BudgetExceededError, NotKnotLikeError
from .homology import apply_shift, check_knot_like
from .standard import Params, arrow, build_standard, negate, step
from .witness import LocalMapWitness, Prepared, build_witness, certified_witness, check_witness
from .witness import Relaxed, touching

# The slots of one source as (target index, bit, monomial), the bit being the
# slot's position in the map's whole system.
SourceSlots = list[tuple[int, int, Monomial]]


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
    return Prepared(
        c=cn,
        q=mod_u.tower_top_grading.grv + report.applied_shift[1],
        m_u=max(report.mod_v.etas, default=0),
        m_v=max(mod_u.etas, default=0),
        tower=dict(mod_u.tower_generator),
        tower_dual=dict(mod_u.tower_dual),
    )


def prepare_standard(a: Params, b: Optional[Params] = None) -> Prepared:
    """prepare_target(C(a)), or prepare_target(C(a) (x) C(b)), read off the
    parameters with no homology sweep and no shift.

    Both towers of a standard complex, and so of a product of two, already
    sit at grading 0.  The mod-U tower is generator 0 (x0, or x0|x0): it has
    no V-arrow, so the sweep never touches it, and the tower and its dual
    are both {0: 0}.  By the Kunneth formula over F[V] (F[U]), a product's
    torsion orders mod U (mod V) are each factor's, as the other factor has
    a tower, and minima of two of them; so the largest is the largest |a_i|
    over both factors, at even (odd) positions.
    """
    factors = (a,) if b is None else (a, b)
    c = build_standard(a) if b is None else tensor(build_standard(a), build_standard(b))
    return Prepared(
        c=c,
        q=c.gens[0].grading.grv,
        m_u=max((abs(x) for p in factors for x in p[0::2]), default=0),
        m_v=max((abs(x) for p in factors for x in p[1::2]), default=0),
        tower={0: 0},
        tower_dual={0: 0},
    )


def _grading_buckets(c: Complex) -> tuple[dict, dict]:
    """The generator indices of *c* bucketed by gr_U as sorted (gr_V, index),
    and by gr_V as sorted (gr_U, index)."""
    by_gru: dict[int, list[tuple[int, int]]] = {}
    by_grv: dict[int, list[tuple[int, int]]] = {}
    for t, (_, (gu, gv)) in enumerate(c.gens):
        by_gru.setdefault(gu, []).append((gv, t))
        by_grv.setdefault(gv, []).append((gu, t))
    for bucket in (*by_gru.values(), *by_grv.values()):
        bucket.sort()
    return by_gru, by_grv


def _gen_slots(want: tuple[int, int], buckets: tuple[dict, dict], bit: int) -> SourceSlots:
    """The feasible slots of one source whose image has grading *want*, read
    off the target's _grading_buckets, in the target order (gr_U, gr_V,
    index), their bits numbered from *bit*: the unit and V^k slots share the
    wanted gr_U, the U^k slots have a larger one.
    """
    wu, wv = want
    by_gru, by_grv = buckets
    out: SourceSlots = []
    same_u = by_gru.get(wu)
    if same_u:
        for gv, t in same_u[bisect_left(same_u, (wv, 0)):]:
            if (gv - wv) % 2 == 0:
                out.append((t, bit + len(out), power("V", (gv - wv) // 2) if gv != wv else UNIT))
    same_v = by_grv.get(wv)
    if same_v:
        for gu, t in same_v[bisect_left(same_v, (wu + 1,)):]:
            if (gu - wu) % 2 == 0:
                out.append((t, bit + len(out), power("U", (gu - wu) // 2)))
    return out


def _slots(src: Prepared, tgt: Prepared) -> tuple[list[SourceSlots], int]:
    """The grading-feasible slots of each source of a map src -> tgt, their
    bits numbered source by source, and the number of slots.  A source whose
    wanted gr_U and gr_V both miss the target has none."""
    by_source: list[SourceSlots] = []
    nbits = 0
    v_shift = tgt.q - src.q
    buckets = by_gru, by_grv = _grading_buckets(tgt.c)
    for _, (gu, gv) in src.c.gens:
        gv += v_shift
        slots = _gen_slots((gu, gv), buckets, nbits) if gu in by_gru or gv in by_grv else []
        by_source.append(slots)
        nbits += len(slots)
    return by_source, nbits


def _source_rows(
    s: int,
    dom_row: dict[int, Monomial],
    by_source: Sequence[SourceSlots],
    tgt: Prepared,
    kind: Optional[str],
) -> dict[int, int]:
    """The chain condition d f(s) = f(d s) at source s as one mask per
    target generator it reaches, each standing for the row (mask, 0).

    dom_row is d(s) in the domain.  With *kind* given only the arrows of that
    kind count, on both sides (the relaxed condition at a short map's final
    generator).  Only products that survive UV = 0 count: those where either
    factor is 1 or both have the same kind.
    """
    rows: dict[int, int] = {}
    tdiff = tgt.c.diff
    # d f(s): push each slot monomial through the target differential
    for t, bit, m in by_source[s]:
        row = tdiff.get(t)
        if not row:
            continue
        k1 = m.kind
        for u, d in row.items():
            k2 = d.kind
            if kind and k2 != kind:
                continue
            if k1 == k2 or k1 == "1" or k2 == "1":
                rows[u] = rows.get(u, 0) ^ (1 << bit)
    # f(d s): push the domain differential through the slots of s'
    for sp, e in dom_row.items():
        if not kind or e.kind == kind:
            _compose(rows, e.kind, by_source[sp])
    return rows


def _compose(rows: dict[int, int], k1: str, slots: SourceSlots) -> None:
    """Add to *rows* the slots whose monomials survive UV = 0 after an arrow
    of kind k1: the image of that arrow under f."""
    for t, bit, m in slots:
        k2 = m.kind
        if k1 == k2 or k1 == "1" or k2 == "1":
            rows[t] = rows.get(t, 0) ^ (1 << bit)


def _tower_row(
    tower: dict[int, int], by_source: Sequence[SourceSlots], tgt: Prepared
) -> tuple[int, int]:
    """The tower condition: f(tower) has unit coefficient on the target's
    tower, for the source's tower element *tower*."""
    mask = 0
    for g, k in tower.items():
        if k != 0:
            continue
        for t, bit, m in by_source[g]:
            if tgt.tower_dual.get(t) == 0 and m.kind == "1":
                mask ^= 1 << bit
    return mask, 1


def _images(by_source: Sequence[SourceSlots], mask: int) -> list:
    """The image of each source, as (monomial, target index) terms, under the
    map whose nonzero slots are the set bits of *mask*."""
    return [[(m, t) for t, bit, m in source if mask >> bit & 1] if source else ()
            for source in by_source]


def _solve(src: Prepared, tgt: Prepared, relaxed: Relaxed) -> Optional[LocalMapWitness]:
    """Build and solve the linear system for a (short) local map src -> tgt.

    relaxed, when given, is (generator index, kind): only the chain
    condition in direction *kind* is imposed at that generator.  Rows are
    built only at the sources touching the slots, in index order.
    """
    dom = src.c
    by_source, nbits = _slots(src, tgt)
    system: list[tuple[int, int]] = []
    for s in sorted(touching(dom, {s for s, slots in enumerate(by_source) if slots})):
        kind = relaxed[1] if relaxed and relaxed[0] == s else None
        rows = _source_rows(s, dom.diff.get(s, {}), by_source, tgt, kind)
        system += [(mask, 0) for mask in rows.values()]
    system.append(_tower_row(src.tower, by_source, tgt))

    solution = gf2.solve_affine(system, nbits)
    if solution is None:
        return None
    return certified_witness(src, tgt, _images(by_source, solution), "solved", relaxed)


def map_between(src: Prepared, tgt: Prepared) -> Optional[LocalMapWitness]:
    """Witness for a local map src -> tgt between prepared complexes, or None."""
    return _solve(src, tgt, relaxed=None)


def identity_maps(a: Params) -> tuple[LocalMapWitness, LocalMapWitness]:
    """The witnesses that C(a) is locally equivalent to itself: its identity
    map, checked against the definition, in both directions.  With the
    paper's theorem that a local class holds exactly one standard complex,
    they certify that a is the standard representative of C(a)."""
    s = prepare_standard(a)
    identity = certified_witness(s, s, [[(UNIT, i)] for i in range(len(s.c.gens))], "identity")
    return identity, identity


def mirror_maps(a: Params) -> tuple[LocalMapWitness, LocalMapWitness]:
    """The witnesses that C(a) (x) C(-a) is locally trivial, each checked
    against the definition: the coevaluation C() -> C(a) (x) C(-a),
    x0 -> sum_i x_i|x_i, and the evaluation back, x_i|x_i -> x0 and every
    other generator to 0.

    C(-a) has the negated gradings of C(a), so every x_i|x_i sits at
    grading (0, 0) with C()'s x0, and x0|x0 is the product's tower.  The
    product is built C(a) first, so an invalid a is reported as given."""
    unit = prepare_standard(())
    pair = prepare_standard(a, negate(a))
    n = len(a) + 1
    diagonal = range(0, n * n, n + 1)  # the indices of x_i|x_i
    coevaluation = certified_witness(unit, pair, [[(UNIT, t) for t in diagonal]], "coevaluation")
    evaluation = certified_witness(
        pair, unit, [[(UNIT, 0)] if s in diagonal else [] for s in range(n * n)], "evaluation"
    )
    return coevaluation, evaluation


def short_map(params: Sequence[int], tgt: Prepared) -> Optional[LocalMapWitness]:
    """Witness for a short local map C(params) ~> tgt, or None.

    The domain is the truncated standard complex of the parameters, built
    with its grading anchored at x_0; the chain condition is imposed at
    x_0 .. x_{n-1} and only its V-part (even length) or U-part (odd length)
    at the final generator.  The tower condition is imposed at x_0, the
    domain's tower, at gr_V 0.
    """
    p = tuple(params)
    n = len(p)
    domain = Prepared(build_standard(p, v_anchor=0), 0, 0, 0, {0: 0}, {0: 0})
    return _solve(domain, tgt, (n, "V" if n % 2 == 0 else "U"))


class PrefixSystem:
    """The local-map systems of a parameter prefix p, in one GF(2) echelon
    form that grows in place as the greedy search of localequiv extends p.

    After the tower-top V-shift, the short map from C(p) or C(p, b) (anchored
    at gr(x_0) = (0, 0)) and the full map from C(p) want the same gradings, so
    the slots of x_0 .. x_n (n = len(p)) and their bits are the same in all of
    them.  form holds the tower equation and the full chain conditions at
    x_0 .. x_{n-1}; once those are inconsistent, feasible is False and form
    stops growing.  Each system adds only its rows at x_n and at a new final
    generator x_{n+1}.  The full map from C(p) and every C(p, b) with b > 0
    share the rows at x_n, built once per position; the arrow x_n -> x_{n+1}
    of a b < 0 adds one term to them.

    passes decides a candidate by the consistency of its rows alone; no
    solution is back-substituted and no witness built.  full_map builds the
    one witness the caller needs, the checked forward map of the final
    representative, which localequiv's standard_rep pairs with a checked
    map back.  copy gives a system that can be pushed further and dropped,
    as standard_rep does with the mirror of a symmetric prefix.
    """

    def __init__(self, tgt: Prepared):
        """The systems of the empty prefix, whose C() is x_0 alone."""
        self.tgt = tgt
        self.buckets = _grading_buckets(tgt.c)
        self.params: list[int] = []  # grows in place: a tuple would be copied on every push
        self.want = (0, tgt.q)  # the grading of f(x_n)
        self.by_source = [_gen_slots(self.want, self.buckets, 0)]
        self.nbits = len(self.by_source[0])  # the next free bit
        self.form = gf2.Echelon()
        self.feasible = self.form.extend([_tower_row({0: 0}, self.by_source, tgt)])
        self._open_position()

    def _open_position(self) -> None:
        """Build closing, the full chain condition at x_n with no arrow out
        of x_n, by target generator, and closing_rows, its rows; forget the
        last candidate that passed."""
        n = len(self.params)
        row = {n - 1: arrow(n, self.params[-1])[2]} if n and self.params[-1] > 0 else {}
        self.closing = _source_rows(n, row, self.by_source, self.tgt, None)
        self.closing_rows = [(mask, 0) for mask in self.closing.values()]
        # the last candidate that passed: b, its slots of x_{n+1}, its rows at x_n
        self._passed: Optional[tuple[int, SourceSlots, list[tuple[int, int]]]] = None

    def _append(self, b: int) -> list[tuple[int, int]]:
        """Append the slots of x_{n+1} in C(params, b) to by_source, and
        return the full chain condition at x_n there."""
        n = len(self.params)
        du, dv = step(n + 1, b)
        new = _gen_slots((self.want[0] + du, self.want[1] + dv), self.buckets, self.nbits)
        self.by_source.append(new)
        if b > 0:
            return self.closing_rows
        rows = dict(self.closing)  # and the image of the arrow x_n -> x_{n+1}
        _compose(rows, arrow(n + 1, b)[2].kind, new)
        return [(mask, 0) for mask in rows.values()]

    def passes(self, b: int) -> bool:
        """For b != 0, whether short_map((*params, b), tgt) finds a map; for
        b = 0, the stop test: whether map_between(prepare_standard(params),
        tgt) finds one.  form is not changed."""
        if not self.feasible:
            return False
        if b == 0:
            return self.form.consistent(self.closing_rows)
        n = len(self.params)
        at_n = self._append(b)
        # the relaxed condition at x_{n+1}, in the direction of its arrow
        s, t, m = arrow(n + 1, b)
        last = _source_rows(n + 1, {t: m} if s == n + 1 else {}, self.by_source, self.tgt, m.kind)
        new = self.by_source.pop()
        if not self.form.consistent([*at_n, *((mask, 0) for mask in last.values())]):
            return False
        self._passed = (b, new, at_n)
        return True

    def push(self, b: int) -> None:
        """Extend the prefix by b: add the slots of x_{n+1} and the full
        chain condition at x_n in C(params, b).  If that condition is
        inconsistent with form, the system becomes infeasible."""
        if self._passed is not None and self._passed[0] == b:
            _, new, at_n = self._passed
            self.by_source.append(new)
        else:
            at_n = self._append(b)
            new = self.by_source[-1]
        self.params.append(b)
        du, dv = step(len(self.params), b)
        self.want = (self.want[0] + du, self.want[1] + dv)
        self.nbits += len(new)
        self.feasible = self.feasible and self.form.extend(at_n)
        self._open_position()

    def copy(self) -> PrefixSystem:
        """A system of the same prefix whose pushes leave this one unchanged."""
        twin = object.__new__(PrefixSystem)
        vars(twin).update(vars(self), params=self.params.copy(),
                          by_source=self.by_source.copy(), form=self.form.copy())
        return twin

    def full_map(self, src: Prepared) -> Optional[LocalMapWitness]:
        """The witness map_between(src, tgt) returns, where src is
        prepare_standard(params), or None if there is none, as
        map_between's; it is checked against the definition, and a bad one
        raises VerificationFailedError.  This adds the rows at x_n to form,
        which ends the search.

        form is then the echelon form of that map's system: the same slots
        and bits, and rows with the same span.  Its pivots, and its solution
        with every free bit 0, depend only on the span, so the witness is
        the one a fresh solve would give.
        """
        if not (self.feasible and self.form.extend(self.closing_rows)):
            return None
        images = _images(self.by_source, self.form.solution())
        return certified_witness(src, self.tgt, images, "forward")


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
    by_source, nbits = _slots(src, tgt)
    if nbits > budget:
        raise BudgetExceededError(nbits, budget)
    for mask in range(1 << nbits):
        witness = build_witness(src, tgt, _images(by_source, mask))
        if check_witness(src, tgt, witness):
            return witness
    return None
