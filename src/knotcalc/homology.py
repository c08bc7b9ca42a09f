"""Simplified bases for C/U and C/V, tower extraction, knot-like checks.

Setting U = 0 leaves a complex over the PID F[V] (and symmetrically for
V = 0 over F[U]).  Because everything is homogeneous, every matrix entry of
the quotient differential is a single power of the surviving variable, and
Smith-style reduction can be run with basis changes that only ever add a
monomial multiple of one basis element to another.  The result is a basis
in which the differential is a perfect pairing y_i -> v^{eta_i} z_i plus
isolated elements; each isolated element spans a nontorsion tower of the
homology.  A complex is knot-like when each side has exactly one tower,
sitting in gr_U = 0 (mod U side) and gr_V = 0 (mod V side).
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Optional

from . import gf2
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

    tower_generator is an element of the quotient module written over the
    declared generators.  tower_dual is the coordinate of the tower basis
    element: (g, e) in it means declared generator g has coefficient v^e on
    the tower in the final basis (v the surviving variable); a generator not
    listed has none.  Both are stored as sorted (index, exponent) pairs.
    etas are the torsion orders, one per pair, in the order the sweep found
    them.
    """

    side: str
    tower_generator: tuple[tuple[int, int], ...]
    tower_top_grading: Bigrading
    etas: tuple[int, ...]
    tower_dual: tuple[tuple[int, int], ...]


class _Reduction:
    """Mutable state for the Smith-style sweep on one quotient complex."""

    def __init__(self, c: Complex, side: str):
        self.c = c
        self.side = side
        # basis[j] and dual[j] (the coordinate of basis element j over the
        # declared generators) start as the identity's {j: 0}; they are
        # stored only once a basis change touches them (see vector)
        self.basis: dict[int, Element] = {}
        self.dual: dict[int, Element] = {}
        # the quotient differential by row and by column: arrows of the
        # surviving variable's kind, by exponent; the other kind is 0 here
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, dict[int, int]] = {}
        # every entry (exp, row, col) ever added; sweep skips the stale ones
        self.heap: list[tuple[int, int, int]] = []
        kind = "V" if side == MOD_U else "U"
        for i, row in c.diff.items():
            for j, m in row.items():
                if m.kind == kind:
                    e = m.exponent
                    self.rows.setdefault(i, {})[j] = e
                    self.cols.setdefault(j, {})[i] = e
                    self.heap.append((e, i, j))
                elif m.kind == "1":
                    raise NotReducedError("simplify requires a reduced complex")
        heapq.heapify(self.heap)

    def _xor_entry(self, i: int, j: int, exp: int) -> None:
        row = self.rows.setdefault(i, {})
        xor_term(row, j, exp)
        xor_term(self.cols.setdefault(j, {}), i, exp)
        if j in row:
            heapq.heappush(self.heap, (exp, i, j))

    @staticmethod
    def vector(vectors: dict[int, Element], j: int) -> Element:
        """basis[j] or dual[j]: the stored element, or {j: 0} if none is."""
        vec = vectors.get(j)
        return {j: 0} if vec is None else vec

    def add_multiple(self, p: int, q: int, delta: int) -> None:
        """Basis change b_p += v^delta * b_q (valid when gradings agree)."""
        if p == q or delta < 0:
            raise VerificationFailedError(f"bad basis change b_{p} += v^{delta} b_{q}")
        b_p = self.basis.setdefault(p, {p: 0})
        for g, e in self.vector(self.basis, q).items():
            xor_term(b_p, g, e + delta)
        # old b_p = b_p' + v^delta b_q, so the coordinate of b_q gains v^delta dual_p
        dual_q = self.dual.setdefault(q, {q: 0})
        for g, e in self.vector(self.dual, p).items():
            xor_term(dual_q, g, e + delta)
        # row_p += v^delta row_q
        for j, e in list(self.rows.get(q, {}).items()):
            self._xor_entry(p, j, e + delta)
        # col_q += v^delta col_p
        for i, e in list(self.cols.get(p, {}).items()):
            self._xor_entry(i, q, e + delta)

    def sweep(self) -> tuple[list[tuple[int, int, int]], list[int]]:
        """Run the reduction; returns (pivot pairs (src, tgt, eta), isolated indices)."""
        active = set(range(len(self.c.gens)))
        pairs: list[tuple[int, int, int]] = []
        while self.heap:
            # the least (exp, row, col) entry between active generators
            eta, i0, j0 = heapq.heappop(self.heap)
            if i0 not in active or j0 not in active or self.rows[i0].get(j0) != eta:
                continue
            # clear the pivot's column, then its row, unless both hold the
            # pivot alone
            if len(self.cols[j0]) > 1 or len(self.rows[i0]) > 1:
                for i in sorted(self.cols[j0]):
                    if i != i0:
                        self.add_multiple(i, i0, self.cols[j0][i] - eta)
                for j in sorted(self.rows[i0]):
                    if j != j0:
                        self.add_multiple(j0, j, self.rows[i0][j] - eta)
            if (self.rows.get(i0) != {j0: eta} or self.cols.get(j0) != {i0: eta}
                    or self.cols.get(i0) or self.rows.get(j0)):
                raise VerificationFailedError(f"pivot ({i0}, {j0}) is not an isolated pair")
            pairs.append((i0, j0, eta))
            active.discard(i0)
            active.discard(j0)
        isolated = sorted(active)
        return pairs, isolated


def _invertible_mod_variable(basis: dict[int, Element]) -> bool:
    """Whether basis elements 0 .. n-1 (n the number of declared generators)
    stay independent with the variable set to 0; an element not in *basis*
    is its declared generator, the row 1 << j.

    Only the stored elements are ranked, restricted to the stored indices S.
    With the rows and columns outside S put first, the matrix is block
    triangular: the unit rows 1 << j (j not in S) form an identity block,
    so it is invertible exactly when its S x S block is.
    """
    masks = [sum(1 << g for g, e in vec.items() if e == 0 and g in basis) for vec in basis.values()]
    return gf2.rank(masks) == len(masks)


def simplify(c: Complex, side: str) -> TowerReport:
    """Simplify C/U (side="mod_u") or C/V (side="mod_v").

    Raises NotReducedError on a non-reduced complex and MultipleTowersError
    when the nontorsion rank differs from one.
    """
    if side not in (MOD_U, MOD_V):
        raise ValueError(f"bad side {side!r}")
    red = _Reduction(c, side)
    pairs, isolated = red.sweep()
    n = len(c.gens)
    if 2 * len(pairs) + len(isolated) != n:
        raise VerificationFailedError("the sweep lost generators")
    if not _invertible_mod_variable(red.basis):
        raise VerificationFailedError("basis change lost rank")
    if len(isolated) != 1:
        raise MultipleTowersError(len(isolated), side)
    w = isolated[0]
    tower = red.vector(red.basis, w)
    return TowerReport(
        side=side,
        tower_generator=_frozen(tower),
        tower_top_grading=element_grading(c, side, tower),
        etas=tuple(eta for _, _, eta in pairs),
        tower_dual=_frozen(red.vector(red.dual, w)),
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
