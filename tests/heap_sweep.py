"""The dict-and-heap sweep that knotcalc.homology.simplify used to run, kept
as the tests' reference oracle for the column reduction.

_Reduction runs a Smith-style reduction of C/U (or C/V) with basis changes
b_p += v^delta b_q that each add a monomial multiple of one basis element to
another, until the differential is a perfect pairing y_i -> v^eta_i z_i plus
isolated elements; it keeps the basis and its inverse by row (the dual).
sweep_report reads a TowerReport off it as simplify did, with the same
errors, and ranks the stored basis vectors with the variable set to 0.
"""

from __future__ import annotations

import heapq

from knotcalc import gf2
from knotcalc.algebra import Complex, xor_term
from knotcalc.errors import MultipleTowersError, NotReducedError, VerificationFailedError
from knotcalc.homology import MOD_U, MOD_V, Element, TowerReport, element_grading


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
        rows, cols, heap = self.rows, self.cols, self.heap
        kind = "V" if side == MOD_U else "U"
        for i, row in c.diff.items():
            out = {}
            for j, (k, e) in row.items():
                if k == kind:
                    out[j] = e
                    col = cols.get(j)
                    if col is None:
                        cols[j] = {i: e}
                    else:
                        col[i] = e
                    heap.append((e, i, j))
                elif k == "1":
                    raise NotReducedError("simplify requires a reduced complex")
            if out:
                rows[i] = out
        heapq.heapify(heap)

    @staticmethod
    def vector(vectors: dict[int, Element], j: int) -> Element:
        """basis[j] or dual[j]: the stored element, or {j: 0} if none is."""
        vec = vectors.get(j)
        return {j: 0} if vec is None else vec

    def add_multiple(self, p: int, q: int, delta: int) -> None:
        """Basis change b_p += v^delta * b_q (valid when gradings agree)."""
        if p == q or delta < 0:
            raise VerificationFailedError(f"bad basis change b_{p} += v^{delta} b_{q}")
        basis, dual, rows, cols, heap = self.basis, self.dual, self.rows, self.cols, self.heap
        # an unstored vector is the identity's {j: 0}; it is stored once changed
        b_p = basis.get(p)
        if b_p is None:
            b_p = basis[p] = {p: 0}
        b_q = basis.get(q)
        if b_q is None:
            xor_term(b_p, q, delta)
        else:
            for g, e in b_q.items():
                xor_term(b_p, g, e + delta)
        # old b_p = b_p' + v^delta b_q, so the coordinate of b_q gains v^delta dual_p
        dual_q = dual.get(q)
        if dual_q is None:
            dual_q = dual[q] = {q: 0}
        dual_p = dual.get(p)
        if dual_p is None:
            xor_term(dual_q, p, delta)
        else:
            for g, e in dual_p.items():
                xor_term(dual_q, g, e + delta)
        # row_p += v^delta row_q, and each entry's column with it; an entry
        # added goes on the heap.  No loop below changes the dict it walks,
        # as no generator has an arrow to itself.
        row_q = rows.get(q)
        if row_q:
            row_p = rows.get(p)
            if row_p is None:
                row_p = rows[p] = {}
            for j, e in row_q.items():
                col = cols[j]
                if j in row_p:
                    del row_p[j]
                    del col[p]
                else:
                    e += delta
                    row_p[j] = col[p] = e
                    heapq.heappush(heap, (e, p, j))
        # col_q += v^delta col_p, and each entry's row with it, with no heap
        # push: sweep calls this to clear a pivot (i0, j0), and every entry
        # added here lies in row or column i0, which leaves `active` with it.
        col_p = cols.get(p)
        if col_p:
            col_q = cols.get(q)
            if col_q is None:
                col_q = cols[q] = {}
            for i, e in col_p.items():
                row = rows[i]
                if i in col_q:
                    del col_q[i]
                    del row[q]
                else:
                    col_q[i] = row[q] = e + delta

    def sweep(self) -> tuple[list[tuple[int, int, int]], list[int]]:
        """Run the reduction; returns (pivot pairs (src, tgt, eta), isolated indices)."""
        rows, cols, heap, pop = self.rows, self.cols, self.heap, heapq.heappop
        active = set(range(len(self.c.gens)))
        pairs: list[tuple[int, int, int]] = []
        while heap:
            # the least (exp, row, col) entry between active generators
            eta, i0, j0 = pop(heap)
            if i0 not in active or j0 not in active:
                continue
            row = rows[i0]
            if row.get(j0) != eta:
                continue
            # clear the pivot's column, then its row, unless both hold the
            # pivot alone
            col = cols[j0]
            if len(col) > 1 or len(row) > 1:
                for i in sorted(col):
                    if i != i0:
                        self.add_multiple(i, i0, col[i] - eta)
                for j in sorted(row):
                    if j != j0:
                        self.add_multiple(j0, j, row[j] - eta)
            if (len(row) != 1 or len(col) != 1 or row.get(j0) != eta or col.get(i0) != eta
                    or cols.get(i0) or rows.get(j0)):
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


def sweep_report(c: Complex, side: str, reduction: type = _Reduction) -> TowerReport:
    """simplify(c, side) by the sweep of *reduction* (_Reduction or a subclass)."""
    if side not in (MOD_U, MOD_V):
        raise ValueError(f"bad side {side!r}")
    red = reduction(c, side)
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
        tower_generator=tuple(sorted(tower.items())),
        tower_top_grading=element_grading(c, side, tower),
        etas=tuple(eta for _, _, eta in pairs),
        tower_dual=tuple(sorted(red.vector(red.dual, w).items())),
    )
