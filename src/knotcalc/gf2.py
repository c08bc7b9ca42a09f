"""Linear algebra over GF(2) with bit-packed rows.

Rows are Python integers used as bit masks, so a row operation is a single
XOR regardless of width.  This is all the linear algebra the local-map
solver needs: an echelon form that can be extended by more rows, and one
solution of the affine system A x = b it stands for.
"""

from __future__ import annotations

from typing import Iterable, Optional


class Echelon:
    """The echelon form of a consistent affine system, by pivot position.

    Each pivot row's pivot is its lowest set bit, so the set of pivots, and
    with free variables set to 0 the solution, depend only on the rows'
    span, not on the order the rows came in.  A value is never changed:
    extend returns a new one, so a form can be shared by many extensions.
    """

    __slots__ = ("pivots", "pivmask")

    def __init__(self) -> None:
        self.pivots: dict[int, tuple[int, int]] = {}
        self.pivmask = 0

    def extend(self, rows: Iterable[tuple[int, int]]) -> Optional["Echelon"]:
        """This form with (mask, rhs) rows added, or None if some row reduces
        to 0 = 1.

        A row is reduced only at the pivot positions it hits, lowest first; a
        pivot row has no bits below its pivot, so no lower position is hit
        again.
        """
        pivots = dict(self.pivots)
        pivmask = self.pivmask
        for mask, rhs in rows:
            hit = mask & pivmask
            while hit:
                pmask, prhs = pivots[(hit & -hit).bit_length() - 1]
                mask ^= pmask
                rhs ^= prhs
                hit = mask & pivmask
            if mask == 0:
                if rhs:
                    return None
                continue
            low = mask & -mask
            pivots[low.bit_length() - 1] = (mask, rhs)
            pivmask |= low
        out = Echelon()
        out.pivots = pivots
        out.pivmask = pivmask
        return out

    def solution(self) -> int:
        """The solution with every free variable 0, as a bit mask."""
        # Back-substitute from the highest pivot down; a pivot row's other
        # bits all lie above its pivot, where the solution is already fixed.
        solution = 0
        for pos in sorted(self.pivots, reverse=True):
            mask, rhs = self.pivots[pos]
            if rhs ^ ((mask & solution).bit_count() & 1):
                solution |= 1 << pos
        return solution


def solve_affine(rows: list[tuple[int, int]], nvars: int) -> int | None:
    """Solve a linear system over GF(2).

    Args:
        rows: list of (mask, rhs) pairs; bit i of *mask* is the coefficient
            of variable i, *rhs* is 0 or 1.
        nvars: number of variables.

    Returns:
        A solution as a bit mask (free variables set to 0), or None if the
        system is inconsistent.  The solution is deterministic: pivots are
        taken at the lowest set bit of each reduced row.
    """
    form = Echelon().extend(rows)
    return None if form is None else form.solution()


def rank(masks: list[int]) -> int:
    """GF(2) rank of a list of bit-mask rows."""
    return len(Echelon().extend((mask, 0) for mask in masks).pivots)
