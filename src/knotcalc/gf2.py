"""Linear algebra over GF(2) with bit-packed rows.

Rows are Python integers used as bit masks, so a row operation is a single
XOR regardless of width.  This is all the linear algebra the local-map
solver needs: an echelon form that grows in place by more rows, tests
whether more rows are consistent with it without changing it, copies itself
for rows that may be dropped, and gives one solution of the affine system
A x = b it stands for.
"""

from __future__ import annotations

from typing import Iterable, Optional


class Echelon:
    """The echelon form of a consistent affine system, by pivot position.

    Each pivot row's pivot is its lowest set bit, so the set of pivots, and
    with free variables set to 0 the solution, depend only on the rows'
    span, not on the order the rows came in.
    """

    __slots__ = ("pivots", "pivmask")

    def __init__(self) -> None:
        self.pivots: dict[int, tuple[int, int]] = {}
        self.pivmask = 0

    def _reduce(
        self, rows: Iterable[tuple[int, int]]
    ) -> Optional[tuple[dict[int, tuple[int, int]], int]]:
        """The pivot rows that (mask, rhs) rows add to this form, by pivot
        position, and the mask of their pivots; None if some row reduces to
        0 = 1.  The form is not changed.

        A row is reduced only at the pivot positions it hits, lowest first; a
        pivot row has no bits below its pivot, so no lower position is hit
        again.  The form's pivots come first: a new pivot row has no bit at
        any of them, so reducing by new rows brings none back.
        """
        pivots, pivmask = self.pivots, self.pivmask
        new: dict[int, tuple[int, int]] = {}
        newmask = 0
        for mask, rhs in rows:
            hit = mask & pivmask
            while hit:
                pmask, prhs = pivots[(hit & -hit).bit_length() - 1]
                mask ^= pmask
                rhs ^= prhs
                hit = mask & pivmask
            hit = mask & newmask
            while hit:
                pmask, prhs = new[(hit & -hit).bit_length() - 1]
                mask ^= pmask
                rhs ^= prhs
                hit = mask & newmask
            if mask == 0:
                if rhs:
                    return None
                continue
            low = mask & -mask
            new[low.bit_length() - 1] = (mask, rhs)
            newmask |= low
        return new, newmask

    def extend(self, rows: Iterable[tuple[int, int]]) -> bool:
        """Add (mask, rhs) rows in place; False, with the form unchanged, if
        some row reduces to 0 = 1."""
        reduced = self._reduce(rows)
        if reduced is None:
            return False
        self.pivots.update(reduced[0])
        self.pivmask |= reduced[1]
        return True

    def consistent(self, rows: Iterable[tuple[int, int]]) -> bool:
        """Whether extend(rows) would succeed; the form is not changed."""
        return self._reduce(rows) is not None

    def copy(self) -> Echelon:
        """A form of the same rows that grows apart from this one."""
        twin = Echelon()
        twin.pivots, twin.pivmask = dict(self.pivots), self.pivmask  # rows are tuples
        return twin

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
    form = Echelon()
    return form.solution() if form.extend(rows) else None


def rank(masks: list[int]) -> int:
    """GF(2) rank of a list of bit-mask rows."""
    form = Echelon()
    form.extend((mask, 0) for mask in masks)
    return len(form.pivots)
