"""Linear algebra over GF(2) with bit-packed rows.

Rows are Python integers used as bit masks, so a row operation is a single
XOR regardless of width.  This is all the linear algebra the local-map
solver needs: solve one affine system A x = b and report any solution.
"""

from __future__ import annotations


def _echelon(rows: list[tuple[int, int]]) -> dict[int, tuple[int, int]] | None:
    """Pivot rows by pivot position (each row's lowest set bit), or None if
    some row reduces to 0 = 1.

    A row is reduced only at the pivot positions it hits, lowest first; a
    pivot row has no bits below its pivot, so no lower position is hit again.
    """
    pivots: dict[int, tuple[int, int]] = {}
    pivmask = 0
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
    return pivots


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
    pivots = _echelon(rows)
    if pivots is None:
        return None
    # Back-substitute from the highest pivot down; a pivot row's other bits
    # all lie above its pivot, where the solution is already fixed.
    solution = 0
    for pos in sorted(pivots, reverse=True):
        mask, rhs = pivots[pos]
        if rhs ^ ((mask & solution).bit_count() & 1):
            solution |= 1 << pos
    return solution


def rank(masks: list[int]) -> int:
    """GF(2) rank of a list of bit-mask rows."""
    return len(_echelon([(mask, 0) for mask in masks]))
