import random

from hypothesis import given, strategies as st

from knotcalc.gf2 import Echelon, rank, solve_affine


def test_single_equation():
    assert solve_affine([(0b1, 1)], 1) == 0b1
    assert solve_affine([(0b1, 0)], 1) == 0
    assert solve_affine([(0b0, 1)], 1) is None


def test_inconsistent_pair():
    assert solve_affine([(0b11, 0), (0b11, 1)], 2) is None


def test_free_variables_default_to_zero():
    # x0 + x1 = 1 has the deterministic solution x0 = 1, x1 = 0
    assert solve_affine([(0b11, 1)], 2) == 0b01


@given(st.integers(0, 2**12 - 1))
def test_rank_of_single_row(mask):
    assert rank([mask]) == (1 if mask else 0)


@given(st.lists(st.integers(0, 2**10 - 1), max_size=12), st.integers(0, 2**31))
def test_random_consistent_systems_are_solved(masks, seed):
    rng = random.Random(seed)
    planted = rng.getrandbits(10)
    rows = [(m, bin(m & planted).count("1") % 2) for m in masks]
    got = solve_affine(rows, 10)
    assert got is not None
    for m, r in rows:
        assert bin(m & got).count("1") % 2 == r


def test_rank_basic():
    assert rank([0b01, 0b10, 0b11]) == 2
    assert rank([]) == 0


# --- the indexed elimination against the insertion-order loop ------------------


def _solve_by_scan(rows, nvars):
    """Reduce each row against every stored pivot in insertion order."""
    pivots = {}
    for mask, rhs in rows:
        for pos, (pmask, prhs) in pivots.items():
            if (mask >> pos) & 1:
                mask ^= pmask
                rhs ^= prhs
        if mask == 0:
            if rhs:
                return None
            continue
        pivots[(mask & -mask).bit_length() - 1] = (mask, rhs)
    solution = 0
    for pos in sorted(pivots, reverse=True):
        mask, rhs = pivots[pos]
        acc = rhs
        rest = mask & ~(1 << pos)
        while rest:
            low = rest & -rest
            if solution & low:
                acc ^= 1
            rest ^= low
        if acc:
            solution |= 1 << pos
    return solution


def _rank_by_scan(masks):
    pivots = {}
    for mask in masks:
        for pos, pmask in pivots.items():
            if (mask >> pos) & 1:
                mask ^= pmask
        if mask:
            pivots[(mask & -mask).bit_length() - 1] = mask
    return len(pivots)


_WIDE = 80  # wider than a machine word
_masks = st.lists(st.integers(0, 2**_WIDE - 1) | st.integers(0, 2**8 - 1), max_size=16)


@given(st.lists(st.tuples(st.integers(0, 2**_WIDE - 1) | st.integers(0, 2**8 - 1),
                          st.integers(0, 1)), max_size=16))
def test_solve_matches_scan_on_arbitrary_systems(rows):
    # random right-hand sides: most systems with many rows are inconsistent
    assert solve_affine(rows, _WIDE) == _solve_by_scan(rows, _WIDE)


@given(_masks, st.integers(0, 2**_WIDE - 1), st.lists(st.integers(0, 15), max_size=2))
def test_solve_matches_scan_on_planted_systems(masks, planted, flips):
    # consistent by construction, then possibly broken at a few rows
    rows = [(m, (m & planted).bit_count() % 2 ^ (i in flips)) for i, m in enumerate(masks)]
    assert solve_affine(rows, _WIDE) == _solve_by_scan(rows, _WIDE)


@given(_masks)
def test_rank_matches_scan(masks):
    assert rank(masks) == _rank_by_scan(masks)


# --- the form grown in place: extend is atomic, consistent changes nothing -----


def _planted(masks, planted, flips=()):
    return [(m, (m & planted).bit_count() % 2 ^ (i in flips)) for i, m in enumerate(masks)]


@given(_masks, _masks, st.integers(0, 2**_WIDE - 1), st.lists(st.integers(0, 15), max_size=2))
def test_extend_is_atomic_and_consistent_changes_nothing(base, more, planted, flips):
    # a consistent form, then rows that break it at the flipped rows or not
    form, fresh = Echelon(), Echelon()
    assert form.extend(_planted(base, planted)) and fresh.extend(_planted(base, planted))
    before = (dict(form.pivots), form.pivmask)
    rows = _planted(more, planted, flips)
    ok = form.consistent(rows)
    assert (form.pivots, form.pivmask) == before
    assert fresh.extend(rows) == ok
    if not ok:
        assert (fresh.pivots, fresh.pivmask) == before
    assert form.extend(rows) == ok
    assert (form.pivots, form.pivmask) == (fresh.pivots, fresh.pivmask)
    if not ok:
        assert flips and solve_affine(_planted(base, planted) + rows, _WIDE) is None
        return
    got = form.solution()
    assert all((m & got).bit_count() % 2 == r for m, r in _planted(base, planted) + rows)


@given(st.lists(st.lists(st.tuples(st.integers(0, 2**_WIDE - 1) | st.integers(0, 2**8 - 1),
                                   st.integers(0, 1)), max_size=6), max_size=4))
def test_extend_in_batches_matches_one_solve(batches):
    # each batch is added only if consistent with the form so far
    form, kept = Echelon(), []
    for rows in batches:
        assert form.consistent(rows) == (solve_affine(kept + rows, _WIDE) is not None)
        if form.extend(rows):
            kept += rows
    assert form.solution() == solve_affine(kept, _WIDE)
