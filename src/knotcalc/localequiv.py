"""The standard representative of a knot-like complex, and the total order.

Every knot-like complex is locally equivalent to a unique standard complex;
its parameters are extracted greedily.  With a prefix (a_1 .. a_k) fixed,
the next parameter is the largest b in the unusual order for which a short
local map from C(a_1 .. a_k, b) exists.  Candidates are bounded by the
torsion orders of the complex, so each position scans

    b = 1, 2, ..., M, then (at even k) the stop test, then -M, ..., -1,

which is descending in the unusual order.  The stop test asks for a full
local map from C(a_1 .. a_k), which is exactly the condition that the
remaining parameters are all zero; it also absorbs the degenerate case
where every sufficiently negative candidate admits a short map with the
final generator sent to zero.  The candidates' linear systems share the
prefix's rows, which localmaps.PrefixSystem keeps in echelon form across
candidates and positions; every accepted candidate's map is still checked
against the definition.  The computed representative is certified at the
end by local maps in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .algebra import Complex, reduce
from .errors import LengthCapExceededError, VerificationFailedError
from .localmaps import LocalMapWitness, Prepared, PrefixSystem, map_between, prepare_target
from .standard import EQ, GT, LT, Params, build_standard, lex_cmp


class PositionTrace(NamedTuple):
    position: int
    candidates: tuple[tuple[int, bool], ...]
    accepted: Optional[int]


@dataclass(frozen=True)
class RepResult:
    """Standard representative parameters plus the certifying local maps.

    prepared is the reduced, normalized input the maps were solved against.
    """

    params: Params
    witnesses: tuple[LocalMapWitness, LocalMapWitness]
    trace: tuple[PositionTrace, ...]
    prepared: Prepared = field(repr=False, compare=False)


def standard_rep(c: Complex) -> RepResult:
    """Compute the standard complex representative of the local class of *c*.

    The input may be non-reduced or carry unnormalized gradings; it is
    reduced and normalized internally.  Raises NotKnotLikeError when the
    tower conditions fail, and LengthCapExceededError or
    VerificationFailedError only on internal invariant violations.
    """
    c = reduce(c)
    tgt = prepare_target(c)
    m_u = max(tgt.etas_u, default=0)
    m_v = max(tgt.etas_v, default=0)
    cap = 4 * len(c.gens) + 4

    system = PrefixSystem.empty(tgt)
    trace: list[PositionTrace] = []
    while True:
        k = len(system.params)
        position = k + 1
        bound = m_u if position % 2 == 1 else m_v
        tested: list[tuple[int, bool]] = []
        found: Optional[int] = None
        for b in (*range(1, bound + 1), *((0,) if k % 2 == 0 else ()), *range(-bound, 0)):
            grown = system.then(b) if b else system
            ok = (grown.short_map() if b else grown.full_map()) is not None
            tested.append((b, ok))
            if ok:
                found = b
                break

        trace.append(PositionTrace(position, tuple(tested), found or None))
        if found == 0:  # the stop test passed
            break
        if found is None:
            # the next parameter must lie in the torsion window (zero was
            # already ruled out at even prefixes by the stop test)
            raise VerificationFailedError(
                f"no candidate accepted at position {position} of {list(system.params)}"
            )
        system = grown
        if len(system.params) > cap:
            raise LengthCapExceededError(
                f"representative exceeded length cap {cap}"
            )

    rep = system.params
    s = prepare_target(build_standard(rep))
    forward = map_between(s, tgt)
    backward = map_between(tgt, s)
    if forward is None or backward is None:
        raise VerificationFailedError(f"representative {rep} failed certification")
    return RepResult(params=rep, witnesses=(forward, backward), trace=tuple(trace), prepared=tgt)


def compare(c1: Complex, c2: Complex, cross_check: bool = False) -> int:
    """Total-order comparison of local classes: -1, 0, or 1.

    With cross_check=True the lexicographic answer is confirmed by direct
    two-sided local-map tests between the inputs.
    """
    r1 = standard_rep(c1)
    r2 = standard_rep(c2)
    result = lex_cmp(r1.params, r2.params)
    if cross_check:
        fwd = map_between(r1.prepared, r2.prepared) is not None
        bwd = map_between(r2.prepared, r1.prepared) is not None
        direct = {(True, True): EQ, (True, False): LT, (False, True): GT}.get((fwd, bwd))
        if direct != result:
            raise VerificationFailedError(
                f"lexicographic order {result} disagrees with direct maps {(fwd, bwd)}"
            )
    return result
