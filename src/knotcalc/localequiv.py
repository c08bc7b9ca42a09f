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
candidates and positions, and each candidate is decided by the consistency
of its system alone.  The computed representative is certified at the end
by local maps in both directions, each checked against the definition: the
map from its standard complex is read off the echelon form that the
passing stop test holds (PrefixSystem.full_map), and the map back is solved
for.  Since a local class holds exactly one standard complex, that
certification fails whenever any answer on the way was wrong, so no
candidate needs a certificate of its own.

A torsion order over MAX_PARAMETER is refused before the search, since the
number of candidates grows with it.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Optional

from .algebra import Complex, reduce
from .errors import LengthCapExceededError, ParameterTooLargeError, VerificationFailedError
from .localmaps import LocalMapWitness, PrefixSystem, map_between, prepare_target
from .standard import Params, build_standard, lex_cmp


# The largest torsion order standard_rep accepts, and so the largest
# |parameter| it can return.  Each position scans up to 2 * MAX_PARAMETER + 1
# candidates, a cost set by the size of the parameters rather than of the
# complex, so a large one is refused before the search starts.
MAX_PARAMETER = 1024


class PositionTrace(NamedTuple):
    position: int
    candidates: tuple[tuple[int, bool], ...]
    accepted: Optional[int]


class RepResult(NamedTuple):
    """Standard representative parameters plus the certifying local maps."""

    params: Params
    witnesses: tuple[LocalMapWitness, LocalMapWitness]
    trace: tuple[PositionTrace, ...]


def standard_rep(c: Complex) -> RepResult:
    """Compute the standard complex representative of the local class of *c*.

    The input may be non-reduced or carry unnormalized gradings; it is
    reduced and normalized internally.  Raises NotKnotLikeError when the
    tower conditions fail, ParameterTooLargeError before the search when a
    torsion order exceeds MAX_PARAMETER, and LengthCapExceededError or
    VerificationFailedError only on internal invariant violations.
    """
    c = reduce(c)
    tgt = prepare_target(c)
    m_u = max(tgt.etas_u, default=0)
    m_v = max(tgt.etas_v, default=0)
    if max(m_u, m_v) > MAX_PARAMETER:
        raise ParameterTooLargeError(
            f"complex has a torsion order {max(m_u, m_v)}, over the limit of {MAX_PARAMETER}"
        )
    cap = 4 * len(c.gens) + 4

    system = PrefixSystem.empty(tgt)
    trace: list[PositionTrace] = []
    while True:
        k = len(system.params)
        position = k + 1
        bound = m_u if position % 2 == 1 else m_v
        tested: list[tuple[int, bool]] = []
        found: Optional[int] = None
        for b in chain(range(1, bound + 1), (0,) if k % 2 == 0 else (), range(-bound, 0)):
            grown = system.then(b) if b else system
            ok = grown.has_short_map() if b else grown.has_full_map()
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
    forward = system.full_map(s)
    backward = map_between(tgt, s)
    if backward is None:
        raise VerificationFailedError(f"representative {rep} failed certification")
    return RepResult(params=rep, witnesses=(forward, backward), trace=tuple(trace))


def compare(c1: Complex, c2: Complex) -> int:
    """Total-order comparison of local classes: -1, 0, or 1, the
    lexicographic order of their standard representatives."""
    return lex_cmp(standard_rep(c1).params, standard_rep(c2).params)
