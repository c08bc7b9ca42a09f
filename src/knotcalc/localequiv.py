"""The standard representative of a knot-like complex, and the total order.

Every knot-like complex is locally equivalent to a unique standard complex;
its parameters are extracted greedily.  With a prefix (a_1 .. a_k) fixed,
the next parameter is the largest b in the unusual order

    -1 < -2 < ... < -M < 0 < M < ... < 2 < 1

for which a short local map from C(a_1 .. a_k, b) exists, where M is a
torsion order of the complex.  The candidates that admit one are taken to
form a down-set in that order (the tests check this against one-shot
solves).  Listed from greatest to least, 1 .. M, then (at even k) 0 for the
stop test, then -M .. -1, they first fail and then pass, so one bisection
finds the first that passes: at most ceil(log2(2M + 2)) probes per
position.  The stop test asks for a full local map from C(a_1 .. a_k),
which is exactly the condition that the remaining parameters are all zero;
it also absorbs the degenerate case where every sufficiently negative
candidate admits a short map with the final generator sent to zero.  The
candidates' linear systems share the prefix's rows, which
localmaps.PrefixSystem keeps in one echelon form that grows in place with
the prefix, and each candidate is decided by the consistency of its own
rows with that form.  The computed representative is certified at the end
by local maps in both directions, each checked against the definition: the
map from its standard complex is read off the echelon form with the stop
test's rows added (PrefixSystem.full_map), and the map back is solved for.
Since a local class holds exactly one standard complex, that certification
fails whenever any answer on the way was wrong, or the down-set assumption
failed, so no candidate needs a certificate of its own.

A torsion order over MAX_PARAMETER is refused before the search.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Optional, Union

from .algebra import MAX_PARAMETER, Complex, reduce
from .errors import LengthCapExceededError, ParameterTooLargeError, VerificationFailedError
from .localmaps import LocalMapWitness, Prepared, PrefixSystem, map_between
from .localmaps import prepare_standard, prepare_target
from .standard import Params, lex_cmp


class PositionTrace(NamedTuple):
    position: int
    candidates: tuple[tuple[int, bool], ...]
    accepted: Optional[int]


class RepResult(NamedTuple):
    """Standard representative parameters plus the certifying local maps."""

    params: Params
    witnesses: tuple[LocalMapWitness, LocalMapWitness]
    trace: tuple[PositionTrace, ...]


def standard_rep(c: Union[Complex, Prepared]) -> RepResult:
    """Compute the standard complex representative of the local class of *c*.

    A Complex may be non-reduced or carry unnormalized gradings; it is
    reduced and prepared with prepare_target, which sweeps its homology.  A
    Prepared is taken as already reduced and normalized: a fold step passes
    localmaps.prepare_standard's, read off its two factors' parameters.  The
    representative is certified against prepare_standard(rep).  Raises
    NotKnotLikeError when the tower conditions fail, ParameterTooLargeError
    before the search when a torsion order exceeds MAX_PARAMETER, and
    LengthCapExceededError or VerificationFailedError only on internal
    invariant violations.
    """
    tgt = c if isinstance(c, Prepared) else prepare_target(reduce(c))
    m_u, m_v = tgt.m_u, tgt.m_v
    if max(m_u, m_v) > MAX_PARAMETER:
        raise ParameterTooLargeError(
            f"complex has a torsion order {max(m_u, m_v)}, over the limit of {MAX_PARAMETER}"
        )
    cap = 4 * len(tgt.c.gens) + 4

    system = PrefixSystem(tgt)
    trace: list[PositionTrace] = []
    while True:
        position = len(system.params) + 1
        found, tested = _next_parameter(system, m_u if position % 2 == 1 else m_v)
        trace.append(PositionTrace(position, tested, found or None))
        if found == 0:  # the stop test passed
            break
        if found is None:
            # the next parameter must lie in the torsion window (zero was
            # already ruled out at even prefixes by the stop test)
            raise VerificationFailedError(
                f"no candidate accepted at position {position} of {list(system.params)}"
            )
        system.push(found)
        if len(system.params) > cap:
            raise LengthCapExceededError(
                f"representative exceeded length cap {cap}"
            )

    rep = tuple(system.params)
    s = prepare_standard(rep)
    forward = system.full_map(s)
    backward = map_between(tgt, s)
    if backward is None:
        raise VerificationFailedError(f"representative {rep} failed certification")
    return RepResult(params=rep, witnesses=(forward, backward), trace=tuple(trace))


def _next_parameter(
    system: PrefixSystem, bound: int
) -> tuple[Optional[int], tuple[tuple[int, bool], ...]]:
    """The greatest candidate after system's prefix that passes (0 for the
    stop test, None if none does), and every (candidate, passed) probe in
    the order tested.  Listed from greatest to least, the candidates fail
    and then pass, so one bisection finds the first that passes.

    Candidate i of that list, 1 .. bound, then 0 after a prefix of even
    length, then -bound .. -1, is computed only when the bisection probes it.
    """
    stop = len(system.params) % 2 == 0
    n = 2 * bound + stop

    def candidate(i: int) -> int:
        return i + 1 if i < bound else 0 if stop and i == bound else i - n

    tested: list[tuple[int, bool]] = []

    def passes(i: int) -> bool:
        b = candidate(i)
        ok = system.passes(b)
        tested.append((b, ok))
        return ok

    i = bisect_left(range(n), True, key=passes)
    return (candidate(i) if i < n else None), tuple(tested)


def compare(c1: Complex, c2: Complex) -> int:
    """Total-order comparison of local classes: -1, 0, or 1, the
    lexicographic order of their standard representatives."""
    return lex_cmp(standard_rep(c1).params, standard_rep(c2).params)
