"""Local-map witnesses, built and checked against the definition.

A local map f: S -> C is a grading-compatible R-equivariant chain map that
carries the generator of the nontorsion tower of H(S/U) to a generator of
the tower of H(C/U).  A witness of one lists the image of every source
generator, with the V-grading shift tgt.q - src.q that aligns the two
tower tops.  build_witness writes one down from the image of each source,
check_witness tests it against the definition, and certified_witness does
both and raises when the check fails; every certificate knotcalc returns
comes from certified_witness.  This module imports no solver and no
homology sweep: the tower condition reads the tower data carried by the
Prepared values, which localmaps computes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .algebra import Complex, Monomial, mono_mul, xor_term
from .errors import VerificationFailedError

# The image of one source as (monomial, target index) terms.
Image = Sequence[tuple[Monomial, int]]
# The source where a short map keeps only the arrows of one kind, as
# (generator index, kind), or None for a local map.
Relaxed = Optional[tuple[int, str]]


class LocalMapWitness(NamedTuple):
    """A concrete map assignment certifying S <= C.

    assignment maps each source generator name to its image, a sum of
    (monomial, target generator name) terms.  Every term satisfies
    gr(m) + gr(target) = gr(source) + (0, v_shift).
    """

    assignment: tuple[tuple[str, tuple[tuple[Monomial, str], ...]], ...]
    v_shift: int


class Prepared(NamedTuple):
    """A normalized knot-like complex with its tower data.

    The same value serves as the source or the target of a local map.
    tower is the mod-U tower element and tower_dual its coordinate on each
    generator, both as generator index -> V-exponent (see
    TowerReport.tower_dual).
    """

    c: Complex
    q: int  # gr_V of the mod-U tower top
    m_u: int  # the largest U-arrow torsion order (mod V), or 0
    m_v: int  # the largest V-arrow torsion order (mod U), or 0
    tower: dict[int, int]
    tower_dual: dict[int, int]


def touching(dom: Complex, support: set[int]) -> set[int]:
    """The sources in *support* or with an arrow into it: the only sources
    where the chain condition d f(s) = f(d s) of a map that is 0 outside
    *support* has a term."""
    return support.union(s for s, row in dom.diff.items() if not support.isdisjoint(row))


def build_witness(src: Prepared, tgt: Prepared, images: Sequence[Image]) -> LocalMapWitness:
    """The witness of the map src -> tgt that sends source s to the sum of
    m * t over images[s], every source listed, with v_shift = tgt.q - src.q."""
    tgt_gens = tgt.c.gens
    return LocalMapWitness(  # list comprehensions: cheaper than generators here
        assignment=tuple([
            (g.name, tuple([(m, tgt_gens[t].name) for m, t in image]) if image else ())
            for g, image in zip(src.c.gens, images)
        ]),
        v_shift=tgt.q - src.q,
    )


def certified_witness(
    src: Prepared, tgt: Prepared, images: Sequence[Image], name: str, relaxed: Relaxed = None
) -> LocalMapWitness:
    """build_witness(src, tgt, images), checked by check_witness; raises
    VerificationFailedError, naming the map, if the check fails."""
    witness = build_witness(src, tgt, images)
    if not check_witness(src, tgt, witness, relaxed):
        raise VerificationFailedError(f"the {name} map failed its check")
    return witness


def check_witness(
    src: Prepared, tgt: Prepared, witness: LocalMapWitness, relaxed: Relaxed = None
) -> bool:
    """Check a witness of a map src -> tgt directly against the definition.

    At the source named by *relaxed* only the arrows of its kind count, on
    both sides of the chain condition.  A witness that lists a source twice,
    or one target twice in an image, is refused, as over F2 its meaning is
    ambiguous.  Each term's grading gr(m) + gr(target) = gr(source) +
    (0, v_shift) is checked on plain ints.  The chain condition
    d f(s) = f(d s) is tested only at the sources touching the support of f,
    where both sides are accumulated term by term and compared as monomials;
    elsewhere both sides are 0.
    """
    dom, tc, assignment = src.c, tgt.c, witness.assignment
    f: dict[int, dict[int, Monomial]] = {}  # the sources with a nonzero image
    for src_name, terms in assignment:
        s = dom.index(src_name)
        if not terms:
            continue
        su, sv = dom.gens[s].grading
        sv += witness.v_shift
        f[s] = image = {}
        for m, tgt_name in terms:
            t = tc.index(tgt_name)
            tu, tv = tc.gens[t].grading
            kind, exponent = m
            if kind == "U":
                tu -= 2 * exponent
            elif kind == "V":
                tv -= 2 * exponent
            if tu != su or tv != sv:
                return False
            image[t] = m
        if len(image) != len(terms):  # a target repeated
            return False
    if len(dict(assignment)) != len(assignment):  # a source listed twice
        return False

    tdiff, ddiff = tc.diff, dom.diff
    for s in touching(dom, set(f)):
        kind = relaxed[1] if relaxed and relaxed[0] == s else None
        lhs: dict[int, Monomial] = {}  # d f(s)
        for t, m in f.get(s, {}).items():
            for u, d in tdiff.get(t, {}).items():
                if not kind or d.kind == kind:
                    p = mono_mul(m, d)
                    if p is not None:
                        xor_term(lhs, u, p)
        rhs: dict[int, Monomial] = {}  # f(d s)
        for sp, e in ddiff.get(s, {}).items():
            if not kind or e.kind == kind:
                for t, m in f.get(sp, {}).items():
                    p = mono_mul(e, m)
                    if p is not None:
                        xor_term(rhs, t, p)
        if lhs != rhs:
            return False

    # tower condition: the mod-U reduction of f(tower) must have unit
    # coefficient on the tower basis element of the target
    image_mod_u: dict[int, int] = {}
    for g, k in src.tower.items():
        for t, m in f.get(g, {}).items():
            if m.kind == "U":
                continue
            exp = k + m.exponent if m.kind == "V" else k
            if t in image_mod_u and image_mod_u[t] == exp:
                del image_mod_u[t]
            elif t in image_mod_u:
                return False
            else:
                image_mod_u[t] = exp
    coeff: dict[int, int] = {}
    for t, vexp in image_mod_u.items():
        if t in tgt.tower_dual:
            total = vexp + tgt.tower_dual[t]
            coeff[total] = coeff.get(total, 0) ^ 1
    coeff = {e: v for e, v in coeff.items() if v}
    return coeff == {0: 1}
