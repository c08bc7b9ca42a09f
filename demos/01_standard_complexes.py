#!/usr/bin/env python3
"""Tour of standard complexes and their parameter-level invariants.

A standard complex C(a_1, ..., a_n) is a zigzag of generators joined by
U-arrows (odd positions) and V-arrows (even positions); the sign of each
parameter gives the arrow direction.  These are the canonical
representatives of knot Floer-type complexes up to local equivalence, and
all the concordance invariants can be read straight off the parameters.
"""

from knotcalc import (
    N_of,
    P_of,
    build_standard,
    gc_lower,
    is_symmetric,
    phi,
    prepare_target,
    shift,
    simplify,
    tau_of,
    uc_lower,
)

# The complex of the (3,4) torus knot is the staircase C(1,-2,2,-1).
params = (1, -2, 2, -1)
c = build_standard(params)

print("generators and bigradings of C(1,-2,2,-1):")
for g in c.gens:
    print(f"  {g.name}  gr = ({g.grading.gru}, {g.grading.grv})")

print("\narrows (source --monomial--> target):")
for s, t, m in c.edges():
    print(f"  {c.gens[s].name} --{m}--> {c.gens[t].name}")

# phi_j counts U-arrows of length j with sign; it is a concordance
# homomorphism for each j.
print("\ninvariants of the parameter sequence:")
print("  phi       =", phi(params))
print("  tau       =", tau_of(params))
print("  P         =", P_of(params), " (the U-grading of the U-tower generator)")
print("  N         =", N_of(params))
print("  g_c bound =", gc_lower(params), " (concordance genus >= N/2)")
print("  u_c bound =", uc_lower(params), " (concordance unknotting number >= N)")
print("  symmetric =", is_symmetric(params), " (complexes of knots always are)")

# Setting U = 0 or V = 0 leaves a complex over a PID; simplifying it pairs
# the generators by arrow length and isolates the homology tower.
mod_v = simplify(c, "mod_v")
print("\nmod-V simplification (U-arrows):")
print("  tower generator index support:", dict(mod_v.tower_generator))
print("  arrow lengths eta:", mod_v.etas)
prepared = prepare_target(c)  # normalized, with its tower data
print("  torsion bounds (M_U, M_V):", (prepared.m_u, prepared.m_v))

# The shift endomorphism lengthens every arrow of length >= m by one; these
# shifts are how additivity of phi_j is proved.
print("\nshifts of (1,-3,3,-1):")
for m in (1, 2, 3, 4):
    print(f"  Sh_{m}:", shift((1, -3, 3, -1), m))
