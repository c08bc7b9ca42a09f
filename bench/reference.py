"""Reference answers computed without knotcalc.

Every expected answer the benchmark checks comes from this module, which
imports nothing from the package under test:

* Alexander polynomials of torus knots from the semigroup <p, q>, and of
  cables from Delta_K(t^p) * Delta_T(p,q)(t);
* staircase gaps of those polynomials, whose counts give phi of each
  recipe factor, and half their degree, which gives tau;
* the signed sums of phi, tau and P over a recipe's factors (these
  invariants are homomorphisms, so the product's values are the sums);
* the order of two parameter tuples in the unusual total order
  -1 < -2 < ... < 0 < ... < 2 < 1, compared lexicographically after
  zero padding.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

Poly = dict[int, int]  # exponent -> integer coefficient, zeros dropped


def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def torus_poly(p: int, q: int) -> Poly:
    """Delta of T(p,q) as (1 - t) * sum_{s in S, s < c} t^s + t^c, c = (p-1)(q-1)."""
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError(f"T({p},{q}) is not a torus knot")
    c = (p - 1) * (q - 1)
    semigroup = {i * p + j * q for i in range(q) for j in range(p)}
    out: Poly = {c: 1}
    for s in range(c):
        if s in semigroup:
            out[s] = out.get(s, 0) + 1
            out[s + 1] = out.get(s + 1, 0) - 1
    return {e: v for e, v in out.items() if v}


def cable_poly(inner: Poly, p: int, q: int) -> Poly:
    return _mul({p * e: c for e, c in inner.items()}, torus_poly(p, q))


def staircase_gaps(delta: Poly) -> tuple[int, ...]:
    """Gaps c_i = b_{2i-2} - b_{2i-1} of the exponents b_0 > b_1 > ... of Delta."""
    b = sorted(delta, reverse=True)
    signs = [delta[e] for e in b]
    if signs != [(-1) ** i for i in range(len(b))] or b[-1] != 0:
        raise ValueError("polynomial is not a staircase")
    return tuple(b[2 * i] - b[2 * i + 1] for i in range(len(b) // 2))


_ATOM = re.compile(r"\s*(T|Cable|D)\b")


def atom_poly(text: str) -> tuple[Poly, str]:
    """Parse one atom (T(p,q), D or Cable(atom;p,q)) from the front of *text*.

    Returns its Alexander polynomial and the unparsed rest.
    """
    m = _ATOM.match(text)
    if not m:
        raise ValueError(f"unknown atom at {text!r}")
    head, rest = m.group(1), text[m.end():]
    if head == "D":
        return torus_poly(2, 3), rest
    if head == "T":
        m2 = re.match(r"\((\d+),(\d+)\)", rest)
        return torus_poly(int(m2.group(1)), int(m2.group(2))), rest[m2.end():]
    inner, rest = atom_poly(rest[1:])
    m2 = re.match(r";(\d+),(\d+)\)", rest)
    return cable_poly(inner, int(m2.group(1)), int(m2.group(2))), rest[m2.end():]


def recipe_factors(recipe: str) -> list[tuple[int, Poly]]:
    """(sign, Delta) for every tensor factor of a recipe "A + 2*B - C"."""
    out: list[tuple[int, Poly]] = []
    text = recipe.replace(" ", "")
    sign = 1
    while text:
        m = re.match(r"(\d+)\*", text)
        mult = 1
        if m:
            mult, text = int(m.group(1)), text[m.end():]
        delta, text = atom_poly(text)
        out.extend([(sign, delta)] * mult)
        if text:
            sign, text = (1 if text[0] == "+" else -1), text[1:]
    return out


def predicted_size(recipe: str) -> int:
    """Generators of the recipe's tensor product: the product of the factor sizes."""
    n = 1
    for _, delta in recipe_factors(recipe):
        n *= len(delta)
    return n


def expected_invariants(recipe: str) -> dict:
    """phi, tau and P of a recipe, as signed sums over its factors."""
    phi: dict[int, int] = {}
    tau = 0
    for sign, delta in recipe_factors(recipe):
        for gap in staircase_gaps(delta):
            phi[gap] = phi.get(gap, 0) + sign
        tau += sign * (max(delta) // 2)
    phi = {j: v for j, v in sorted(phi.items()) if v}
    return {"phi": {str(j): v for j, v in phi.items()}, "tau": tau, "P": -2 * tau}


def phi_of_rep(rep) -> dict[str, int]:
    """Signed counts of U-arrow lengths (odd positions) of a parameter tuple."""
    out: dict[int, int] = {}
    for a in rep[0::2]:
        out[abs(a)] = out.get(abs(a), 0) + (1 if a > 0 else -1)
    return {str(j): v for j, v in sorted(out.items()) if v}


def order(p, q) -> str:
    """"<", "~" or ">" for tuples p, q in the lexicographic unusual order."""
    def key(a: int) -> Fraction:
        return Fraction(1, a) if a else Fraction(0)

    for i in range(max(len(p), len(q))):
        a = key(p[i]) if i < len(p) else Fraction(0)
        b = key(q[i]) if i < len(q) else Fraction(0)
        if a != b:
            return "<" if a < b else ">"
    return "~"


def check(want: dict, code: int, out: str) -> str | None:
    """None when a CLI answer (exit status, standard output) matches the
    expectation *want* of its job, else what is wrong."""
    if code != 0:
        return f"exit status {code}"
    if want["kind"] == "inv":
        got = json.loads(out)
        for key in ("phi", "tau", "P"):
            if got[key] != want[key]:
                return f"{key} = {got[key]}, want {want[key]}"
        if phi_of_rep(got["rep"]) != got["phi"]:
            return f"phi {got['phi']} does not match rep {got['rep']}"
        if "rep" in want and got["rep"] != want["rep"]:
            return f"rep = {got['rep']}, want {want['rep']}"
    elif want["kind"] == "rep":
        text = out.strip()
        got = [int(a) for a in text.split(",")] if text else []
        if got != want["rep"]:
            return f"rep = {got}, want {want['rep']}"
    elif out.strip() != want["order"]:
        return f"cmp = {out.strip()!r}, want {want['order']!r}"
    return None
