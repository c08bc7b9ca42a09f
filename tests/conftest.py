"""Shared builders: box complexes, basis scrambling, direct sums, the
monomial of a grading, the image of an element under a map, a complex
checked rule by rule, apart from algebra.validate, and seeded bench/noisy.py
files; and a fixture that makes building an Alexander polynomial fail."""

from __future__ import annotations

import functools
import importlib.util
import random
from pathlib import Path
from typing import Optional

import pytest

from knotcalc import alexander
from knotcalc.algebra import (
    UNIT, Bigrading, Complex, Generator, Monomial, mono, mono_mul, validate, xor_term,
)
from knotcalc.errors import (
    DegreeViolationError, DSquaredNonzeroError, DuplicateGeneratorError, UnknownGeneratorError,
)


def mono_for_grading(g: Bigrading) -> Optional[Monomial]:
    """The unique monomial of grading *g*, or None if there is none."""
    if g.gru == 0 and g.grv == 0:
        return UNIT
    if g.grv == 0 and g.gru < 0 and g.gru % 2 == 0:
        return Monomial("U", -g.gru // 2)
    if g.gru == 0 and g.grv < 0 and g.grv % 2 == 0:
        return Monomial("V", -g.grv // 2)
    return None


def apply_map(
    f: dict[int, dict[int, Monomial]], elem: dict[int, Monomial], kind: Optional[str] = None
) -> dict[int, Monomial]:
    """Image of the element sum(coeff * x_s) under the R-linear map f, term
    by term: the reference for the d^2 check and the witness check.

    f maps a source index to {target index: Monomial}, like Complex.diff.
    With *kind* given, only arrows of f with that monomial kind are used.
    """
    out: dict[int, Monomial] = {}
    for s, coeff in elem.items():
        for t, m in f.get(s, {}).items():
            if kind and m.kind != kind:
                continue
            p = mono_mul(coeff, m)
            if p is not None:
                xor_term(out, t, p)
    return out


def check_complex(
    generators: list[tuple[str, tuple[int, int]]],
    differential: list[tuple[str, list[tuple[Monomial, str]]]],
) -> Complex:
    """The Complex of (name, grading) declarations and (source, terms) d
    lines, checked rule by rule: the reference for the parser and for
    algebra.validate.  Raises, in this order, the first duplicate name; the
    first unknown name, malformed monomial (ValueError) or degree
    violation, in row-then-term order; and d^2 != 0 at the least source,
    path by path.  Rows are XORed in d-line order; a row that is empty at
    the end of a line is dropped there, so a later line of its source puts
    it last."""
    gradings: dict[str, Bigrading] = {}
    for name, (gu, gv) in generators:
        if name in gradings:
            raise DuplicateGeneratorError(name)
        gradings[name] = Bigrading(gu, gv)
    index = {name: i for i, name in enumerate(gradings)}
    diff: dict[int, dict[int, Monomial]] = {}
    for source, terms in differential:
        if source not in index:
            raise UnknownGeneratorError(source)
        row = diff.setdefault(index[source], {})
        for m, target in terms:
            if target not in index:
                raise UnknownGeneratorError(target)
            m = mono(*m)  # U^0 and V^0 are the unit
            have, want = m.grading() + gradings[target], gradings[source] - (1, 1)
            if have != want:
                detail = f"gr({m}) + gr(tgt) = {have}, need {want}"
                raise DegreeViolationError(source, target, detail)
            xor_term(row, index[target], m)
        if not row:
            del diff[index[source]]
    gens = tuple(Generator(name, g) for name, g in gradings.items())
    c = Complex(gens, diff)
    for s, g in enumerate(gens):
        if apply_map(c.diff, apply_map(c.diff, {s: UNIT})):
            raise DSquaredNonzeroError(g.name)
    return c


def direct_sum(*cs: Complex) -> Complex:
    """Direct sum with generators renamed s{i}.{name}."""
    gens = []
    diff = []
    for i, c in enumerate(cs):
        for g in c.gens:
            gens.append((f"s{i}.{g.name}", tuple(g.grading)))
        for s, row in sorted(c.diff.items()):
            diff.append(
                (f"s{i}.{c.gens[s].name}",
                 [(m, f"s{i}.{c.gens[t].name}") for t, m in sorted(row.items())])
            )
    return validate(gens, diff)


def box(i: int, j: int, base=(0, 0), tag: str = "") -> Complex:
    """A locally trivial square: db = U^i a + V^j c, da = V^j d, dc = U^i d.

    Contributes only torsion to both quotient homologies.
    """
    du, dv = base
    a, b, c, d = (f"{tag}a", f"{tag}b", f"{tag}c", f"{tag}d")
    return validate(
        [
            (a, (du + 1, dv - 2 * j + 1)),
            (b, (du - 2 * i + 2, dv - 2 * j + 2)),
            (c, (du - 2 * i + 1, dv + 1)),
            (d, (du, dv)),
        ],
        [
            (b, [(Monomial("U", i), a), (Monomial("V", j), c)]),
            (a, [(Monomial("V", j), d)]),
            (c, [(Monomial("U", i), d)]),
        ],
    )


def basis_change(c: Complex, p: int, q: int, m: Monomial) -> Complex:
    """Replace generator p by p + m*q (requires gr(m) + gr(q) = gr(p))."""
    diff = {s: dict(row) for s, row in c.diff.items()}

    def xor(i, j, value):
        row = diff.setdefault(i, {})
        if j in row:
            assert row[j] == value
            del row[j]
        else:
            row[j] = value

    for j, e in list(diff.get(q, {}).items()):
        prod = mono_mul(m, e)
        if prod is not None:
            xor(p, j, prod)
    for i in list(diff):
        e = diff.get(i, {}).get(p)
        if e is not None:
            prod = mono_mul(e, m)
            if prod is not None:
                xor(i, q, prod)

    return validate(
        [(g.name, tuple(g.grading)) for g in c.gens],
        [(c.gens[s].name, [(mm, c.gens[t].name) for t, mm in sorted(row.items())])
         for s, row in sorted(diff.items()) if row],
    )


def scramble(c: Complex, rng: random.Random, steps: int = None) -> Complex:
    """Apply random grading-legal basis changes; the homotopy type is kept."""
    n = len(c.gens)
    if steps is None:
        steps = 2 * n
    for _ in range(steps):
        p = rng.randrange(n)
        q = rng.randrange(n)
        if p == q:
            continue
        m = mono_for_grading(c.gens[p].grading - c.gens[q].grading)
        if m is None:
            continue
        c = basis_change(c, p, q, m)
    return c


@pytest.fixture
def no_polynomial(monkeypatch):
    """Make building any torus or cable polynomial fail: the recipe path
    reads its T, D and Cable atoms off their semigroups, the trefoil's too."""
    def refuse(p, q, inner=None):
        raise AssertionError(f"polynomial of ({p}, {q}) was built")

    monkeypatch.setattr(alexander, "torus_delta", refuse)
    monkeypatch.setattr(alexander, "cable_delta", refuse)


NOISY = Path(__file__).parent.parent / "bench" / "noisy.py"
# (size, seed) of seeded bench/noisy.py files on which a broken sweep gives a
# wrong answer.  (121, 8) catches add_multiple adding to a new row or column
# of the pivot that it never stores; (121, 2) catches the sweep taking a
# stale heap entry as a pivot, and a new column never stored too.
NOISY_FILES = ((121, 2), (121, 8))


@functools.lru_cache(maxsize=None)
def noisy_files():
    """(hidden tuple, text) of each of NOISY_FILES: a file written by
    bench/noisy.py, whose standard representative is the hidden tuple of 2,
    4 or 6 parameters drawn from the same seeded generator."""
    spec = importlib.util.spec_from_file_location("noisy", NOISY)
    noisy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(noisy)
    out = []
    for size, seed in NOISY_FILES:
        rng = random.Random(seed)
        hidden = tuple(rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(rng.choice((2, 4, 6))))
        out.append((hidden, noisy.noisy_complex(rng, hidden, size)))
    return tuple(out)
