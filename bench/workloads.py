"""Seeded job lists for the three benchmark workloads.

A job is one `knotcalc` command line plus the answer the checker expects.
`make_jobs(workload, seed)` returns one pass: the same seed always gives the
same jobs, byte for byte (see `dump`).  Each recipe's product size (the
product of its factor sizes) is predicted before the job is emitted, and a
job outside its workload's size band is refused, because the program itself
has no size guard yet.

The recipe menus are fixed, so every seed runs the same mix of job costs and
run-to-run medians stay comparable.  On the recipe workloads the seed picks
the spelling of each recipe, the `K - K` jobs and the order of the pass;
reordering the terms of a sum or mirroring a slice-family member was tried
and left out, because it changes a job's cost by up to 25%.
On `noisy-files` the seed picks every hidden tuple and every file.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import asdict, dataclass, field

import noisy
import reference

WORKLOADS = ("deep-staircase", "wide-product", "noisy-files")

# Generators of the product (or file), inclusive.
BANDS = {
    "deep-staircase": (80, 330),
    "wide-product": (300, 1300),
    "noisy-files": (500, 2000),
}

# The paper's slice family Cable(K;p,q) - T(p,q), K in {T(2,3), T(2,5)}, as
# (K, p, q).  A pass runs each member once, in this orientation; they took
# 0.2-1.5 s each on the seed commit.  Slower ones (Cable(D;6,7) - T(6,7)
# took 5 s) are left out, so that a pass takes about 7 s and a run holds
# four or more passes.
DEEP = (
    ("T(2,3)", 3, 8),
    ("T(2,3)", 4, 5), ("T(2,3)", 3, 10),
    ("T(2,5)", 4, 5), ("T(2,5)", 3, 7), ("T(2,3)", 3, 13),
    ("T(2,3)", 4, 7), ("T(2,3)", 4, 9), ("T(2,3)", 3, 11),
    ("T(2,3)", 4, 11), ("T(2,3)", 5, 6),
)
DEEP_SELF_CANCELLING = 2  # `K - K` jobs per pass; their answer must be rep ()

# Signed sums of 3-4 torus or cable factors with short representatives, as
# (sign, atom) terms; the first is positive because the recipe grammar has no
# leading minus.  The 1,225-generator 2*T(4,5) - T(3,4) - T(2,5) is left out
# because it alone takes 10 s.  A sum whose terms cancel in pairs must give
# rep ().
WIDE_MENU = (
    ((1, "T(3,4)"), (-1, "T(2,3)"), (-1, "T(2,7)"), (-1, "T(2,3)")),
    ((1, "T(4,5)"), (-1, "T(2,5)"), (1, "T(2,9)")),
    ((1, "Cable(D;2,5)"), (-1, "T(2,9)"), (-1, "T(2,7)")),
    ((1, "T(2,11)"), (-1, "T(2,7)"), (1, "T(2,5)")),
    ((1, "T(4,7)"), (-1, "Cable(D;2,5)"), (-1, "T(4,5)")),
    ((1, "T(3,7)"), (-1, "T(3,4)"), (1, "T(2,9)")),
    ((1, "T(3,7)"), (-1, "Cable(D;2,5)"), (-1, "T(3,7)")),
    ((1, "Cable(D;2,5)"), (1, "T(4,7)"), (-1, "T(3,7)")),
    ((1, "T(2,11)"), (-1, "T(2,7)"), (-1, "T(3,5)")),
    ((1, "T(3,5)"), (-1, "T(2,7)"), (1, "T(2,11)")),
    ((1, "T(2,5)"), (-1, "T(2,5)"), (-1, "T(3,4)"), (1, "T(3,4)")),
    ((1, "T(4,7)"), (1, "T(3,5)"), (-1, "T(4,7)")),
    ((1, "T(2,5)"), (-1, "T(2,9)"), (1, "T(2,11)")),
    ((1, "T(2,7)"), (-1, "T(2,5)"), (1, "T(3,4)"), (1, "T(2,7)")),
)

# File sizes on noisy-files: `rep` jobs spread over the band, and `cmp`
# jobs on pairs of files from its lower part, those at NOISY_CMP_TIES on two
# files of the same hidden tuple (a tie costs more than a strict order).
# Sizes are exact (made odd, within the band) and hidden tuples have fixed
# lengths and magnitudes, with random signs, so every seed's pass costs
# about the same.
NOISY_REP_SIZES = (500, 600, 700, 850, 1000, 1200, 1500, 2000)
NOISY_CMP_SIZES = ((500, 550), (520, 650), (600, 500), (650, 700), (700, 520), (800, 600))
NOISY_CMP_TIES = (0, 3)


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    expect: dict
    files: dict = field(default_factory=dict)  # relative path -> text


def dump(jobs: list[Job]) -> bytes:
    """Canonical bytes of a job list."""
    return json.dumps([asdict(j) for j in jobs], sort_keys=True).encode()


def _recipe(terms) -> str:
    """Render (sign, atom) terms; the grammar needs a positive first term."""
    text = terms[0][1]
    for sign, atom in terms[1:]:
        text += f" {'+' if sign > 0 else '-'} {atom}"
    return text


def _inv_job(workload: str, recipe: str, **extra) -> Job:
    lo, hi = BANDS[workload]
    size = reference.predicted_size(recipe)
    if not lo <= size <= hi:
        raise ValueError(f"{recipe!r} has {size} generators, outside {workload} band {lo}-{hi}")
    expect = {"kind": "inv", "size": size, **reference.expected_invariants(recipe), **extra}
    return Job(argv=("inv", "--expr", recipe, "--json"), expect=expect)


def _spell(rng: random.Random, recipe: str) -> str:
    """Write each torus knot of *recipe* as T(p,q) or T(q,p), and D as either
    spelling of T(2,3); this leaves every factor's complex unchanged."""
    def torus(m: re.Match) -> str:
        p, q = sorted((m.group(1), m.group(2)), key=lambda _: rng.random())
        return f"T({p},{q})"

    recipe = re.sub(r"\bD\b", "T(2,3)", recipe)
    recipe = re.sub(r"T\((\d+),(\d+)\)", torus, recipe)
    return recipe.replace("T(2,3)", "D") if rng.random() < 0.5 else recipe


def _deep_staircase(rng: random.Random) -> list[Job]:
    recipes = [f"Cable({k};{p},{q}) - T({p},{q})" for k, p, q in DEEP]
    lo, hi = BANDS["deep-staircase"]
    cables = [f"Cable({k};{p},{q})" for k, p, q in DEEP]
    small = [c for c in cables if lo <= reference.predicted_size(c) ** 2 <= hi]
    jobs = [_inv_job("deep-staircase", _spell(rng, r)) for r in recipes]
    for cable in rng.sample(small, DEEP_SELF_CANCELLING):
        jobs.append(_inv_job("deep-staircase", _spell(rng, f"{cable} - {cable}"), rep=[]))
    return jobs


def _wide_product(rng: random.Random) -> list[Job]:
    jobs = []
    for terms in WIDE_MENU:
        net: dict[str, int] = {}
        for sign, atom in terms:
            net[atom] = net.get(atom, 0) + sign
        extra = {"rep": []} if not any(net.values()) else {}
        jobs.append(_inv_job("wide-product", _spell(rng, _recipe(terms)), **extra))
    return jobs


def _noisy_files(rng: random.Random) -> list[Job]:
    lo, hi = BANDS["noisy-files"]

    def hidden(k: int) -> tuple[int, ...]:
        """A tuple of 2, 4 or 6 parameters, by k mod 3, of sizes 2, 1, 3, ...
        in turn and random signs."""
        return tuple(rng.choice((-1, 1)) * (2, 1, 3)[i % 3] for i in range(2 + 2 * (k % 3)))

    def noisy_file(params, size) -> str:
        size = min(hi - 1, max(lo + 1, size)) | 1
        text = noisy.noisy_complex(rng, params, size)
        gens = sum(1 for line in text.splitlines() if line.startswith("gen "))
        if not lo <= gens <= hi:
            raise ValueError(f"noisy file of {gens} generators, outside band {lo}-{hi}")
        return text

    jobs = []
    for k, size in enumerate(NOISY_REP_SIZES):
        a, name = hidden(k), f"rep{k}.cx"
        jobs.append(Job(("rep", name), {"kind": "rep", "rep": list(a)}, {name: noisy_file(a, size)}))
    # the same kind of tuple as a recipe: a cheap cross-check that also
    # keeps every traced layer busy on this workload
    a = hidden(len(jobs))
    recipe = f"Std({','.join(map(str, a))})"
    jobs.append(Job(("rep", "--expr", recipe), {"kind": "rep", "rep": list(a)}))
    for k, (size_a, size_b) in enumerate(NOISY_CMP_SIZES):
        a = hidden(k)
        b = a if k in NOISY_CMP_TIES else hidden(k + 1)
        name_a, name_b = f"cmp{k}a.cx", f"cmp{k}b.cx"
        files = {name_a: noisy_file(a, size_a), name_b: noisy_file(b, size_b)}
        expect = {"kind": "cmp", "order": reference.order(a, b)}
        jobs.append(Job(("cmp", name_a, name_b), expect, files))
    return jobs


def make_jobs(workload: str, seed: int) -> list[Job]:
    """One pass of *workload* for *seed*, in a seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    make = {
        "deep-staircase": _deep_staircase,
        "wide-product": _wide_product,
        "noisy-files": _noisy_files,
    }[workload]
    jobs = make(rng)
    rng.shuffle(jobs)
    return jobs
