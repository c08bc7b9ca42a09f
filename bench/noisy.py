"""Noisy complex files whose standard representative is known in advance.

A file holds C(a) (the standard complex of a hidden tuple a) direct-summed
with locally trivial boxes and contractible unit-arrow pairs, then scrambled
by random grading-legal basis changes x_p <- x_p + m x_q.  Boxes carry
torsion but no tower, so they leave the local class alone; unit pairs are
cancelled by `reduce`; basis changes are isomorphisms.  The standard
representative of the file is therefore a, by construction, and nothing
here imports knotcalc.

Arrows are stored as {source: {target: (kind, exponent)}} with kind "1",
"U" or "V"; a homogeneous entry is a single monomial, and UV = 0.
"""

from __future__ import annotations

import random

Mono = tuple[str, int]


def _mul(a: Mono, b: Mono) -> Mono | None:
    if a[0] == "1":
        return b
    if b[0] == "1":
        return a
    if a[0] != b[0]:
        return None
    return (a[0], a[1] + b[1])


def _mono_between(hi: tuple[int, int], lo: tuple[int, int]) -> Mono | None:
    """The monomial m with gr(m) = lo - hi, if one exists."""
    du, dv = lo[0] - hi[0], lo[1] - hi[1]
    if du == 0 and dv == 0:
        return ("1", 0)
    if dv == 0 and du < 0 and du % 2 == 0:
        return ("U", -du // 2)
    if du == 0 and dv < 0 and dv % 2 == 0:
        return ("V", -dv // 2)
    return None


class _Complex:
    def __init__(self) -> None:
        self.gr: list[tuple[int, int]] = []
        self.d: dict[int, dict[int, Mono]] = {}

    def gen(self, gr: tuple[int, int]) -> int:
        self.gr.append(gr)
        return len(self.gr) - 1

    def arrow(self, s: int, t: int, m: Mono) -> None:
        self.d.setdefault(s, {})[t] = m

    def standard(self, params) -> None:
        """C(a): x_{i-1}, x_i joined by a U-arrow (i odd) or V-arrow (i even) of
        length |a_i|, pointing x_i -> x_{i-1} when a_i > 0."""
        prev = self.gen((0, 0))
        for i, a in enumerate(params, start=1):
            kind = "U" if i % 2 else "V"
            step = 2 * abs(a)
            u, v = self.gr[prev]
            # d(src) = m * tgt with gr(src) - (1, 1) = gr(m) + gr(tgt)
            if a > 0:
                shift = (1 - step, 1) if kind == "U" else (1, 1 - step)
                cur = self.gen((u + shift[0], v + shift[1]))
                self.arrow(cur, prev, (kind, abs(a)))
            else:
                shift = (step - 1, -1) if kind == "U" else (-1, step - 1)
                cur = self.gen((u + shift[0], v + shift[1]))
                self.arrow(prev, cur, (kind, abs(a)))
            prev = cur

    def box(self, top: tuple[int, int], i: int, j: int) -> None:
        """d a = U^i b + V^j c, d b = V^j e, d c = U^i e."""
        u, v = top
        a = self.gen((u, v))
        b = self.gen((u - 1 + 2 * i, v - 1))
        c = self.gen((u - 1, v - 1 + 2 * j))
        e = self.gen((u - 2 + 2 * i, v - 2 + 2 * j))
        self.arrow(a, b, ("U", i))
        self.arrow(a, c, ("V", j))
        self.arrow(b, e, ("V", j))
        self.arrow(c, e, ("U", i))

    def unit_pair(self, top: tuple[int, int]) -> None:
        x = self.gen(top)
        y = self.gen((top[0] - 1, top[1] - 1))
        self.arrow(x, y, ("1", 0))

    def _xor(self, s: int, t: int, m: Mono) -> None:
        row = self.d.setdefault(s, {})
        if t in row:
            del row[t]  # equal by homogeneity, so they cancel over F2
        else:
            row[t] = m

    def change_basis(self, p: int, q: int, m: Mono) -> None:
        """Rewrite the differential in the basis x_p' = x_p + m x_q."""
        for t, e in list(self.d.get(q, {}).items()):
            prod = _mul(m, e)
            if prod is not None:
                self._xor(p, t, prod)
        for s in [s for s, row in self.d.items() if p in row]:
            prod = _mul(self.d[s][p], m)
            if prod is not None:
                self._xor(s, q, prod)


def noisy_complex(rng: random.Random, hidden, size: int) -> str:
    """Text of a complex file whose representative is *hidden*.

    It has *size* generators, or one fewer when the parity of *size* differs
    from that of len(hidden) + 1.
    """
    b = _Complex()
    b.standard(hidden)
    us = [g[0] for g in b.gr]
    vs = [g[1] for g in b.gr]

    def near() -> tuple[int, int]:
        u = rng.randint(min(us) - 4, max(us) + 4)
        v = rng.randint(min(vs) - 4, max(vs) + 4)
        return (u, v + (u - v) % 2)  # keep gr_U - gr_V even, like the knot part

    noise = size - len(b.gr)
    n_pairs = noise // 5  # about 2/5 of the noise is contractible
    for _ in range((noise - 2 * n_pairs) // 4):
        b.box(near(), rng.randint(1, 3), rng.randint(1, 3))
    while len(b.gr) + 2 <= size:
        b.unit_pair(near())

    by_u: dict[int, list[int]] = {}
    by_v: dict[int, list[int]] = {}
    for g, (u, v) in enumerate(b.gr):
        by_u.setdefault(u, []).append(g)
        by_v.setdefault(v, []).append(g)
    changes = 0
    while changes < len(b.gr):
        p = rng.randrange(len(b.gr))
        pool = by_u[b.gr[p][0]] if rng.random() < 0.5 else by_v[b.gr[p][1]]
        q = rng.choice(pool)
        m = _mono_between(b.gr[q], b.gr[p]) if q != p else None
        if m is None:
            continue
        b.change_basis(p, q, m)
        changes += 1

    order = list(range(len(b.gr)))
    rng.shuffle(order)
    names = {g: f"g{k}" for k, g in enumerate(order)}
    su = rng.randint(-6, 6)
    sv = su + 2 * rng.randint(-3, 3)
    lines = [f"gen {names[g]} {b.gr[g][0] + su} {b.gr[g][1] + sv}" for g in order]
    for g in order:
        row = b.d.get(g)
        if row:
            terms = " + ".join(
                ("1" if k == "1" else f"{k}^{e}") + f" {names[t]}"
                for t, (k, e) in sorted(row.items(), key=lambda kv: names[kv[0]])
            )
            lines.append(f"d {names[g]} = {terms}")
    return "\n".join(lines) + "\n"
