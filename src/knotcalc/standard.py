"""Standard complexes C(a_1, ..., a_n) and their parameter-level invariants.

A standard complex is a chain of generators x_0, ..., x_n in which x_{i-1}
and x_i are joined by a U-arrow for i odd and a V-arrow for i even.  The
arrow length is |a_i| and the sign gives the direction: a_i > 0 points the
arrow from x_i to x_{i-1}, a_i < 0 from x_{i-1} to x_i.  Parameters are
plain tuples of nonzero integers; the empty tuple is the trivial class R.

The integers carry the total order

    -1 <! -2 <! -3 <! ... <! 0 <! ... <! 3 <! 2 <! 1,

equivalently the usual order on the keys 1/a (with 1/0 = 0).  Standard
complexes are ordered lexicographically by this order, padding the shorter
parameter sequence with trailing zeros.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .algebra import MAX_INTERNED, Bigrading, Complex, Generator, Monomial, power

if TYPE_CHECKING:
    from fractions import Fraction

Params = tuple[int, ...]

LT, EQ, GT = -1, 0, 1


def check_params(params: Sequence[int], *, even: bool = False) -> Params:
    p = tuple(int(a) for a in params)
    if any(a == 0 for a in p):
        raise ValueError(f"standard parameters must be nonzero, got {p}")
    if even and len(p) % 2:
        raise ValueError(f"closed standard parameters must have even length, got {p}")
    return p


# The gradings step returns, by i % 2 and then b, for |b| <= MAX_INTERNED,
# built once on first use like algebra.power's monomials.
_STEPS: tuple[dict[int, Bigrading], dict[int, Bigrading]] = ({}, {})


def step(i: int, b: int) -> Bigrading:
    """Grading difference gr(x_i) - gr(x_{i-1}) forced by parameter b at position i."""
    table = _STEPS[i % 2]
    g = table.get(b)
    if g is None:
        sign = 1 if b > 0 else -1
        if i % 2 == 1:  # U-arrow
            g = Bigrading(-2 * b + sign, sign)
        else:
            g = Bigrading(sign, -2 * b + sign)
        if abs(b) <= MAX_INTERNED:
            table[b] = g
    return g


def arrow(i: int, b: int) -> tuple[int, int, Monomial]:
    """The arrow of parameter b at position i: (source index, target index, monomial)."""
    m = power("U" if i % 2 == 1 else "V", abs(b))
    return (i, i - 1, m) if b > 0 else (i - 1, i, m)


def build_standard(params: Sequence[int], v_anchor: Optional[int] = None) -> Complex:
    """Build the standard complex of the given parameters.

    With v_anchor=None the parameters must have even length and the complex
    is graded by the two anchors gr_U(x_0) = 0 and gr_V(x_n) = 0.  With
    v_anchor=v the sequence may have any length (a truncated or semistandard
    complex) and is anchored at gr(x_0) = (0, v) instead.
    """
    p = check_params(params, even=v_anchor is None)
    rel = [Bigrading(0, 0)]
    for i, b in enumerate(p, start=1):
        rel.append(rel[-1] + step(i, b))
    v0 = v_anchor if v_anchor is not None else -rel[-1].grv
    gens = tuple(Generator(f"x{i}", Bigrading(r.gru, r.grv + v0)) for i, r in enumerate(rel))
    # arrow i starts at x_{i-1} or x_i, so sources come in increasing order;
    # steps give every arrow its degree, and U- and V-arrows alternate, so d^2 = 0
    diff: dict[int, dict[int, Monomial]] = {}
    for i, b in enumerate(p, start=1):
        s, t, m = arrow(i, b)
        diff.setdefault(s, {})[t] = m
    return Complex(gens, diff)


def bang_key(a: int) -> tuple[int, int]:
    """An exact sort key for the unusual order: it orders integers as 1/a does."""
    return ((a > 0) - (a < 0), -a)


def bang_cmp(a: int, b: int) -> int:
    """Compare two integers in the unusual total order (-1 least, 1 greatest)."""
    ka, kb = bang_key(a), bang_key(b)
    return LT if ka < kb else GT if ka > kb else EQ


def lex_cmp(p: Sequence[int], q: Sequence[int]) -> int:
    """Lexicographic comparison of parameter sequences, zero-padded at the end."""
    n = max(len(p), len(q))
    for i in range(n):
        c = bang_cmp(p[i] if i < len(p) else 0, q[i] if i < len(q) else 0)
        if c != EQ:
            return c
    return EQ


def phi(params: Sequence[int]) -> dict[int, int]:
    """Signed counts of U-arrow lengths: phi_j = #{odd i: a_i = j} - #{odd i: a_i = -j}.

    Returns a sparse map with zero values dropped.
    """
    out: dict[int, int] = {}
    for a in params[0::2]:
        j = abs(a)
        out[j] = out.get(j, 0) + (1 if a > 0 else -1)
    return {j: v for j, v in sorted(out.items()) if v}


def P_of(params: Sequence[int]) -> int:
    """The U-grading of a U-tower generator, gr_U(x_n) of the standard complex.

    Computed by the closed formula -2 sum j*phi_j + sum sgn(a_i).
    """
    p = check_params(params, even=True)
    return -2 * sum(j * v for j, v in phi(p).items()) + sum(1 if a > 0 else -1 for a in p)


def tau_of(params: Sequence[int]) -> int:
    """tau = -P/2.  Equals sum j*phi_j when the parameters are symmetric."""
    return -P_of(params) // 2


def N_of(params: Sequence[int]) -> int:
    """Largest j with phi_j != 0, or 0."""
    ph = phi(params)
    return max(ph) if ph else 0


def gc_lower(params: Sequence[int]) -> Fraction:
    """Lower bound N/2 for the concordance genus."""
    from fractions import Fraction  # here, off the import path of the CLI, which never calls this

    return Fraction(N_of(params), 2)


def uc_lower(params: Sequence[int]) -> int:
    """Lower bound N for the concordance unknotting number."""
    return N_of(params)


def shift(params: Sequence[int], m: int, mode: str = "both") -> Params:
    """Lengthen every arrow of length >= m by one.

    mode selects which positions move: "both", "u" (odd positions only), or
    "v" (even positions only).  The full shift factors as the V-shift after
    the U-shift.
    """
    if m < 1:
        raise ValueError("shift index must be >= 1")
    if mode not in ("both", "u", "v"):
        raise ValueError(f"bad shift mode {mode!r}")
    out = []
    for i, a in enumerate(params, start=1):
        hit = mode == "both" or (mode == "u" and i % 2 == 1) or (mode == "v" and i % 2 == 0)
        if hit and a >= m:
            a += 1
        elif hit and a <= -m:
            a -= 1
        out.append(a)
    return tuple(out)


def is_symmetric(params: Sequence[int]) -> bool:
    """True when a_i = -a_{n+1-i} for all i."""
    n = len(params)
    return all(params[i] == -params[n - 1 - i] for i in range(n))


def negate(params: Sequence[int]) -> Params:
    """Parameters of the dual complex: entrywise negation."""
    return tuple(-a for a in params)


def parse_params(text: str) -> Params:
    """Parse the comma-separated parameter syntax, e.g. "1,-2,2,-1"; "" is ()."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad parameter list {text!r}") from None


def format_params(params: Sequence[int]) -> str:
    return ",".join(str(a) for a in params)
