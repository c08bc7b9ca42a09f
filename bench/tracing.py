"""Spans around knotcalc's module boundaries, recorded from outside the package.

`Tracer.install()` replaces each public function listed in TARGETS by a
wrapper that records a span (name, start, end, parent span, job id).  A name
is replaced in every knotcalc module that holds it, so calls through
`from .x import f` aliases are caught too (for example `prepare_target` and
`build_standard` inside `localequiv`).  Spans stay in memory until
`write()`.  A span's self time is its duration minus the durations of its
direct children, so the self times of one job's spans add up to the job's
outermost span, `cli.run`.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from functools import wraps


def _bytes(counts, args, result):
    counts["parsing.bytes"] += len(args[0])


def _tensor(counts, args, result):
    counts["algebra.tensor_gens"] += len(result.gens)


def _reduce(counts, args, result):
    counts["algebra.reduce_cancelled"] += (len(args[0].gens) - len(result.gens)) // 2


def _simplify(counts, args, result):
    counts["homology.simplify_gens"] += len(args[0].gens)


def _solve_affine(counts, args, result):
    counts["gf2.unknowns"] += args[1]
    counts["gf2.equations"] += len(args[0])
    counts["gf2.max_unknowns"] = max(counts["gf2.max_unknowns"], args[1])
    counts["gf2.consistent"] += result is not None


def _standard_rep(counts, args, result):
    counts["localequiv.candidates"] += sum(len(p.candidates) for p in result.trace)
    counts["localequiv.rep_len"] += len(result.params)


# (module, function, layer, counter hook).  The self time of a layer is the
# sum over its spans; "solver" is the greedy loop, slot enumeration, system
# assembly and witness check, which run inside standard_rep, compare and
# exists_* but in no wrapped child.
TARGETS = (
    ("cli", "run", "cli", None),
    ("parsing", "parse_complex_file", "parsing", _bytes),
    ("parsing", "parse_knot_expr", "parsing", None),
    ("parsing", "serialize_complex", "parsing", None),
    ("alexander", "eval_recipe", "alexander", None),
    ("alexander", "recipe_factors", "alexander", None),
    ("alexander", "atom_params", "alexander", None),
    ("alexander", "staircase_params", "alexander", None),
    ("alexander", "staircase_data", "alexander", None),
    ("alexander", "torus_delta", "alexander", None),
    ("alexander", "cable_delta", "alexander", None),
    ("alexander", "parse_poly", "alexander", None),
    ("standard", "build_standard", "standard", None),
    ("algebra", "tensor_many", "algebra.tensor", None),
    ("algebra", "tensor", "algebra.tensor", _tensor),
    ("algebra", "reduce", "algebra.reduce", _reduce),
    ("algebra", "validate", "algebra.validate", None),
    ("homology", "simplify", "homology", _simplify),
    ("homology", "check_knot_like", "homology", None),
    ("homology", "apply_shift", "homology", None),
    ("homology", "element_grading", "homology", None),
    ("localmaps", "prepare_target", "localmaps.prepare", None),
    ("localmaps", "exists_local_map", "solver", None),
    ("localmaps", "exists_short_local_map", "solver", None),
    ("localequiv", "standard_rep", "solver", _standard_rep),
    ("localequiv", "compare", "solver", None),
    ("gf2", "solve_affine", "gf2.solve", _solve_affine),
    ("gf2", "rank", "gf2.rank", None),
)
# The per-layer seconds that partition the traced time: they add up to the
# time spent inside cli.run.
SELF_TIME_METRICS = (
    "cli.self_s", "parsing.s", "alexander.s", "standard.build_s", "algebra.tensor_s",
    "algebra.reduce_s", "algebra.validate_s", "homology.simplify_s",
    "localmaps.prepare_s", "localmaps.solver_self_s", "gf2.solve_s", "gf2.rank_s",
)
LAYER_OF = {f"{m}.{f}": layer for m, f, layer, _ in TARGETS}
LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in TARGETS))


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1, job id)
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn, hook):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        for module, function, _, hook in TARGETS:
            original = getattr(importlib.import_module(f"knotcalc.{module}"), function)
            wrapper = self._wrap(f"{module}.{function}", original, hook)
            for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "knotcalc"]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")


def self_times(spans, first: int = 0) -> list[float]:
    """Self time of spans[first:], in order (children must lie in the same slice)."""
    out = [s[2] - s[1] for s in spans[first:]]
    for s in spans[first:]:
        if s[3] >= first:
            out[s[3] - first] -= s[2] - s[1]
    return out


def layer_metrics(spans, first: int, counts: dict) -> dict[str, float]:
    """Per-layer seconds, calls and counters for the spans recorded since *first*."""
    layer_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    rep_s = 0.0
    for span, own in zip(spans[first:], self_times(spans, first)):
        name = span[0]
        layer_s[LAYER_OF[name]] += own
        calls[name] = calls.get(name, 0) + 1
        if name == "localequiv.standard_rep":
            rep_s += span[2] - span[1]
    solves = calls.get("gf2.solve_affine", 0)
    reps = calls.get("localequiv.standard_rep", 0)
    candidates = counts["localequiv.candidates"]
    return {
        "parsing.s": layer_s["parsing"],
        "parsing.bytes": counts["parsing.bytes"],
        "alexander.s": layer_s["alexander"],
        "standard.build_s": layer_s["standard"],
        "standard.build_calls": calls.get("standard.build_standard", 0),
        "algebra.tensor_s": layer_s["algebra.tensor"],
        "algebra.tensor_gens": counts["algebra.tensor_gens"],
        "algebra.reduce_s": layer_s["algebra.reduce"],
        "algebra.reduce_cancelled": counts["algebra.reduce_cancelled"],
        "algebra.validate_s": layer_s["algebra.validate"],
        "homology.simplify_s": layer_s["homology"],
        "homology.simplify_calls": calls.get("homology.simplify", 0),
        "homology.simplify_gens": counts["homology.simplify_gens"],
        "localmaps.prepare_s": layer_s["localmaps.prepare"],
        "localmaps.prepare_calls": calls.get("localmaps.prepare_target", 0),
        "localmaps.solver_self_s": layer_s["solver"],
        "gf2.solve_s": layer_s["gf2.solve"],
        "gf2.solve_calls": solves,
        "gf2.unknowns": counts["gf2.unknowns"],
        "gf2.equations": counts["gf2.equations"],
        "gf2.max_unknowns": counts["gf2.max_unknowns"],
        "gf2.consistent_ratio": counts["gf2.consistent"] / solves if solves else 0.0,
        "gf2.rank_s": layer_s["gf2.rank"],
        "localequiv.rep_s": rep_s,
        "localequiv.rep_calls": reps,
        "localequiv.candidates": candidates,
        "localequiv.rep_len": counts["localequiv.rep_len"],
        "localequiv.accept_ratio": counts["localequiv.rep_len"] / candidates if candidates else 0.0,
        "cli.self_s": layer_s["cli"],
    }
