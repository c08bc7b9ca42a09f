"""The lines of the certificate check and the reduction code that tier-1 never runs.

    PYTHONPATH=src python tests/reach.py [pytest arguments]

Runs the tier-1 tests in this process under a sys.settrace line tracer and
prints every line of knotcalc.witness, localmaps.PrefixSystem,
algebra.reduce, algebra.validate and homology's column reduction (simplify
and the helpers it calls) that no test ran, apart from those in ALLOWED.
It exits 1 if any is printed or a test fails, and 0 otherwise.  A line
that a test runs only in a child process is not seen.  pytest does not
collect this file, as its name has no test_ prefix; it needs only the
standard library and the test dependencies.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

from knotcalc import algebra, homology, localmaps, witness

ROOT = Path(__file__).resolve().parent.parent
TARGETS = (witness, localmaps.PrefixSystem, algebra.reduce, algebra.validate, homology.simplify,
           homology._column, homology._added, homology._exponents, homology._check_tower)
# (file name, the line's text stripped) -> why tier-1 need not run it: only a
# guard that no valid input reaches, with a row of tests/mutants.py that does
ALLOWED: dict[tuple[str, str], str] = {}


def _functions(target) -> list[types.FunctionType]:
    """The functions defined in a module or class, or the function itself."""
    if isinstance(target, types.FunctionType):
        return [target]
    found = []
    for value in vars(target).values():
        value = getattr(value, "__func__", value)  # staticmethod, classmethod
        if isinstance(value, types.FunctionType):
            found.append(value)
        elif isinstance(value, type) and isinstance(target, types.ModuleType):
            found += _functions(value)
    home = getattr(target, "__file__", None)  # a module's own functions, not those it imports
    return [f for f in found if home is None or f.__code__.co_filename == home]


def _codes(code: types.CodeType):
    """code and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


def main(args: list[str]) -> int:
    codes = {c for t in TARGETS for f in _functions(t) for c in _codes(f.__code__)}
    # the lines with bytecode, but not a def line, which runs at import
    want = {(c.co_filename, line) for c in codes for *_, line in c.co_lines()
            if line is not None and line != c.co_firstlineno}
    ran: set[tuple[str, int]] = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    sys.settrace(lambda frame, event, arg: on_line if frame.f_code in codes else None)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    missed = 0
    for filename, line in sorted(want - ran):
        text = Path(filename).read_text(encoding="utf-8").splitlines()[line - 1].strip()
        if (Path(filename).name, text) not in ALLOWED:
            print(f"{Path(filename).relative_to(ROOT)}:{line}: never run: {text}")
            missed += 1
    print(f"{len(want & ran)} of {len(want)} lines run; {missed} missed and not allowed")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
