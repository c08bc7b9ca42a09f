"""Mutants that the tier-1 tests must catch.

Each row of MUTANTS names a file of the checkout, a piece of its text that
occurs there exactly once, the text that replaces it, and the tests that
must fail once it is replaced.  For each row on its own, this script copies
the checkout to a temporary directory, applies the row there and runs those
tests with pytest; the checkout itself is never edited.  Before that, it
runs every named test on an unedited copy, where all must pass.

    python tests/mutants.py

It exits 0 when every row's tests fail (pytest exit status 1), and 1 when
a row is not caught, its text is not found exactly once, or a named test
fails unedited or cannot be collected.  pytest does not collect this file,
as its name has no test_ prefix.  It needs only the standard library,
pytest and the test dependencies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old text, new text, tests that must fail)
MUTANTS = [
    # the sweep's basis change builds a new row or column of b_p's and never
    # stores it
    ("src/knotcalc/homology.py", "row_p = rows[p] = {}", "row_p = {}",
     ["tests/test_homology.py::test_noisy_files_give_their_hidden_representative"]),
    ("src/knotcalc/homology.py", "col_q = cols[q] = {}", "col_q = {}",
     ["tests/test_homology.py::test_noisy_files_give_their_hidden_representative"]),
    # the sweep takes a stale heap entry as a pivot
    ("src/knotcalc/homology.py", "            if row.get(j0) != eta:\n                continue\n", "",
     ["tests/test_homology.py::test_noisy_files_give_their_hidden_representative"]),
    # reduce never queues a unit arrow that a cancellation makes
    ("src/knotcalc/algebra.py", "heapq.heappush(units, (y, b))", "pass",
     ["tests/test_algebra.py::test_reduce_matches_rescan_on_scrambled_inputs"]),
    # the witness check accepts two V-powers of the tower at one target
    ("src/knotcalc/localmaps.py", "            elif t in image_mod_u:\n                return False\n",
     "            elif t in image_mod_u:\n                return True\n",
     ["tests/test_localmaps.py::test_check_refuses_two_tower_exponents_at_one_target"]),
]

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.pyc")


def _pytest(root: Path, tests: list[str]) -> int:
    """The exit status of pytest on *tests* in the checkout at *root*."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=root, env=env, stdout=subprocess.DEVNULL).returncode


def _copy(tmp: str, name: str) -> Path:
    root = Path(tmp) / name
    shutil.copytree(ROOT, root, ignore=_SKIP)
    return root


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        every = sorted({t for *_, tests in MUTANTS for t in tests})
        status = _pytest(_copy(tmp, "unedited"), every)
        if status != 0:
            print(f"the named tests do not pass unedited (pytest exit status {status})")
            return 1
        for k, (file, old, new, tests) in enumerate(MUTANTS):
            label = f"row {k}: {file}: {old.strip()!r} -> {new.strip()!r}"
            root = _copy(tmp, f"mutant{k}")
            path = root / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{label}: the old text occurs {text.count(old)} times, not once")
                failures += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            status = _pytest(root, tests)
            caught = status == 1
            print(f"{label}: {'caught' if caught else f'NOT caught (pytest exit status {status})'}")
            failures += not caught
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
