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
    # the column reduction drops the tracked additions of the tower's cycle
    # and cocycle, so each is its generator alone
    ("src/knotcalc/homology.py", "            added ^= hit[1]\n", "",
     ["tests/test_homology.py::test_simplify_scrambled_complex_needs_basis_work",
      "tests/test_homology.py::test_noisy_files_give_their_hidden_representative"]),
    # the column reduction reads a pair's order off its wrong end
    ("src/knotcalc/homology.py", "etas.append((key[i] - key[j]) >> 1)", "etas.append((key[j] - key[i]) >> 1)",
     ["tests/test_homology.py::test_simplify_staircase_mod_v",
      "tests/test_homology.py::test_simplify_scrambled_complex_needs_basis_work"]),
    # the column reduction accepts a second tower
    ("src/knotcalc/homology.py", "    if towers != 1:\n", "    if towers < 1:\n",
     ["tests/test_homology.py::test_simplify_multiple_towers",
      "tests/test_homology.py::test_check_knot_like_rejects_two_towers"]),
    # the tower check never tests that the dual is a cocycle
    ("src/knotcalc/homology.py",
     "            raise VerificationFailedError(f\"the tower's dual is not 0 on the boundary of {a}\")\n",
     "            pass\n",
     ["tests/test_homology.py::test_tower_checks_refuse_a_broken_tower_or_dual"]),
    # reduce never queues a unit arrow that a cancellation makes
    ("src/knotcalc/algebra.py", "heapq.heappush(units, (y, b))", "pass",
     ["tests/test_algebra.py::test_reduce_matches_rescan_on_scrambled_inputs"]),
    # the witness check accepts two V-powers of the tower at one target
    ("src/knotcalc/witness.py", "                if image.get(t, e) != e:\n                    return False\n",
     "                if image.get(t, e) != e:\n                    return True\n",
     ["tests/test_localmaps.py::test_check_refuses_two_tower_exponents_at_one_target"]),
    # the witness check drops the gr_V half of the grading rule
    ("src/knotcalc/witness.py", "if tu != su or tv != sv:", "if tu != su:",
     ["tests/test_localmaps.py::test_check_refuses_a_term_of_the_wrong_grading"]),
    # ... and its gr_U half
    ("src/knotcalc/witness.py", "if tu != su or tv != sv:", "if tv != sv:",
     ["tests/test_localmaps.py::test_check_refuses_a_term_of_the_wrong_grading"]),
    # the witness check never compares the two sides of the chain condition
    ("src/knotcalc/witness.py", "        if lhs != rhs:\n            return False\n", "",
     ["tests/test_localmaps.py::test_sparse_check_rejects_a_map_nonzero_only_on_a_target"]),
    # the witness check passes every tower condition
    ("src/knotcalc/witness.py", "return list(pairing) == [0]", "return True",
     ["tests/test_localmaps.py::test_witness_verification_rejects_tampering"]),
    # the witness check reads a source listed twice by its last entry
    ("src/knotcalc/witness.py",
     "    if len(dict(assignment)) != len(assignment):  # a source listed twice\n        return False\n", "",
     ["tests/test_localmaps.py::test_check_refuses_an_ambiguous_witness"]),
    # the witness check counts a term repeated at one source once
    ("src/knotcalc/witness.py",
     "        if len(image) != len(terms):  # a target repeated\n            return False\n", "",
     ["tests/test_localmaps.py::test_check_refuses_an_ambiguous_witness"]),
    # a certificate route returns its witness unchecked: the one-shot solve,
    # the greedy's forward map, a lone factor's identity, a mirror pair's maps
    ("src/knotcalc/localmaps.py",
     'return certified_witness(src, tgt, _images(by_source, solution), "solved", relaxed)',
     "return build_witness(src, tgt, _images(by_source, solution))",
     ["tests/test_localmaps.py::test_bad_solver_witness_raises",
      "tests/test_localequiv.py::test_certification_cannot_be_skipped[backward]"]),
    ("src/knotcalc/localmaps.py", 'return certified_witness(src, self.tgt, images, "forward")',
     "return build_witness(src, self.tgt, images)",
     ["tests/test_localequiv.py::test_certification_cannot_be_skipped[forward]"]),
    ("src/knotcalc/localmaps.py",
     'identity = certified_witness(s, s, [[(UNIT, i)] for i in range(len(s.c.gens))], "identity")',
     "identity = build_witness(s, s, [[(UNIT, i)] for i in range(len(s.c.gens))])",
     ["tests/test_localequiv.py::test_group_law_certificates_cannot_be_skipped[T(3,4)]"]),
    ("src/knotcalc/localmaps.py",
     '    coevaluation = certified_witness(unit, pair, [[(UNIT, t) for t in diagonal]], "coevaluation")\n'
     "    evaluation = certified_witness(\n"
     '        pair, unit, [[(UNIT, 0)] if s in diagonal else [] for s in range(n * n)], "evaluation"\n'
     "    )\n",
     "    coevaluation = build_witness(unit, pair, [[(UNIT, t) for t in diagonal]])\n"
     "    evaluation = build_witness(pair, unit, [[(UNIT, 0)] if s in diagonal else [] for s in range(n * n)])\n",
     ["tests/test_localequiv.py::test_group_law_certificates_cannot_be_skipped[T(3,4) - T(3,4)]"]),
    # a written-down certificate misses a term: the identity's at x0, the
    # coevaluation's and the evaluation's at the first diagonal generator
    ("src/knotcalc/localmaps.py", "[[(UNIT, i)] for i in range(len(s.c.gens))]",
     "[[(UNIT, i)] if i else [] for i in range(len(s.c.gens))]",
     ["tests/test_alexander.py::test_eval_recipe_d_alias"]),
    ("src/knotcalc/localmaps.py", "[[(UNIT, t) for t in diagonal]]", "[[(UNIT, t) for t in diagonal[1:]]]",
     ["tests/test_alexander.py::test_eval_recipe_inverse", "tests/test_cli.py::test_rep_expr"]),
    ("src/knotcalc/localmaps.py", "[[(UNIT, 0)] if s in diagonal else [] for s in range(n * n)]",
     "[[(UNIT, 0)] if s in diagonal[1:] else [] for s in range(n * n)]",
     ["tests/test_alexander.py::test_eval_recipe_inverse", "tests/test_cli.py::test_rep_expr"]),
    # a mirror pair's complex is built from its later factor first
    ("src/knotcalc/localmaps.py", "pair = prepare_standard(a, negate(a))", "pair = prepare_standard(negate(a), a)",
     ["tests/test_alexander.py::test_an_odd_factor_is_named_as_written[Std(1,2,3) - Std(1,2,3)-(1, 2, 3)]"]),
    # torus_delta reads the walk's terms with the signs swapped
    ("src/knotcalc/alexander.py", "cycle((1, -1))", "cycle((-1, 1))",
     ["tests/test_alexander.py::test_torus_delta_34",
      "tests/test_alexander.py::test_torus_delta_times_its_denominator_is_its_numerator"]),
    # staircase_params gives the gaps the opposite signs
    ("src/knotcalc/alexander.py", "y - x if k % 2 else x - y", "x - y if k % 2 else y - x",
     ["tests/test_alexander.py::test_staircase_t34",
      "tests/test_alexander.py::test_staircase_params_interleave_the_gaps_on_the_grid"]),
    # parse_poly reads an unsigned later term as added, "2t 3" as 2t + 3
    ("src/knotcalc/alexander.py", "        elif not first:\n", "        elif False:\n",
     ["tests/test_parsing.py::test_poly_errors_carry_columns"]),
    # validate keeps a row that ends empty
    ("src/knotcalc/algebra.py", "        if not row:\n            del diff[s]\n", "",
     ["tests/test_algebra.py::test_validate_repeated_arrow",
      "tests/test_parsing.py::test_zero_differential_line"]),
    # validate keeps the last copy of a repeated arrow instead of cancelling the two
    ("src/knotcalc/algebra.py",
     "            if t in row:\n                del row[t]\n            else:\n                row[t] = m\n",
     "            row[t] = m\n",
     ["tests/test_algebra.py::test_validate_repeated_arrow"]),
    # validate lets a later generator of the same name replace the first
    ("src/knotcalc/algebra.py", "        if name in index:\n            raise DuplicateGeneratorError(name)\n", "",
     ["tests/test_algebra.py::test_validate_duplicate_generator"]),
    # validate skips a term whose target is undeclared
    ("src/knotcalc/algebra.py", "                raise UnknownGeneratorError(target)\n", "                continue\n",
     ["tests/test_parsing.py::test_every_edit_builds_the_complex_of_the_regex_grammar[0]"]),
    # validate skips a row whose source is undeclared
    ("src/knotcalc/algebra.py", "            raise UnknownGeneratorError(source)\n", "            continue\n",
     ["tests/test_algebra.py::test_validate_unknown_generator"]),
    # validate takes a malformed monomial as given
    ("src/knotcalc/algebra.py",
     "                m = mono(kind, exponent)  # U^0 and V^0 are the unit; anything else raises\n",
     "                pass\n",
     ["tests/test_algebra.py::test_validate_normalizes_raw_monomials"]),
    # validate never checks d^2 = 0
    ("src/knotcalc/algebra.py", "    _check_d_squared(c)\n    return c\n", "    return c\n",
     ["tests/test_algebra.py::test_validate_d_squared"]),
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
