import contextlib
import gc
import io
import json
import os
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from knotcalc import algebra, alexander, localequiv, standard
from knotcalc.cli import run
from knotcalc.parsing import parse_complex_file, serialize_complex
from knotcalc.standard import build_standard

DATA = Path(__file__).parent / "data"


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_validate(capsys):
    assert run(["validate", str(DATA / "fig1.cx")]) == 0
    out, _ = out_of(capsys)
    assert "5 generators" in out and "reduced=true" in out


def test_validate_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.cx"
    bad.write_text("gen a 0 0\nd b = U^1 a\n")
    assert run(["validate", str(bad)]) == 1
    _, err = out_of(capsys)
    assert "error" in err


def test_plus_in_a_generator_name_is_refused(capsys, tmp_path):
    # "a+b" as a target reads as the two terms "1 a" and "b*" once dual writes it
    f = tmp_path / "plus.cx"
    f.write_text("gen a+b 1 1\ngen c 0 0\nd a+b = 1 c\n")
    for command in ("validate", "dual"):
        assert run([command, str(f)]) == 1
        out, err = out_of(capsys)
        assert out == "" and err == "error: bad gen line 'gen a+b 1 1' at line 1\n"


def test_written_files_validate_again(capsys, tmp_path):
    s, d, u, t, r = (tmp_path / n for n in ("s.cx", "d.cx", "u.cx", "t.cx", "r.cx"))
    u.write_text("gen a 0 0\ngen b 1 1\ngen e 0 0\nd b = 1 a\n")
    assert run(["std", "1,-2,2,-1", "-o", str(s)]) == 0
    assert run(["dual", str(s), "-o", str(d)]) == 0
    assert run(["tensor", str(d), str(u), "-o", str(t)]) == 0
    assert run(["reduce", str(t), "-o", str(r)]) == 0
    written = {f: f.read_text() for f in (s, d, t, r)}
    assert "d x1*|b = 1 x1*|a" in written[t] and "gen x1*|e " in written[r]
    for f, text in written.items():
        assert run(["validate", str(f)]) == 0
        assert out_of(capsys)[0].startswith("ok: ")
        assert serialize_complex(parse_complex_file(text)) == text
    assert run(["rep", str(r)]) == 0
    assert out_of(capsys)[0] == "-1,2,-2,1\n"


def test_std_and_rep_round_trip(capsys, tmp_path):
    f = tmp_path / "c.cx"
    assert run(["std", "1,-2,2,-1", "-o", str(f)]) == 0
    assert run(["rep", str(f)]) == 0
    out, _ = out_of(capsys)
    assert out.strip() == "1,-2,2,-1"


def test_reduce_and_dual(capsys, tmp_path):
    f = tmp_path / "c.cx"
    f.write_text("gen a 0 0\ngen b 1 1\ngen e 0 0\nd b = 1 a\n")
    assert run(["reduce", str(f)]) == 0
    out, _ = out_of(capsys)
    assert out == "gen e 0 0\n"
    g = tmp_path / "d.cx"
    assert run(["dual", str(f), "-o", str(g)]) == 0
    assert "gen a* 0 0" in g.read_text()


def test_tensor_matches_expr(capsys, tmp_path):
    a, b, t = (tmp_path / n for n in ("a.cx", "b.cx", "t.cx"))
    assert run(["std", "2,-2", "-o", str(a)]) == 0
    assert run(["std", "1,-1", "-o", str(b)]) == 0
    assert run(["tensor", str(a), str(b), "-o", str(t)]) == 0
    assert run(["inv", str(t), "--json"]) == 0
    from_file, _ = out_of(capsys)
    assert run(["inv", "--expr", "Std(2,-2) + Std(1,-1)", "--json"]) == 0
    from_expr, _ = out_of(capsys)
    assert json.loads(from_file) == json.loads(from_expr)


def test_tensor_refuses_colliding_names(capsys, tmp_path):
    a, b, t = (tmp_path / n for n in ("a.cx", "b.cx", "t.cx"))
    a.write_text("gen a 0 0\ngen a|b 0 0\n")
    b.write_text("gen c 0 0\ngen b|c 0 0\n")
    assert run(["tensor", str(a), str(b), "-o", str(t)]) == 1
    _, err = out_of(capsys)
    assert "duplicate generator 'a|b|c'" in err
    assert not t.exists()


def test_inv_json_fields(capsys):
    assert run(["inv", "--expr", "T(3,4)", "--json"]) == 0
    out, _ = out_of(capsys)
    data = json.loads(out)
    assert data == {
        "rep": [1, -2, 2, -1],
        "phi": {"1": 1, "2": 1},
        "tau": 3,
        "P": -6,
        "N": 2,
        "gc_lower": 1,
        "uc_lower": 2,
        "symmetric": True,
    }
    assert list(data) == ["rep", "phi", "tau", "P", "N", "gc_lower", "uc_lower", "symmetric"]


def test_inv_human_format(capsys):
    assert run(["inv", "--expr", "T(2,3)"]) == 0
    out, _ = out_of(capsys)
    assert "rep: 1,-1" in out
    assert "tau: 1" in out
    assert "gc_lower: 0.5" in out
    assert "symmetric: true" in out


def test_inv_requires_exactly_one_source(capsys):
    assert run(["inv"]) == 2
    assert run(["inv", "x.cx", "--expr", "D"]) == 2


def test_cmp(capsys, tmp_path):
    a, b = tmp_path / "a.cx", tmp_path / "b.cx"
    run(["std", "", "-o", str(a)])
    run(["std", "1,-1", "-o", str(b)])
    assert run(["cmp", str(a), str(b)]) == 0
    out, _ = out_of(capsys)
    assert out.strip() == "<"
    assert run(["cmp", str(b), str(a)]) == 0
    out, _ = out_of(capsys)
    assert out.strip() == ">"
    assert run(["cmp", str(b), str(b)]) == 0
    out, _ = out_of(capsys)
    assert out.strip() == "~"


def test_shift_modes(capsys):
    assert run(["shift", "2", "1,-3,3,-1"]) == 0
    out, _ = out_of(capsys)
    assert out.strip() == "1,-4,4,-1"
    assert run(["shift", "1", "1,-2", "--u"]) == 0
    out, _ = out_of(capsys)
    assert out.strip() == "2,-2"


def test_alex_commands(capsys):
    assert run(["alex", "torus", "3", "4"]) == 0
    out, _ = out_of(capsys)
    assert out.strip() == "t^6-t^5+t^3-t+1"
    assert run(["alex", "cable", "2", "5", "t^2-t+1"]) == 0
    out, _ = out_of(capsys)
    assert out.strip() == "t^8-t^7+t^4-t+1"
    assert run(["alex", "torus", "4", "6"]) == 1


def test_lspace(capsys):
    assert run(["lspace", "t^8-t^7+t^4-t+1"]) == 0
    out, _ = out_of(capsys)
    assert out.splitlines() == ["c: 1,3", "rep: 1,-3,3,-1"]
    assert run(["lspace", "t^2+t+1"]) == 1


def test_rep_expr(capsys):
    assert run(["rep", "--expr", "T(2,3) - T(2,3)"]) == 0
    out, _ = out_of(capsys)
    assert out.strip() == ""


def test_oversized_recipe_is_refused(capsys, no_polynomial):
    # the factor sizes are multiplied before anything is built, so this
    # returns at once instead of tensoring a million trefoils
    for command in ("inv", "rep"):
        assert run([command, "--expr", "1000000*T(2,3)"]) == 1
        out, err = out_of(capsys)
        assert out == ""
        assert err.strip() == (
            "error: recipe needs at least 19683 generators, over the limit of 10000"
        )


def test_deeply_nested_recipe_is_refused(capsys):
    # deep enough to exhaust Python's recursion limit without the nesting limit
    for expr in ("Cable(" * 3000, "Cable(" * 3000 + "T(2,3)" + ";2,3)" * 3000):
        assert run(["inv", "--expr", expr]) == 1
        out, err = out_of(capsys)
        assert out == ""
        assert err == "error: atoms nested deeper than 100 levels at column 601\n"


def _trivial_cables(depth):
    return "Cable(" * depth + "T(2,3)" + ";2,1)" * depth


def test_oversized_parameter_is_refused_fast(capsys, no_polynomial):
    # a parameter over the limit (which exists for the torus atoms, whose
    # cost grows with their parameters) is refused before any complex is
    # built, whatever the atom: a domain error, exit 1, no traceback.  The
    # semigroup of _trivial_cables(30), of degree 2 ** 31, is built only to
    # 1025 * 10000, inside its first run of 2 ** 30
    over = "error: recipe has a parameter {}, over the limit of 1024\n"
    for expr, want in [("Std(1025,-1025)", over.format(1025)),
                       (_trivial_cables(11), over.format(2048)),
                       (_trivial_cables(30), over.format("of at least 10250000")),
                       ("Std(65536,-65536)", over.format(65536))]:
        start = time.perf_counter()
        assert run(["inv", "--expr", expr]) == 1
        assert time.perf_counter() - start < 1
        out, err = out_of(capsys)
        assert out == ""
        assert err == want


def test_long_thin_atom_is_refused_fast(capsys, no_polynomial):
    # 2|t| + 1 generators, counted without building the parameters, and a
    # torus atom or a cable walked on its semigroup no further than 10000
    # parameters, with no polynomial built
    for expr, size in [("Thin(1000000)", 2000001), ("Thin(-1000000)", 2000001), ("Thin(5000)", 10001),
                       ("T(2,1000001)", 10001), ("2*T(3,5003)", 44502241), ("T(700,9999)", 10001),
                       ("Cable(D;700,9999)", 10001), ("Cable(D;9999,700)", 10001),
                       ("Cable(T(2,4001);300,4001)", 10001)]:
        start = time.perf_counter()
        assert run(["inv", "--expr", expr]) == 1
        assert time.perf_counter() - start < 0.1
        out, err = out_of(capsys)
        assert out == ""
        assert err == f"error: recipe needs at least {size} generators, over the limit of 10000\n"
    assert run(["rep", "--expr", "Thin(2)"]) == 0
    assert out_of(capsys) == ("1,-1,1,-1\n", "")


def test_parameter_at_the_bound_still_answers(capsys, no_polynomial):
    for expr in ("Std(1024,-1024)", _trivial_cables(10)):
        assert run(["rep", "--expr", expr]) == 0
        out, _ = out_of(capsys)
        assert out == "1024,-1024\n"


def test_file_with_oversized_torsion_is_refused(capsys, tmp_path):
    f = tmp_path / "c.cx"
    assert run(["std", "1,-1025,1025,-1", "-o", str(f)]) == 0
    assert run(["rep", str(f)]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: complex has a torsion order 1025, over the limit of 1024\n"


def _std_file(tmp_path, name, length):
    """A file holding C(1, -1, 1, -1, ...) of *length* parameters."""
    f = tmp_path / name
    assert run(["std", ",".join(["1", "-1"] * (length // 2)), "-o", str(f)]) == 0
    return f


def test_oversized_tensor_is_refused(capsys, tmp_path):
    # 101 * 100 = 10100 generators, refused before the product is built
    a, b = _std_file(tmp_path, "a.cx", 100), _std_file(tmp_path, "b.cx", 98)
    b.write_text(b.read_text() + "gen extra 0 0\n")
    start = time.perf_counter()
    assert run(["tensor", str(a), str(b)]) == 1
    assert time.perf_counter() - start < 1
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: tensor product has 10100 generators, over the limit of 10000\n"


def test_tensor_guard_boundary(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(alexander, "MAX_RECIPE_GENS", 9)
    a, b = _std_file(tmp_path, "a.cx", 2), _std_file(tmp_path, "b.cx", 4)
    assert run(["tensor", str(a), str(a)]) == 0
    assert out_of(capsys)[0].count("gen ") == 9
    assert run(["tensor", str(a), str(b)]) == 1
    assert out_of(capsys)[1] == "error: tensor product has 15 generators, over the limit of 9\n"


def test_oversized_files_are_refused_before_any_work(capsys, tmp_path, monkeypatch):
    # C(1,-1,1,-1) has 5 generators and C(1,-1,1,-1,1,-1) has 7
    monkeypatch.setattr(alexander, "MAX_RECIPE_GENS", 5)
    small, big = _std_file(tmp_path, "small.cx", 4), _std_file(tmp_path, "big.cx", 6)
    for argv in (["rep", small], ["inv", small], ["cmp", small, small], ["reduce", small]):
        assert run([str(a) for a in argv]) == 0
    out_of(capsys)

    def no_work(*args):
        raise AssertionError("ran on an oversized file")

    monkeypatch.setattr(algebra, "reduce", no_work)
    monkeypatch.setattr(localequiv, "standard_rep", no_work)
    refusal = f"error: complex file {big} has 7 generators, over the limit of 5\n"
    for argv in (["rep", big], ["inv", big, "--json"], ["cmp", small, big], ["cmp", big, small],
                 ["reduce", big]):
        assert run([str(a) for a in argv]) == 1
        assert out_of(capsys) == ("", refusal)


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["alex"]) == 2


def test_run_pauses_the_collector_and_restores_its_state(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.cx"
    bad.write_text("gen a 0 0\nd b = U^1 a\n")
    seen = []
    build = standard.build_standard
    monkeypatch.setattr(standard, "build_standard", lambda params: seen.append(gc.isenabled()) or build(params))
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            for argv, code in ((["std", "1,-2"], 0), (["validate", str(bad)], 1), (["frobnicate"], 2)):
                (gc.enable if enabled else gc.disable)()
                assert run(argv) == code
                assert gc.isenabled() == enabled, (argv, enabled)
    finally:
        (gc.enable if was else gc.disable)()
    out_of(capsys)
    assert seen == [False, False]


def test_commands_leave_no_garbage_cycles(capsys, tmp_path):
    # with no cycles, reference counting frees all a command builds while
    # run pauses the collector, so peak memory does not grow
    a, b, bad, odd = (tmp_path / n for n in ("a.cx", "b.cx", "bad.cx", "odd.cx"))
    a.write_text((DATA / "fig1.cx").read_text())
    b.write_text("gen a 0 0\ngen b 1 1\ngen e 0 0\nd b = 1 a\n")
    bad.write_text("gen a 0 0\ngen b 1 1\nd b = U^1 a\n")
    odd.write_text("gen a 0 0\ngen b 0 0\n")
    cases = {
        0: [["validate", a], ["reduce", a], ["tensor", a, b], ["dual", a], ["std", "1,-2,2,-1"],
            ["rep", a], ["rep", "--expr", "T(3,4)"], ["inv", a, "--json"],
            ["inv", "--expr", "Cable(D;2,3) - T(2,3)"], ["cmp", a, b], ["shift", "1", "1,-2"],
            ["alex", "torus", "3", "4"], ["alex", "cable", "2", "3", "t^2-t+1"], ["lspace", "t^2-t+1"]],
        1: [["validate", bad], ["rep", tmp_path / "missing.cx"], ["rep", odd], ["std", "1,x"],
            ["inv", "--expr", "T(700,9999)"], ["inv", "--expr", "T(2,3"], ["lspace", "t^3"]],
        # Usage errors that argparse reports ("frobnicate", "--help") are left
        # out: argparse builds a few cycles of its own there (6 objects, 25
        # for --help) on every such run, before any complex exists.
        2: [["rep"]],
    }
    was = gc.isenabled()
    gc.disable()
    try:
        for code, argvs in cases.items():
            for argv in argvs:
                argv = [str(x) for x in argv]
                run(argv)  # warm-up: fills the parser and regex caches
                gc.collect()
                assert run(argv) == code, argv
                assert gc.collect() == 0, argv
    finally:
        if was:
            gc.enable()
    out_of(capsys)


def test_fig2_file_rep(capsys):
    assert run(["rep", str(DATA / "fig2.cx")]) == 0
    out, _ = out_of(capsys)
    assert out.strip() == ""


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "knotcalc.cli", "inv", "--expr", "T(2,3)", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tau"] == 1


def test_import_adds_no_dataclasses_or_fractions():
    # start-up time is import time; the CLI needs none of these
    import subprocess
    import sys

    code = ("import sys; before = set(sys.modules); import knotcalc.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} - before & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# --- fuzzing every subcommand ----------------------------------------------

_PARAMS = st.lists(st.integers(-4, 4), max_size=6).map(lambda p: ",".join(map(str, p)))
_ATOM = st.one_of(
    st.sampled_from(["D", "T(2,3)", "T(3,4)", "Thin(2)", "Thin(-1)", "Std()"]),
    st.builds("T({},{})".format, st.integers(0, 5), st.integers(0, 5)),
    st.builds("Cable(D;{},{})".format, st.integers(0, 4), st.integers(0, 5)),
    _PARAMS.map("Std({})".format),
)
_EXPR = st.one_of(
    st.builds("{} {} {}".format, _ATOM, st.sampled_from("+-"), _ATOM),
    st.builds("{}*{}".format, st.integers(0, 3), _ATOM),
    # a prefix of a recipe, as a mistyped one is often cut short
    st.tuples(_ATOM, st.integers(0, 12)).map(lambda t: t[0][: t[1]]),
)
_FILE = st.sampled_from(["a.cx", "b.cx", "missing.cx"])
_INT = st.integers(-3, 9).map(str)
_POLY = st.sampled_from(["t^2-t+1", "t^4-t^3+t^2-t+1", "1", "t^2 - t +", "2t+1", "t^3-t+1"])
_OUT = st.sampled_from([[], ["-o", "out.cx"]])
_FILE_OR_EXPR = st.one_of(_FILE.map(lambda f: [f]), _EXPR.map(lambda e: ["--expr", e]))
# each command's arguments in their usual shape, so that most runs get past
# the argument parser
_ARGS = {
    "validate": _FILE.map(lambda f: [f]),
    "reduce": st.builds(lambda f, o: [f, *o], _FILE, _OUT),
    "dual": st.builds(lambda f, o: [f, *o], _FILE, _OUT),
    "tensor": st.builds(lambda a, b, o: [a, b, *o], _FILE, _FILE, _OUT),
    "std": st.builds(lambda p, o: [p, *o], _PARAMS, _OUT),
    "rep": _FILE_OR_EXPR,
    "inv": st.builds(lambda a, j: a + j, _FILE_OR_EXPR, st.sampled_from([[], ["--json"]])),
    "cmp": st.builds(lambda a, b: [a, b], _FILE, _FILE),
    "shift": st.builds(lambda m, p, f: [m, p, *f], _INT, _PARAMS,
                       st.sampled_from([[], ["--u"], ["--v"], ["--u", "--v"]])),
    "alex": st.one_of(st.builds(lambda p, q: ["torus", p, q], _INT, _INT),
                      st.builds(lambda p, q, f: ["cable", p, q, f], _INT, _INT, _POLY)),
    "lspace": _POLY.map(lambda f: [f]),
}
# stray arguments: any of the above, or short random text with no path
# separator, so that "-o" followed by it writes inside the working directory
_TOKEN = st.one_of(
    st.sampled_from(sorted(_ARGS) + ["torus", "a.cx", "--json", "--expr", "-o"]),
    _INT, _PARAMS, _EXPR, _POLY,
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/\\"), max_size=6),
)
_ARGV = st.sampled_from(sorted(_ARGS)).flatmap(
    lambda c: st.builds(lambda args, extra: [c, *args, *extra], _ARGS[c],
                        st.one_of(st.just([]), st.lists(_TOKEN, min_size=1, max_size=2)))
)


@st.composite
def _complex_text(draw):
    """A standard complex's file, edited by dropping or repeating lines, or
    lines drawn from the file grammar with small names and gradings."""
    if draw(st.booleans()):
        lines = serialize_complex(build_standard(draw(st.sampled_from(
            [(), (1, -1), (2, -1, 1, -2), (1, -2, 2, -1)])))).splitlines()
        for k in draw(st.lists(st.integers(0, 20), max_size=2)):
            if lines:
                i = k % len(lines)
                lines[i:i + 1] = [] if k % 2 else [lines[i]] * 2
    else:
        name = st.sampled_from("abcd")
        gen = st.builds("gen {} {} {}".format, name, st.integers(-3, 3), st.integers(-3, 3))
        term = st.builds("{} {}".format, st.sampled_from(["1", "U^1", "V^1", "U^2", "V^0"]), name)
        arrow = st.builds("d {} = {}".format, name, st.lists(term, min_size=1, max_size=2)
                          .map(" + ".join))
        lines = draw(st.lists(st.one_of(gen, arrow), max_size=6))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=5000)
@given(_ARGV, _complex_text(), _complex_text())
def test_every_command_exits_0_1_or_2_without_a_traceback(argv, a, b):
    with tempfile.TemporaryDirectory() as tmp:
        # relative paths, -o included, resolve in the temporary directory
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            Path("a.cx").write_text(a, encoding="utf-8")
            Path("b.cx").write_text(b, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
