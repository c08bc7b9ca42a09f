import json
from pathlib import Path

from knotcalc.cli import run

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


def test_oversized_recipe_is_refused(capsys):
    # the factor sizes are multiplied before anything is built, so this
    # returns at once instead of tensoring a million trefoils
    for command in ("inv", "rep"):
        assert run([command, "--expr", "1000000*T(2,3)"]) == 1
        out, err = out_of(capsys)
        assert out == ""
        assert err.strip() == (
            "error: recipe needs at least 19683 generators, over the limit of 10000"
        )


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["alex"]) == 2


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
